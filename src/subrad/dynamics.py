"""Exact propagation on the two Tavis-Cummings ladders the protocol reaches.

The protocol excites one control atom and reads only the control amplitude
and the symmetric state of the other N-1 atoms.  H, the initial state and
the phase gate commute with the total spin and with permutations of those
atoms, so the exact dynamics stays on two Tavis-Cummings ladders: total
spin j = N/2 and j = N/2 - 1 of the control atom with the symmetric state
of the others.  With lo = N/2 - j, rung e of a ladder holds e excited
atoms (lo <= e <= N - lo) and, in excitation block M, n = M - e photons
with 0 <= n <= n_max, so a block holds at most 2N amplitudes against up
to 2^N product states.  H is real symmetric and tridiagonal on a ladder:

    <e,n|H|e,n>          = omega_a (e - N/2) + omega_c n,
    <e-1,n+1|H|e,n>      = g sqrt(n+1) sqrt((e - lo)(N - lo - e + 1)).

Rung 1 holds |S> = (|1,0> + sqrt(N-1) |0,1>) / sqrt(N) on the symmetric
ladder and the dark target |D> = (sqrt(N-1) |1,0> - |0,1>) / sqrt(N) on
the other, where |c,k> has the control atom's bit c and k of the other
atoms excited, symmetrized.  On rung e the control-excited state |1,e-1>
is sqrt(e/N) on the symmetric ladder plus sqrt((N-e)/N) on the other.
Block M is diagonalized without its constant omega_c M - omega_a N/2, which
multiplies exp(-iHt) only as a phase; this keeps the eigenvalues on the
scale of delta, so rounding of w t spoils no relative phase even in the
laboratory frame, where omega_a exceeds delta by orders of magnitude.  A
whole time grid is evaluated as V (exp(-i w t') * (V' psi)), as many times
per product as AMPLITUDE_BUDGET amplitudes hold.  The spectrum of a whole
product block is the union of the ladders of every total spin j, each
repeated dicke_multiplicity(N, j) times.  A ladder is an irreducible
tridiagonal matrix, so its eigenvalues never cross as g grows from 0: the
r-th smallest one belongs to the rung of the r-th smallest diagonal entry,
which names its slow-model level.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .model import FrozenRecord, SystemParams

NORM_TOL = 1e-10
PHASE_TOL = 1e-6  # radians of rounding in the phases w t that a grid may carry
RECONSTRUCTION_TOL = 1e-10
AMPLITUDE_BUDGET = 1 << 16  # amplitudes per product, 1 MiB of complex128

TRAJECTORY_COLUMNS = (
    "t_seconds",
    "p_control",
    "p_single_offcontrol",
    "p_symmetric",
    "p_subradiant",
    "jpjm",
    "norm_error",
)


class EigensolverError(RuntimeError):
    """Per-block diagonalization failed or did not reproduce the block."""


def dicke_multiplicity(n_atoms: int, j: float) -> int:
    """Number of inequivalent collective-spin-j ladders for N spin-1/2 atoms."""
    two_j = round(2 * j)
    if two_j < 0 or two_j > n_atoms or (n_atoms - two_j) % 2:
        return 0
    k = (n_atoms - two_j) // 2
    return math.comb(n_atoms, k) - (math.comb(n_atoms, k - 1) if k >= 1 else 0)


class Block(FrozenRecord):
    """One excitation block as its two ladders, with their eigendecompositions.

    Amplitudes run over the symmetric ladder's rungs, then the other's.
    Instances compare and hash by identity: they hold arrays.
    """

    __slots__ = (
        "params",
        "rungs",  # excited atoms e of each amplitude
        "ladder",  # N/2 - j of each amplitude: 0 symmetric, 1 the other
        "control_share",  # overlap of each amplitude's state with |1, e-1> on its rung
        "offset",  # omega_c M - omega_a N/2, left out of the eigenvalues
        "eigenvalues",
        "eigenvectors",  # real orthonormal columns, block diagonal by ladder
    )

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def rung_one(self, amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Amplitudes on |S> and |D> of amplitudes of shape (..., dim); zero where absent."""
        s, d = ((self.rungs == 1) & (self.ladder == lo) for lo in (0, 1))
        return amps[..., s].sum(-1), amps[..., d].sum(-1)


def _ladder(params: SystemParams, lo: int, m_total: int, n_max: int, g: float, diagonal):
    """Rungs e and tridiagonal H of ladder j = N/2 - lo in block M.

    `diagonal(e, n)` gives H on e excited atoms and n photons.
    """
    if n_max < 0:
        raise ValueError(f"Fock truncation must be >= 0, got {n_max}")
    nn = params.n_atoms
    e = np.arange(max(lo, m_total - n_max), min(nn - lo, m_total) + 1)
    n = m_total - e
    h = np.diag(diagonal(e, n))
    # <e-1, n+1| a' J- |e, n> = sqrt(n+1) sqrt((e - lo)(nn - lo - e + 1)), just off the diagonal
    coupling = g * np.sqrt((n[1:] + 1) * (e[1:] - lo) * (nn - lo - e[1:] + 1))
    h.flat[1 :: e.size + 1] = h.flat[e.size :: e.size + 1] = coupling
    return e, h


def _eigh(h: np.ndarray, m_total: int) -> tuple[np.ndarray, np.ndarray]:
    """eigh of ladder h in block M, refused unless V diag(w) V' gives h back."""
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigendecomposition failed on block {m_total}") from exc
    resid, scale = (math.sqrt(np.vdot(x, x)) for x in ((v * w) @ v.T - h, h))  # Frobenius norms
    if not resid <= RECONSTRUCTION_TOL * max(scale, 1.0) < math.inf:  # NaN and overflow fail
        raise EigensolverError(
            f"block {m_total}: reconstruction error {resid:.3e} above "
            f"{RECONSTRUCTION_TOL:.0e} * {scale:.3e}"
        )
    return w, v


def compile_propagator(params: SystemParams, m_total: int, n_max: int) -> Block:
    """Build and diagonalize H on excitation block M, one ladder at a time."""
    detuning = params.omega_a - params.omega_c
    ladders = [
        _ladder(params, lo, m_total, n_max, params.g, lambda e, n: detuning * e) for lo in (0, 1)
    ]
    # the second ladder has no rung in block 0, nor at all for N = 1
    pairs = [_eigh(h, m_total) for _, h in ladders if h.size]
    rungs = np.concatenate([e for e, _ in ladders])
    ladder = np.repeat([0, 1], [e.size for e, _ in ladders])
    v = np.zeros((rungs.size, rungs.size))
    for (_, part), i in zip(pairs, (0, ladders[0][0].size)):
        v[i : i + len(part), i : i + len(part)] = part
    nn = params.n_atoms
    return Block(
        params=params,
        rungs=rungs,
        ladder=ladder,
        control_share=np.sqrt(np.where(ladder == 0, rungs, nn - rungs) / nn),
        offset=params.omega_c * m_total - params.omega_a * nn / 2.0,
        eigenvalues=np.concatenate([w for w, _ in pairs]),
        eigenvectors=v,
    )


def evolve_grid(block: Block, psi: np.ndarray, times) -> Iterator[np.ndarray]:
    """exp(-iHt) psi at every time of a grid: V (exp(-i w t') * (V' psi)) exp(-i offset t).

    The grid is cut into the fewest products of at most AMPLITUDE_BUDGET
    amplitudes (one time each where a state alone exceeds it) whose lengths
    differ by at most one, so that no product holds a single time where the
    budget holds three; yields arrays of shape (product length, dim).  Before
    the first product, the grid is refused at its first time whose phase
    rounding, about eps |w| |t|, exceeds PHASE_TOL.  Every evolved state must
    stay normalized.
    """
    v = block.eigenvectors
    coeffs = v.T @ psi
    times = np.asarray(times, dtype=float)
    rounding = np.finfo(float).eps * np.max(np.abs(block.eigenvalues), initial=0.0) * np.abs(times)
    # a time of inf leaves no state at all, which the norm check names
    for i in np.flatnonzero((rounding > PHASE_TOL) & (rounding < math.inf))[:1]:
        msg = f"phase rounding {rounding[i]:.3e} rad at t = {times[i]:.3e} s exceeds {PHASE_TOL}"
        raise ValueError(msg)
    step = max(1, AMPLITUDE_BUDGET // len(coeffs))
    count = -(-len(times) // step)
    for k in range(count):
        t = times[k * len(times) // count : (k + 1) * len(times) // count, None]
        amps = (np.exp(-1j * block.eigenvalues * t) * coeffs) @ v.T
        amps *= np.exp(-1j * block.offset * t)
        norms = np.linalg.norm(amps, axis=-1)
        off = ~(np.abs(norms - 1.0) <= NORM_TOL)  # NaN norms fail
        if np.any(off):
            raise ValueError(f"state norm {norms[off][0]} deviates from 1 beyond {NORM_TOL}")
        yield amps


def evolve(block: Block, psi: np.ndarray, t: float) -> np.ndarray:
    """exp(-iHt) psi; t may be negative."""
    (amps,) = evolve_grid(block, psi, [t])
    return amps[0]


def single_excitation_pair(n_atoms: int, s, d) -> tuple:
    """psi10 and psi01 from the amplitudes s on |S> and d on |D> (`Block.rung_one`)."""
    root = math.sqrt(n_atoms - 1)
    return (s + root * d) / math.sqrt(n_atoms), (root * s - d) / math.sqrt(n_atoms)


def readouts(block: Block, amps: np.ndarray) -> np.ndarray:
    """TRAJECTORY_COLUMNS[1:] of amplitudes of shape (..., dim), along a new last axis.

    p_symmetric and p_subradiant are the weights on |S> and |D>, and jpjm is
    <J+J-> with J- = sqrt((e - lo)(N - lo - e + 1)) on rung e of ladder lo.
    """
    nn = block.params.n_atoms
    s, d = block.rung_one(amps)
    weights = [np.abs(x) ** 2 for x in (*single_excitation_pair(nn, s, d), s, d)]
    lowered = (block.rungs - block.ladder) * (nn - block.ladder - block.rungs + 1)
    jpjm = (np.abs(amps) ** 2 * lowered).sum(-1)
    norm_error = np.abs(np.linalg.norm(amps, axis=-1) - 1.0)
    return np.stack([*weights, jpjm, norm_error], axis=-1)


def default_trajectory_times(params: SystemParams, points: int) -> np.ndarray:
    """Uniform grid over one slow period [0, 2 pi / alpha]."""
    return np.linspace(0.0, 2.0 * np.pi / abs(params.alpha), points)


def spectrum(
    params: SystemParams, m_total: int, n_max: int, h0_only: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues of product block M, ascending, one per ladder eigenvalue.

    Each total spin j contributes the Tavis-Cummings ladder over
    e = N/2 - j .. N/2 + j excited atoms with n = M - e photons in
    [0, n_max].  Returns four arrays: the eigenvalues, the rung e that each
    one's rank connects to, its ladder lo = N/2 - j, and the multiplicity
    dicke_multiplicity(N, j) of that ladder in the block.  Equal eigenvalues
    keep ladder order.  `h0_only` drops the coupling.
    """
    nn = params.n_atoms
    g = 0.0 if h0_only else params.g
    parts = []
    for lo in range(nn // 2 + 1):
        e, h = _ladder(
            params, lo, m_total, n_max, g,
            lambda e, n: params.omega_a * (e - nn / 2.0) + params.omega_c * n,
        )
        if e.size == 0:  # and so is every ladder above it
            break
        parts.append(
            (
                np.linalg.eigvalsh(h),
                e[np.argsort(np.diag(h), kind="stable")],
                np.full(e.size, lo),
                np.full(e.size, dicke_multiplicity(nn, nn / 2.0 - lo)),
            )
        )
    values, rungs, ladders, counts = (np.concatenate(column) for column in zip(*parts))
    order = np.argsort(values, kind="stable")
    return values[order], rungs[order], ladders[order], counts[order]
