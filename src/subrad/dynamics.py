"""Exact propagation on the permutation-reduced basis |c, k, n>.

The protocol excites one control atom and reads only the control amplitude
and the symmetric state of the other N-1 atoms.  H, the initial state and
the phase gate all commute with permutations of those atoms, so the exact
dynamics stays in the span of |c, k, n>: c is the control atom's bit, k the
symmetric Dicke level of the other atoms (k of them excited) and n the
photon number (Shammah et al., PRA 98, 063815 (2018)).  Excitation block M
(c + k + n = M, 0 <= n <= n_max) holds at most 2N of these states, against
up to 2^N product states.  H is real symmetric on a block:

    <c,k,n|H|c,k,n>      = omega_a (c + k - N/2) + omega_c n,
    <0,k,n+1|H|1,k,n>    = g sqrt(n+1),
    <c,k-1,n+1|H|c,k,n>  = g sqrt(n+1) sqrt(k (N-k)),

with no coupling past the Fock cutoff.  Block M is diagonalized without
its constant omega_c M - omega_a N/2, which multiplies exp(-iHt) only as a
phase; this keeps the eigenvalues on the scale of delta, so rounding of
w t spoils no relative phase even in the laboratory frame, where omega_a
exceeds delta by orders of magnitude.  A whole time grid is evaluated as
V (exp(-i w t') * (V' psi)), a fixed number of times per product.  Every
single-excitation readout needs only psi10 = psi(1,0,M-1) and
psi01 = psi(0,1,M-1): the control atom carries psi10 and each other atom
psi01 / sqrt(N-1).  The spectrum of a whole product block is the union of
Tavis-Cummings ladders, one per total spin j, each repeated
dicke_multiplicity(N, j) times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .model import SystemParams

NORM_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-10
TIME_CHUNK = 64  # times per product; a chunk holds this many copies of the state

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


@dataclass(frozen=True, eq=False)
class Block:
    """One excitation block of the |c, k, n> basis with its eigendecomposition."""

    params: SystemParams
    m_total: int
    states: np.ndarray  # (dim, 3) integer rows (c, k, n)
    offset: float  # omega_c M - omega_a N/2, left out of the eigenvalues
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # real orthonormal columns
    lowering: np.ndarray  # J- into block M-1, rows c' N + k'

    def index(self, c: int, k: int, n: int) -> int | None:
        """Position of |c, k, n> in the block, None if the block lacks it."""
        hit = np.flatnonzero((self.states == (c, k, n)).all(axis=1))
        return int(hit[0]) if hit.size else None

    def unit_state(self, c: int, k: int, n: int) -> np.ndarray:
        i = self.index(c, k, n)
        if i is None:
            raise ValueError(f"|{c},{k},{n}> is not in block M={self.m_total}")
        psi = np.zeros(len(self.states))
        psi[i] = 1.0
        return psi


def _states(n_atoms: int, m_total: int, n_max: int) -> np.ndarray:
    """Rows (c, k, n) of block M, c = 0 first, k ascending."""
    if n_max < 0:
        raise ValueError(f"Fock truncation must be >= 0, got {n_max}")
    rows = [
        (c, k, m_total - c - k)
        for c in (0, 1)
        for k in range(n_atoms)
        if 0 <= m_total - c - k <= n_max
    ]
    return np.array(rows, dtype=int).reshape(-1, 3)


def _hamiltonian(params: SystemParams, states: np.ndarray, n_max: int) -> np.ndarray:
    """H minus `Block.offset`, whose diagonal is then -delta (c + k)."""
    nn = params.n_atoms
    c, k, _ = states.T
    h = np.diag((params.omega_a - params.omega_c) * (c + k))
    row = {(ci, ki): i for i, (ci, ki, _) in enumerate(states.tolist())}
    for j, (ci, ki, ni) in enumerate(states.tolist()):
        if ni + 1 > n_max:
            continue
        amp = params.g * math.sqrt(ni + 1)
        if ci == 1:  # a' sigma-(control)
            h[row[0, ki], j] = h[j, row[0, ki]] = amp
        if ki >= 1:  # a' J-(others)
            i = row[ci, ki - 1]
            h[i, j] = h[j, i] = amp * math.sqrt(ki * (nn - ki))
    return h


def _lowering(n_atoms: int, states: np.ndarray) -> np.ndarray:
    """J- = sigma-(control) + J-(others) as a map into block M-1.

    Row c' N + k' holds the target |c', k', n>; n is fixed by the block.
    """
    c, k, _ = states.T
    cols = np.arange(len(states))
    out = np.zeros((2 * n_atoms, len(states)))
    ctrl = c == 1
    out[k[ctrl], cols[ctrl]] = 1.0
    oth = k >= 1
    out[c[oth] * n_atoms + k[oth] - 1, cols[oth]] = np.sqrt(k[oth] * (n_atoms - k[oth]))
    return out


def _eigh(h: np.ndarray, m_total: int) -> tuple[np.ndarray, np.ndarray]:
    """eigh with each eigenvector's largest-magnitude entry made positive."""
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigendecomposition failed on block {m_total}") from exc
    top = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    v = v * np.where(top < 0, -1.0, 1.0)
    resid = np.linalg.norm((v * w) @ v.T - h)
    scale = np.linalg.norm(h)
    if resid > RECONSTRUCTION_TOL * max(scale, 1.0):
        raise EigensolverError(
            f"block {m_total}: reconstruction error {resid:.3e} above "
            f"{RECONSTRUCTION_TOL:.0e} * {scale:.3e}"
        )
    return w, v


def compile_propagator(params: SystemParams, m_total: int, n_max: int) -> Block:
    """Build and diagonalize H on excitation block M of the |c, k, n> basis."""
    states = _states(params.n_atoms, m_total, n_max)
    w, v = _eigh(_hamiltonian(params, states, n_max), m_total)
    return Block(
        params=params,
        m_total=m_total,
        states=states,
        offset=params.omega_c * m_total - params.omega_a * params.n_atoms / 2.0,
        eigenvalues=w,
        eigenvectors=v,
        lowering=_lowering(params.n_atoms, states),
    )


def evolve_grid(block: Block, psi: np.ndarray, times) -> Iterator[np.ndarray]:
    """exp(-iHt) psi at every time of a grid: V (exp(-i w t') * (V' psi)) exp(-i offset t).

    Yields arrays of shape (chunk length, dim), at most TIME_CHUNK times per
    product.  Every evolved state is checked to stay normalized.
    """
    v = block.eigenvectors
    coeffs = v.T @ psi
    times = np.asarray(times, dtype=float)
    for start in range(0, len(times), TIME_CHUNK):
        t = times[start : start + TIME_CHUNK, None]
        amps = (np.exp(-1j * block.eigenvalues * t) * coeffs) @ v.T
        amps *= np.exp(-1j * block.offset * t)
        norms = np.linalg.norm(amps, axis=-1)
        off = np.abs(norms - 1.0) > NORM_TOL
        if np.any(off):
            raise ValueError(f"state norm {norms[off][0]} deviates from 1 beyond {NORM_TOL}")
        yield amps


def evolve(block: Block, psi: np.ndarray, t: float) -> np.ndarray:
    """exp(-iHt) psi; t may be negative."""
    (amps,) = evolve_grid(block, psi, [t])
    return amps[0]


def single_excitation_pair(block: Block, amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """psi10 and psi01 of amplitudes of shape (..., dim); zero where absent."""
    n = block.m_total - 1
    out = []
    for c, k in ((1, 0), (0, 1)):
        i = block.index(c, k, n)
        out.append(amps[..., i] if i is not None else np.zeros(amps.shape[:-1], complex))
    return out[0], out[1]


def readouts(block: Block, amps: np.ndarray) -> dict[str, np.ndarray]:
    """TRAJECTORY_COLUMNS[1:] of amplitudes of shape (..., dim).

    p_subradiant is the dark weight |psi10|^2 + |psi01|^2 - p_symmetric, and
    jpjm is <J+J-> = |J- psi|^2.
    """
    nn = block.params.n_atoms
    psi10, psi01 = single_excitation_pair(block, amps)
    p10, p01 = np.abs(psi10) ** 2, np.abs(psi01) ** 2
    sym = np.abs(psi10 + math.sqrt(nn - 1) * psi01) ** 2 / nn
    return {
        "p_control": p10,
        "p_single_offcontrol": p01,
        "p_symmetric": sym,
        "p_subradiant": p10 + p01 - sym,
        "jpjm": np.sum(np.abs(amps @ block.lowering.T) ** 2, axis=-1),
        "norm_error": np.abs(np.linalg.norm(amps, axis=-1) - 1.0),
    }


def default_trajectory_times(params: SystemParams, points: int = 400) -> np.ndarray:
    """Uniform grid over one slow period [0, 2 pi / alpha]."""
    return np.linspace(0.0, 2.0 * np.pi / abs(params.alpha), points)


def spectrum(params: SystemParams, m_total: int, n_max: int, h0_only: bool = False) -> np.ndarray:
    """Ascending eigenvalues of product block M, with multiplicity.

    Each total spin j contributes the Tavis-Cummings ladder over
    e = N/2 - j .. N/2 + j excited atoms with n = M - e photons in
    [0, n_max], repeated dicke_multiplicity(N, j) times.  `h0_only` drops
    the coupling.
    """
    if n_max < 0:
        raise ValueError(f"Fock truncation must be >= 0, got {n_max}")
    nn = params.n_atoms
    g = 0.0 if h0_only else params.g
    parts = []
    for two_j in range(nn % 2, nn + 1, 2):
        lo = (nn - two_j) // 2
        e = np.arange(max(lo, m_total - n_max), min(nn - lo, m_total) + 1)
        if e.size == 0:
            continue
        n = m_total - e
        h = np.diag(params.omega_a * (e - nn / 2.0) + params.omega_c * n)
        # <e-1, n+1| a' J- |e, n> = sqrt(n+1) sqrt((e - lo)(nn - lo - e + 1))
        up = e[1:]
        coupling = g * np.sqrt((n[1:] + 1) * (up - lo) * (nn - lo - up + 1))
        h[np.arange(1, e.size), np.arange(e.size - 1)] = coupling
        h[np.arange(e.size - 1), np.arange(1, e.size)] = coupling
        parts.append(np.repeat(np.linalg.eigvalsh(h), dicke_multiplicity(nn, two_j / 2)))
    return np.sort(np.concatenate(parts)) if parts else np.empty(0)
