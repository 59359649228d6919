"""Exact unitary propagation via per-block Hermitian eigendecomposition.

One eigendecomposition per excitation block turns time evolution into
matrix products: a whole time grid is evaluated block by block as
V (exp(-i w t') * (V' psi)), a fixed number of times per product.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .hilbert import (
    NORM_TOL,
    AtomFieldBasis,
    PureState,
    batched_vdot,
    symmetric_atomic_vector,
)
from .model import (
    BlockDiagonalOperator,
    BlockShiftOperator,
    SystemParams,
    build_hamiltonian,
    collective_operator,
    h0_diagonal,
)

RECONSTRUCTION_TOL = 1e-10
TIME_CHUNK = 64  # times per product; a chunk holds this many copies of the state


class EigensolverError(RuntimeError):
    """Per-block diagonalization failed or did not reproduce the block."""


def _fix_phases(vecs: np.ndarray) -> np.ndarray:
    """Make each eigenvector's largest-magnitude component real positive."""
    out = vecs.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        i = int(np.argmax(np.abs(col)))
        ph = col[i]
        if ph != 0:
            out[:, j] = col * (abs(ph) / ph)
    return out


@dataclass
class Propagator:
    """Compiled spectral data of H on a set of excitation blocks."""

    params: SystemParams
    basis: AtomFieldBasis
    eigenvalues: dict[int, np.ndarray] = field(default_factory=dict)
    eigenvectors: dict[int, np.ndarray] = field(default_factory=dict)


def compile_propagator(
    params: SystemParams,
    basis: AtomFieldBasis,
    block_ids=None,
    hamiltonian: BlockDiagonalOperator | None = None,
) -> Propagator:
    """Diagonalize H block by block with a deterministic phase convention."""
    wanted = basis.block_ids if block_ids is None else sorted(block_ids)
    h = hamiltonian if hamiltonian is not None else build_hamiltonian(params, basis, wanted)
    vals: dict[int, np.ndarray] = {}
    vecs: dict[int, np.ndarray] = {}
    for m in wanted:
        a = h.block(m)
        try:
            w, v = np.linalg.eigh(a)
        except np.linalg.LinAlgError as exc:
            raise EigensolverError(f"eigendecomposition failed on block {m}") from exc
        v = _fix_phases(v)
        resid = np.linalg.norm((v * w) @ v.conj().T - a)
        scale = np.linalg.norm(a)
        if resid > RECONSTRUCTION_TOL * max(scale, 1.0):
            raise EigensolverError(
                f"block {m}: reconstruction error {resid:.3e} above "
                f"{RECONSTRUCTION_TOL:.0e} * {scale:.3e}"
            )
        vals[m] = w
        vecs[m] = v
    return Propagator(params=params, basis=basis, eigenvalues=vals, eigenvectors=vecs)


def _norms(block_amps: dict[int, np.ndarray]) -> np.ndarray:
    return np.sqrt(sum(batched_vdot(v, v).real for v in block_amps.values()))


def evolve_grid(
    prop: Propagator, state: PureState, times
) -> Iterator[dict[int, np.ndarray]]:
    """Propagate |psi> by exp(-iHt) to every time of a grid.

    Yields one dict per chunk of at most TIME_CHUNK consecutive times,
    mapping each block m to amplitudes of shape (chunk length, dim_m).
    Every evolved state is checked to stay normalized.
    """
    coeffs = {}
    for m, v in state.block_amps.items():
        if m not in prop.eigenvalues:
            raise KeyError(f"propagator not compiled for excitation block {m}")
        coeffs[m] = prop.eigenvectors[m].conj().T @ v
    times = np.asarray(times, dtype=float)
    for start in range(0, len(times), TIME_CHUNK):
        t = times[start : start + TIME_CHUNK, None]
        out = {
            m: (np.exp(-1j * prop.eigenvalues[m] * t) * c) @ prop.eigenvectors[m].T
            for m, c in coeffs.items()
        }
        norms = _norms(out)
        off = np.abs(norms - 1.0) > NORM_TOL
        if np.any(off):
            raise ValueError(f"state norm {norms[off][0]} deviates from 1 beyond {NORM_TOL}")
        yield out


def evolve(
    prop: Propagator,
    state: PureState,
    t: float,
    interaction_picture: bool = False,
) -> PureState:
    """Propagate |psi> by exp(-iHt) block by block; t may be negative.

    With interaction_picture=True the free phases exp(+i H0 t) are applied
    afterwards, which strips the fast rotation and leaves only the slow
    interaction-induced motion.
    """
    (amps,) = evolve_grid(prop, state, [t])
    out = {m: w[0] for m, w in amps.items()}
    if interaction_picture:
        h0 = {m: h0_diagonal(prop.params, prop.basis, m) for m in out}
        out = {m: np.exp(1j * h0[m] * t) * w for m, w in out.items()}
    return PureState(state.basis, out)


def expectation(state: PureState, op) -> float | complex:
    """<psi|O|psi>; real (checked) for Hermitian block-diagonal operators."""
    if isinstance(op, BlockDiagonalOperator):
        return op.expectation(state)
    if isinstance(op, BlockShiftOperator):
        return state.inner(op.apply(state))
    raise TypeError(f"unsupported operator type {type(op).__name__}")


# ---------------------------------------------------------------------------
# Reduced atomic state
# ---------------------------------------------------------------------------

REDUCE_ATOMIC_MAX_CONFIGS = 4096  # 12 atoms; the Gram matrix is dense


@dataclass
class AtomicDensity:
    """Reduced atomic density matrix over the 2^N product configurations."""

    matrix: np.ndarray
    n_atoms: int

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def purity(self) -> float:
        return float(np.linalg.norm(self.matrix) ** 2)

    def hermiticity_error(self) -> float:
        nrm = np.linalg.norm(self.matrix)
        if nrm == 0.0:
            return 0.0
        return float(np.linalg.norm(self.matrix - self.matrix.conj().T) / nrm)

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix)[0])

    def projected_weight(self, atomic_vector: np.ndarray) -> float:
        """<v| rho |v> for a dense vector over the 2^N configurations."""
        v = np.asarray(atomic_vector, dtype=complex)
        return float(np.vdot(v, self.matrix @ v).real)


def reduce_atomic(state: PureState) -> AtomicDensity:
    """Partial trace over the field mode."""
    basis = state.basis
    n_configs = 1 << basis.n_atoms
    if n_configs > REDUCE_ATOMIC_MAX_CONFIGS:
        raise ValueError(
            f"refusing to build a {n_configs}x{n_configs} atomic density "
            f"(N={basis.n_atoms}); use sector-resolved overlaps instead"
        )
    # Columns indexed by photon number: rho = A A' marginalizes the field.
    a = np.zeros((n_configs, basis.n_max + 1), dtype=complex)
    for m, v in state.block_amps.items():
        for local, (code, n) in enumerate(basis.block(m).states):
            a[code, n] += v[local]
    return AtomicDensity(matrix=a @ a.conj().T, n_atoms=basis.n_atoms)


# ---------------------------------------------------------------------------
# Field-marginalized readouts of the single-excitation table
# ---------------------------------------------------------------------------


def single_excitation_table(
    basis: AtomFieldBasis, block_amps: dict[int, np.ndarray]
) -> np.ndarray:
    """Amplitudes A[..., n, k] on "only atom k excited, n photons".

    `block_amps` holds one state (vectors of shape (dim,)) or a time grid
    (arrays of shape (T, dim)); the table has shape (..., n_max+1, N).
    """
    lead = next(iter(block_amps.values())).shape[:-1]
    table = np.zeros(lead + (basis.n_max + 1, basis.n_atoms), dtype=complex)
    for m, idx in basis.single_excitation_index.items():
        if m in block_amps:
            table[..., m - 1, :] = block_amps[m][..., idx]
    return table


def _state_table(state: PureState, n_photons: int | None) -> np.ndarray:
    """The state's table, or only its row for one Fock level."""
    table = single_excitation_table(state.basis, state.block_amps)
    if n_photons is None:
        return table
    if not 0 <= n_photons <= state.basis.n_max:
        raise ValueError(f"photon number {n_photons} outside 0..{state.basis.n_max}")
    return table[n_photons : n_photons + 1]


def _projected_weight(table: np.ndarray, atomic_vector: np.ndarray) -> np.ndarray:
    """Sum over Fock levels of |<v (x) n | psi>|^2."""
    return np.sum(np.abs(batched_vdot(atomic_vector, table)) ** 2, axis=-1)


def marginal_projected_weight(
    state: PureState, atomic_vector: np.ndarray, n_photons: int | None = None
) -> float:
    """Sum over Fock levels of |<v (x) n | psi>|^2 for a single-excitation v.

    Equals <v| rho_atoms |v> with the field traced out; restricting
    n_photons conditions on one Fock level instead.
    """
    return float(_projected_weight(_state_table(state, n_photons), atomic_vector))


def dark_weight(state: PureState, n_photons: int | None = None) -> float:
    """Weight on the dark complement of the symmetric vector s: |A|^2 - |A s|^2."""
    return float(_sector_columns(_state_table(state, n_photons))["p_subradiant"])


def _sector_columns(table: np.ndarray) -> dict[str, np.ndarray]:
    per_atom = np.sum(np.abs(table) ** 2, axis=-2)  # the control atom is atom 0
    single = np.sum(per_atom, axis=-1)
    sym = _projected_weight(table, symmetric_atomic_vector(table.shape[-1]))
    return {
        "p_control": per_atom[..., 0],
        "p_single_offcontrol": np.sum(per_atom[..., 1:], axis=-1),
        "p_symmetric": sym,
        "p_subradiant": single - sym,
    }


def sector_weights(state: PureState) -> dict[str, float]:
    """Field-marginalized weights used by the trajectory report."""
    return {k: float(v) for k, v in _sector_columns(_state_table(state, None)).items()}


TRAJECTORY_COLUMNS = (
    "t_seconds",
    "p_control",
    "p_single_offcontrol",
    "p_symmetric",
    "p_subradiant",
    "jpjm",
    "norm_error",
)


def trajectory_rows(
    prop: Propagator, state0: PureState, times: np.ndarray
) -> list[dict[str, float]]:
    """Sample populations, dark-sector weight and <J+J-> along exp(-iHt)."""
    jpjm = collective_operator(prop.basis, "J+J-", block_ids=list(state0.block_amps))
    times = np.asarray(times, dtype=float)
    values = [np.empty((0, len(TRAJECTORY_COLUMNS) - 1))]
    for amps in evolve_grid(prop, state0, times):
        cols = _sector_columns(single_excitation_table(prop.basis, amps))
        cols["jpjm"] = jpjm.expectations(amps)
        cols["norm_error"] = np.abs(_norms(amps) - 1.0)
        values.append(np.column_stack([cols[c] for c in TRAJECTORY_COLUMNS[1:]]))
    table = np.column_stack([times, np.concatenate(values)]).tolist()
    return [dict(zip(TRAJECTORY_COLUMNS, row)) for row in table]


def default_trajectory_times(params: SystemParams, points: int = 400) -> np.ndarray:
    """Uniform grid over one slow period [0, 2 pi / alpha]."""
    return np.linspace(0.0, 2.0 * np.pi / abs(params.alpha), points)
