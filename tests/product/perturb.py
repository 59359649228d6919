"""Second-order degenerate perturbation theory on the 2^N product basis.

The numerical effective matrix over one degenerate single-excitation
sector, whose spectrum `subrad.perturb.closed_form_corrections` gives in
closed form, and the exact-vs-slow coefficient comparison for any control
atom.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from subrad import perturb
from subrad.model import SystemParams

from .dynamics import Propagator, evolve_grid, single_excitation_table
from .hilbert import AtomFieldBasis, PureState, atom_code, subradiant_target_vector
from .model import build_hint, h0_diagonal

DEGENERACY_REL_TOL = 1e-9
INTERMEDIATE_GUARD = 1e-6


class AccidentalDegeneracyError(RuntimeError):
    """An intermediate free level sits too close to the sector energy."""


@dataclass(frozen=True)
class DegenerateSector:
    """The N-fold degenerate single-excitation level inside block M = n."""

    block_id: int
    e0: float  # shared free energy, rad/s
    member_local: tuple[int, ...]  # block-local indices, one per atom (atom order)
    intermediate_local: tuple[int, ...]  # remaining states of the block


def build_sector(params: SystemParams, basis: AtomFieldBasis, n: int) -> DegenerateSector:
    """Locate the degenerate single-excitation sector for photon level n-1."""
    if n < 1:
        raise ValueError(f"sector index n must be >= 1, got {n}")
    if n - 1 > basis.n_max:
        raise ValueError(f"photon level {n - 1} exceeds the truncation {basis.n_max}")
    if basis.block(n).truncated:
        raise ValueError(
            f"block M={n} is clipped by the Fock truncation (n_max={basis.n_max}); "
            "its intermediate states would be incomplete"
        )
    members = tuple(int(i) for i in basis.single_excitation_index[n])
    diag = h0_diagonal(params, basis, n)
    e0 = float(diag[members[0]])
    spread = max(abs(diag[i] - e0) for i in members)
    if spread > DEGENERACY_REL_TOL * max(abs(e0), abs(params.delta)):
        raise ValueError(f"sector members are not degenerate (spread {spread:.3e})")
    member_set = set(members)
    intermediates = tuple(i for i in range(basis.block(n).dim) if i not in member_set)
    return DegenerateSector(
        block_id=n, e0=e0, member_local=members, intermediate_local=intermediates
    )


def second_order_matrix(
    params: SystemParams, basis: AtomFieldBasis, sector: DegenerateSector
) -> np.ndarray:
    """Effective N x N matrix sum_m Hint[i,m] Hint[m,k] / (E0 - E0_m).

    The exchange coupling conserves the excitation number, so the sum over
    intermediate states is exact once restricted to the sector's block.
    """
    m = sector.block_id
    hint = build_hint(params, basis, block_ids=[m]).block(m)
    diag = h0_diagonal(params, basis, m)
    members = list(sector.member_local)
    inter = list(sector.intermediate_local)
    denom = sector.e0 - diag[inter]
    too_close = np.abs(denom) < INTERMEDIATE_GUARD * abs(params.delta)
    if np.any(too_close):
        worst = float(np.min(np.abs(denom)))
        raise AccidentalDegeneracyError(
            f"intermediate level within {worst:.3e} rad/s of the sector energy "
            f"(guard {INTERMEDIATE_GUARD:.0e} * |delta|); perturbation theory refused"
        )
    b = hint[np.ix_(inter, members)]
    eff = b.conj().T @ (b / denom[:, None])
    return (eff + eff.conj().T) / 2.0  # symmetrize away rounding


def effective_product_vector(params: SystemParams, t, control_index: int = 0) -> np.ndarray:
    """Slow-model single-excitation amplitudes from `subrad.perturb.slow_amplitudes`.

    Entry k (last axis; leading axes follow an array t) is the amplitude on
    the configuration with only atom k excited, the control atom being atom
    `control_index`; the dark component is real positive.
    """
    control, other = perturb.slow_amplitudes(params, t)
    vec = np.repeat(np.asarray(other)[..., None], params.n_atoms, axis=-1)
    vec[..., control_index] = control
    return vec


def exact_vs_effective_error(
    prop: Propagator, n: int, times: np.ndarray, control_index: int = 0
) -> float:
    """Largest coefficient deviation of the exact dynamics from the slow model.

    Starting from the control-excited product state at photon level n-1,
    the exact single-excitation amplitudes are extracted at each time,
    globally phased so the dark-target component is real positive (the
    gauge of the slow model), and compared entry by entry.  The deviation
    at each time is normalized by the largest predicted amplitude, which
    keeps the measure finite where individual coefficients pass through
    zero; the maximum over the grid is returned.
    """
    basis = prop.basis
    nn = basis.n_atoms
    if nn < 2:
        raise ValueError("comparison needs at least two atoms")
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ValueError("comparison needs at least one time")
    init = PureState.from_amplitudes(
        basis, {(atom_code(control_index, nn), n - 1): 1.0}
    )
    grid = evolve_grid(prop, init, times)
    exact = np.concatenate([single_excitation_table(basis, a)[:, n - 1] for a in grid])
    dark = exact @ subradiant_target_vector(nn, control_index)
    exact *= np.divide(np.abs(dark), dark, out=np.ones_like(dark), where=dark != 0)[:, None]
    predicted = effective_product_vector(prop.params, times, control_index)
    dev = np.max(np.abs(exact - predicted), axis=1) / np.max(np.abs(predicted), axis=1)
    return float(np.max(dev))
