"""Second-order degenerate perturbation theory for the dispersive regime.

For one atomic excitation shared with n-1 photons, the N product states
with a single excited atom are degenerate under the free Hamiltonian at

    E0(n) = n omega_c - N omega_a / 2 - delta.

First order in the exchange coupling vanishes identically, so the leading
corrections come from the second-order effective matrix summed over the
other free levels of the same excitation block.  The closed forms

    dE_1 = (g^2/delta) (N n - 2N - 2n + 2)          (symmetric state)
    dE_i = dE_1 + N g^2 / delta,   i = 2..N         (dark states)

are reproduced exactly by the numerical sum; their difference 2*alpha
with alpha = N g^2 / (2 delta) is the slow Bohr frequency that drives the
protocol and is independent of the photon number.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

# evolve is re-exported for code that imports it from this module
from .dynamics import Propagator, evolve, evolve_grid, single_excitation_table  # noqa: F401
from .hilbert import AtomFieldBasis, PureState, atom_code, subradiant_target_vector
from .model import SystemParams, build_hint, h0_diagonal

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


@dataclass(frozen=True)
class EffectiveModel:
    """Closed-form second-order corrections and the slow rate (rad/s)."""

    n_atoms: int
    n: int
    delta_e1: float
    delta_ei: float | None  # absent for a single atom
    alpha: float

    def as_report(self) -> dict:
        return {
            "delta_e1_rad_s": self.delta_e1,
            "delta_ei_rad_s": self.delta_ei,
            "alpha_per_s": self.alpha,
        }


def closed_form_corrections(params: SystemParams, n: int) -> EffectiveModel:
    """Evaluate the closed-form second-order shifts for photon level n-1."""
    if n < 1:
        raise ValueError(f"sector index n must be >= 1, got {n}")
    nn = params.n_atoms
    shift = params.g**2 / params.delta
    de1 = shift * (nn * n - 2 * nn - 2 * n + 2)
    dei = de1 + nn * shift if nn >= 2 else None
    return EffectiveModel(
        n_atoms=nn, n=n, delta_e1=de1, delta_ei=dei, alpha=params.alpha
    )


# ---------------------------------------------------------------------------
# Effective slow evolution of the two-component expansion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EffectiveCoefficients:
    """Slow-evolution coefficients at one time, or arrays over a time grid.

    (c_symmetric, c_subradiant) is the two-component form with the dark
    coefficient held real positive; (c_control, c_other) are the product
    amplitudes on the control-excited and each remaining single-excitation
    configuration, in the gauge with c_control real at t=0.  The two forms
    differ by the global phase exp(i alpha t).
    """

    c_symmetric: complex
    c_subradiant: complex
    c_control: complex
    c_other: complex


def effective_evolve(params: SystemParams, t) -> EffectiveCoefficients:
    """Slow evolution of the one-excited-atom initial state under the shifts."""
    nn = params.n_atoms
    if nn < 2:
        raise ValueError("the two-component expansion needs at least two atoms")
    at = params.alpha * np.asarray(t, dtype=float)
    return EffectiveCoefficients(
        c_symmetric=np.exp(2j * at) / sqrt(nn),
        c_subradiant=complex(sqrt((nn - 1) / nn)),
        c_control=(nn * np.cos(at) - 1j * (nn - 2) * np.sin(at)) / nn,
        c_other=2j * np.sin(at) / nn,
    )


def effective_product_vector(
    params: SystemParams, t, control_index: int = 0
) -> np.ndarray:
    """Predicted single-excitation amplitudes, dark component real positive.

    Entry k (last axis; leading axes follow an array t) is the amplitude on
    the configuration with only atom k excited; the gauge matches what
    exact/effective comparisons align to.
    """
    co = effective_evolve(params, t)
    phase = np.exp(1j * params.alpha * np.asarray(t, dtype=float))
    vec = np.repeat((phase * co.c_other)[..., None], params.n_atoms, axis=-1)
    vec[..., control_index] = phase * co.c_control
    return vec


# ---------------------------------------------------------------------------
# Validity of the dispersive treatment
# ---------------------------------------------------------------------------

VALIDITY_OK = 0.1
VALIDITY_MARGINAL = 0.3


def validity_parameter(params: SystemParams, mean_n: float) -> float:
    """Smallness parameter (g/|delta|) sqrt(N <n> + N).

    The extra +N inside the root keeps the photon-independent part of the
    collective coupling guarded near <n> = 0, where the asymptotic bound
    alone would report zero.
    """
    if mean_n < 0:
        raise ValueError(f"mean photon number must be >= 0, got {mean_n}")
    nn = params.n_atoms
    return abs(params.g / params.delta) * sqrt(nn * mean_n + nn)


def validity_grade(value: float) -> str:
    if value < VALIDITY_OK:
        return "ok"
    if value < VALIDITY_MARGINAL:
        return "marginal"
    return "invalid"


# ---------------------------------------------------------------------------
# Exact-vs-effective coefficient comparison
# ---------------------------------------------------------------------------


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
