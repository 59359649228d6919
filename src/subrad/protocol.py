"""End-to-end preparation of the dark (subradiant) target state.

The control atom is excited, the coupled system evolves freely for the
matching time t_m at which the single-excitation amplitude moduli line up
with the dark target, and a phase flip on the control atom removes the
leftover relative phase.  Timing and phase follow from the slow model:

    sin(alpha t_m) = sqrt(N / (4N - 4)),
    cos(phi) = (N - 2) / (2N - 2),  sin(phi) = sqrt(N(3N-4)) / (2(N-1)),

with exp(-i phi) applied to every control-excited amplitude.  On the
alternate matching times (odd branches) the phase flips sign, as it does
for negative detuning.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import __version__
from .dynamics import (
    AtomicDensity,
    compile_propagator,
    dark_weight,
    evolve,
    marginal_projected_weight,
)
from .fields import FieldSpec
from .hilbert import (
    PureState,
    atom_code,
    atomic_ground_state,
    build_basis,
    control_excited_state,
    subradiant_target_vector,
    symmetric_atomic_vector,
)
from .model import SystemParams, collective_operator
from .perturb import (
    closed_form_corrections,
    exact_vs_effective_error,
    validity_grade,
    validity_parameter,
)

TRUNCATION_WEIGHT_LIMIT = 1e-8


class NoSubradiantSectorError(ValueError):
    """Raised for a single atom, which has no dark complement."""


class TruncationRefusal(RuntimeError):
    """Initial state puts non-negligible weight on a clipped block."""


@dataclass(frozen=True)
class ProtocolPlan:
    """Matching time and control-atom phase for one parameter set."""

    params: SystemParams
    t_m: float  # seconds
    phi: float  # radians, signed
    branch: int

    @property
    def alpha_t_m(self) -> float:
        return self.params.alpha * self.t_m


def matching_sine(n_atoms: int) -> float:
    """sin(alpha t_m) = sqrt(N / (4N - 4)) for the first matching time."""
    if n_atoms < 2:
        raise NoSubradiantSectorError("no subradiant sector for a single atom")
    return math.sqrt(n_atoms / (4.0 * n_atoms - 4.0))


def control_phase(n_atoms: int) -> float:
    """First-quadrant phase with cos = (N-2)/(2N-2), sin = sqrt(N(3N-4))/(2N-2)."""
    if n_atoms < 2:
        raise NoSubradiantSectorError("no subradiant sector for a single atom")
    cos_phi = (n_atoms - 2.0) / (2.0 * n_atoms - 2.0)
    sin_phi = math.sqrt(n_atoms * (3.0 * n_atoms - 4.0)) / (2.0 * n_atoms - 2.0)
    return math.atan2(sin_phi, cos_phi)


def plan(params: SystemParams, branch: int = 0) -> ProtocolPlan:
    """Pick the branch-th positive matching time and its control phase.

    Branch 0 is the smallest positive solution; odd branches sit on the
    descending lobe of the sine, where the required phase changes sign.
    """
    if branch < 0:
        raise ValueError(f"branch must be >= 0, got {branch}")
    theta = math.asin(matching_sine(params.n_atoms))
    cycle, odd = divmod(branch, 2)
    angle = 2.0 * math.pi * cycle + (math.pi - theta if odd else theta)
    t_m = angle / abs(params.alpha)
    sign = 1.0 if params.alpha > 0 else -1.0
    phi = sign * (-1.0 if odd else 1.0) * control_phase(params.n_atoms)
    return ProtocolPlan(params=params, t_m=t_m, phi=phi, branch=branch)


def phase_gate(state: PureState, phi: float, control_index: int = 0) -> PureState:
    """Multiply every amplitude with the control atom excited by exp(-i phi)."""
    basis = state.basis
    bit = atom_code(control_index, basis.n_atoms)
    factor = cmath.exp(-1j * phi)
    out = {}
    for m, v in state.block_amps.items():
        excited = np.array([code & bit for code, _ in basis.block(m).states], dtype=bool)
        out[m] = np.where(excited, v * factor, v)
    return PureState(basis, out)


def dfs_weight(state, n_photons: int | None = None) -> float:
    """Weight inside the N-1 dimensional dark atomic subspace.

    Accepts a PureState (field marginalized by default, or conditioned on
    one Fock level via n_photons) or an AtomicDensity.
    """
    density = isinstance(state, AtomicDensity)
    n_atoms = state.n_atoms if density else state.basis.n_atoms
    if n_atoms < 2:
        raise NoSubradiantSectorError("no subradiant sector for a single atom")
    if not density:
        return dark_weight(state, n_photons)
    # trace over the single-excitation configs minus the symmetric projection
    codes = [atom_code(k, n_atoms) for k in range(n_atoms)]
    single = state.matrix[np.ix_(codes, codes)]
    sym = symmetric_atomic_vector(n_atoms)
    return float(np.trace(single).real - (sym @ single @ sym).real)


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProtocolOptions:
    """Knobs for protocol.run; the defaults reproduce the standard scheme."""

    n_max: int | None = None  # Fock cutoff; None selects the conservative rule
    tm_branch: int = 0
    phi_override: float | None = None
    excite_control: bool = True
    control_index: int = 0
    pt_times: int = 101  # grid size for the exact-vs-slow comparison on [0, t_m]
    pt_block_weight_floor: float = 1e-3  # blocks below this skip the comparison
    block_weight_cutoff: float = 1e-14  # drop numerically empty blocks before compiling
    seed: int | None = None  # echoed into reports; runs are deterministic


@dataclass
class ProtocolReport:
    """Timings, fidelities, dark-subspace weights and diagnostics for one run."""

    n_atoms: int
    g_rad_s: float
    delta_rad_s: float
    alpha_per_s: float
    t_m_seconds: float
    phi_radians: float
    tm_branch: int
    field: dict
    fidelity_subradiant: float
    dfs_weight: float
    emission_expectation: float
    validity: float
    validity_grade: str
    pt_coefficient_error: float | None
    perturbation: dict
    meta: dict = dataclass_field(default_factory=dict)

    def __post_init__(self):
        if not (
            -1e-10 <= self.fidelity_subradiant <= self.dfs_weight + 1e-10 <= 1.0 + 2e-10
        ):
            raise ValueError(
                "metric ordering violated: expected 0 <= fidelity <= dfs <= 1, got "
                f"fidelity={self.fidelity_subradiant}, dfs={self.dfs_weight}"
            )

    @property
    def t_m_microseconds(self) -> float:
        return self.t_m_seconds * 1e6

    def to_dict(self) -> dict:
        return {
            "n_atoms": self.n_atoms,
            "g_rad_s": self.g_rad_s,
            "g_over_2pi_hz": self.g_rad_s / (2.0 * math.pi),
            "delta_rad_s": self.delta_rad_s,
            "delta_over_2pi_hz": self.delta_rad_s / (2.0 * math.pi),
            "alpha_per_s": self.alpha_per_s,
            "t_m_seconds": self.t_m_seconds,
            "t_m_microseconds": self.t_m_microseconds,
            "phi_radians": self.phi_radians,
            "tm_branch": self.tm_branch,
            "field": dict(self.field),
            "fidelity_subradiant": self.fidelity_subradiant,
            "dfs_weight": self.dfs_weight,
            "emission_expectation": self.emission_expectation,
            "validity": self.validity,
            "validity_grade": self.validity_grade,
            "pt_coefficient_error": self.pt_coefficient_error,
            "perturbation": dict(self.perturbation),
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "ProtocolReport":
        return cls(
            n_atoms=obj["n_atoms"],
            g_rad_s=obj["g_rad_s"],
            delta_rad_s=obj["delta_rad_s"],
            alpha_per_s=obj["alpha_per_s"],
            t_m_seconds=obj["t_m_seconds"],
            phi_radians=obj["phi_radians"],
            tm_branch=obj["tm_branch"],
            field=obj["field"],
            fidelity_subradiant=obj["fidelity_subradiant"],
            dfs_weight=obj["dfs_weight"],
            emission_expectation=obj["emission_expectation"],
            validity=obj["validity"],
            validity_grade=obj["validity_grade"],
            pt_coefficient_error=obj["pt_coefficient_error"],
            perturbation=obj["perturbation"],
            meta=obj.get("meta", {}),
        )


def initial_state(
    params: SystemParams, field: FieldSpec, options: ProtocolOptions
) -> PureState:
    """The protocol's initial state for a pure field, with empty blocks pruned.

    Refused if it puts weight on a block clipped by the Fock cutoff.
    """
    n_max = options.n_max if options.n_max is not None else field.required_n_max(params.n_atoms)
    basis = build_basis(params.n_atoms, n_max)
    amps = field.amplitudes(n_max)
    if options.excite_control:
        initial = control_excited_state(basis, amps, options.control_index)
    else:
        initial = atomic_ground_state(basis, amps)
    for m, w in initial.block_weights().items():
        if basis.block(m).truncated and w > TRUNCATION_WEIGHT_LIMIT:
            raise TruncationRefusal(
                f"initial state carries weight {w:.3e} on the clipped block M={m} "
                f"(n_max={basis.n_max}); raise the Fock cutoff"
            )
    return initial.pruned(options.block_weight_cutoff)


def _pure_run(
    params: SystemParams,
    field: FieldSpec,
    plan_: ProtocolPlan,
    phi: float,
    options: ProtocolOptions,
) -> dict:
    """Simulate one pure-field run and return raw metric values."""
    initial = initial_state(params, field, options)
    basis = initial.basis
    occupied = sorted(initial.block_amps)

    prop = compile_propagator(params, basis, block_ids=occupied)
    final = phase_gate(
        evolve(prop, initial, plan_.t_m), phi, options.control_index
    )

    target = subradiant_target_vector(params.n_atoms, options.control_index)
    fidelity = marginal_projected_weight(final, target)
    dark = dfs_weight(final)
    emission = collective_operator(basis, "J+J-", block_ids=occupied).expectation(final)

    pt_error = None
    if options.excite_control:
        times = np.linspace(0.0, plan_.t_m, options.pt_times)
        weights = initial.block_weights()
        considered = {
            m: w
            for m, w in weights.items()
            if m >= 1 and w >= options.pt_block_weight_floor
        }
        if considered:
            total = sum(considered.values())
            pt_error = sum(
                w * exact_vs_effective_error(prop, m, times, options.control_index)
                for m, w in considered.items()
            ) / total

    return {
        "fidelity": fidelity,
        "dfs": dark,
        "emission": emission,
        "pt_error": pt_error,
        "basis_dim": basis.dim,
        "n_max": basis.n_max,
        "blocks": occupied,
    }


def run(
    params: SystemParams, field: FieldSpec, options: ProtocolOptions | None = None
) -> ProtocolReport:
    """Execute excite -> evolve(t_m) -> phase flip and measure the outcome.

    Thermal fields are handled exactly as classical mixtures: one pure run
    per retained Fock component, metrics averaged with the mixture weights.
    Runs proceed even outside the dispersive regime; the validity grade in
    the report flags them.
    """
    options = options or ProtocolOptions()
    plan_ = plan(params, branch=options.tm_branch)
    phi = plan_.phi if options.phi_override is None else options.phi_override

    validity = validity_parameter(params, field.mean_n)

    if field.is_mixture:
        comps = field.components()
        partials = [
            (w, n, _pure_run(params, FieldSpec.fock(n), plan_, phi, options))
            for w, n in comps
        ]
        fidelity = sum(w * p["fidelity"] for w, _, p in partials)
        dark = sum(w * p["dfs"] for w, _, p in partials)
        emission = sum(w * p["emission"] for w, _, p in partials)
        pt_pairs = [(w, p["pt_error"]) for w, _, p in partials if p["pt_error"] is not None]
        pt_error = (
            sum(w * e for w, e in pt_pairs) / sum(w for w, _ in pt_pairs)
            if pt_pairs
            else None
        )
        meta = {
            "package_version": __version__,
            "mixture_components": [
                {"weight": w, "n": n, "fidelity_subradiant": p["fidelity"]}
                for w, n, p in partials
            ],
            "n_max": max(p["n_max"] for _, _, p in partials),
        }
    else:
        p = _pure_run(params, field, plan_, phi, options)
        fidelity, dark, emission, pt_error = p["fidelity"], p["dfs"], p["emission"], p["pt_error"]
        meta = {
            "package_version": __version__,
            "basis_dim": p["basis_dim"],
            "n_max": p["n_max"],
            "compiled_blocks": p["blocks"],
        }
    if options.seed is not None:
        meta["seed"] = options.seed

    sector_n = int(round(field.mean_n)) + 1  # dominant degenerate level
    corrections = closed_form_corrections(params, sector_n)

    return ProtocolReport(
        n_atoms=params.n_atoms,
        g_rad_s=params.g,
        delta_rad_s=params.delta,
        alpha_per_s=params.alpha,
        t_m_seconds=plan_.t_m,
        phi_radians=phi,
        tm_branch=options.tm_branch,
        field=field.describe(),
        fidelity_subradiant=fidelity,
        dfs_weight=dark,
        emission_expectation=emission,
        validity=validity,
        validity_grade=validity_grade(validity),
        pt_coefficient_error=pt_error,
        perturbation={
            "sector_n": sector_n,
            **corrections.as_report(),
            "validity": validity,
            "pt_vs_exact_error": pt_error,
        },
        meta=meta,
    )
