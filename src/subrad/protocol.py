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
# evolve is re-exported for code that imports it from this module
from .dynamics import AtomicDensity, dark_weight, evolve  # noqa: F401
from .fields import FieldSpec
from .hilbert import PureState, atom_code, symmetric_atomic_vector
from .model import SystemParams
from .perturb import closed_form_corrections, validity_grade, validity_parameter

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


def fock_components(
    params: SystemParams, field: FieldSpec, options: ProtocolOptions
) -> tuple[int, list[tuple[float, int]]]:
    """The Fock cutoff and the field's photon-number weights [(p_n, n)].

    Component n starts with the control atom excited (or every atom in the
    ground state) and n photons, in excitation block n+1 (or n).  Refused if
    a component heavier than TRUNCATION_WEIGHT_LIMIT sits on a block clipped
    by the Fock cutoff.
    """
    if not 0 <= options.control_index < params.n_atoms:
        raise ValueError(
            f"control index {options.control_index} out of range for N={params.n_atoms}"
        )
    n_max = options.n_max if options.n_max is not None else field.required_n_max(params.n_atoms)
    components = field.components(n_max)
    for w, n in components:
        m = n + 1 if options.excite_control else n
        if m > n_max and w > TRUNCATION_WEIGHT_LIMIT:
            raise TruncationRefusal(
                f"initial state carries weight {w:.3e} on the clipped block M={m} "
                f"(n_max={n_max}); raise the Fock cutoff"
            )
    return n_max, components


def run(
    params: SystemParams, field: FieldSpec, options: ProtocolOptions | None = None
) -> ProtocolReport:
    """Execute excite -> evolve(t_m) -> phase flip and measure the outcome.

    The field's Fock components run one excitation block at a time, and
    every metric is their weighted sum; the slow-model error is their
    weighted average.  This is exact for every field kind, since nothing in
    the protocol couples different blocks.  Runs proceed even outside the
    dispersive regime; the validity grade in the report flags them.
    """
    from . import reduced  # imported on first use; see its docstring

    options = options or ProtocolOptions()
    plan_ = plan(params, branch=options.tm_branch)
    phi = plan_.phi if options.phi_override is None else options.phi_override

    validity = validity_parameter(params, field.mean_n)

    n_max, components = fock_components(params, field, options)
    c = 1 if options.excite_control else 0
    times = np.linspace(0.0, plan_.t_m, options.pt_times)
    fidelity = dark = emission = pt_sum = pt_weight = 0.0
    mixture = []
    for w, n in components:
        block = reduced.compile_block(params, n + c, n_max)
        initial = block.unit_state(c, 0, n)
        final = reduced.phase_gate(block, reduced.evolve(block, initial, plan_.t_m), phi)
        values = reduced.readouts(block, final)
        fid = float(reduced.fidelity(block, final))
        fidelity += w * fid
        dark += w * float(values["p_subradiant"])
        emission += w * float(values["jpjm"])
        if options.excite_control:
            pt_sum += w * reduced.slow_model_error(block, initial, times)
            pt_weight += w
        mixture.append({"weight": w, "n": n, "fidelity_subradiant": fid})

    meta = {
        "package_version": __version__,
        "n_max": n_max,
        "basis_dim": (1 << params.n_atoms) * (n_max + 1),
        "mixture_components": mixture,
    }
    if options.seed is not None:
        meta["seed"] = options.seed
    pt_error = pt_sum / pt_weight if pt_weight else None

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
