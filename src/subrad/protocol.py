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

import functools
import math

import numpy as np

from . import __version__
# evolve is imported only for perfbench/selftest.py's tracer check
from .dynamics import (  # noqa: F401
    TRAJECTORY_COLUMNS,
    Block,
    compile_propagator,
    evolve,
    evolve_grid,
    readouts,
)
from .fields import FieldSpec, TruncationError
from .model import SystemParams
from .perturb import closed_form_corrections, slow_model_error, validity_grade, validity_parameter

TRUNCATION_WEIGHT_LIMIT = 1e-8


class NoSubradiantSectorError(ValueError):
    """Raised for a single atom, which has no dark complement."""


class TruncationRefusal(RuntimeError):
    """Initial state puts non-negligible weight on a clipped block."""


def plan(params: SystemParams, branch: int = 0) -> tuple[float, float]:
    """The branch-th positive matching time t_m (s) and its signed control phase phi (rad).

    Branch 0 is the smallest positive solution of the matching condition in
    the module docstring; odd branches sit on the descending lobe of the
    sine, where the required phase changes sign.
    """
    if branch < 0:
        raise ValueError(f"branch must be >= 0, got {branch}")
    nn = params.n_atoms
    if nn < 2:
        raise NoSubradiantSectorError("no subradiant sector for a single atom")
    theta = math.asin(math.sqrt(nn / (4.0 * nn - 4.0)))
    cycle, odd = divmod(branch, 2)
    angle = 2.0 * math.pi * cycle + (math.pi - theta if odd else theta)
    t_m = angle / abs(params.alpha)
    cos_phi = (nn - 2.0) / (2.0 * nn - 2.0)
    sin_phi = math.sqrt(nn * (3.0 * nn - 4.0)) / (2.0 * nn - 2.0)
    sign = 1.0 if params.alpha > 0 else -1.0
    phi = sign * (-1.0 if odd else 1.0) * math.atan2(sin_phi, cos_phi)
    return t_m, phi


def phase_gate(block: Block, psi: np.ndarray, phi: float) -> np.ndarray:
    """Multiply the control-excited part of every rung by exp(-i phi).

    On a rung with amplitudes x that part is u (u . x), where u is
    `Block.control_share` there.
    """
    u = block.control_share
    same_rung = block.rungs[:, None] == block.rungs
    rotation = complex(math.cos(-phi), math.sin(-phi))  # exp(-i phi), as cmath.exp gives it
    return psi + (rotation - 1.0) * u * ((same_rung * u) @ psi)


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------


def _fit(field: FieldSpec, c: int, n_max: int) -> list | Exception:
    """The field's weights [(p_n, n)] if the cutoff n_max runs them, else the refusal."""
    try:
        components = field.components(n_max)
    except TruncationError as exc:
        return exc
    for w, n in components:
        if n + c > n_max and w > TRUNCATION_WEIGHT_LIMIT:
            return TruncationRefusal(
                f"initial state carries weight {w:.3e} on the clipped block M={n + c} "
                f"(n_max={n_max})"
            )
    return components


def fock_components(
    params: SystemParams, field: FieldSpec, n_max: int | None = None, excite_control: bool = True
) -> tuple[int, list[tuple[float, int]]]:
    """The Fock cutoff and the field's photon-number weights [(p_n, n)].

    Component n starts with n photons on rung c of block n + c, c = 1 when
    the control atom is excited.  A cutoff is refused if the field does not
    fit under it (TruncationError) or if it clips a block of a component
    heavier than TRUNCATION_WEIGHT_LIMIT (TruncationRefusal).  Either
    message names the smallest cutoff that runs.  A higher cutoff only
    lowers the clipped weights, so the search tries the default cutoff,
    which any field that fits some cutoff also fits (a coherent field with
    a mean above about 1490 underflows and fits none), and bisects between
    it and the refused one.
    """
    if n_max is None:
        n_max = field.required_n_max(params.n_atoms)
    c = 1 if excite_control else 0
    components = _fit(field, c, n_max)
    if isinstance(components, Exception):
        low, high = n_max, max(n_max, field.required_n_max(params.n_atoms))
        if isinstance(_fit(field, c, high), Exception):
            raise type(components)(f"{components}; no n_max up to {high} runs it")
        while high - low > 1:  # the cutoff low is refused and high runs
            mid = (low + high) // 2
            if isinstance(_fit(field, c, mid), list):
                high = mid
            else:
                low = mid
        raise type(components)(f"{components}; this run needs n_max >= {high}")
    return n_max, components


def _start(params: SystemParams, n: int, c: int, n_max: int) -> tuple[Block, np.ndarray]:
    """Block n + c under the Fock cutoff n_max and component n's initial state.

    That is |c,0> with n photons: (|S> + sqrt(N-1) |D>) / sqrt(N) with the
    control atom excited, rung 0 of the symmetric ladder without.
    """
    block = compile_propagator(params, n + c, n_max)
    return block, np.where(block.rungs == c, block.control_share if c else 1.0, 0.0)


@functools.lru_cache(maxsize=4096)
def component_outcome(
    params: SystemParams, n: int, c: int, n_max: int, t_m: float, phi: float, pt_times: int
) -> tuple[float, float, float | None, int]:
    """Fidelity, <J+J->, slow-model error and block size of Fock component n.

    The per-component kernel that `run` sums and scripts/photon_tolerance.py reads.
    The component starts as `_start` sets it up, evolves to t_m and takes the phase
    gate; the slow-model error spans pt_times points of [0, t_m], and is None without
    the control excitation or with fewer than two points, which would check nothing.
    The fidelity is also the dark weight: the only dark state on the two ladders is
    the target |D>.  Memoized per process: callers pass min(n_max, n + c) as the
    cutoff, since block M is the same for every n_max >= M.
    """
    return _outcome(*_start(params, n, c, n_max), c, t_m, phi, pt_times)


def _outcome(block: Block, initial: np.ndarray, c: int, t_m: float, phi: float, pt_times: int):
    """`component_outcome` on a compiled block: the `readouts` of the gated state
    at t_m give the fidelity and <J+J->, and `slow_model_error` the slow-model error."""
    # evolve_grid, not evolve: perfbench's measure of evolve binds a `state` that evolve lacks
    (at_t_m,) = evolve_grid(block, initial, [t_m])
    _, _, _, fid, jpjm, _ = readouts(block, phase_gate(block, at_t_m[0], phi))
    pt_error = None
    if c and pt_times >= 2:
        pt_error = slow_model_error(block, initial, np.linspace(0.0, t_m, pt_times))
    return float(fid), float(jpjm), pt_error, len(block.rungs)


def _rows(block: Block, initial: np.ndarray, times: np.ndarray) -> np.ndarray:
    """`readouts` along exp(-iHt) from `initial`, one row per time."""
    rows = [readouts(block, amps) for amps in evolve_grid(block, initial, times)]
    return np.concatenate([np.empty((0, len(TRAJECTORY_COLUMNS) - 1)), *rows])


def trajectory(
    params: SystemParams, field: FieldSpec, times, n_max: int | None = None,
    excite_control: bool = True,
) -> np.ndarray:
    """(T, 7) table of TRAJECTORY_COLUMNS along exp(-iHt) from the state `run` prepares.

    One row per time; every column is the p_n-weighted sum over the field's
    Fock components, which is the exact mixture average for every field
    kind.  The components' blocks are compiled one at a time.
    """
    times = np.asarray(times, dtype=float)
    n_max, components = fock_components(params, field, n_max, excite_control)
    c = 1 if excite_control else 0
    total = sum(w * _rows(*_start(params, n, c, n_max), times) for w, n in components)
    return np.column_stack([times, total])


def run(
    params: SystemParams, field: FieldSpec, *, n_max: int | None = None, tm_branch: int = 0,
    phi_override: float | None = None, excite_control: bool = True, pt_times: int = 101,
) -> dict:
    """Execute excite -> evolve(t_m) -> phase flip and measure the outcome.

    The result is a new dict: the "report" object of report.json, keys in its
    order.  The defaults reproduce the standard scheme: n_max is the Fock
    cutoff (None selects the conservative rule), tm_branch the matching time
    of `plan`, phi_override a gate phase in place of the planned one, and
    pt_times the grid size of the exact-vs-slow comparison on [0, t_m];
    below 2 no comparison is made.

    The field's Fock components run one excitation block at a time, and
    every metric is their weighted sum; the slow-model error is their
    weighted average.  This is exact for every field kind, since nothing in
    the protocol couples different blocks.  Each component's outcome comes
    from `component_outcome`, so runs in one process that share parameters
    and Fock levels (a mean_n sweep) compute each block once.  Runs proceed
    even outside the dispersive regime; the validity grade in the report
    flags them.
    """
    return _run(params, field, None, n_max, tm_branch, phi_override, excite_control, pt_times)[0]


def _run(
    params: SystemParams, field: FieldSpec, times, n_max: int | None, tm_branch: int,
    phi_override: float | None, excite_control: bool, pt_times: int,
) -> tuple[dict, np.ndarray | None]:
    """`run`'s report and, given a grid of times, the `trajectory` table over it,
    from one compile of each block.  Metrics out of order are refused; a refused
    trajectory is raised after that, as calling `run`, then `trajectory` would."""
    t_m, phi = plan(params, branch=tm_branch)
    phi = phi if phi_override is None else phi_override
    gate = (t_m, phi, pt_times)

    validity = validity_parameter(params, field.mean_n)

    n_max, components = fock_components(params, field, n_max, excite_control)
    c = 1 if excite_control else 0
    rows = 0.0
    refusals = []
    outcomes = []  # (p_n, n, fidelity, <J+J->, slow-model error, block dimension)
    for w, n in components:
        if times is None:
            outcomes.append((w, n, *component_outcome(params, n, c, min(n_max, n + c), *gate)))
            continue
        block, initial = _start(params, n, c, n_max)
        outcomes.append((w, n, *_outcome(block, initial, c, *gate)))
        try:
            rows = rows + w * _rows(block, initial, times)
        except ValueError as exc:
            refusals.append(exc)
    fid_sum = sum(w * fid for w, _, fid, *_ in outcomes)
    pt_error = None  # every component makes the slow-model check, or none does
    if outcomes[0][4] is not None:
        pt_error = sum(w * pt for w, *_, pt, _ in outcomes) / sum(w for w, _ in components)

    sector_n = int(round(field.mean_n)) + 1  # dominant degenerate level
    delta_e1, delta_ei = closed_form_corrections(params, sector_n)

    report = {
        "n_atoms": params.n_atoms,
        "g_rad_s": params.g,
        "g_over_2pi_hz": params.g / (2.0 * math.pi),
        "delta_rad_s": params.delta,
        "delta_over_2pi_hz": params.delta / (2.0 * math.pi),
        "alpha_per_s": params.alpha,
        "t_m_seconds": t_m,
        "t_m_microseconds": t_m * 1e6,
        "phi_radians": phi,
        "tm_branch": tm_branch,
        "field": field.describe(),
        "fidelity_subradiant": fid_sum,
        "dfs_weight": fid_sum,  # the target is the only dark state the protocol reaches
        "emission_expectation": sum(w * jpjm for w, _, _, jpjm, *_ in outcomes),
        "validity": validity,
        "validity_grade": validity_grade(validity),
        "pt_coefficient_error": pt_error,
        "perturbation": {
            "sector_n": sector_n,
            "delta_e1_rad_s": delta_e1,
            "delta_ei_rad_s": delta_ei,
            "alpha_per_s": params.alpha,
            "validity": validity,
            "pt_vs_exact_error": pt_error,
        },
        "meta": {
            "package_version": __version__,
            "n_max": n_max,
            "max_block_dim": max(dim for *_, dim in outcomes),
            "mixture_components": [
                {"weight": w, "n": n, "fidelity_subradiant": fid} for w, n, fid, *_ in outcomes
            ],
        },
    }
    fidelity, dfs = report["fidelity_subradiant"], report["dfs_weight"]
    if not -1e-10 <= fidelity <= dfs + 1e-10 <= 1.0 + 2e-10:
        raise ValueError(
            "metric ordering violated: expected 0 <= fidelity <= dfs <= 1, got "
            f"fidelity={fidelity}, dfs={dfs}"
        )
    if refusals:
        raise refusals[0]
    return report, None if times is None else np.column_stack([times, rows])
