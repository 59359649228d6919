"""Timing plan, phase gate, and the end-to-end preparation run."""

import math

import numpy as np
import pytest

from subrad.dynamics import compile_propagator, evolve, marginal_projected_weight, reduce_atomic
from subrad.fields import FieldSpec, TruncationError
from subrad.hilbert import (
    PureState,
    build_basis,
    control_excited_state,
    subradiant_target,
    subradiant_target_vector,
    symmetric_state,
)
from subrad.model import SystemParams, collective_operator
from subrad.perturb import effective_product_vector
from subrad.protocol import (
    NoSubradiantSectorError,
    ProtocolOptions,
    ProtocolReport,
    TruncationRefusal,
    dfs_weight,
    phase_gate,
    plan,
    run,
)

G = 2 * math.pi * 24e3


def ratio_params(n_atoms, ratio=100.0):
    return SystemParams.from_detuning_ratio(n_atoms, G, ratio)


# -- plan ----------------------------------------------------------------------


def test_plan_two_atoms():
    pl = plan(ratio_params(2))
    assert pl.alpha_t_m == pytest.approx(math.pi / 4, abs=1e-12)
    assert pl.phi == pytest.approx(math.pi / 2, abs=1e-12)


def test_plan_rydberg_point():
    pl = plan(SystemParams.from_detuning_ratio(10, G, 30.0))
    assert pl.t_m == pytest.approx(22e-6, abs=0.5e-6)
    assert math.sin(pl.alpha_t_m) == pytest.approx(math.sqrt(10 / 36), abs=1e-12)


@pytest.mark.parametrize("n_atoms", range(2, 13))
def test_plan_invariants(n_atoms):
    pl = plan(ratio_params(n_atoms))
    assert math.sin(pl.alpha_t_m) == pytest.approx(
        math.sqrt(n_atoms / (4 * n_atoms - 4)), abs=1e-12
    )
    assert math.cos(pl.phi) == pytest.approx(
        (n_atoms - 2) / (2 * n_atoms - 2), abs=1e-12
    )
    assert math.sin(pl.phi) == pytest.approx(
        math.sqrt(n_atoms * (3 * n_atoms - 4)) / (2 * (n_atoms - 1)), abs=1e-12
    )


def test_plan_branches_ascend():
    p = ratio_params(5)
    times = [plan(p, branch=b).t_m for b in range(4)]
    assert times == sorted(times)
    assert all(t > 0 for t in times)
    # odd branches sit on the descending lobe and flip the phase sign
    assert plan(p, branch=1).phi == pytest.approx(-plan(p, branch=0).phi)


def test_plan_rejects_single_atom():
    with pytest.raises(NoSubradiantSectorError, match="no subradiant sector"):
        plan(SystemParams(n_atoms=1, omega_a=1e6, omega_c=2e6, g=1e4))


def test_plan_negative_detuning():
    pl = plan(ratio_params(4, ratio=-100.0))
    assert pl.t_m > 0
    assert pl.phi < 0
    assert math.cos(pl.phi) == pytest.approx((4 - 2) / (2 * 4 - 2), abs=1e-12)


# -- phase gate ------------------------------------------------------------------


def test_phase_gate_identity_and_sign_flip():
    b = build_basis(2, 1)
    st = control_excited_state(b, np.array([1.0, 0.0]))
    same = phase_gate(st, 0.0)
    assert abs(same.inner(st) - 1.0) < 1e-15
    flipped = phase_gate(st, math.pi)
    assert flipped.amplitude(0b10, 0) == pytest.approx(-1.0)


def test_phase_gate_unitary_and_targets_control_only():
    b = build_basis(3, 1)
    st = PureState.from_amplitudes(
        b, {(0b100, 0): 0.6, (0b010, 0): 0.8j}
    )
    out = phase_gate(st, 1.234)
    assert out.norm() == pytest.approx(st.norm())
    assert out.amplitude(0b010, 0) == pytest.approx(0.8j)  # untouched
    assert out.amplitude(0b100, 0) == pytest.approx(0.6 * np.exp(-1.234j))


@pytest.mark.parametrize("n_atoms", [2, 3, 7, 12])
@pytest.mark.parametrize("branch", [0, 1])
def test_gate_maps_slow_model_state_to_target(n_atoms, branch):
    # the commit gate: at t_m the gated slow-model state IS the dark target
    p = ratio_params(n_atoms)
    pl = plan(p, branch=branch)
    vec = effective_product_vector(p, pl.t_m)
    vec[0] *= np.exp(-1j * pl.phi)
    overlap = abs(np.vdot(subradiant_target_vector(n_atoms), vec))
    assert overlap == pytest.approx(1.0, abs=1e-12)


# -- dark-subspace weight ---------------------------------------------------------


def test_dfs_weight_singlet_and_symmetric():
    b = build_basis(2, 0)
    assert dfs_weight(subradiant_target(b, 0)) == pytest.approx(1.0, abs=1e-12)
    assert dfs_weight(symmetric_state(b, 0)) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n_atoms", range(2, 11))
def test_dfs_weight_of_initial_expansion(n_atoms):
    b = build_basis(n_atoms, 1)
    st = control_excited_state(b, np.array([1.0, 0.0]))
    assert dfs_weight(st) == pytest.approx((n_atoms - 1) / n_atoms, abs=1e-12)


def test_dfs_weight_density_path_matches():
    b = build_basis(3, 1)
    st = control_excited_state(b, np.array([0.6, 0.8]))
    assert dfs_weight(reduce_atomic(st)) == pytest.approx(dfs_weight(st), abs=1e-12)


def test_dfs_weight_fock_conditioning():
    b = build_basis(3, 1)
    st = control_excited_state(b, np.array([0.6, 0.8]))
    w0 = dfs_weight(st, n_photons=0)
    w1 = dfs_weight(st, n_photons=1)
    assert w0 == pytest.approx(0.36 * 2 / 3, abs=1e-12)
    assert w0 + w1 == pytest.approx(dfs_weight(st), abs=1e-12)


def test_dfs_weight_rejects_single_atom():
    b = build_basis(1, 0)
    with pytest.raises(NoSubradiantSectorError):
        dfs_weight(PureState.from_amplitudes(b, {(1, 0): 1.0}))


# -- full runs ---------------------------------------------------------------------


def test_run_two_atoms_vacuum():
    rep = run(ratio_params(2), FieldSpec.fock(0))
    assert rep.fidelity_subradiant >= 0.999
    assert rep.fidelity_subradiant <= rep.dfs_weight + 1e-10
    assert rep.validity_grade == "ok"


def test_run_ground_atoms_trivially_stationary():
    rep = run(
        ratio_params(4),
        FieldSpec.fock(0),
        ProtocolOptions(excite_control=False),
    )
    assert rep.fidelity_subradiant == pytest.approx(0.0, abs=1e-15)
    assert rep.dfs_weight == pytest.approx(0.0, abs=1e-15)
    assert rep.emission_expectation == pytest.approx(0.0, abs=1e-15)
    assert rep.pt_coefficient_error is None


def test_run_gate_is_load_bearing():
    p = ratio_params(6)
    gated = run(p, FieldSpec.fock(0))
    ungated = run(p, FieldSpec.fock(0), ProtocolOptions(phi_override=0.0))
    assert gated.fidelity_subradiant > 0.999
    assert ungated.fidelity_subradiant < gated.fidelity_subradiant - 0.05
    # without the phase flip the dark weight stays at the free-evolution
    # value (N-1)/N; the gate rotates the rest of the state into the
    # dark subspace
    assert ungated.dfs_weight == pytest.approx(5 / 6, abs=0.01)
    assert gated.dfs_weight > 0.999


def test_run_alternate_branch():
    rep = run(ratio_params(10), FieldSpec.fock(0), ProtocolOptions(tm_branch=1))
    assert rep.fidelity_subradiant >= 0.995


def test_run_control_index_covariance():
    # the Hamiltonian is permutation symmetric: addressing another atom
    # must reproduce the metrics exactly
    p = ratio_params(5)
    base = run(p, FieldSpec.fock(0), ProtocolOptions(control_index=0))
    other = run(p, FieldSpec.fock(0), ProtocolOptions(control_index=2))
    assert other.fidelity_subradiant == pytest.approx(
        base.fidelity_subradiant, abs=1e-12
    )
    assert other.pt_coefficient_error == pytest.approx(
        base.pt_coefficient_error, abs=1e-12
    )


def test_run_negative_detuning():
    rep = run(ratio_params(10, ratio=-100.0), FieldSpec.fock(0))
    assert rep.fidelity_subradiant >= 0.995


def test_run_field_independence_quick():
    p = ratio_params(5)
    f0 = run(p, FieldSpec.fock(0)).fidelity_subradiant
    f1 = run(p, FieldSpec.fock(1)).fidelity_subradiant
    assert abs(f0 - f1) <= 0.02


def test_run_envelope_convergence_in_detuning():
    # pointwise fidelity is not monotone (fast-phase at t_m); the slow-model
    # deviation maxes over the grid and tracks the (g/delta)^2 envelope
    reports = [
        run(ratio_params(5, ratio=r), FieldSpec.fock(0)) for r in (30.0, 100.0, 300.0)
    ]
    errs = [r.pt_coefficient_error for r in reports]
    assert errs[0] > errs[1] > errs[2]
    fids = [r.fidelity_subradiant for r in reports]
    assert fids[1] > fids[0] and fids[2] > fids[0]


def test_run_thermal_zero_equals_vacuum():
    p = ratio_params(4)
    thermal = run(p, FieldSpec.thermal(0.0))
    vacuum = run(p, FieldSpec.fock(0))
    assert thermal.fidelity_subradiant == pytest.approx(
        vacuum.fidelity_subradiant, abs=1e-14
    )


def test_run_thermal_mixture_aggregates():
    p = ratio_params(4)
    rep = run(p, FieldSpec.thermal(0.05))
    comps = rep.meta["mixture_components"]
    assert len(comps) >= 2
    assert sum(c["weight"] for c in comps) == pytest.approx(1.0, abs=1e-10)
    recombined = sum(c["weight"] * c["fidelity_subradiant"] for c in comps)
    assert rep.fidelity_subradiant == pytest.approx(recombined, abs=1e-12)
    assert rep.fidelity_subradiant >= 0.995


RUN_SCALARS = ("fidelity_subradiant", "dfs_weight", "emission_expectation")


@pytest.mark.parametrize("mean_n", [0.05, 0.4])
def test_run_thermal_equals_weighted_fock_runs(mean_n):
    p = ratio_params(5, ratio=60.0)
    field = FieldSpec.thermal(mean_n)
    rep = run(p, field)
    fock = [(w, run(p, FieldSpec.fock(n))) for w, n in field.components()]
    for key in RUN_SCALARS:
        expected = sum(w * getattr(r, key) for w, r in fock)
        assert getattr(rep, key) == pytest.approx(expected, abs=1e-12), key
    expected = sum(w * r.pt_coefficient_error for w, r in fock)
    assert rep.pt_coefficient_error == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize(
    "n_atoms, amplitude, control_index",
    [(3, 1.0, 0), (4, 0.7 - 0.9j, 2), (5, 0.4j, 1)],
)
def test_run_coherent_matches_superposition_oracle(n_atoms, amplitude, control_index):
    # the coherent field as one superposition over all blocks, evolved at once
    p = ratio_params(n_atoms, ratio=80.0)
    field = FieldSpec.coherent(amplitude)
    options = ProtocolOptions(control_index=control_index)
    rep = run(p, field, options)
    basis = build_basis(n_atoms, field.required_n_max(n_atoms))
    initial = control_excited_state(basis, field.amplitudes(basis.n_max), control_index)
    prop = compile_propagator(p, basis, block_ids=list(initial.block_amps))
    final = phase_gate(evolve(prop, initial, rep.t_m_seconds), rep.phi_radians, control_index)
    target = subradiant_target_vector(n_atoms, control_index)
    jpjm = collective_operator(basis, "J+J-", block_ids=list(final.block_amps))
    assert rep.fidelity_subradiant == pytest.approx(
        marginal_projected_weight(final, target), abs=1e-12
    )
    assert rep.dfs_weight == pytest.approx(dfs_weight(final), abs=1e-12)
    assert rep.emission_expectation == pytest.approx(jpjm.expectation(final), abs=1e-12)


@pytest.mark.parametrize(
    "field", [FieldSpec.fock(1), FieldSpec.coherent(0.5j), FieldSpec.thermal(0.2)]
)
def test_run_meta_has_one_shape(field):
    rep = run(ratio_params(3), field)
    meta = rep.meta
    assert set(meta) == {"package_version", "n_max", "basis_dim", "mixture_components"}
    assert meta["basis_dim"] == (1 << 3) * (meta["n_max"] + 1)
    comps = meta["mixture_components"]
    assert [(c["weight"], c["n"]) for c in comps] == field.components(meta["n_max"])
    recombined = sum(c["weight"] * c["fidelity_subradiant"] for c in comps)
    assert rep.fidelity_subradiant == pytest.approx(recombined, abs=1e-12)


@pytest.mark.parametrize("excite_control", [True, False])
def test_run_refuses_a_control_index_out_of_range(excite_control):
    options = ProtocolOptions(control_index=5, excite_control=excite_control)
    with pytest.raises(ValueError, match="control index 5 out of range"):
        run(ratio_params(5), FieldSpec.fock(0), options)


def test_run_truncation_refusal():
    with pytest.raises(TruncationRefusal, match="clipped block"):
        run(ratio_params(2), FieldSpec.fock(3), ProtocolOptions(n_max=3))


def test_run_thermal_refuses_a_cutoff_below_its_components():
    with pytest.raises(TruncationError, match="n_max"):
        run(ratio_params(2), FieldSpec.thermal(0.5), ProtocolOptions(n_max=4))


def test_run_flags_invalid_but_proceeds():
    rep = run(ratio_params(10, ratio=30.0), FieldSpec.fock(9))
    assert rep.validity >= 0.3
    assert rep.validity_grade == "invalid"
    assert 0.0 <= rep.fidelity_subradiant <= 1.0


def test_report_round_trip_and_invariant():
    rep = run(ratio_params(3), FieldSpec.fock(0), ProtocolOptions(seed=11))
    again = ProtocolReport.from_dict(rep.to_dict())
    assert again.to_dict() == rep.to_dict()
    assert rep.meta["seed"] == 11
    with pytest.raises(ValueError, match="metric ordering"):
        bad = rep.to_dict()
        bad["fidelity_subradiant"] = bad["dfs_weight"] + 1e-3
        ProtocolReport.from_dict(bad)
