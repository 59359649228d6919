"""Timing plan, phase gate, and the end-to-end preparation run."""

import copy
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from product.dynamics import compile_propagator, evolve, marginal_projected_weight, reduce_atomic
from product.hilbert import (
    PureState,
    build_basis,
    coherent_amplitudes,
    control_excited_state,
    subradiant_target,
    subradiant_target_vector,
    symmetric_state,
)
from product.model import collective_operator
from product.perturb import effective_product_vector
from product.protocol import dfs_weight, phase_gate
import subrad.protocol
from subrad import dynamics, perturb
from subrad.fields import FIELD_KINDS, FieldSpec, TruncationError
from subrad.model import FrozenRecord, SystemParams
from subrad.protocol import (
    NoSubradiantSectorError,
    TruncationRefusal,
    component_outcome,
    plan,
    run,
    trajectory,
)

G = 2 * math.pi * 24e3


def ratio_params(n_atoms, ratio=100.0):
    return SystemParams.from_detuning_ratio(n_atoms, G, ratio)


def protocol_pass(params, field, times, **options):
    """The protocol command's pass, `_run`, with `run`'s defaults for the options not given."""
    return subrad.protocol._run(params, field, times, **{**run.__kwdefaults__, **options})


def field_with_mean(kind, mean_n):
    """A field of the given kind with mean photon number mean_n (a Fock field rounds it)."""
    return {
        "fock": FieldSpec.fock(round(mean_n)),
        "coherent": FieldSpec.coherent(math.sqrt(mean_n)),
        "thermal": FieldSpec.thermal(mean_n),
    }[kind]


# -- plan ----------------------------------------------------------------------


def test_plan_two_atoms():
    p = ratio_params(2)
    pair = plan(p)
    assert type(pair) is tuple
    t_m, phi = pair
    assert p.alpha * t_m == pytest.approx(math.pi / 4, abs=1e-12)
    assert phi == pytest.approx(math.pi / 2, abs=1e-12)


def test_plan_rydberg_point():
    p = SystemParams.from_detuning_ratio(10, G, 30.0)
    t_m, _ = plan(p)
    assert t_m == pytest.approx(22e-6, abs=0.5e-6)
    assert math.sin(p.alpha * t_m) == pytest.approx(math.sqrt(10 / 36), abs=1e-12)


@pytest.mark.parametrize("n_atoms", range(2, 13))
def test_plan_invariants(n_atoms):
    p = ratio_params(n_atoms)
    t_m, phi = plan(p)
    assert math.sin(p.alpha * t_m) == pytest.approx(
        math.sqrt(n_atoms / (4 * n_atoms - 4)), abs=1e-12
    )
    assert math.cos(phi) == pytest.approx(
        (n_atoms - 2) / (2 * n_atoms - 2), abs=1e-12
    )
    assert math.sin(phi) == pytest.approx(
        math.sqrt(n_atoms * (3 * n_atoms - 4)) / (2 * (n_atoms - 1)), abs=1e-12
    )


def test_plan_branches_ascend():
    p = ratio_params(5)
    times = [plan(p, branch=b)[0] for b in range(4)]
    assert times == sorted(times)
    assert all(t > 0 for t in times)
    # odd branches sit on the descending lobe and flip the phase sign
    assert plan(p, branch=1)[1] == pytest.approx(-plan(p, branch=0)[1])


def test_plan_rejects_single_atom():
    with pytest.raises(NoSubradiantSectorError, match="no subradiant sector"):
        plan(SystemParams(n_atoms=1, omega_a=1e6, omega_c=2e6, g=1e4))


def test_plan_negative_detuning():
    t_m, phi = plan(ratio_params(4, ratio=-100.0))
    assert t_m > 0
    assert phi < 0
    assert math.cos(phi) == pytest.approx((4 - 2) / (2 * 4 - 2), abs=1e-12)


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
    t_m, phi = plan(p, branch=branch)
    vec = effective_product_vector(p, t_m)
    vec[0] *= np.exp(-1j * phi)
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
    assert rep["fidelity_subradiant"] >= 0.999
    assert rep["fidelity_subradiant"] <= rep["dfs_weight"] + 1e-10
    assert rep["validity_grade"] == "ok"


def test_run_ground_atoms_trivially_stationary():
    rep = run(ratio_params(4), FieldSpec.fock(0), excite_control=False)
    assert rep["fidelity_subradiant"] == pytest.approx(0.0, abs=1e-15)
    assert rep["dfs_weight"] == pytest.approx(0.0, abs=1e-15)
    assert rep["emission_expectation"] == pytest.approx(0.0, abs=1e-15)
    assert rep["pt_coefficient_error"] is None


def test_run_gate_is_load_bearing():
    p = ratio_params(6)
    gated = run(p, FieldSpec.fock(0))
    ungated = run(p, FieldSpec.fock(0), phi_override=0.0)
    assert gated["fidelity_subradiant"] > 0.999
    assert ungated["fidelity_subradiant"] < gated["fidelity_subradiant"] - 0.05
    # without the phase flip the dark weight stays at the free-evolution
    # value (N-1)/N; the gate rotates the rest of the state into the
    # dark subspace
    assert ungated["dfs_weight"] == pytest.approx(5 / 6, abs=0.01)
    assert gated["dfs_weight"] > 0.999


def test_run_alternate_branch():
    rep = run(ratio_params(10), FieldSpec.fock(0), tm_branch=1)
    assert rep["fidelity_subradiant"] >= 0.995


def test_run_negative_detuning():
    rep = run(ratio_params(10, ratio=-100.0), FieldSpec.fock(0))
    assert rep["fidelity_subradiant"] >= 0.995


def test_run_field_independence_quick():
    p = ratio_params(5)
    f0 = run(p, FieldSpec.fock(0))["fidelity_subradiant"]
    f1 = run(p, FieldSpec.fock(1))["fidelity_subradiant"]
    assert abs(f0 - f1) <= 0.02


def test_run_envelope_convergence_in_detuning():
    # pointwise fidelity is not monotone (fast-phase at t_m); the slow-model
    # deviation maxes over the grid and tracks the (g/delta)^2 envelope
    reports = [
        run(ratio_params(5, ratio=r), FieldSpec.fock(0)) for r in (30.0, 100.0, 300.0)
    ]
    errs = [r["pt_coefficient_error"] for r in reports]
    assert errs[0] > errs[1] > errs[2]
    fids = [r["fidelity_subradiant"] for r in reports]
    assert fids[1] > fids[0] and fids[2] > fids[0]


def test_run_thermal_zero_equals_vacuum():
    p = ratio_params(4)
    thermal = run(p, FieldSpec.thermal(0.0))
    vacuum = run(p, FieldSpec.fock(0))
    assert thermal["fidelity_subradiant"] == pytest.approx(
        vacuum["fidelity_subradiant"], abs=1e-14
    )


def test_run_thermal_mixture_aggregates():
    p = ratio_params(4)
    rep = run(p, FieldSpec.thermal(0.05))
    comps = rep["meta"]["mixture_components"]
    assert len(comps) >= 2
    assert sum(c["weight"] for c in comps) == pytest.approx(1.0, abs=1e-10)
    recombined = sum(c["weight"] * c["fidelity_subradiant"] for c in comps)
    assert rep["fidelity_subradiant"] == pytest.approx(recombined, abs=1e-12)
    assert rep["fidelity_subradiant"] >= 0.995


RUN_SCALARS = ("fidelity_subradiant", "dfs_weight", "emission_expectation")


@pytest.mark.parametrize("mean_n", [0.05, 0.4])
def test_run_thermal_equals_weighted_fock_runs(mean_n):
    p = ratio_params(5, ratio=60.0)
    field = FieldSpec.thermal(mean_n)
    rep = run(p, field)
    components = field.components(field.required_n_max(p.n_atoms))
    fock = [(w, run(p, FieldSpec.fock(n))) for w, n in components]
    for key in RUN_SCALARS:
        expected = sum(w * r[key] for w, r in fock)
        assert rep[key] == pytest.approx(expected, abs=1e-12), key
    expected = sum(w * r["pt_coefficient_error"] for w, r in fock)
    assert rep["pt_coefficient_error"] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize(
    "n_atoms, amplitude, control_index",
    [(3, 1.0, 0), (4, 0.7 - 0.9j, 2), (5, 0.4j, 1)],
)
def test_run_coherent_matches_superposition_oracle(n_atoms, amplitude, control_index):
    # the coherent field as one superposition over all blocks, evolved at once,
    # with any atom as the control atom: H is permutation symmetric
    p = ratio_params(n_atoms, ratio=80.0)
    field = FieldSpec.coherent(amplitude)
    rep = run(p, field)
    basis = build_basis(n_atoms, field.required_n_max(n_atoms))
    initial = control_excited_state(basis, coherent_amplitudes(amplitude, basis.n_max), control_index)
    prop = compile_propagator(p, basis, block_ids=list(initial.block_amps))
    at_t_m = evolve(prop, initial, rep["t_m_seconds"])
    final = phase_gate(at_t_m, rep["phi_radians"], control_index)
    target = subradiant_target_vector(n_atoms, control_index)
    jpjm = collective_operator(basis, "J+J-", block_ids=list(final.block_amps))
    assert rep["fidelity_subradiant"] == pytest.approx(
        marginal_projected_weight(final, target), abs=1e-12
    )
    assert rep["dfs_weight"] == pytest.approx(dfs_weight(final), abs=1e-12)
    assert rep["emission_expectation"] == pytest.approx(jpjm.expectation(final), abs=1e-12)


@pytest.mark.parametrize(
    "field", [FieldSpec.fock(1), FieldSpec.coherent(0.5j), FieldSpec.thermal(0.2)]
)
def test_run_meta_has_one_shape(field):
    params = ratio_params(3)
    rep = run(params, field)
    meta = rep["meta"]
    assert set(meta) == {"package_version", "n_max", "max_block_dim", "mixture_components"}
    comps = meta["mixture_components"]
    blocks = [dynamics.compile_propagator(params, c["n"] + 1, meta["n_max"]) for c in comps]
    dims = [len(block.rungs) for block in blocks]
    assert meta["max_block_dim"] == max(dims) <= 2 * 3
    assert [(c["weight"], c["n"]) for c in comps] == field.components(meta["n_max"])
    recombined = sum(c["weight"] * c["fidelity_subradiant"] for c in comps)
    assert rep["fidelity_subradiant"] == pytest.approx(recombined, abs=1e-12)


@pytest.mark.parametrize("field", [FieldSpec.fock(2), FieldSpec.coherent(1.0)])
def test_run_memory_does_not_grow_with_the_default_cutoff(field):
    # at N = 10^7 the default cutoff is about 10^7 levels; a cutoff-long field
    # vector alone would take 160 MB, while a block holds at most 2(n + 2) rungs
    params = SystemParams.from_detuning_ratio(10**7, 2 * math.pi * 1e4, 2e4)
    tracemalloc.start()
    try:
        rep = run(params, field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["meta"]["n_max"] > 10**7
    assert peak < 2e6


def test_run_truncation_refusal():
    with pytest.raises(TruncationRefusal, match="clipped block"):
        run(ratio_params(2), FieldSpec.fock(3), n_max=3)


def test_run_thermal_refuses_a_cutoff_below_its_components():
    with pytest.raises(TruncationError, match="n_max"):
        run(ratio_params(2), FieldSpec.thermal(0.5), n_max=4)


def named_cutoff(params, field, **options):
    """The cutoff that a refusal of `options["n_max"]` names as the smallest that runs."""
    with pytest.raises((TruncationError, TruncationRefusal)) as info:
        run(params, field, **options)
    return int(re.search(r"this run needs n_max >= (\d+)$", str(info.value)).group(1))


@pytest.mark.parametrize("excite_control", [True, False])
@pytest.mark.parametrize(
    "field",
    [FieldSpec.thermal(m) for m in (0.05, 0.1, 0.2, 0.25, 0.3, 1.0)]
    + [FieldSpec.coherent(a) for a in (0.1, 1.0, 1 + 1j)]
    + [FieldSpec.fock(n) for n in (0, 3)],
    ids=lambda f: f"{f.kind}-{f.mean_n:g}",
)
def test_refusal_names_the_smallest_cutoff_that_runs(field, excite_control):
    params = ratio_params(3)
    least = named_cutoff(params, field, n_max=-1, excite_control=excite_control)
    run(params, field, n_max=least, excite_control=excite_control)
    assert named_cutoff(params, field, n_max=least - 1, excite_control=excite_control) == least


def test_thermal_refusal_names_one_above_the_field_cutoff():
    # thermal(0.3) keeps levels up to 12, and level 12 weighs 1.755e-8 on block 13
    params, field = ratio_params(3), FieldSpec.thermal(0.3)
    field_refusal = r"needs n_max >= 12, got 6; this run needs n_max >= 13"
    with pytest.raises(TruncationError, match=field_refusal):
        run(params, field, n_max=6)
    with pytest.raises(TruncationRefusal, match=r"M=13 \(n_max=12\); this run needs n_max >= 13"):
        run(params, field, n_max=12)
    assert run(params, field, n_max=13)["meta"]["n_max"] == 13


def test_refusal_of_a_field_that_fits_no_cutoff():
    # exp(-|a|^2 / 2) underflows to 0, so every cutoff leaves out the whole field
    refusal = r"underflows to 0, so no cutoff can hold the field; no n_max up to \d+ runs it$"
    for n_max in (5, 3000):
        with pytest.raises(TruncationError, match=refusal):
            run(ratio_params(3), FieldSpec.coherent(40.0), n_max=n_max)


def counted_fit(monkeypatch):
    """The cutoffs protocol._fit is tried at, in call order."""
    fit, cutoffs = subrad.protocol._fit, []

    def counted(field, c, n_max):
        cutoffs.append(n_max)
        return fit(field, c, n_max)

    monkeypatch.setattr(subrad.protocol, "_fit", counted)
    return cutoffs


def test_refusal_of_a_field_that_fits_no_cutoff_tries_two_cutoffs(monkeypatch):
    # the default cutoff is tried first; when it fails, no other cutoff is searched
    cutoffs = counted_fit(monkeypatch)
    with pytest.raises(TruncationError, match=r"no n_max up to \d+ runs it$"):
        run(ratio_params(3), FieldSpec.coherent(40.0), n_max=5)
    assert cutoffs == [5, FieldSpec.coherent(40.0).required_n_max(3)]


@pytest.mark.parametrize("n_max", [0, 5, 12])
def test_cutoff_search_bisects(monkeypatch, n_max):
    # thermal(0.3) first runs at n_max 13 (see the test above); the default cutoff is 23
    params, field = ratio_params(3), FieldSpec.thermal(0.3)
    top = field.required_n_max(3)
    cutoffs = counted_fit(monkeypatch)
    with pytest.raises((TruncationError, TruncationRefusal), match=r"needs n_max >= 13$"):
        run(params, field, n_max=n_max)
    assert cutoffs[:2] == [n_max, top]
    assert len(cutoffs) <= 2 + math.ceil(math.log2(top - n_max))


def test_run_flags_invalid_but_proceeds():
    rep = run(ratio_params(10, ratio=30.0), FieldSpec.fock(9))
    assert rep["validity"] >= 0.3
    assert rep["validity_grade"] == "invalid"
    assert 0.0 <= rep["fidelity_subradiant"] <= 1.0


def test_grades_are_no_fidelity_floor_beyond_branch_one():
    # the grade reads v alone; 1 - F <~ 4 v^2 holds on branches 0 and 1, not later ones
    params = ratio_params(2, ratio=27.46)
    losses = []
    for branch in range(4):
        rep = run(params, FieldSpec.fock(26), tm_branch=branch)
        assert rep["validity"] == pytest.approx(0.268, abs=5e-4)
        assert rep["validity_grade"] == "marginal"
        losses.append(1.0 - rep["fidelity_subradiant"])
    assert losses[3] == pytest.approx(0.795, abs=5e-4)
    ratios = [loss / rep["validity"]**2 for loss in losses]
    assert ratios == pytest.approx([1.28, 1.11, 7.99, 11.1], abs=5e-3)


def test_an_ok_run_can_lose_to_the_excite_only_baseline():
    # exciting the control atom alone puts (N-1)/N on |D>, so a run helps only where 1 - F < 1/N
    params = ratio_params(200, ratio=300.0)
    dark = dynamics.TRAJECTORY_COLUMNS.index("p_subradiant")
    for n in (0, 1):
        start = trajectory(params, FieldSpec.fock(n), [0.0])
        assert start[0, dark] == pytest.approx(199 / 200, abs=1e-15)
    vacuum, one_photon = (run(params, FieldSpec.fock(n)) for n in (0, 1))
    assert vacuum["validity_grade"] == one_photon["validity_grade"] == "ok"
    assert 1.0 - vacuum["fidelity_subradiant"] == pytest.approx(4.3e-5, abs=5e-7)
    assert 1.0 - one_photon["fidelity_subradiant"] == pytest.approx(8.7e-3, abs=5e-5)
    assert 1.0 - vacuum["fidelity_subradiant"] < 1 / 200 < 1.0 - one_photon["fidelity_subradiant"]


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(
    n_atoms=st.integers(2, 500),
    ratio=st.floats(1.0, 3000.0),
    sign=st.sampled_from([1.0, -1.0]),
    n=st.integers(0, 30),
    branch=st.integers(0, 1),
)
def test_the_grades_are_fidelity_floors_on_branches_zero_and_one(n_atoms, ratio, sign, n, branch):
    # 1 - F <= 4 v^2, so `ok` (v < 0.1) means F >= 0.96 and `marginal` (v < 0.3) F >= 0.64
    params = ratio_params(n_atoms, sign * ratio)
    assume(perturb.validity_parameter(params, n) < 0.3)
    rep = run(params, FieldSpec.fock(n), tm_branch=branch)
    assert 1.0 - rep["fidelity_subradiant"] <= 4.0 * rep["validity"]**2


def test_the_emission_of_the_prepared_state_tracks_its_loss():
    # <J+J-> of the prepared state is about N (1 - F): with photons, the loss is a photon
    # absorbed on top of |D> (see the next test), where <J+J-> = N - 2 per unit weight
    ratios = []
    for n_atoms, ratio in itertools.product((50, 200, 1000), (100.0, 300.0, 1000.0)):
        for field in (FieldSpec.fock(1), FieldSpec.fock(4), FieldSpec.thermal(1.0)):
            rep = run(ratio_params(n_atoms, ratio), field)
            if rep["validity"] < 0.3:
                loss = n_atoms * (1.0 - rep["fidelity_subradiant"])
                ratios.append(rep["emission_expectation"] / loss)
    assert len(ratios) == 23 and 0.85 <= min(ratios) and max(ratios) <= 1.07
    # a lone excited control atom, which excite-only prepares, has <J+J-> = 1
    rep = run(ratio_params(200, 300.0), FieldSpec.fock(1))
    assert rep["validity_grade"] == "ok"
    assert rep["emission_expectation"] == pytest.approx(1.7116, rel=1e-3)


def test_the_loss_is_a_cavity_photon_in_vacuum_and_an_absorbed_photon_otherwise():
    # 1 - F_n of the gated Fock component, split by rung: rung 0 (the excitation back in
    # the cavity), |S> and rung 2 of the ladder j = N/2 - 1 (|D> with a photon absorbed)
    columns = dynamics.TRAJECTORY_COLUMNS[1:]
    dark, bright = columns.index("p_subradiant"), columns.index("p_symmetric")
    shares = {n: [] for n in (0, 1, 4)}
    for n_atoms, ratio in itertools.product((50, 200, 1000), (100.0, 300.0, 1000.0)):
        params = ratio_params(n_atoms, ratio)
        t_m, phi = plan(params)
        for n, share in shares.items():
            if perturb.validity_parameter(params, n) >= 0.3:
                continue
            block = dynamics.compile_propagator(params, n + 1, n + 1)
            psi = np.where(block.rungs == 1, block.control_share, 0.0)
            evolved = dynamics.evolve(block, psi, t_m)
            gated = subrad.protocol.phase_gate(block, evolved, phi)
            cols = dynamics.readouts(block, gated)
            weights = np.abs(gated) ** 2
            loss = 1.0 - cols[dark]
            rung_0 = weights[block.rungs == 0].sum() / loss
            absorbed = weights[(block.rungs == 2) & (block.ladder == 1)].sum() / loss
            share.append((rung_0, cols[bright] / loss, absorbed))
    # measured: rung 0 holds 0.892-0.9996 of the vacuum loss; rung 2 of ladder 1 holds
    # 0.8915-0.998 at n = 1 and 0.950-0.998 at n = 4, and |S> at most 0.0065 and 0.0014
    assert [len(share) for share in shares.values()] == [8, 8, 7]
    assert min(rung_0 for rung_0, _, _ in shares[0]) >= 0.88
    assert all(absorbed == 0.0 for *_, absorbed in shares[0])  # block 1 has no rung 2
    for n in (1, 4):
        assert min(absorbed for *_, absorbed in shares[n]) >= 0.88, n
        assert max(bright for _, bright, _ in shares[n]) <= 0.01, n


def slow_plan_loss(n_atoms, ratio, n, periods=0.0, dphi=0.0):
    """1 - F_n at g/2pi = 10 kHz with the slow plan's gate moved `periods` fast
    periods 2 pi / omega_f late, omega_f = sqrt(delta^2 + 4 N g^2), and `dphi` off its phase."""
    params = SystemParams.from_detuning_ratio(n_atoms, 2 * math.pi * 1e4, ratio)
    t_m, phi = plan(params)
    omega_f = math.sqrt(params.delta**2 + 4 * n_atoms * params.g**2)
    t = t_m + periods * 2 * math.pi / omega_f
    return 1.0 - component_outcome(params, n, 1, n + 1, t, phi + dphi, 1)[0]


# ROADMAP "Measured": 1 - F_4 of the slow plan with the gate moved by 0, 1%, 3%
# and 10% of a fast period, late (the table) and early
SLOW_PLAN_TIMING = {
    (200, 100.0): {0.0: 0.19, 0.01: 0.18, 0.03: 0.17, 0.10: 0.11, -0.01: 0.20, -0.03: 0.21,
                   -0.10: 0.25},
    (200, 300.0): {0.0: 0.034, 0.01: 0.034, 0.03: 0.033, 0.10: 0.028, -0.01: 0.034,
                   -0.03: 0.035, -0.10: 0.034},
    (1000, 1000.0): {0.0: 1.3e-3, 0.01: 1.6e-3, 0.03: 2.2e-3, 0.10: 5.1e-3, -0.01: 1.0e-3,
                     -0.03: 6.0e-4, -0.10: 9.7e-6},
}


def test_the_slow_plan_timing_window_is_the_measured_one():
    # the figures have two digits, so each is off by at most 5% of itself
    for (n_atoms, ratio), row in SLOW_PLAN_TIMING.items():
        got = {periods: slow_plan_loss(n_atoms, ratio, 4, periods) for periods in row}
        assert got == pytest.approx(row, rel=0.05), (n_atoms, ratio)


def test_the_slow_plan_phase_bound_is_the_measured_one():
    # +-30 mrad on the phase adds at most 5.23e-5 to 1 - F_n (N=200, delta/g=100, n=4, +30 mrad)
    increases = [
        slow_plan_loss(n_atoms, ratio, n, dphi=dphi) - slow_plan_loss(n_atoms, ratio, n)
        for n_atoms, ratio in ((50, 100.0), (200, 100.0), (200, 300.0), (1000, 1000.0))
        for n in (0, 4)
        for dphi in (-0.03, 0.03)
    ]
    assert 5.2e-5 < max(increases) <= 5.5e-5


def test_a_plan_for_one_atom_more_or_less_costs_only_at_small_n():
    # the vacuum slow plan of N0 atoms run on N0 - 1, N0 and N0 + 1 atoms with the same g
    # and delta (ROADMAP "Measured"); each figure has three digits or two, so 5% holds it
    def losses(n_atoms, ratio):
        params = SystemParams.from_detuning_ratio(n_atoms, 2 * math.pi * 1e4, ratio)
        t_m, phi = plan(params)
        actual = (
            SystemParams(nn, params.omega_a, params.omega_c, params.g)
            for nn in (n_atoms - 1, n_atoms, n_atoms + 1)
        )
        return [1.0 - component_outcome(p, 0, 1, 1, t_m, phi, 1)[0] for p in actual]

    assert losses(10, 100.0) == pytest.approx([1.49e-3, 1.14e-5, 1.19e-3], rel=0.05)
    assert losses(50, 100.0) == pytest.approx([2.02e-5, 7.8e-6, 1.34e-5], rel=0.05)
    # from N0 = 200 one atom moves the loss by less than 1% (measured: 0.7% and 0.6%)
    for n_atoms, ratio in ((200, 300.0), (1000, 1000.0)):
        fewer, exact, more = losses(n_atoms, ratio)
        assert fewer == pytest.approx(exact, rel=0.01) and more == pytest.approx(exact, rel=0.01)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n_atoms=st.integers(2, 200),
    ratio=st.floats(20.0, 3000.0),
    kind=st.sampled_from(FIELD_KINDS),
    mean_n=st.floats(0.0, 1.5),
    branch=st.integers(0, 2),
)
def test_the_sign_of_the_detuning_is_a_symmetry(n_atoms, ratio, kind, mean_n, branch):
    # H(-delta) = -S H(delta) S with S = (-1)^e on the rungs: a run at -delta is the
    # conjugate of the run at delta, so the gate time is the same and its phase flips
    field = field_with_mean(kind, mean_n)
    above, below = ratio_params(n_atoms, ratio), ratio_params(n_atoms, -ratio)
    up, down = run(above, field, tm_branch=branch), run(below, field, tm_branch=branch)
    assert up["t_m_seconds"] == down["t_m_seconds"] and up["phi_radians"] == -down["phi_radians"]
    assert up["fidelity_subradiant"] == pytest.approx(down["fidelity_subradiant"], abs=1e-14)
    # <J+J-> reaches about N (1 - F), where 1e-14 is below one ulp
    assert up["emission_expectation"] == pytest.approx(down["emission_expectation"], rel=1e-14)
    pairs = zip(up["meta"]["mixture_components"], down["meta"]["mixture_components"], strict=True)
    for a, b in pairs:
        assert (a["weight"], a["n"]) == (b["weight"], b["n"])
        # the +-delta blocks are diagonalized apart, so a component agrees to 1e-14 or to
        # its phase-rounding floor eps max|w| t_m, which the thermal tail can exceed
        block = dynamics.compile_propagator(above, a["n"] + 1, up["meta"]["n_max"])
        floor = np.finfo(float).eps * np.max(np.abs(block.eigenvalues)) * up["t_m_seconds"]
        tolerance = max(1e-14, floor)
        assert a["fidelity_subradiant"] == pytest.approx(b["fidelity_subradiant"], abs=tolerance)
    times = dynamics.default_trajectory_times(above, 20)
    populations = [trajectory(p, field, times)[:, 1:5] for p in (above, below)]
    assert np.max(np.abs(populations[0] - populations[1])) <= 1e-14


@pytest.mark.parametrize("fidelity", [1.5, math.nan])
def test_run_refuses_metrics_out_of_order(monkeypatch, fidelity):
    outcome = (fidelity, 0.0, 0.0, 3)  # fidelity, <J+J->, slow-model error, block size
    monkeypatch.setattr(subrad.protocol, "component_outcome", lambda *args: outcome)
    message = (
        "metric ordering violated: expected 0 <= fidelity <= dfs <= 1, "
        f"got fidelity={fidelity}, dfs={fidelity}"
    )
    with pytest.raises(ValueError, match=re.escape(message)):
        run(ratio_params(3), FieldSpec.fock(0))


def test_metrics_out_of_order_are_refused_before_the_trajectory(monkeypatch):
    # delta/g = 6e4 at N = 2: the trajectory to 2 t_m fails its phase-rounding check
    params, field = ratio_params(2, 6e4), FieldSpec.fock(0)
    times = dynamics.default_trajectory_times(params, 8)
    with pytest.raises(ValueError, match="phase rounding"):
        protocol_pass(params, field, times)
    monkeypatch.setattr(subrad.protocol, "_outcome", lambda *args: (1.5, 0.0, 0.0, 3))
    with pytest.raises(ValueError, match="metric ordering violated"):
        protocol_pass(params, field, times)


def test_every_run_returns_a_new_report():
    params, field = ratio_params(3), FieldSpec.thermal(0.3)
    first = run(params, field)
    expected = copy.deepcopy(first)
    first["meta"]["mixture_components"][0]["n"] = -1
    first["meta"]["mixture_components"].append({})
    first["field"]["kind"] = "fock"
    second = run(params, field)  # served by the memo of component_outcome
    assert second is not first and second == expected


# make an instance; a field that refuses assignment and deletion;
# whether equal instances compare and hash equal; [(refused constructor, message)]
VALUE_TYPES = [
    pytest.param(
        lambda: ratio_params(3),
        "g",
        True,
        [
            (lambda: SystemParams(0, 0.0, 1.0, 1.0), "need at least one atom, got 0"),
            (lambda: SystemParams(2, 0.0, 1.0, -1.0), "coupling must be positive, got -1.0"),
            (lambda: SystemParams(2, 1.0, 1.0, 1.0), "detuning vanishes (omega_c == omega_a)"),
        ],
        id="SystemParams",
    ),
    pytest.param(
        lambda: FieldSpec.coherent(0.5 + 0.25j),
        "amplitude",
        True,
        [
            (lambda: FieldSpec("squeezed"), "unknown field kind 'squeezed'"),
            (lambda: FieldSpec.fock(-1), "Fock level must be >= 0, got -1"),
            (lambda: FieldSpec.thermal(-0.5), "mean occupation must be >= 0, got -0.5"),
        ],
        id="FieldSpec",
    ),
    pytest.param(
        lambda: dynamics.compile_propagator(ratio_params(3), 2, 4), "rungs", False, [], id="Block"
    ),
]


@pytest.mark.parametrize("make, frozen_field, by_value, refusals", VALUE_TYPES)
def test_value_type_contract(make, frozen_field, by_value, refusals):
    value = make()
    assert isinstance(value, FrozenRecord) and not isinstance(value, tuple)
    with pytest.raises(AttributeError):
        setattr(value, frozen_field, getattr(value, frozen_field))
    with pytest.raises(AttributeError):
        delattr(value, frozen_field)
    if by_value:
        again = make()
        assert again is not value and again == value and hash(again) == hash(value)
    for build, message in refusals:
        with pytest.raises(ValueError, match=re.escape(message)):
            build()


def test_value_types_print_their_fields():
    assert repr(SystemParams(3, 0.0, 30.0, 1.0)) == (
        "SystemParams(n_atoms=3, omega_a=0.0, omega_c=30.0, g=1.0)"
    )
    assert repr(FieldSpec.coherent(0.5 + 0.25j)) == (
        "FieldSpec(kind='coherent', n=0, amplitude=(0.5+0.25j), mean_occupation=0.0)"
    )
    assert repr(FieldSpec.thermal(0.3)) == (
        "FieldSpec(kind='thermal', n=0, amplitude=0j, mean_occupation=0.3)"
    )


class _Pair(FrozenRecord):
    __slots__ = ("left", "right")


def test_frozen_record_fills_its_fields_by_name():
    pair = _Pair(right=2, left=1)
    assert (pair.left, pair.right) == (1, 2) and pair == _Pair(left=1, right=2)
    for fields in ({}, {"left": 1}, {"left": 1, "right": 2, "middle": 3}, {"left": 1, "rite": 2}):
        with pytest.raises(TypeError, match="_Pair takes exactly the fields left, right"):
            _Pair(**fields)


# -- per-process reuse of component outcomes -------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    n_atoms=st.integers(2, 30),
    ratio=st.floats(10.0, 1000.0),
    m_total=st.integers(0, 25),
    extra=st.integers(0, 10),
)
def test_block_below_the_cutoff_does_not_depend_on_it(n_atoms, ratio, m_total, extra):
    # the memo of protocol.run keys a block M by min(n_max, M), which needs this
    params = ratio_params(n_atoms, ratio)
    tight = dynamics.compile_propagator(params, m_total, m_total)
    loose = dynamics.compile_propagator(params, m_total, m_total + extra)
    assert np.array_equal(tight.rungs, loose.rungs)
    assert np.array_equal(tight.ladder, loose.ladder)
    assert np.array_equal(tight.eigenvalues, loose.eigenvalues)
    assert np.array_equal(tight.eigenvectors, loose.eigenvectors)


def test_clipped_last_component_same_with_cold_and_warm_cache():
    params, field = ratio_params(3), FieldSpec.coherent(1.0)
    cold = run(params, field, n_max=11)
    last = cold["meta"]["mixture_components"][-1]
    # component n=11 starts in block 12, above the cutoff, with weight below the refusal limit
    assert last["n"] == 11 and 0.0 < last["weight"] <= 1e-8
    t_m, phi = plan(params)
    clipped = component_outcome(params, 11, 1, 11, t_m, phi, 101)
    unclipped = component_outcome(params, 11, 1, 12, t_m, phi, 101)
    assert last["fidelity_subradiant"] == clipped[0] != unclipped[0]
    # a run with a higher cutoff caches block 12 unclipped; the clipped run must not reuse it
    run(params, field, n_max=12)
    warm = run(params, field, n_max=11)
    assert component_outcome.cache_info().currsize == 14
    assert warm == cold


@settings(max_examples=150, deadline=None)
@given(
    n_atoms=st.integers(2, 40),
    ratio=st.floats(10.0, 3000.0),
    sign=st.sampled_from([1.0, -1.0]),
    n=st.integers(0, 12),
    c=st.sampled_from([0, 1]),
    extra=st.integers(0, 3),
    branch=st.integers(0, 1),
    pt_times=st.integers(1, 120),
)
def test_component_outcome_is_what_the_public_steps_give(
    n_atoms, ratio, sign, n, c, extra, branch, pt_times
):
    # one V' psi and one phase scan serve t_m and the slow-model grid; a cutoff n_max = n
    # clips the block n + 1 of an excited control atom
    params = ratio_params(n_atoms, sign * ratio)
    t_m, phi = plan(params, branch)
    n_max = n + extra
    block = dynamics.compile_propagator(params, n + c, n_max)
    psi = np.where(block.rungs == c, block.control_share if c else 1.0, 0.0)
    (at_t_m,) = dynamics.evolve_grid(block, psi, [t_m])
    gated = subrad.protocol.phase_gate(block, at_t_m[0], phi)
    cols = dict(zip(dynamics.TRAJECTORY_COLUMNS[1:], dynamics.readouts(block, gated)))
    pt_error = None  # without the control excitation or a grid of two points, no check
    if c and pt_times >= 2:
        pt_error = perturb.slow_model_error(block, psi, np.linspace(0.0, t_m, pt_times))
    expected = (float(cols["p_subradiant"]), float(cols["jpjm"]), pt_error, len(block.rungs))
    assert component_outcome.__wrapped__(params, n, c, n_max, t_m, phi, pt_times) == expected


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n_atoms=st.integers(2, 40),
    ratio=st.floats(20.0, 1000.0),
    sign=st.sampled_from([1.0, -1.0]),
    kind=st.sampled_from(FIELD_KINDS),
    mean_n=st.floats(0.0, 3.0),
    excite=st.booleans(),
    branch=st.integers(0, 1),
)
def test_run_is_the_weighted_sum_of_its_component_outcomes(
    n_atoms, ratio, sign, kind, mean_n, excite, branch
):
    # run sums the per-component kernel over the field's weights, left to right, so the
    # per-Fock vector F_n certifies every field: F >= (1 - eps) min_{n <= n*} F_n, where
    # eps is the field's weight above n*
    params = ratio_params(n_atoms, sign * ratio)
    field = field_with_mean(kind, mean_n)
    gate = (*plan(params, branch), run.__kwdefaults__["pt_times"])
    n_max, components = subrad.protocol.fock_components(params, field, excite_control=excite)
    c = 1 if excite else 0
    outcomes = [
        (w, n, *component_outcome(params, n, c, min(n_max, n + c), *gate)) for w, n in components
    ]
    rep = run(params, field, excite_control=excite, tm_branch=branch)
    assert rep["fidelity_subradiant"] == sum(w * fid for w, _, fid, *_ in outcomes)
    assert rep["emission_expectation"] == sum(w * jpjm for w, _, _, jpjm, *_ in outcomes)
    weight = sum(w for w, _ in components)
    pt_error = sum(w * pt for w, *_, pt, _ in outcomes) / weight if c else None
    assert rep["pt_coefficient_error"] == pt_error
    assert rep["meta"]["mixture_components"] == [
        {"weight": w, "n": n, "fidelity_subradiant": fid} for w, n, fid, *_ in outcomes
    ]
    lowest, below = 1.0, 0.0  # min F_n and the weight over n <= n*
    for w, _, fid, *_ in outcomes:
        lowest, below = min(lowest, fid), below + w
        assert rep["fidelity_subradiant"] >= (1.0 - (weight - below)) * lowest


@settings(max_examples=60, deadline=None)
@given(
    n_atoms=st.integers(2, 12),
    ratio=st.floats(20.0, 1000.0),
    sign=st.sampled_from([1.0, -1.0]),
    kind=st.sampled_from(FIELD_KINDS),
    mean_n=st.floats(0.0, 1.5),
    excite=st.booleans(),
    branch=st.integers(0, 1),
    points=st.integers(1, 200),
)
def test_the_protocol_pass_gives_run_and_trajectory(
    n_atoms, ratio, sign, kind, mean_n, excite, branch, points
):
    # the protocol command's single pass over the components against the two public calls
    params = ratio_params(n_atoms, sign * ratio)
    field = field_with_mean(kind, mean_n)
    options = dict(excite_control=excite, tm_branch=branch)
    times = dynamics.default_trajectory_times(params, points)
    report, table = protocol_pass(params, field, times, **options)
    assert report == run(params, field, **options)
    assert np.array_equal(table, trajectory(params, field, times, excite_control=excite))


def test_the_reported_slow_model_error_comes_from_slow_model_error(monkeypatch):
    # the public function, which a tracer can wrap, computes every component's error
    calls = []
    original = subrad.protocol.slow_model_error

    def counted(block, psi, times):
        calls.append(len(times))
        return original(block, psi, times)

    monkeypatch.setattr(subrad.protocol, "slow_model_error", counted)
    params = ratio_params(5)
    field = FieldSpec.thermal(0.4)
    _, components = subrad.protocol.fock_components(params, field)
    first = run(params, field, pt_times=7)
    assert run(params, field, pt_times=7) == first  # the memo serves the second
    assert calls == [7] * len(components) and len(components) > 1
    calls.clear()
    times = dynamics.default_trajectory_times(params, 20)
    report, _ = protocol_pass(params, field, times, pt_times=7)
    assert calls == [7] * len(components)
    assert report["pt_coefficient_error"] == first["pt_coefficient_error"] > 0.0
    calls.clear()
    dark = dict(pt_times=7, excite_control=False)
    assert run(params, field, **dark)["pt_coefficient_error"] is None
    protocol_pass(params, field, times, **dark)
    assert calls == []
