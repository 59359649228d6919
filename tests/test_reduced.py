"""The permutation-reduced |c, k, n> engine against the product-basis engine."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subrad import reduced
from subrad.dynamics import (
    compile_propagator,
    default_trajectory_times,
    evolve,
    marginal_projected_weight,
    trajectory_rows,
)
from subrad.fields import FieldSpec
from subrad.hilbert import PureState, atom_code, build_basis, subradiant_target_vector
from subrad.model import SystemParams, build_h0, build_hamiltonian, collective_operator
from subrad.perturb import exact_vs_effective_error
from subrad.protocol import ProtocolOptions, dfs_weight, fock_components, phase_gate, plan, run

G = 2 * math.pi * 24e3


def rounding_floor(params, field, t):
    """How closely two correct engines can agree on a state evolved to time t.

    Both round exp(-iEt) at double precision, a phase error of about
    eps |E| t, where |E| is about |delta| M on block M in the atomic frame;
    averaged over the field's components, <M> = <n> + 1.  Over the sampled
    range this reaches about 1e-11 (delta/g = 176, tm_branch 1), and the
    engines were seen to differ by up to 1.2 times it.
    """
    return 8 * np.finfo(float).eps * abs(params.delta) * (field.mean_n + 1) * t


def product_components(params, field, options):
    """(p_n, product state) per Fock component, on one product basis."""
    n_max, components = fock_components(params, field, options)
    basis = build_basis(params.n_atoms, n_max)
    code = atom_code(options.control_index, params.n_atoms) if options.excite_control else 0
    return [(w, PureState.from_amplitudes(basis, {(code, n): 1.0})) for w, n in components]


def product_run(params, field, options):
    """Fidelity, dark weight, <J+J-> and slow-model error on the product basis."""
    pl = plan(params, branch=options.tm_branch)
    phi = pl.phi if options.phi_override is None else options.phi_override
    ci = options.control_index
    target = subradiant_target_vector(params.n_atoms, ci)
    times = np.linspace(0.0, pl.t_m, options.pt_times)
    fid = dark = jpjm = pt = pt_weight = 0.0
    for w, initial in product_components(params, field, options):
        (m,) = initial.block_amps
        prop = compile_propagator(params, initial.basis, block_ids=[m])
        final = phase_gate(evolve(prop, initial, pl.t_m), phi, ci)
        fid += w * marginal_projected_weight(final, target)
        dark += w * dfs_weight(final)
        jpjm += w * collective_operator(initial.basis, "J+J-", block_ids=[m]).expectation(final)
        if options.excite_control:
            pt += w * exact_vs_effective_error(prop, m, times, ci)
            pt_weight += w
    return fid, dark, jpjm, (pt / pt_weight if pt_weight else None)


@st.composite
def protocol_cases(draw):
    n_atoms = draw(st.integers(min_value=2, max_value=8))
    ratio = draw(st.floats(min_value=20.0, max_value=200.0)) * draw(st.sampled_from([1, -1]))
    kind = draw(st.sampled_from(["fock", "coherent", "thermal"]))
    excite = draw(st.booleans())
    if kind == "fock":
        field = FieldSpec.fock(draw(st.integers(min_value=0, max_value=3)))
        small = field.n + excite
    elif kind == "coherent":
        part = st.floats(min_value=-0.8, max_value=0.8)
        field = FieldSpec.coherent(complex(draw(part), draw(part)))
        amp = abs(field.amplitude)
        small = math.ceil(amp**2 + 6 * amp + 4) + 3
    else:
        field = FieldSpec.thermal(draw(st.floats(min_value=0.0, max_value=0.4)))
        small = field.components()[-1][1] + 1
    options = ProtocolOptions(
        n_max=draw(st.sampled_from([None, small])),
        tm_branch=draw(st.integers(min_value=0, max_value=1)),
        phi_override=draw(st.one_of(st.none(), st.floats(min_value=-math.pi, max_value=math.pi))),
        excite_control=excite,
        control_index=draw(st.integers(min_value=0, max_value=n_atoms - 1)),
        pt_times=draw(st.integers(min_value=1, max_value=40)),
    )
    return SystemParams.from_detuning_ratio(n_atoms, G, ratio), field, options


@given(protocol_cases())
@settings(max_examples=40, deadline=None)
def test_run_matches_product_engine(case):
    params, field, options = case
    rep = run(params, field, options)
    fid, dark, jpjm, pt = product_run(params, field, options)
    floor = rounding_floor(params, field, rep.t_m_seconds)
    assert rep.fidelity_subradiant == pytest.approx(fid, abs=1e-12 + floor)
    assert rep.dfs_weight == pytest.approx(dark, abs=1e-12 + floor)
    assert rep.emission_expectation == pytest.approx(jpjm, abs=1e-12 + params.n_atoms * floor)
    if pt is None:
        assert rep.pt_coefficient_error is None
    else:
        assert rep.pt_coefficient_error == pytest.approx(pt, abs=1e-10 + floor)


@given(protocol_cases(), st.integers(min_value=1, max_value=150))
@settings(max_examples=30, deadline=None)
def test_trajectory_matches_product_engine(case, points):
    params, field, options = case
    options = dataclasses.replace(options, control_index=0)  # the product readout's control atom
    times = default_trajectory_times(params, points)
    n_max, components = fock_components(params, field, options)
    rows = reduced.trajectory_rows(params, n_max, components, options.excite_control, times)
    expected = trajectory_rows(params, product_components(params, field, options), times)
    assert len(rows) == len(expected) == points
    floor = rounding_floor(params, field, times[-1])
    for row, ref in zip(rows, expected):
        assert row.keys() == ref.keys()
        for key, value in ref.items():
            scale = params.n_atoms if key == "jpjm" else 1
            assert row[key] == pytest.approx(value, abs=1e-10 + scale * floor), key


@pytest.mark.parametrize("n_atoms", [1, 2, 3, 5])
@pytest.mark.parametrize("n_max", [0, 1, 2])
@pytest.mark.parametrize("excited", [True, False])
def test_trajectory_on_clipped_blocks(n_atoms, n_max, excited):
    # blocks M > n_max lose their high-photon states; the couplings into them vanish
    params = SystemParams.from_detuning_ratio(n_atoms, G, 40.0)
    times = default_trajectory_times(params, 20)
    basis = build_basis(n_atoms, n_max)
    code = atom_code(0, n_atoms) if excited else 0
    for n in range(n_max + 1):
        rows = reduced.trajectory_rows(params, n_max, [(1.0, n)], excited, times)
        state = PureState.from_amplitudes(basis, {(code, n): 1.0})
        for row, ref in zip(rows, trajectory_rows(params, [(1.0, state)], times)):
            for key, value in ref.items():
                assert row[key] == pytest.approx(value, abs=1e-10), (n, key)


@pytest.mark.parametrize("n_atoms", range(1, 9))
@pytest.mark.parametrize("n_max", [1, None])
@pytest.mark.parametrize("h0_only", [False, True])
def test_spectrum_matches_product_blocks(n_atoms, n_max, h0_only):
    params = SystemParams.from_detuning_ratio(n_atoms, G, 30.0)
    n_max = n_atoms + 2 if n_max is None else n_max  # 1 clips every block above M=1
    basis = build_basis(n_atoms, n_max)
    builder = build_h0 if h0_only else build_hamiltonian
    for m in basis.block_ids:
        expected = np.linalg.eigvalsh(builder(params, basis, block_ids=[m]).block(m))
        got = reduced.spectrum(params, m, n_max, h0_only)
        assert got.shape == expected.shape, m
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(got - expected)) <= 1e-10 * scale, m


def test_spectrum_in_the_laboratory_frame():
    params = SystemParams(n_atoms=5, omega_a=2 * math.pi * 1e9, omega_c=2 * math.pi * 1e9 + 40 * G, g=G)
    basis = build_basis(5, 4)
    for m in basis.block_ids:
        expected = np.linalg.eigvalsh(build_hamiltonian(params, basis, block_ids=[m]).block(m))
        got = reduced.spectrum(params, m, 4)
        assert np.max(np.abs(got - expected)) <= 1e-10 * np.max(np.abs(expected)), m


def test_laboratory_frame_run_matches_the_atomic_frame():
    # the metrics depend only on delta and g; the block offset keeps w t small
    lab = SystemParams(n_atoms=6, omega_a=2 * math.pi * 5e9, omega_c=2 * math.pi * 5e9 + 60 * G, g=G)
    atomic = SystemParams.from_detuning_ratio(6, G, lab.delta / G)
    field = FieldSpec.thermal(0.2)
    a, b = run(lab, field), run(atomic, field)
    for key in ("fidelity_subradiant", "dfs_weight", "emission_expectation"):
        assert getattr(a, key) == pytest.approx(getattr(b, key), abs=1e-12), key
    times = default_trajectory_times(atomic, 50)
    n_max, components = fock_components(atomic, field, ProtocolOptions())
    rows_lab = reduced.trajectory_rows(lab, n_max, components, True, times)
    rows_atomic = reduced.trajectory_rows(atomic, n_max, components, True, times)
    for row, ref in zip(rows_lab, rows_atomic):
        for key, value in ref.items():
            assert row[key] == pytest.approx(value, abs=1e-11), key


def test_block_has_at_most_two_n_states():
    params = SystemParams.from_detuning_ratio(200, G, 100.0)
    block = reduced.compile_block(params, 150, 160)
    assert len(block.states) == 2 * 150 + 1  # k = 0..149 for c = 1, 0..150 for c = 0
    assert np.all(block.states.sum(axis=1) == 150)


def test_compile_block_refuses_a_negative_cutoff():
    with pytest.raises(ValueError, match="Fock truncation"):
        reduced.compile_block(SystemParams.from_detuning_ratio(3, G, 30.0), 1, -1)
