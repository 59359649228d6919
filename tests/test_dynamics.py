"""Propagator correctness, unitarity, and reduced-state extraction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subrad.dynamics import (
    TIME_CHUNK,
    EigensolverError,
    compile_propagator,
    default_trajectory_times,
    evolve,
    expectation,
    marginal_projected_weight,
    reduce_atomic,
    sector_weights,
    trajectory_rows,
)
from subrad.hilbert import (
    PureState,
    atom_code,
    build_basis,
    control_excited_state,
    subradiant_atomic_vectors,
    subradiant_target,
    subradiant_target_vector,
    symmetric_atomic_vector,
    symmetric_state,
)
from subrad.protocol import dfs_weight
from subrad.model import SystemParams, build_hamiltonian, collective_operator

G = 2 * math.pi * 24e3


def ratio_params(n_atoms, ratio=30.0):
    return SystemParams.from_detuning_ratio(n_atoms, G, ratio)


def test_jaynes_cummings_doublet():
    # analytic 2x2 oracle: eigenvalues are mean(diag) +- sqrt((delta/2)^2 + g^2)
    p = SystemParams(n_atoms=1, omega_a=5.0e5, omega_c=8.0e5, g=1.0e4)
    b = build_basis(1, 1)
    prop = compile_propagator(p, b, block_ids=[1])
    e_ground_1ph = -p.omega_a / 2 + p.omega_c
    e_excited_0ph = p.omega_a / 2
    mean = (e_ground_1ph + e_excited_0ph) / 2
    split = math.sqrt((p.delta / 2) ** 2 + p.g**2)
    expected = np.array([mean - split, mean + split])
    assert np.allclose(prop.eigenvalues[1], expected, rtol=1e-12)


def test_vacuum_rabi_limit():
    # delta -> 0: the single-excitation doublet splits by 2g
    p = SystemParams(n_atoms=1, omega_a=1.0e6, omega_c=1.0e6 + 1e-2, g=1.0e4)
    b = build_basis(1, 1)
    prop = compile_propagator(p, b, block_ids=[1])
    w = prop.eigenvalues[1]
    assert w[1] - w[0] == pytest.approx(2 * p.g, rel=1e-10)


def test_eigenvector_unitarity_and_determinism():
    p = ratio_params(4)
    b = build_basis(4, 2)
    prop1 = compile_propagator(p, b)
    prop2 = compile_propagator(p, b)
    for m in b.block_ids:
        v = prop1.eigenvectors[m]
        assert np.max(np.abs(v.conj().T @ v - np.eye(v.shape[0]))) < 1e-12
        assert np.array_equal(v, prop2.eigenvectors[m])
        assert list(prop1.eigenvalues[m]) == sorted(prop1.eigenvalues[m])


def test_evolve_identity_at_t0():
    p = ratio_params(3)
    b = build_basis(3, 1)
    prop = compile_propagator(p, b)
    st0 = symmetric_state(b, 1)
    st = evolve(prop, st0, 0.0)
    assert abs(st.inner(st0) - 1.0) < 1e-12


def test_stationary_state_populations():
    # the zero-excitation state is the lone member of its block: exact eigenstate
    p = ratio_params(3)
    b = build_basis(3, 2)
    prop = compile_propagator(p, b)
    st0 = PureState.from_amplitudes(b, {(0, 0): 1.0})
    st = evolve(prop, st0, 1.0 / p.alpha)
    assert abs(abs(st.amplitude(0, 0)) - 1.0) < 1e-12


def test_composition_and_inversion():
    p = ratio_params(4)
    b = build_basis(4, 1)
    prop = compile_propagator(p, b)
    st0 = control_excited_state(b, np.array([1.0, 0.0]))
    t1, t2 = 0.37 / p.alpha, 0.91 / p.alpha
    once = evolve(prop, st0, t1 + t2)
    twice = evolve(prop, evolve(prop, st0, t1), t2)
    diff = math.sqrt(sum(np.linalg.norm(once.block_amps[m] - twice.block_amps[m]) ** 2 for m in once.block_amps))
    assert diff < 1e-9
    back = evolve(prop, evolve(prop, st0, t1), -t1)
    assert abs(back.inner(st0) - 1.0) < 1e-9


def test_unsupported_block_raises():
    p = ratio_params(2)
    b = build_basis(2, 1)
    prop = compile_propagator(p, b, block_ids=[1])
    st0 = PureState.from_amplitudes(b, {(0b11, 1): 1.0})  # block 3
    with pytest.raises(KeyError, match="block 3"):
        evolve(prop, st0, 1e-6)


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    tfrac=st.floats(min_value=0.0, max_value=10.0),
)
@settings(max_examples=25, deadline=None)
def test_norm_conservation_random_states(seed, tfrac):
    p = ratio_params(3)
    b = build_basis(3, 1)
    prop = compile_propagator(p, b)
    rng = np.random.default_rng(seed)
    amps = {}
    for m in b.block_ids:
        blk = b.block(m)
        amps[m] = rng.normal(size=blk.dim) + 1j * rng.normal(size=blk.dim)
    total = math.sqrt(sum(float(np.vdot(v, v).real) for v in amps.values()))
    st0 = PureState(b, {m: v / total for m, v in amps.items()})
    st = evolve(prop, st0, tfrac / p.alpha)
    assert abs(st.norm() - 1.0) < 1e-10


def test_block_confinement():
    p = ratio_params(3)
    b = build_basis(3, 2)
    prop = compile_propagator(p, b)
    st0 = control_excited_state(b, np.array([0.0, 1.0, 0.0]))
    st = evolve(prop, st0, 3.3 / p.alpha)
    assert set(st.block_amps) == set(st0.block_amps) == {2}
    dense = st.to_dense()
    blk = b.block(2)
    outside = np.delete(dense, np.arange(blk.offset, blk.offset + blk.dim))
    assert np.all(outside == 0)


def test_energy_conservation():
    p = ratio_params(4)
    b = build_basis(4, 1)
    prop = compile_propagator(p, b)
    h = build_hamiltonian(p, b)
    st0 = control_excited_state(b, np.array([1.0, 0.0]))
    e0 = h.expectation(st0)
    for tfrac in (0.3, 1.7, 6.9):
        e = h.expectation(evolve(prop, st0, tfrac / p.alpha))
        assert e == pytest.approx(e0, rel=1e-8)


def test_interaction_picture_strips_free_phases():
    p = ratio_params(2)
    b = build_basis(2, 1)
    prop = compile_propagator(p, b)
    st0 = PureState.from_amplitudes(b, {(0, 0): 1.0})  # H0 (and H) eigenstate
    t = 2.1 / p.alpha
    schro = evolve(prop, st0, t)
    inter = evolve(prop, st0, t, interaction_picture=True)
    # same populations in both pictures; the H eigenstate also regains phase 1
    assert abs(abs(schro.amplitude(0, 0)) - 1.0) < 1e-12
    assert abs(inter.amplitude(0, 0) - 1.0) < 1e-12


def test_expectation_dispatch():
    b = build_basis(2, 0)
    singlet = subradiant_target(b, 0)
    jpjm = collective_operator(b, "J+J-")
    assert expectation(singlet, jpjm) == pytest.approx(0.0)
    sym = symmetric_state(b, 0)
    assert expectation(sym, jpjm) == pytest.approx(2.0)
    jm = collective_operator(b, "J-")
    assert expectation(sym, jm) == pytest.approx(0.0)  # off-diagonal, complex path


def test_reconstruction_guard_raises_on_bad_matrix():
    p = ratio_params(2)
    b = build_basis(2, 0)
    h = build_hamiltonian(p, b)
    h.blocks[1] = h.blocks[1] + np.array([[0, 1e-3 * p.g], [0, 0]])  # break Hermiticity
    with pytest.raises(EigensolverError, match="block 1"):
        compile_propagator(p, b, hamiltonian=h)


# -- reduced atomic state ----------------------------------------------------


def test_reduce_atomic_product_state_is_pure():
    b = build_basis(2, 2)
    st = control_excited_state(b, np.array([0.5, 0.5, math.sqrt(0.5)]))
    rho = reduce_atomic(st)
    assert rho.trace() == pytest.approx(1.0, abs=1e-10)
    assert rho.purity() == pytest.approx(1.0, abs=1e-10)
    assert rho.hermiticity_error() < 1e-12
    assert rho.min_eigenvalue() > -1e-12
    # the atomic marginal is exactly |10><10|
    assert rho.matrix[0b10, 0b10].real == pytest.approx(1.0)


def test_reduce_atomic_entangled_half_purity():
    b = build_basis(1, 1)
    st = PureState.from_amplitudes(
        b, {(1, 0): 1 / math.sqrt(2), (0, 1): 1 / math.sqrt(2)}
    )
    rho = reduce_atomic(st)
    assert rho.trace() == pytest.approx(1.0, abs=1e-12)
    assert rho.purity() == pytest.approx(0.5, abs=1e-12)


def test_reduce_atomic_matches_marginal_overlaps():
    p = ratio_params(3, ratio=20.0)
    b = build_basis(3, 2)
    prop = compile_propagator(p, b)
    st = evolve(prop, control_excited_state(b, np.array([0.0, 1.0, 0.0])), 0.8 / p.alpha)
    rho = reduce_atomic(st)
    target = subradiant_target_vector(3)
    dense = np.zeros(8, dtype=complex)
    dense[0b100], dense[0b010], dense[0b001] = target
    assert rho.projected_weight(dense) == pytest.approx(
        marginal_projected_weight(st, target), abs=1e-12
    )


def test_reduce_atomic_refuses_huge_spaces():
    b = build_basis(13, 0)
    st = PureState.from_amplitudes(b, {(0, 0): 1.0})
    with pytest.raises(ValueError, match="atomic density"):
        reduce_atomic(st)


# -- trajectory sampling -------------------------------------------------------


def test_trajectory_rows_columns_and_norms():
    p = ratio_params(3, ratio=50.0)
    b = build_basis(3, 1)
    prop = compile_propagator(p, b, block_ids=[1])
    st0 = control_excited_state(b, np.array([1.0, 0.0]))
    times = default_trajectory_times(p, points=9)
    rows = trajectory_rows(prop, st0, times)
    assert len(rows) == 9
    first = rows[0]
    assert first["p_control"] == pytest.approx(1.0)
    assert first["p_symmetric"] == pytest.approx(1.0 / 3.0)
    assert first["p_subradiant"] == pytest.approx(2.0 / 3.0)
    for row in rows:
        assert row["norm_error"] < 1e-10
        total_single = row["p_control"] + row["p_single_offcontrol"]
        assert row["p_symmetric"] + row["p_subradiant"] <= total_single + 1e-9


def test_trajectory_rows_match_per_time_evolve_across_chunks():
    p = ratio_params(4, ratio=40.0)
    b = build_basis(4, 3)
    field = np.array([0.6, 0.48j, 0.64, 0.0])
    st0 = control_excited_state(b, field / np.linalg.norm(field))
    prop = compile_propagator(p, b, block_ids=list(st0.block_amps))
    times = default_trajectory_times(p, points=2 * TIME_CHUNK + 7)
    rows = trajectory_rows(prop, st0, times)
    jpjm = collective_operator(b, "J+J-", block_ids=list(st0.block_amps))
    assert len(rows) == len(times)
    for t, row in zip(times, rows):
        st = evolve(prop, st0, t)
        expected = {"t_seconds": t, **sector_weights(st)}
        expected["jpjm"] = jpjm.expectation(st)
        expected["norm_error"] = abs(st.norm() - 1.0)
        assert row.keys() == expected.keys()
        for key, value in expected.items():
            assert row[key] == pytest.approx(value, abs=1e-12), key


# -- single-excitation readouts against the reduced density ---------------------


def dense_single_excitation(vec):
    n_atoms = len(vec)
    dense = np.zeros(1 << n_atoms, dtype=complex)
    for k in range(n_atoms):
        dense[atom_code(k, n_atoms)] = vec[k]
    return dense


def photon_level_part(state, n_photons):
    """The (unnormalized) component of `state` with exactly n_photons photons."""
    basis = state.basis
    return PureState(
        basis,
        {
            m: np.where([n == n_photons for _, n in basis.block(m).states], v, 0.0)
            for m, v in state.block_amps.items()
        },
    )


@given(
    n_atoms=st.integers(min_value=2, max_value=6),
    n_max=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_single_excitation_readouts_match_density_projections(n_atoms, n_max, seed):
    b = build_basis(n_atoms, n_max)
    rng = np.random.default_rng(seed)
    blocks = [m for m in b.block_ids if rng.random() < 0.7] or [1]
    dims = {m: b.block(m).dim for m in blocks}
    amps = {m: rng.normal(size=d) + 1j * rng.normal(size=d) for m, d in dims.items()}
    total = math.sqrt(sum(float(np.vdot(v, v).real) for v in amps.values()))
    state = PureState(b, {m: v / total for m, v in amps.items()})

    rho = reduce_atomic(state)
    diag = np.diag(rho.matrix).real
    codes = [atom_code(k, n_atoms) for k in range(n_atoms)]
    dark_rows = subradiant_atomic_vectors(n_atoms)
    dark = sum(rho.projected_weight(dense_single_excitation(r)) for r in dark_rows)
    weights = sector_weights(state)
    assert weights["p_control"] == pytest.approx(diag[codes[0]], abs=1e-12)
    assert weights["p_single_offcontrol"] == pytest.approx(diag[codes[1:]].sum(), abs=1e-12)
    sym = dense_single_excitation(symmetric_atomic_vector(n_atoms))
    assert weights["p_symmetric"] == pytest.approx(rho.projected_weight(sym), abs=1e-12)
    assert weights["p_subradiant"] == pytest.approx(dark, abs=1e-12)
    assert dfs_weight(state) == pytest.approx(dark, abs=1e-12)

    v = rng.normal(size=n_atoms) + 1j * rng.normal(size=n_atoms)
    assert marginal_projected_weight(state, v) == pytest.approx(
        rho.projected_weight(dense_single_excitation(v)), abs=1e-12
    )
    n = int(rng.integers(0, n_max + 1))
    rho_n = reduce_atomic(photon_level_part(state, n))
    dark_n = sum(rho_n.projected_weight(dense_single_excitation(r)) for r in dark_rows)
    assert dfs_weight(state, n_photons=n) == pytest.approx(dark_n, abs=1e-12)
    assert marginal_projected_weight(state, v, n_photons=n) == pytest.approx(
        rho_n.projected_weight(dense_single_excitation(v)), abs=1e-12
    )
