"""Degenerate second-order theory: numerical matrix vs closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subrad.dynamics import compile_propagator, evolve
from subrad.hilbert import PureState, atom_code, build_basis, subradiant_target_vector
from subrad.model import SystemParams, build_hint
from subrad.perturb import (
    AccidentalDegeneracyError,
    DegenerateSector,
    build_sector,
    closed_form_corrections,
    effective_evolve,
    effective_product_vector,
    exact_vs_effective_error,
    second_order_matrix,
    validity_grade,
    validity_parameter,
)

G = 2 * math.pi * 24e3


def ratio_params(n_atoms, ratio=30.0):
    return SystemParams.from_detuning_ratio(n_atoms, G, ratio)


def test_sector_members_and_dimension():
    p = ratio_params(4)
    b = build_basis(4, 3)
    sec = build_sector(p, b, 2)
    assert len(sec.member_local) == 4
    assert len(sec.member_local) + len(sec.intermediate_local) == b.block(2).dim
    assert sec.e0 == pytest.approx(2 * p.omega_c - 2 * p.omega_a - p.delta)


def test_sector_refuses_truncated_block():
    p = ratio_params(3)
    b = build_basis(3, 1)
    with pytest.raises(ValueError, match="clipped"):
        build_sector(p, b, 2)  # block M=2 would need 2 photons


def test_single_atom_matrix_is_dispersive_shift():
    for n in (1, 2, 3):
        p = SystemParams(n_atoms=1, omega_a=1e6, omega_c=1e6 + 40 * G, g=G)
        b = build_basis(1, n)
        mat = second_order_matrix(p, b, build_sector(p, b, n))
        assert mat.shape == (1, 1)
        assert mat[0, 0].real == pytest.approx(-p.g**2 * n / p.delta, rel=1e-12)


@pytest.mark.parametrize("n_atoms", range(2, 7))
@pytest.mark.parametrize("n", range(1, 5))
def test_spectrum_matches_closed_forms(n_atoms, n):
    p = ratio_params(n_atoms, ratio=23.7)
    b = build_basis(n_atoms, n)
    mat = second_order_matrix(p, b, build_sector(p, b, n))
    assert np.max(np.abs(mat - mat.conj().T)) < 1e-20 * abs(p.delta)
    got = np.sort(np.linalg.eigvalsh(mat))
    cf = closed_form_corrections(p, n)
    want = np.sort([cf.delta_e1] + [cf.delta_ei] * (n_atoms - 1))
    scale = max(abs(cf.delta_e1), abs(cf.delta_ei))
    assert np.max(np.abs(got - want)) < 1e-10 * scale


def test_first_order_vanishes_in_sector():
    p = ratio_params(5)
    b = build_basis(5, 2)
    sec = build_sector(p, b, 2)
    hint = build_hint(p, b, block_ids=[2]).block(2)
    sub = hint[np.ix_(sec.member_local, sec.member_local)]
    assert np.max(np.abs(sub)) < 1e-14 * p.g


def test_accidental_degeneracy_guard():
    p = ratio_params(2)
    b = build_basis(2, 1)
    genuine = build_sector(p, b, 1)
    # push the sector energy onto an intermediate level: must refuse
    doctored = DegenerateSector(
        block_id=genuine.block_id,
        e0=genuine.e0 + p.delta * (1 - 1e-8),
        member_local=genuine.member_local,
        intermediate_local=genuine.intermediate_local,
    )
    with pytest.raises(AccidentalDegeneracyError):
        second_order_matrix(p, b, doctored)


def test_closed_form_rydberg_point():
    p = ratio_params(10, ratio=30.0)
    cf = closed_form_corrections(p, 1)
    assert cf.alpha == pytest.approx(2.51e4, abs=0.02e4)
    assert cf.delta_ei - cf.delta_e1 == pytest.approx(2 * cf.alpha, rel=1e-12)


def test_closed_form_single_atom_branch_absent():
    p = SystemParams(n_atoms=1, omega_a=1e6, omega_c=1e6 + 30 * G, g=G)
    for n in (1, 2, 5):
        cf = closed_form_corrections(p, n)
        assert cf.delta_ei is None
        assert cf.delta_e1 == pytest.approx(-p.g**2 * n / p.delta)


@pytest.mark.parametrize("n_atoms", [2, 4, 9])
def test_gap_identity_all_n(n_atoms):
    p = ratio_params(n_atoms, ratio=51.0)
    for n in range(1, 7):
        cf = closed_form_corrections(p, n)
        assert abs(cf.delta_ei - cf.delta_e1 - 2 * cf.alpha) < 1e-12 * abs(cf.alpha)


def test_alpha_is_bit_identical_across_n():
    p = ratio_params(6)
    alphas = {closed_form_corrections(p, n).alpha for n in range(1, 9)}
    assert len(alphas) == 1  # never reads n


# -- effective slow evolution -------------------------------------------------


def test_effective_evolve_initial_expansion():
    p = ratio_params(7)
    co = effective_evolve(p, 0.0)
    assert co.c_symmetric == pytest.approx(1 / math.sqrt(7))
    assert co.c_subradiant == pytest.approx(math.sqrt(6 / 7))
    assert co.c_control == pytest.approx(1.0)
    assert co.c_other == pytest.approx(0.0)


def test_effective_evolve_half_period_two_atoms():
    p = ratio_params(2)
    t = (math.pi / 2) / p.alpha
    co = effective_evolve(p, t)
    assert abs(co.c_control) < 1e-12
    assert abs(co.c_other) == pytest.approx(1.0)


@given(
    n_atoms=st.integers(min_value=2, max_value=12),
    at=st.floats(min_value=-20.0, max_value=20.0),
)
@settings(max_examples=60, deadline=None)
def test_effective_coefficients_normalized(n_atoms, at):
    p = ratio_params(n_atoms)
    co = effective_evolve(p, at / p.alpha)
    total = abs(co.c_control) ** 2 + (n_atoms - 1) * abs(co.c_other) ** 2
    assert total == pytest.approx(1.0, abs=1e-12)
    vec = effective_product_vector(p, at / p.alpha)
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)


# -- validity parameter --------------------------------------------------------


def test_validity_examples():
    p = ratio_params(10, 30.0)
    assert validity_parameter(p, 1.0) == pytest.approx(math.sqrt(20) / 30, rel=1e-12)
    assert validity_parameter(p, 0.0) == pytest.approx(math.sqrt(10) / 30, rel=1e-12)
    p100 = ratio_params(100, 33.0)
    assert validity_parameter(p100, 0.0) == pytest.approx(0.30, abs=0.005)
    assert validity_grade(0.05) == "ok"
    assert validity_grade(0.2) == "marginal"
    assert validity_grade(0.5) == "invalid"


# -- exact vs effective --------------------------------------------------------


def test_exact_vs_effective_small_in_dispersive_regime():
    p = ratio_params(5, ratio=100.0)
    b = build_basis(5, 2)
    prop = compile_propagator(p, b, block_ids=[1])
    t_m = math.asin(math.sqrt(5 / 16)) / p.alpha
    err = exact_vs_effective_error(prop, 1, np.linspace(0, t_m, 51))
    assert err < 5e-4


@pytest.mark.parametrize(
    "n_atoms, block, ratio, control_index",
    [(2, 1, 30.0, 0), (4, 2, 100.0, 0), (5, 3, 50.0, 2), (6, 1, 300.0, 5)],
)
def test_exact_vs_effective_matches_per_time_loop(n_atoms, block, ratio, control_index):
    p = ratio_params(n_atoms, ratio)
    b = build_basis(n_atoms, block + 1)
    prop = compile_propagator(p, b, block_ids=[block])
    times = np.linspace(0.0, 2.5 / p.alpha, 150)
    init = PureState.from_amplitudes(b, {(atom_code(control_index, n_atoms), block - 1): 1.0})
    target = subradiant_target_vector(n_atoms, control_index)
    worst = 0.0
    for t in times:
        st = evolve(prop, init, t)
        exact = np.array([st.amplitude(atom_code(k, n_atoms), block - 1) for k in range(n_atoms)])
        dark = np.vdot(target, exact)
        if abs(dark) > 0:
            exact = exact * (abs(dark) / dark)
        predicted = effective_product_vector(p, t, control_index)
        worst = max(worst, np.max(np.abs(exact - predicted)) / np.max(np.abs(predicted)))
    err = exact_vs_effective_error(prop, block, times, control_index)
    assert err == pytest.approx(worst, abs=1e-12)


def test_exact_vs_effective_refuses_empty_grid():
    p = ratio_params(4, 100.0)
    b = build_basis(4, 1)
    prop = compile_propagator(p, b, block_ids=[1])
    with pytest.raises(ValueError, match="at least one time"):
        exact_vs_effective_error(prop, 1, np.linspace(0.0, 1.0, 0))


def test_splitting_error_scales_quadratically():
    # dark and bright single-excitation levels split by ~ N g^2 / delta,
    # with relative error shrinking as (g/delta)^2
    n_atoms = 4
    errors = []
    for ratio in (30.0, 100.0, 300.0):
        p = ratio_params(n_atoms, ratio)
        b = build_basis(n_atoms, 1)
        prop = compile_propagator(p, b, block_ids=[1])
        w = prop.eigenvalues[1]
        e0 = p.omega_c - n_atoms * p.omega_a / 2 - p.delta
        dark = [x for x in w if abs(x - e0) < 1e-6 * abs(p.delta)]
        assert len(dark) == n_atoms - 1
        bright = min(w)  # pushed below the sector for delta > 0
        splitting = abs(bright - e0)
        predicted = n_atoms * p.g**2 / p.delta
        errors.append(abs(splitting - predicted) / predicted)
    assert errors[0] / errors[1] == pytest.approx((100 / 30) ** 2, rel=0.5)
    assert errors[1] / errors[2] == pytest.approx((300 / 100) ** 2, rel=0.5)
