"""Degenerate second-order theory: numerical matrix vs closed forms."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from product.dynamics import compile_propagator, evolve
from product.hilbert import PureState, atom_code, build_basis, subradiant_target_vector
from product.model import build_hint
from product.perturb import (
    AccidentalDegeneracyError,
    DegenerateSector,
    build_sector,
    effective_product_vector,
    exact_vs_effective_error,
    second_order_matrix,
)
from subrad.dynamics import spectrum
from subrad.fields import FieldSpec
from subrad.model import SystemParams
from subrad.perturb import (
    closed_form_corrections,
    slow_amplitudes,
    validity_grade,
    validity_parameter,
)
from subrad.protocol import run

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
    delta_e1, delta_ei = closed_form_corrections(p, n)
    want = np.sort([delta_e1] + [delta_ei] * (n_atoms - 1))
    scale = max(abs(delta_e1), abs(delta_ei))
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
    delta_e1, delta_ei = closed_form_corrections(p, 1)
    assert p.alpha == pytest.approx(2.51e4, abs=0.02e4)
    assert delta_ei - delta_e1 == pytest.approx(2 * p.alpha, rel=1e-12)


def test_closed_form_single_atom_branch_absent():
    p = SystemParams(n_atoms=1, omega_a=1e6, omega_c=1e6 + 30 * G, g=G)
    for n in (1, 2, 5):
        delta_e1, delta_ei = closed_form_corrections(p, n)
        assert delta_ei is None
        assert delta_e1 == pytest.approx(-p.g**2 * n / p.delta)


@pytest.mark.parametrize("n_atoms", [2, 4, 9])
def test_gap_identity_all_n(n_atoms):
    p = ratio_params(n_atoms, ratio=51.0)
    for n in range(1, 7):
        delta_e1, delta_ei = closed_form_corrections(p, n)
        assert abs(delta_ei - delta_e1 - 2 * p.alpha) < 1e-12 * abs(p.alpha)


def test_alpha_is_bit_identical_across_n():
    p = ratio_params(6)
    # the report's slow rate sits beside the shifts of sector n = round(<n>) + 1
    alphas = {run(p, FieldSpec.fock(n))["perturbation"]["alpha_per_s"] for n in range(8)}
    assert alphas == {p.alpha}  # never reads n


# -- effective slow evolution -------------------------------------------------


def test_effective_evolve_initial_expansion():
    p = ratio_params(7)
    control, other = slow_amplitudes(p, 0.0)
    assert control == pytest.approx(1.0)
    assert other == pytest.approx(0.0)
    # the control-excited state is 1/sqrt(N) symmetric and sqrt((N-1)/N) dark
    vec = effective_product_vector(p, 0.0)
    assert np.sum(vec) / math.sqrt(7) == pytest.approx(1 / math.sqrt(7))
    assert np.vdot(subradiant_target_vector(7), vec) == pytest.approx(math.sqrt(6 / 7))


def test_effective_evolve_half_period_two_atoms():
    p = ratio_params(2)
    t = (math.pi / 2) / p.alpha
    control, other = slow_amplitudes(p, t)
    assert abs(control) < 1e-12
    assert abs(other) == pytest.approx(1.0)


@given(
    n_atoms=st.integers(min_value=2, max_value=12),
    at=st.floats(min_value=-20.0, max_value=20.0),
)
@settings(max_examples=60, deadline=None)
def test_effective_coefficients_normalized(n_atoms, at):
    p = ratio_params(n_atoms)
    control, other = slow_amplitudes(p, at / p.alpha)
    total = abs(control) ** 2 + (n_atoms - 1) * abs(other) ** 2
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


def test_each_photon_shifts_the_slow_frequency_by_4g2_over_delta2():
    # alpha_n = (E_D - E_S) / 2 from the exact levels that connect to rung 1 of block
    # n + 1 on ladders 0 (|S>) and 1 (|D>): alpha_n / alpha = 1 - x + c x^2 with
    # x = (N + 4n) g^2 / delta^2.  Measured: c in [0.967, 2.113] on these 346 cases.  Below
    # x = 1e-3 the rounding of levels that carry omega_c M moves c by up to 0.04.
    coefficients = []
    for n_atoms, ratio, sign, n in itertools.product(
        (2, 3, 5, 10, 20, 50, 200, 1000),
        (10, 15, 20, 30, 50, 100, 300, 1000),
        (1, -1),
        (0, 1, 2, 4, 8, 16, 32, 64),
    ):
        x = (n_atoms + 4 * n) / ratio**2
        if not 1e-3 <= x <= 0.05:
            continue
        p = ratio_params(n_atoms, sign * ratio)
        values, rungs, ladders, _ = spectrum(p, n + 1, n + 1)
        (e_s,) = values[(rungs == 1) & (ladders == 0)]
        (e_d,) = values[(rungs == 1) & (ladders == 1)]
        alpha_n = (e_d - e_s) / 2
        coefficients.append((alpha_n / p.alpha - (1 - x)) / x**2)
    assert len(coefficients) == 346
    assert 0.9 <= min(coefficients) and max(coefficients) <= 2.2
