"""Field-state constructors: normalization, moments, truncation tails."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subrad.cli import RunConfig
from subrad.fields import WEIGHT_FLOOR, FieldSpec, TruncationError


def mean_photons(amps):
    return float(sum(n * abs(c) ** 2 for n, c in enumerate(amps)))


def test_fock_amplitudes():
    f = FieldSpec.fock(0)
    amps = f.amplitudes(4)
    assert amps[0] == 1.0 and np.all(amps[1:] == 0)

    f3 = FieldSpec.fock(3)
    amps = f3.amplitudes(6)
    assert np.nonzero(amps)[0].tolist() == [3]
    assert mean_photons(amps) == pytest.approx(3.0)
    assert f3.mean_n == 3.0


def test_fock_out_of_truncation():
    with pytest.raises(TruncationError):
        FieldSpec.fock(5).amplitudes(4)


def test_coherent_zero_is_vacuum():
    amps = FieldSpec.coherent(0.0).amplitudes(6)
    assert amps[0] == pytest.approx(1.0)
    assert np.all(amps[1:] == 0)


def test_coherent_poisson_distribution():
    f = FieldSpec.coherent(1.0)
    amps = f.amplitudes(f.required_n_max(1))
    for n in range(6):
        assert abs(amps[n]) ** 2 == pytest.approx(
            math.exp(-1.0) / math.factorial(n), rel=1e-10
        )
    assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-10)
    assert mean_photons(amps) == pytest.approx(1.0, abs=1e-8)


def test_coherent_refuses_tight_truncation():
    with pytest.raises(TruncationError, match="n_max"):
        FieldSpec.coherent(2.0).amplitudes(5)


def test_coherent_refuses_a_field_whose_vacuum_amplitude_underflows():
    # exp(-|a|^2/2) is 0 in doubles from a mean of about 1490.3 on
    runs = FieldSpec.coherent(math.sqrt(1490.0))
    assert math.fsum(abs(runs.amplitudes(runs.required_n_max(3))) ** 2) == pytest.approx(1.0)
    for n_max in (5, 1844, 3000):
        with pytest.raises(TruncationError, match="underflows to 0, so no cutoff can hold"):
            FieldSpec.coherent(40.0).amplitudes(n_max)


@given(
    re=st.floats(min_value=-1.8, max_value=1.8),
    im=st.floats(min_value=-1.8, max_value=1.8),
)
@settings(max_examples=40, deadline=None)
def test_coherent_moments_property(re, im):
    f = FieldSpec.coherent(complex(re, im))
    amps = f.amplitudes(f.required_n_max(1))
    assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-10)
    assert mean_photons(amps) == pytest.approx(abs(complex(re, im)) ** 2, abs=1e-8)


def test_thermal_zero_mean():
    assert FieldSpec.thermal(0.0).components() == [(1.0, 0)]


def test_thermal_geometric_weights():
    comps = FieldSpec.thermal(1.0).components()
    weights = dict((n, w) for w, n in comps)
    assert weights[0] == pytest.approx(0.5, abs=1e-8)
    assert weights[1] == pytest.approx(0.25, abs=1e-8)
    assert sum(w for w, _ in comps) == pytest.approx(1.0, abs=1e-10)


@given(mean=st.floats(min_value=0.0, max_value=4.0))
@settings(max_examples=40, deadline=None)
def test_thermal_moments_property(mean):
    comps = FieldSpec.thermal(mean).components()
    assert sum(w for w, _ in comps) == pytest.approx(1.0, abs=1e-10)
    got = sum(w * n for w, n in comps)
    assert got == pytest.approx(mean, abs=1e-6 * max(mean, 1.0))


def test_pure_components_are_amplitude_weights():
    assert FieldSpec.fock(3).components() == [(1.0, 3)]
    assert FieldSpec.fock(3).components(7) == [(1.0, 3)]
    f = FieldSpec.coherent(0.8 - 0.6j)
    probs = np.abs(f.amplitudes(20)) ** 2
    comps = f.components(20)
    assert [n for _, n in comps] == [n for n in range(21) if probs[n] >= WEIGHT_FLOOR]
    assert [w for w, _ in comps] == [float(probs[n]) for _, n in comps]
    assert sum(w for w, _ in comps) == pytest.approx(1.0, abs=1e-12)


def test_components_refuse_a_cutoff_below_the_field():
    with pytest.raises(TruncationError):
        FieldSpec.fock(5).components(4)
    with pytest.raises(TruncationError, match="n_max"):
        FieldSpec.coherent(2.0).components(5)
    top = FieldSpec.thermal(0.5).components()[-1][1]
    assert FieldSpec.thermal(0.5).components(top) == FieldSpec.thermal(0.5).components()
    with pytest.raises(TruncationError, match="n_max"):
        FieldSpec.thermal(0.5).components(top - 1)
    with pytest.raises(ValueError, match="n_max"):
        FieldSpec.coherent(1.0).components()


def test_json_round_trips():
    base = {"n_atoms": 3, "g_over_2pi_hz": 1e4, "delta_over_g": 50.0}
    for f in (FieldSpec.fock(2), FieldSpec.coherent(0.3 - 0.4j), FieldSpec.thermal(0.7)):
        again = RunConfig.from_json({**base, "field": f.describe()}).field
        assert again == f


def test_from_json_rejects_unknown_kind():
    base = {"n_atoms": 3, "g_over_2pi_hz": 1e4, "delta_over_g": 50.0}
    with pytest.raises(ValueError, match="kind"):
        RunConfig.from_json({**base, "field": {"kind": "squeezed"}})


def test_required_n_max_rule():
    assert FieldSpec.fock(0).required_n_max(10) == 0 + 10 + 4
    assert FieldSpec.coherent(1.0).required_n_max(10) == 1 + 10 + 10
    # thermal headroom is set by the largest retained component
    f = FieldSpec.thermal(0.5)
    top = max(n for _, n in f.components())
    assert f.required_n_max(4) == top + 4 + math.ceil(6 * math.sqrt(0.5) + 4)


def test_mean_n_property():
    assert FieldSpec.fock(4).mean_n == 4.0
    assert FieldSpec.coherent(2.0).mean_n == pytest.approx(4.0)
    assert FieldSpec.thermal(0.35).mean_n == 0.35
