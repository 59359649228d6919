"""Field-state constructors: normalization, moments, truncation tails."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from product.hilbert import coherent_amplitudes
from subrad.cli import _parse_config
from subrad.fields import TAIL_MASS, WEIGHT_FLOOR, FieldSpec, TruncationError


def mean_photons(components):
    return math.fsum(w * n for w, n in components)


def total_weight(components):
    return math.fsum(w for w, _ in components)


def test_fock_amplitudes():
    assert FieldSpec.fock(0).components(4) == [(1.0, 0)]

    f3 = FieldSpec.fock(3)
    comps = f3.components(6)
    assert comps == [(1.0, 3)]
    assert mean_photons(comps) == pytest.approx(3.0)
    assert f3.mean_n == 3.0


def test_fock_out_of_truncation():
    with pytest.raises(TruncationError, match="Fock level 5 above the truncation 4"):
        FieldSpec.fock(5).components(4)


def test_coherent_zero_is_vacuum():
    assert FieldSpec.coherent(0.0).components(6) == [(1.0, 0)]


def test_coherent_poisson_distribution():
    f = FieldSpec.coherent(1.0)
    comps = f.components(f.required_n_max(1))
    weights = {n: w for w, n in comps}
    for n in range(6):
        assert weights[n] == pytest.approx(math.exp(-1.0) / math.factorial(n), rel=1e-10)
    assert total_weight(comps) == pytest.approx(1.0, abs=1e-10)
    assert mean_photons(comps) == pytest.approx(1.0, abs=1e-8)


def test_coherent_refuses_tight_truncation():
    with pytest.raises(TruncationError, match=r"needs n_max >= 20, got 5$"):
        FieldSpec.coherent(2.0).components(5)


def test_coherent_refuses_a_field_whose_vacuum_amplitude_underflows():
    # exp(-|a|^2/2) is 0 in doubles from a mean of about 1490.3 on
    runs = FieldSpec.coherent(math.sqrt(1490.0))
    assert total_weight(runs.components(runs.required_n_max(3))) == pytest.approx(1.0)
    for n_max in (5, 1844, 3000):
        with pytest.raises(TruncationError, match="underflows to 0, so no cutoff can hold"):
            FieldSpec.coherent(40.0).components(n_max)


@given(
    re=st.floats(min_value=-1.8, max_value=1.8),
    im=st.floats(min_value=-1.8, max_value=1.8),
)
@settings(max_examples=40, deadline=None)
def test_coherent_moments_property(re, im):
    f = FieldSpec.coherent(complex(re, im))
    comps = f.components(f.required_n_max(1))
    assert total_weight(comps) == pytest.approx(1.0, abs=1e-10)
    assert mean_photons(comps) == pytest.approx(abs(complex(re, im)) ** 2, abs=1e-8)


def test_thermal_zero_mean():
    assert FieldSpec.thermal(0.0).components(0) == [(1.0, 0)]


def test_thermal_geometric_weights():
    f = FieldSpec.thermal(1.0)
    comps = f.components(f.required_n_max(0))
    weights = dict((n, w) for w, n in comps)
    assert weights[0] == pytest.approx(0.5, abs=1e-8)
    assert weights[1] == pytest.approx(0.25, abs=1e-8)
    assert sum(w for w, _ in comps) == pytest.approx(1.0, abs=1e-10)


@given(mean=st.floats(min_value=0.0, max_value=4.0))
@settings(max_examples=40, deadline=None)
def test_thermal_moments_property(mean):
    f = FieldSpec.thermal(mean)
    comps = f.components(f.required_n_max(0))
    assert sum(w for w, _ in comps) == pytest.approx(1.0, abs=1e-10)
    got = sum(w * n for w, n in comps)
    assert got == pytest.approx(mean, abs=1e-6 * max(mean, 1.0))


def test_pure_components_are_amplitude_weights():
    assert FieldSpec.fock(3).components(3) == [(1.0, 3)]
    assert FieldSpec.fock(3).components(7) == [(1.0, 3)]
    f = FieldSpec.coherent(0.8 - 0.6j)
    probs = np.abs(coherent_amplitudes(f.amplitude, 20)) ** 2
    comps = f.components(20)
    assert [n for _, n in comps] == [n for n in range(21) if probs[n] >= WEIGHT_FLOOR]
    assert [w for w, _ in comps] == pytest.approx([probs[n] for _, n in comps], rel=1e-12, abs=0)
    assert sum(w for w, _ in comps) == pytest.approx(1.0, abs=1e-12)


def test_components_refuse_a_cutoff_below_the_field():
    with pytest.raises(TruncationError):
        FieldSpec.fock(5).components(4)
    with pytest.raises(TruncationError, match="n_max"):
        FieldSpec.coherent(2.0).components(5)
    f = FieldSpec.thermal(0.5)
    top = f.components(f.required_n_max(0))[-1][1]
    assert f.components(top) == f.components(f.required_n_max(0))
    with pytest.raises(TruncationError, match=rf"needs n_max >= {top}, got {top - 1}$"):
        f.components(top - 1)
    with pytest.raises(TypeError, match="n_max"):
        FieldSpec.coherent(1.0).components()


def test_components_cost_nothing_for_a_higher_cutoff():
    # a 10^12 cutoff would ask for terabytes if any kind built a cutoff-long vector
    assert FieldSpec.fock(2).components(10**12) == [(1.0, 2)]
    coherent = FieldSpec.coherent(1.0)
    assert coherent.components(10**12) == coherent.components(10**6)
    thermal = FieldSpec.thermal(0.5)
    assert thermal.components(10**12) == thermal.components(thermal.required_n_max(0))


def test_json_round_trips():
    base = {"n_atoms": 3, "g_over_2pi_hz": 1e4, "delta_over_g": 50.0}
    for f in (FieldSpec.fock(2), FieldSpec.coherent(0.3 - 0.4j), FieldSpec.thermal(0.7)):
        again = _parse_config({**base, "field": f.describe()})["field"]
        assert again == f


def test_from_json_rejects_unknown_kind():
    base = {"n_atoms": 3, "g_over_2pi_hz": 1e4, "delta_over_g": 50.0}
    with pytest.raises(ValueError, match="kind"):
        _parse_config({**base, "field": {"kind": "squeezed"}})


def test_required_n_max_rule():
    assert FieldSpec.fock(0).required_n_max(10) == 0 + 10 + 4
    assert FieldSpec.coherent(1.0).required_n_max(10) == 1 + 10 + 10
    # thermal headroom is set by the largest retained component
    f = FieldSpec.thermal(0.5)
    top = max(n for _, n in f.components(10**6))
    assert f.required_n_max(4) == top + 4 + math.ceil(6 * math.sqrt(0.5) + 4)


def loop_thermal_weights(nbar):
    """The thermal weights as a loop grows them, level by level, until r^(n+1) < TAIL_MASS."""
    if nbar == 0.0:
        return [(1.0, 0)]
    r = nbar / (1.0 + nbar)
    weights = []
    p = 1.0 / (1.0 + nbar)
    n = 0
    while True:
        weights.append((p, n))
        if r ** (n + 1) < TAIL_MASS:
            break
        p *= r
        n += 1
    total = sum(w for w, _ in weights)
    return [(w / total, n) for w, n in weights]


def loop_thermal_top(nbar):
    """The last level of loop_thermal_weights, by the same test and without the weights."""
    r = nbar / (1.0 + nbar)
    n = 0
    while r ** (n + 1) >= TAIL_MASS:
        n += 1
    return n


THERMAL_MEANS = [0.0, 1e-300, 1e-12] + [
    float(m) for m in 10.0 ** np.random.default_rng(0).uniform(-8.0, 4.0, 3000)
]


def level_edge(k):
    """The 13 floats around the mean at which r^k = TAIL_MASS, where level k - 1 ends the
    weights; there log and ** round apart, and the bare closed form misses by one level."""
    r = TAIL_MASS ** (1.0 / k)
    mean = r / (1.0 - r)
    return [mean + i * math.ulp(mean) for i in range(-6, 7)]


@pytest.mark.parametrize(
    "means", [THERMAL_MEANS, [m for k in range(1, 400) for m in level_edge(k)]],
    ids=["log-uniform", "level-edges"],
)
def test_thermal_top_is_where_the_loop_stops(means):
    tops = [FieldSpec.thermal(m)._thermal_top() for m in means]
    assert tops == [loop_thermal_top(m) for m in means]


def test_thermal_weights_are_the_loop_weights_bit_for_bit():
    for m in [m for m in THERMAL_MEANS if m <= 100.0][:300]:  # 0, 1e-300, 1e-12 come first
        f = FieldSpec.thermal(m)
        assert f.components(f.required_n_max(0)) == loop_thermal_weights(m), m


def test_a_thermal_cutoff_is_read_without_building_the_weights():
    # nbar = 1e12 keeps about 1.8e13 levels, which no loop over the levels could name
    f = FieldSpec.thermal(1e12)
    r = 1e12 / (1.0 + 1e12)
    top = f.required_n_max(0) - math.ceil(6 * math.sqrt(1e12) + 4)
    assert top > 10**13 and r ** (top + 1) < TAIL_MASS <= r**top
    assert f.required_n_max(4) == top + 4 + math.ceil(6 * math.sqrt(1e12) + 4)
    with pytest.raises(TruncationError, match=rf"needs n_max >= {top}, got {top - 1}$"):
        f.components(top - 1)


def test_a_thermal_field_whose_ratio_rounds_to_one_is_refused():
    # nbar / (1 + nbar) rounds to 1.0 at nbar = 1e16: no level ends the geometric tail
    f = FieldSpec.thermal(1e16)
    for fits in (lambda: f.required_n_max(3), lambda: f.components(10**18)):
        with pytest.raises(TruncationError, match="no tail below 1e-08 in double precision"):
            fits()


def test_mean_n_property():
    assert FieldSpec.fock(4).mean_n == 4.0
    assert FieldSpec.coherent(2.0).mean_n == pytest.approx(4.0)
    assert FieldSpec.thermal(0.35).mean_n == 0.35
