"""Basis indexing, blocks, and the collective single-excitation states."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from product.hilbert import (
    BasisSizeError,
    PureState,
    atom_code,
    build_basis,
    coherent_amplitudes,
    config_excitations,
    control_excited_state,
    product_state,
    subradiant_atomic_vectors,
    subradiant_basis,
    subradiant_target,
    subradiant_target_vector,
    symmetric_state,
)
from subrad.dynamics import dicke_multiplicity


def test_smallest_basis_enumeration():
    b = build_basis(1, 1)
    assert b.dim == 4
    assert b.block(0).states == ((0, 0),)
    assert set(b.block(1).states) == {(1, 0), (0, 1)}
    assert b.block(2).states == ((1, 1),)


def test_block_dimension_combinatorics():
    b = build_basis(2, 2)
    # M=2 holds C(2,0)+C(2,1)+C(2,2) = 4 states
    assert b.block(2).dim == 4
    b10 = build_basis(10, 0)
    assert b10.block(1).dim == 10


@pytest.mark.parametrize("n_atoms,n_max", [(1, 3), (2, 2), (3, 4), (4, 3)])
def test_index_bijection_exhaustive(n_atoms, n_max):
    b = build_basis(n_atoms, n_max)
    flats = sorted(
        b.flat_index(code, n) for code in range(1 << n_atoms) for n in range(n_max + 1)
    )
    assert flats == list(range(b.dim))
    assert b.dim == (1 << n_atoms) * (n_max + 1)


@given(
    n_atoms=st.integers(min_value=5, max_value=9),
    n_max=st.integers(min_value=0, max_value=6),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_index_bijection_randomized(n_atoms, n_max, data):
    b = build_basis(n_atoms, n_max)
    code = data.draw(st.integers(min_value=0, max_value=(1 << n_atoms) - 1))
    n = data.draw(st.integers(min_value=0, max_value=n_max))
    blk = b.block(b.block_of(code, n))
    assert blk.states[b.flat_index(code, n) - blk.offset] == (code, n)


def test_block_order_photon_desc_then_lexicographic():
    b = build_basis(3, 3)
    blk = b.block(2)
    photons = [n for _, n in blk.states]
    assert photons == sorted(photons, reverse=True)
    for n in set(photons):
        codes = [c for c, m in blk.states if m == n]
        assert codes == sorted(codes)


def test_block_dimension_formula_untruncated():
    b = build_basis(4, 10)
    for m in range(0, b.n_max + 1):  # untruncated range
        assert not b.block(m).truncated
        assert b.block(m).dim == sum(math.comb(4, k) for k in range(min(m, 4) + 1))


def test_truncated_blocks_flagged_and_smaller():
    b = build_basis(3, 1)
    blk = b.block(3)  # would need up to 3 photons
    assert blk.truncated
    assert blk.dim < sum(math.comb(3, k) for k in range(4))
    # every flat index still lands in exactly one block
    assert sum(b.block(m).dim for m in b.block_ids) == b.dim


def test_dimension_cap_refusal():
    with pytest.raises(BasisSizeError) as err:
        build_basis(20, 10, max_dim=1000)
    assert err.value.dim == (1 << 20) * 11


def test_dicke_labels_and_multiplicities():
    assert dicke_multiplicity(4, 2.0) == 1
    assert dicke_multiplicity(4, 1.0) == 3
    assert dicke_multiplicity(4, 0.0) == 2


def test_symmetric_state_amplitudes():
    b = build_basis(2, 0)
    s = symmetric_state(b, 0)
    assert s.amplitude(0b10, 0) == pytest.approx(1 / math.sqrt(2))
    assert s.amplitude(0b01, 0) == pytest.approx(1 / math.sqrt(2))

    b3 = build_basis(3, 1)
    s3 = symmetric_state(b3, 1)
    for k in range(3):
        assert s3.amplitude(atom_code(k, 3), 1) == pytest.approx(1 / math.sqrt(3))
    assert s3.norm() == pytest.approx(1.0, abs=1e-12)


def test_subradiant_target_small_cases():
    b2 = build_basis(2, 1)
    t2 = subradiant_target(b2, 1)
    assert t2.amplitude(0b10, 1) == pytest.approx(1 / math.sqrt(2))
    assert t2.amplitude(0b01, 1) == pytest.approx(-1 / math.sqrt(2))

    b3 = build_basis(3, 0)
    t3 = subradiant_target(b3, 0)
    assert t3.amplitude(0b100, 0) == pytest.approx(2 / math.sqrt(6))
    assert t3.amplitude(0b010, 0) == pytest.approx(-1 / math.sqrt(6))
    assert t3.amplitude(0b001, 0) == pytest.approx(-1 / math.sqrt(6))


@pytest.mark.parametrize("n_atoms", range(2, 9))
def test_target_orthogonal_to_symmetric(n_atoms):
    b = build_basis(n_atoms, 0)
    assert abs(symmetric_state(b, 0).inner(subradiant_target(b, 0))) < 1e-12


@pytest.mark.parametrize("n_atoms", range(2, 13))
def test_target_coefficients_rational(n_atoms):
    # squared amplitudes are exactly (N-1)/N and 1/(N(N-1))
    v = subradiant_target_vector(n_atoms)
    assert abs(v[0] ** 2 - Fraction(n_atoms - 1, n_atoms)) < 1e-14
    for x in v[1:]:
        assert x < 0
        assert abs(x**2 - Fraction(1, n_atoms * (n_atoms - 1))) < 1e-14


@pytest.mark.parametrize("n_atoms", [2, 5, 10])
def test_subradiant_basis_orthonormal_and_complete(n_atoms):
    b = build_basis(n_atoms, 0)
    states = subradiant_basis(b, 0)
    assert len(states) == n_atoms - 1
    # first element is the distinguished target
    assert abs(states[0].inner(subradiant_target(b, 0)) - 1.0) < 1e-12
    family = [symmetric_state(b, 0)] + states
    gram = np.array([[a.inner(c) for c in family] for a in family])
    assert np.max(np.abs(gram - np.eye(n_atoms))) < 1e-12


def test_subradiant_vectors_sum_to_zero():
    # zero column sum is the annihilation condition for collective lowering
    for n_atoms in range(2, 12):
        rows = subradiant_atomic_vectors(n_atoms)
        assert np.max(np.abs(rows.sum(axis=1))) < 1e-12


def test_control_excited_state_blocks():
    b = build_basis(3, 3)
    c = np.zeros(4)
    c[0] = 1.0
    st0 = control_excited_state(b, c)
    assert set(st0.block_amps) == {1}
    assert st0.amplitude(0b100, 0) == pytest.approx(1.0)

    b2 = build_basis(2, 4)
    c = np.zeros(5)
    c[3] = 1.0
    st3 = control_excited_state(b2, c)
    assert set(st3.block_amps) == {4}


def test_control_excited_state_poisson_block_weights():
    # coherent amplitude 1: block M = n+1 carries the Poisson(1) weight of n
    b = build_basis(3, 18)
    state = control_excited_state(b, coherent_amplitudes(1.0, 18))
    for n in range(6):
        poisson = math.exp(-1.0) / math.factorial(n)
        weight = np.sum(np.abs(state.block_amps[n + 1]) ** 2)
        assert weight == pytest.approx(poisson, rel=1e-9)


def test_control_excited_rejects_unnormalized_field():
    b = build_basis(2, 2)
    with pytest.raises(ValueError, match="norm"):
        control_excited_state(b, np.array([0.9, 0.1, 0.0]))


def test_ground_state_with_field():
    b = build_basis(2, 2)
    st = product_state(b, 0, np.array([0.0, 0.0, 1.0]))
    assert set(st.block_amps) == {2}
    assert st.amplitude(0, 2) == pytest.approx(1.0)


def test_pure_state_to_dense():
    b = build_basis(2, 1)
    st = PureState.from_amplitudes(b, {(0b10, 0): math.sqrt(1 - 1e-20), (0b00, 0): 1e-10})
    dense = st.to_dense()
    assert dense.shape == (b.dim,)
    assert dense[b.flat_index(0b10, 0)] == pytest.approx(math.sqrt(1 - 1e-20))
    assert dense[b.flat_index(0b00, 0)] == 1e-10


def test_config_excitations_popcount():
    assert config_excitations(0b10110) == 3
    assert config_excitations(0) == 0
