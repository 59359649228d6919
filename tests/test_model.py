"""Hamiltonian blocks, collective operators, and their algebra."""

import math

import numpy as np
import pytest

from product.hilbert import build_basis, subradiant_target, symmetric_state
from product.model import (
    build_h0,
    build_hamiltonian,
    build_hint,
    collective_operator,
    h0_diagonal,
)
from subrad.dynamics import dicke_multiplicity
from subrad.model import SystemParams

OMEGA_A = 2 * math.pi * 50e9
G = 2 * math.pi * 24e3


def params_for(n_atoms, ratio=30.0):
    return SystemParams(
        n_atoms=n_atoms, omega_a=OMEGA_A, omega_c=OMEGA_A + ratio * G, g=G
    )


def test_params_derived_quantities():
    p = params_for(10)
    assert p.delta == pytest.approx(30 * G)
    assert p.alpha == pytest.approx(10 * G**2 / (2 * 30 * G))


def test_params_validation():
    with pytest.raises(ValueError):
        SystemParams(n_atoms=2, omega_a=1.0, omega_c=1.0, g=0.1)
    with pytest.raises(ValueError):
        SystemParams(n_atoms=2, omega_a=1.0, omega_c=2.0, g=0.0)


def test_h0_single_atom_ground_energy():
    p = params_for(1)
    b = build_basis(1, 1)
    h0 = build_h0(p, b)
    i = b.local_index(0, 0)
    assert h0.block(0)[i, i].real == pytest.approx(-p.omega_a / 2)


def test_h0_two_excited_atoms():
    p = params_for(2)
    b = build_basis(2, 1)
    i = b.local_index(0b11, 0)
    assert build_h0(p, b).block(2)[i, i].real == pytest.approx(p.omega_a)


@pytest.mark.parametrize("n,n_atoms", [(1, 3), (2, 4), (3, 2)])
def test_h0_degenerate_sector_energy(n, n_atoms):
    # single-excitation states at photons n-1 all sit at n*w_c - N*w_a/2 - delta
    p = params_for(n_atoms)
    b = build_basis(n_atoms, n)
    expected = n * p.omega_c - n_atoms * p.omega_a / 2 - p.delta
    diag = h0_diagonal(p, b, n)
    for k in range(n_atoms):
        code = 1 << (n_atoms - 1 - k)
        assert diag[b.local_index(code, n - 1)] == pytest.approx(expected)


def test_hint_jaynes_cummings_element():
    p = params_for(1)
    b = build_basis(1, 3)
    for n in (1, 2, 3):
        m = n  # block of |0;n> and |1;n-1>
        hint = build_hint(p, b, block_ids=[m]).block(m)
        i = b.local_index(0, n)
        j = b.local_index(1, n - 1)
        assert hint[i, j] == pytest.approx(p.g * math.sqrt(n))


def test_hint_collective_enhancement():
    # <ground; n| Hint |symmetric; n-1> = g sqrt(N n)
    for n_atoms, n in [(3, 1), (5, 2), (10, 1)]:
        p = params_for(n_atoms)
        b = build_basis(n_atoms, n)
        hint = build_hint(p, b, block_ids=[n])
        sym = symmetric_state(b, n - 1)
        from product.hilbert import PureState

        ground = PureState.from_amplitudes(b, {(0, n): 1.0})
        elem = ground.inner(hint.apply(sym))
        assert abs(elem) == pytest.approx(p.g * math.sqrt(n_atoms * n))


def test_hint_block_diagonal_and_hermitian():
    p = params_for(3)
    b = build_basis(3, 2)
    hint = build_hint(p, b)
    assert hint.hermiticity_error() < 1e-12
    # off-block elements are identically zero by construction: the container
    # only stores per-block matrices, so verify H0 and Hint commute blockwise
    h0 = build_h0(p, b)
    for m in b.block_ids:
        a, c = h0.block(m), hint.block(m)
        assert a.shape == c.shape


def _dense_kron_hamiltonian(p, n_atoms, n_max):
    """Independent oracle: assemble H from explicit tensor products."""
    sz = np.diag([1.0, -1.0]) / 2  # atomic basis order: excited, ground
    sp = np.array([[0.0, 1.0], [0.0, 0.0]])
    sm = sp.T
    down = np.diag(np.sqrt(np.arange(1, n_max + 1)), k=1)  # field annihilation
    up = down.T

    def atom_op(single, k):
        ops = [np.eye(2)] * n_atoms
        ops[k] = single
        out = np.array([[1.0]])
        for o in ops:
            out = np.kron(out, o)
        return out

    dim_a = 1 << n_atoms
    jz = sum(atom_op(sz, k) for k in range(n_atoms))
    jp = sum(atom_op(sp, k) for k in range(n_atoms))
    jm = sum(atom_op(sm, k) for k in range(n_atoms))
    eye_f = np.eye(n_max + 1)
    h = (
        p.omega_a * np.kron(jz, eye_f)
        + p.omega_c * np.kron(np.eye(dim_a), up @ down)
        + p.g * (np.kron(jm, up) + np.kron(jp, down))
    )
    return h


def test_hamiltonian_matches_dense_kron_oracle():
    # atomic index: bit k of the config selects excited(0th row)/ground for
    # atom k, so config c maps to kron index with flipped bits
    n_atoms, n_max = 3, 2
    p = params_for(n_atoms)
    b = build_basis(n_atoms, n_max)
    dense = _dense_kron_hamiltonian(p, n_atoms, n_max)
    h = build_hamiltonian(p, b)

    def kron_index(code, n):
        flipped = (~code) & ((1 << n_atoms) - 1)  # excited sorts first per atom
        return flipped * (n_max + 1) + n

    for m in b.block_ids:
        blk = b.block(m)
        idx = [kron_index(code, n) for code, n in blk.states]
        sub = dense[np.ix_(idx, idx)]
        # summation-order rounding on ~1e11 rad/s diagonals: compare relatively
        scale = max(np.max(np.abs(sub)), 1.0)
        assert np.max(np.abs(h.block(m) - sub)) < 1e-12 * scale
    # all coupling lives inside the blocks: zero outside the block partition
    total = np.zeros_like(dense)
    for m in b.block_ids:
        blk = b.block(m)
        idx = [kron_index(code, n) for code, n in blk.states]
        total[np.ix_(idx, idx)] = dense[np.ix_(idx, idx)]
    assert np.max(np.abs(dense - total)) == 0.0


def test_collective_lowering_annihilates_singlet():
    b = build_basis(2, 1)
    jm = collective_operator(b, "J-")
    assert jm.apply(subradiant_target(b, 0)).norm() < 1e-15


def test_collective_lowering_on_symmetric():
    # J- |sym(N=3)> = sqrt(3) |ground> at the same photon level
    b = build_basis(3, 1)
    jm = collective_operator(b, "J-")
    lowered = jm.apply(symmetric_state(b, 1))
    assert lowered.norm() == pytest.approx(math.sqrt(3))
    assert abs(lowered.amplitude(0, 1)) == pytest.approx(math.sqrt(3))


def test_su2_commutators():
    b = build_basis(3, 0)
    jp = collective_operator(b, "J+")
    jm = collective_operator(b, "J-")
    jz = collective_operator(b, "Jz")
    # assemble dense atomic-sector matrices from the block maps
    dim = b.dim

    def dense_shift(op):
        a = np.zeros((dim, dim), dtype=complex)
        for m, blk in op.blocks.items():
            src = b.block(m)
            tgt = b.block(m + op.dm)
            a[tgt.offset : tgt.offset + tgt.dim, src.offset : src.offset + src.dim] = blk
        return a

    def dense_diag(op):
        a = np.zeros((dim, dim), dtype=complex)
        for m, blk in op.blocks.items():
            s = b.block(m)
            a[s.offset : s.offset + s.dim, s.offset : s.offset + s.dim] = blk
        return a

    JP, JM, JZ = dense_shift(jp), dense_shift(jm), dense_diag(jz)
    assert np.max(np.abs(JP @ JM - JM @ JP - 2 * JZ)) < 1e-12
    assert np.max(np.abs(JZ @ JP - JP @ JZ - JP)) < 1e-12
    assert np.max(np.abs(JZ @ JM - JM @ JZ + JM)) < 1e-12
    # J+J- container agrees with the composition
    JPJM = dense_diag(collective_operator(b, "J+J-"))
    assert np.max(np.abs(JPJM - JP @ JM)) < 1e-12


@pytest.mark.parametrize("n_atoms", range(2, 7))
def test_j_squared_spectrum_matches_multiplicities(n_atoms):
    # J^2 = J+J- + Jz^2 - Jz on the pure atomic sector (n_max = 0)
    b = build_basis(n_atoms, 0)
    jpjm = collective_operator(b, "J+J-")
    jz = collective_operator(b, "Jz")
    eigenvalues = []
    for m in b.block_ids:
        mat = jpjm.block(m) + jz.block(m) @ jz.block(m) - jz.block(m)
        eigenvalues.extend(np.linalg.eigvalsh(mat))
    eigenvalues = np.sort(np.array(eigenvalues))
    expected = []
    for lo in range(n_atoms // 2 + 1):
        j = n_atoms / 2.0 - lo
        count = (n_atoms - 2 * lo + 1) * dicke_multiplicity(n_atoms, lo)
        expected.extend([j * (j + 1)] * count)
    expected = np.sort(np.array(expected))
    assert eigenvalues.shape == expected.shape
    assert np.max(np.abs(eigenvalues - expected)) < 1e-10


def test_jpjm_expectations():
    b = build_basis(4, 0)
    jpjm = collective_operator(b, "J+J-")
    assert jpjm.expectation(symmetric_state(b, 0)) == pytest.approx(4.0)
    from product.hilbert import PureState

    ground = PureState.from_amplitudes(b, {(0, 0): 1.0})
    assert jpjm.expectation(ground) == pytest.approx(0.0)


def test_operator_builds_deterministic():
    p = params_for(3)
    b1 = build_basis(3, 2)
    b2 = build_basis(3, 2)
    h1 = build_hamiltonian(p, b1)
    h2 = build_hamiltonian(p, b2)
    for m in b1.block_ids:
        assert np.array_equal(h1.block(m), h2.block(m))

