"""The two-ladder engine against the product-basis engine and closed forms."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from product.dynamics import compile_propagator, evolve, marginal_projected_weight, trajectory_rows
from product.hilbert import PureState, atom_code, build_basis, subradiant_target_vector
from product.model import build_h0, build_hamiltonian, collective_operator
from product.perturb import exact_vs_effective_error
from product.protocol import dfs_weight, phase_gate
from subrad import dynamics, perturb, protocol
from subrad.dynamics import TRAJECTORY_COLUMNS, default_trajectory_times
from subrad.fields import FieldSpec
from subrad.model import SystemParams
from subrad.protocol import _start, component_outcome, fock_components, plan, run, trajectory

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


def product_components(params, field, options, control_index):
    """(p_n, product state) per Fock component, on one product basis."""
    n_max, components = fock_components(params, field, options["n_max"], options["excite_control"])
    basis = build_basis(params.n_atoms, n_max)
    code = atom_code(control_index, params.n_atoms) if options["excite_control"] else 0
    return [(w, PureState.from_amplitudes(basis, {(code, n): 1.0})) for w, n in components]


def product_run(params, field, options, ci):
    """Fidelity, dark weight, <J+J-> and slow-model error on the product basis.

    The control atom is atom `ci`; by permutation symmetry every choice must
    reproduce `run`, whose control atom has no index.
    """
    t_m, phi = plan(params, branch=options["tm_branch"])
    phi = phi if options["phi_override"] is None else options["phi_override"]
    target = subradiant_target_vector(params.n_atoms, ci)
    times = np.linspace(0.0, t_m, options["pt_times"])
    fid = dark = jpjm = pt = pt_weight = 0.0
    for w, initial in product_components(params, field, options, ci):
        (m,) = initial.block_amps
        prop = compile_propagator(params, initial.basis, block_ids=[m])
        final = phase_gate(evolve(prop, initial, t_m), phi, ci)
        fid += w * marginal_projected_weight(final, target)
        dark += w * dfs_weight(final)
        jpjm += w * collective_operator(initial.basis, "J+J-", block_ids=[m]).expectation(final)
        if options["excite_control"] and options["pt_times"] >= 2:  # one point checks nothing
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
        small = field.components(field.required_n_max(0))[-1][1] + 1
    options = dict(
        n_max=draw(st.sampled_from([None, small])),
        tm_branch=draw(st.integers(min_value=0, max_value=1)),
        phi_override=draw(st.one_of(st.none(), st.floats(min_value=-math.pi, max_value=math.pi))),
        excite_control=excite,
        pt_times=draw(st.integers(min_value=1, max_value=40)),
    )
    control_index = draw(st.integers(min_value=0, max_value=n_atoms - 1))
    return SystemParams.from_detuning_ratio(n_atoms, G, ratio), field, options, control_index


@given(protocol_cases())
@settings(max_examples=40, deadline=None)
def test_run_matches_product_engine(case):
    params, field, options, control_index = case
    rep = run(params, field, **options)
    fid, dark, jpjm, pt = product_run(params, field, options, control_index)
    # permutation symmetry keeps the other N-2 dark states empty on the 2^N basis too
    assert dark == pytest.approx(fid, abs=1e-12)
    floor = rounding_floor(params, field, rep["t_m_seconds"])
    assert rep["fidelity_subradiant"] == pytest.approx(fid, abs=1e-12 + floor)
    assert rep["dfs_weight"] == pytest.approx(dark, abs=1e-12 + floor)
    assert rep["emission_expectation"] == pytest.approx(jpjm, abs=1e-12 + params.n_atoms * floor)
    if pt is None:
        assert rep["pt_coefficient_error"] is None
    else:
        assert rep["pt_coefficient_error"] == pytest.approx(pt, abs=1e-10 + floor)


@given(protocol_cases(), st.integers(min_value=1, max_value=150))
@settings(max_examples=30, deadline=None)
def test_trajectory_matches_product_engine(case, points):
    params, field, options, _ = case
    times = default_trajectory_times(params, points)
    table = trajectory(params, field, times, options["n_max"], options["excite_control"])
    # atom 0 is the product readout's control atom
    expected = trajectory_rows(params, product_components(params, field, options, 0), times)
    assert table.shape == (points, len(TRAJECTORY_COLUMNS))
    assert len(expected) == points
    floor = rounding_floor(params, field, times[-1])
    for row, ref in zip(table, expected):
        assert tuple(ref) == TRAJECTORY_COLUMNS
        for key, value in zip(TRAJECTORY_COLUMNS, row):
            scale = params.n_atoms if key == "jpjm" else 1
            assert value == pytest.approx(ref[key], abs=1e-10 + scale * floor), key


@pytest.mark.parametrize("n_atoms", [1, 2, 3, 5])
@pytest.mark.parametrize("n_max", [0, 1, 2])
@pytest.mark.parametrize("excited", [True, False])
def test_trajectory_on_clipped_blocks(n_atoms, n_max, excited):
    # blocks M > n_max lose their high-photon states; the couplings into them vanish.
    # protocol.trajectory refuses a clipped block of weight 1, so the rows are built here.
    params = SystemParams.from_detuning_ratio(n_atoms, G, 40.0)
    times = default_trajectory_times(params, 20)
    basis = build_basis(n_atoms, n_max)
    code = atom_code(0, n_atoms) if excited else 0
    for n in range(n_max + 1):
        block, psi = _start(params, n, int(excited), n_max)
        amps = np.concatenate(list(dynamics.evolve_grid(block, psi, times)))
        cols = dict(zip(TRAJECTORY_COLUMNS, [times, *dynamics.readouts(block, amps).T]))
        state = PureState.from_amplitudes(basis, {(code, n): 1.0})
        for i, ref in enumerate(trajectory_rows(params, [(1.0, state)], times)):
            assert ref.keys() == cols.keys()
            for key, value in ref.items():
                assert cols[key][i] == pytest.approx(value, abs=1e-10), (n, key)


def vacuum_fidelity(params, t, phi):
    """F_0(t, phi): dark-target weight of |1, 0, 0> evolved for t, then gated.

    Block 1 holds |1,0>, |0,1> (the other atoms' symmetric single excitation)
    and the photon |0,0,1>.  The photon couples with g only to the control
    atom and with g sqrt(N-1) to |0,1>, so only to |S> = (|1,0> +
    sqrt(N-1)|0,1>) / sqrt(N), with g sqrt(N).  Without the block's constant
    omega_c, |S> and the photon form a 2x2 Rabi problem [[-delta, g sqrt(N)],
    [g sqrt(N), 0]], and |D> = (sqrt(N-1)|1,0> - |0,1>) / sqrt(N) stays at
    -delta.  The gate multiplies psi10 by exp(-i phi).
    """
    nn, delta = params.n_atoms, params.delta
    rabi = math.sqrt(delta**2 / 4 + nn * params.g**2)
    rt = rabi * t
    s = cmath.exp(0.5j * delta * t) * (math.cos(rt) + 0.5j * delta / rabi * math.sin(rt))
    s /= math.sqrt(nn)
    d = cmath.exp(1j * delta * t) * math.sqrt((nn - 1) / nn)
    psi10 = cmath.exp(-1j * phi) * (s + math.sqrt(nn - 1) * d) / math.sqrt(nn)
    psi01 = (math.sqrt(nn - 1) * s - d) / math.sqrt(nn)
    return abs(math.sqrt(nn - 1) * psi10 - psi01) ** 2 / nn


@given(
    n_atoms=st.integers(2, 500),
    ratio=st.floats(10.0, 1000.0),
    sign=st.sampled_from([1, -1]),
    fraction=st.floats(0.0, 3.0),
    phi=st.floats(-math.pi, math.pi),
)
@settings(max_examples=100, deadline=None)
def test_vacuum_component_matches_the_closed_form(n_atoms, ratio, sign, fraction, phi):
    params = SystemParams.from_detuning_ratio(n_atoms, G, sign * ratio)
    t = fraction * plan(params)[0]
    fid = component_outcome(params, 0, 1, 1, t, phi, 1)[0]
    floor = rounding_floor(params, FieldSpec.fock(0), t)
    assert fid == pytest.approx(vacuum_fidelity(params, t, phi), abs=1e-12 + floor)


def rung_one_pair(params, n, t):
    """(a_n, b_n) of Fock component n after free evolution for t.

    With x_n the control-excited amplitude and d_n the amplitude on |D> of the
    control-excited start of block n + 1, b_n = sqrt((N-1)/N) x_n and
    a_n = d_n - b_n; the gate then leaves F_n(t, phi) = |a_n + exp(-i phi) b_n|^2.
    """
    nn = params.n_atoms
    block = dynamics.compile_propagator(params, n + 1, n + 1)
    psi = np.where(block.rungs == 1, block.control_share, 0.0)
    s, d = block.rung_one(dynamics.evolve(block, psi, t))
    b = math.sqrt((nn - 1) / nn) * dynamics.single_excitation_pair(nn, s, d)[0]
    return complex(d - b), complex(b)


@given(
    n_atoms=st.integers(2, 500),
    ratio=st.floats(10.0, 3000.0),
    sign=st.sampled_from([1, -1]),
    n=st.integers(0, 12),
    fraction=st.floats(0.0, 2.0),
    phi=st.floats(-math.pi, math.pi),
)
@settings(max_examples=400, deadline=None, derandomize=True)
def test_the_rung_one_pair_gives_the_fidelity_of_each_fock_level(
    n_atoms, ratio, sign, n, fraction, phi
):
    # the gate leaves F_n = |a_n + exp(-i phi) b_n|^2 at every time and phase, so the pair
    # summarizes every field (measured: at most 1.22e-15 on these 400 cases, 1.55e-15 on
    # 400 random ones)
    params = SystemParams.from_detuning_ratio(n_atoms, G, sign * ratio)
    t = fraction * plan(params)[0]
    a, b = rung_one_pair(params, n, t)
    fid = component_outcome(params, n, 1, n + 1, t, phi, 1)[0]
    assert abs(abs(a + cmath.exp(-1j * phi) * b) ** 2 - fid) <= 4e-15


def revival_gate(params):
    """(t_rev, phi_rev): the fast node 2 pi k / omega_f nearest the slow model's t_m, and
    the phase arg(b_0 a_0*) of the vacuum block's rung-one pair there.

    omega_f = sqrt(delta^2 + 4 N g^2), alpha_ex = (omega_f - |delta|) / 4, and k is the
    integer nearest omega_f theta / (2 pi alpha_ex) with sin theta = sqrt(N / (4N - 4)).
    """
    nn = params.n_atoms
    omega_f = math.sqrt(params.delta**2 + 4 * nn * params.g**2)
    alpha_ex = (omega_f - abs(params.delta)) / 4
    theta = math.asin(math.sqrt(nn / (4 * nn - 4)))
    t_rev = 2 * math.pi * round(omega_f * theta / (2 * math.pi * alpha_ex)) / omega_f
    a, b = rung_one_pair(params, 0, t_rev)
    return t_rev, cmath.phase(b * a.conjugate())


@pytest.mark.parametrize("coupling", [0.01, 0.04])
def test_photon_number_drops_out_in_the_bosonic_limit(coupling):
    # at fixed N g^2 / delta^2, |D> decouples as N grows and |S> with the photons becomes a
    # beam splitter that no photon number changes: |F_n - F_0| at t_rev falls like 1 / N^2
    # (measured: 100.0-101.6x per decade from N = 10^3 to 10^5, down to 1.6e-11)
    gaps = {n: [] for n in (1, 5, 20)}
    for n_atoms in (10**3, 10**4, 10**5):
        params = SystemParams.from_detuning_ratio(n_atoms, G, math.sqrt(n_atoms / coupling))
        t_rev, phi_rev = revival_gate(params)
        f_0 = component_outcome(params, 0, 1, 1, t_rev, phi_rev, 1)[0]
        for n, gap in gaps.items():
            gap.append(abs(component_outcome(params, n, 1, n + 1, t_rev, phi_rev, 1)[0] - f_0))
    for n, gap in gaps.items():
        assert gap[0] >= 50 * gap[1] >= 2500 * gap[2] > 0, (n, gap)


def test_vacuum_closed_form_at_the_plan():
    # the slow model's fidelity at (t_m, phi) is 1; F_0 reaches it up to O(g^2 N / delta^2)
    params = SystemParams.from_detuning_ratio(10, G, 1000.0)
    t_m, phi = plan(params)
    assert vacuum_fidelity(params, t_m, phi) == pytest.approx(1.0, abs=1e-4)
    assert vacuum_fidelity(params, 0.0, phi) == pytest.approx(0.9, abs=1e-15)


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
        values, _, _, counts = dynamics.spectrum(params, m, n_max, h0_only)
        got = np.repeat(values, counts)
        assert got.shape == expected.shape, m
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(got - expected)) <= 1e-10 * scale, m


def test_spectrum_in_the_laboratory_frame():
    params = SystemParams(n_atoms=5, omega_a=2 * math.pi * 1e9, omega_c=2 * math.pi * 1e9 + 40 * G, g=G)
    basis = build_basis(5, 4)
    for m in basis.block_ids:
        expected = np.linalg.eigvalsh(build_hamiltonian(params, basis, block_ids=[m]).block(m))
        values, _, _, counts = dynamics.spectrum(params, m, 4)
        got = np.repeat(values, counts)
        assert np.max(np.abs(got - expected)) <= 1e-10 * np.max(np.abs(expected)), m


def test_laboratory_frame_run_matches_the_atomic_frame():
    # the metrics depend only on delta and g; the block offset keeps w t small
    lab = SystemParams(n_atoms=6, omega_a=2 * math.pi * 5e9, omega_c=2 * math.pi * 5e9 + 60 * G, g=G)
    atomic = SystemParams.from_detuning_ratio(6, G, lab.delta / G)
    field = FieldSpec.thermal(0.2)
    a, b = run(lab, field), run(atomic, field)
    for key in ("fidelity_subradiant", "dfs_weight", "emission_expectation"):
        assert a[key] == pytest.approx(b[key], abs=1e-12), key
    times = default_trajectory_times(atomic, 50)
    table_lab = trajectory(lab, field, times)
    table_atomic = trajectory(atomic, field, times)
    assert table_lab.shape == table_atomic.shape == (50, len(TRAJECTORY_COLUMNS))
    for row, ref in zip(table_lab, table_atomic):
        for key, value, expected in zip(TRAJECTORY_COLUMNS, row, ref):
            assert value == pytest.approx(expected, abs=1e-11), key


def test_block_has_at_most_two_n_states():
    params = SystemParams.from_detuning_ratio(200, G, 100.0)
    block = dynamics.compile_propagator(params, 150, 160)
    assert len(block.rungs) == 2 * 150 + 1  # e = 0..150 on one ladder, 1..150 on the other
    assert np.all((block.rungs <= 150) & (150 - block.rungs <= 160))  # every rung is in block 150


@pytest.mark.parametrize("n_atoms", range(1, 9))
@pytest.mark.parametrize("n_max", range(6))
def test_block_size_is_the_count_of_c_k_n_states(n_atoms, n_max):
    # meta.max_block_dim counts the states |c, k, n> (c + k + n = M) of the block
    params = SystemParams.from_detuning_ratio(n_atoms, G, 30.0)
    for m in range(n_atoms + n_max + 1):
        count = sum(
            0 <= m - c - k <= n_max for c in (0, 1) for k in range(n_atoms)
        )
        assert len(dynamics.compile_propagator(params, m, n_max).rungs) == count, m


def test_compile_block_refuses_a_negative_cutoff():
    with pytest.raises(ValueError, match="Fock truncation"):
        dynamics.compile_propagator(SystemParams.from_detuning_ratio(3, G, 30.0), 1, -1)


def test_evolve_composes_and_inverts():
    params = SystemParams.from_detuning_ratio(5, G, 40.0)
    block, psi = _start(params, 2, 1, 4)
    t1, t2 = 0.37 / params.alpha, 0.91 / params.alpha
    once = dynamics.evolve(block, psi, t1 + t2)
    twice = dynamics.evolve(block, dynamics.evolve(block, psi, t1), t2)
    assert np.max(np.abs(once - twice)) < 1e-9
    back = dynamics.evolve(block, dynamics.evolve(block, psi, t1), -t1)
    assert np.max(np.abs(back - psi)) < 1e-9


@given(
    n_atoms=st.integers(2, 12),
    ratio=st.floats(10.0, 300.0),
    sign=st.sampled_from([1.0, -1.0]),
    n=st.integers(0, 6),
    extra=st.integers(0, 3),
    phi=st.floats(-math.pi, math.pi),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_outputs_do_not_depend_on_the_signs_of_the_eigenvectors(
    n_atoms, ratio, sign, n, extra, phi, seed
):
    # V enters only as V f(w) V', and negating a column negates its products exactly
    params = SystemParams.from_detuning_ratio(n_atoms, G, sign * ratio)
    block, psi = _start(params, n, 1, n + 1 + extra)
    rng = np.random.default_rng(seed)
    signs = rng.choice([-1.0, 1.0], size=block.eigenvalues.size)
    fields = {name: getattr(block, name) for name in block.__slots__}
    flipped = dynamics.Block(**{**fields, "eigenvectors": block.eigenvectors * signs})
    times = np.linspace(0.0, 2.0 * plan(params)[0], int(rng.integers(1, 150)))
    for amps, again in zip(
        dynamics.evolve_grid(block, psi, times), dynamics.evolve_grid(flipped, psi, times)
    ):
        assert np.array_equal(amps, again)
        assert np.array_equal(dynamics.readouts(block, amps), dynamics.readouts(flipped, again))
        for a, b in zip(amps, again):
            gated = protocol.phase_gate(block, a, phi), protocol.phase_gate(flipped, b, phi)
            assert np.array_equal(*gated)
    errors = [perturb.slow_model_error(b, psi, times) for b in (block, flipped)]
    assert errors[0] == errors[1]


@given(
    n_atoms=st.integers(2, 12),
    ratio=st.floats(10.0, 300.0),
    sign=st.sampled_from([1.0, -1.0]),
    n=st.integers(0, 5),
    step=st.integers(2, 40),
    chunks=st.integers(3, 6),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_a_grid_split_into_chunks_matches_one_product(n_atoms, ratio, sign, n, step, chunks, data):
    # a budget of `step` states (plus slack short of one more) per product, the last chunk ragged
    params = SystemParams.from_detuning_ratio(n_atoms, G, sign * ratio)
    field = FieldSpec.fock(n)
    n_max, _ = fock_components(params, field)
    block, psi = _start(params, n, 1, n_max)
    dim = len(block.rungs)
    budget = step * dim + data.draw(st.integers(0, dim - 1))
    times = default_trajectory_times(params, chunks * step + data.draw(st.integers(1, step - 1)))
    whole = list(dynamics.evolve_grid(block, psi, times))
    table = trajectory(params, field, times)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "AMPLITUDE_BUDGET", budget)
        parts = list(dynamics.evolve_grid(block, psi, times))
        chunked_table = trajectory(params, field, times)
    lengths = [len(part) for part in parts]
    assert len(whole) == 1 and len(parts) == chunks + 1
    assert all(part.size <= budget for part in parts)
    # near-equal products: a product of one time only where the budget holds two
    assert max(lengths) - min(lengths) <= 1 and (min(lengths) > 1 or step == 2)
    # numpy sends a one-row product through a matrix-vector kernel, and OpenBLAS's
    # matrix-vector kernel sums the rows past a chunk's last multiple of 4 in another order:
    # a one-time chunk is held to the rounding of a dim-term sum
    exact = np.repeat([k > 1 for k in lengths], lengths)
    assert np.array_equal(np.concatenate(parts)[exact], whole[0][exact])
    assert np.array_equal(chunked_table[exact], table[exact])
    tol = 8 * dim * np.finfo(float).eps
    assert np.allclose(np.concatenate(parts), whole[0], rtol=tol, atol=tol)
    assert np.allclose(chunked_table, table, rtol=tol, atol=tol)


@pytest.mark.parametrize("n_atoms, n", [(6, 3), (11, 6), (20, 14), (40, 30)])
def test_trajectory_rows_do_not_depend_on_the_amplitude_budget(n_atoms, n):
    # blocks of 9, 15, 31 and 63 states; 40 times in products of at most 2, 4, 6, 7 and 19
    # times, and 65 or 129 times, which a budget of 8, 32, 64 or 128 times per product once
    # cut into full products and a last one of one time, the one shape numpy sends to another
    # kernel; near-equal products leave no product of one time
    params = SystemParams.from_detuning_ratio(n_atoms, G, 40.0)
    field = FieldSpec.fock(n)
    n_max, _ = fock_components(params, field)
    dim = len(_start(params, n, 1, n_max)[0].rungs)
    for points, steps in [(40, (2, 4, 6, 7, 19)), (65, (8, 32, 64)), (129, (8, 64, 128))]:
        times = default_trajectory_times(params, points)
        table = trajectory(params, field, times)
        for step in steps:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(dynamics, "AMPLITUDE_BUDGET", step * dim + dim - 1)
                assert np.array_equal(trajectory(params, field, times), table), step


def test_evolve_grid_refuses_a_state_that_is_not_a_number():
    # exp(-i E t) at t = inf is NaN, and a NaN norm must not pass the norm check
    block, psi = _start(SystemParams.from_detuning_ratio(4, G, 30.0), 0, 1, 3)
    with pytest.raises(ValueError, match="state norm nan"), np.errstate(all="ignore"):
        list(dynamics.evolve_grid(block, psi, [0.0, math.inf]))


def test_eigh_refuses_a_matrix_whose_residual_it_cannot_bound():
    # the Frobenius norms of this matrix and of its residual overflow to inf
    h = np.array([[1e308, 1e308], [1e308, -1e308]])
    with pytest.raises(dynamics.EigensolverError, match="block 1"), np.errstate(all="ignore"):
        dynamics._eigh(h, 1)
