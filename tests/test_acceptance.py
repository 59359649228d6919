"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every tolerance and runtime budget is pinned here.
"""

import math
import time

import numpy as np
import pytest

from product.dynamics import compile_propagator, evolve
from product.hilbert import (
    build_basis,
    control_excited_state,
    subradiant_basis,
    symmetric_state,
)
from product.model import build_hamiltonian, collective_operator
from product.perturb import build_sector, exact_vs_effective_error, second_order_matrix
from product.protocol import dfs_weight
from subrad.fields import FieldSpec
from subrad.model import SystemParams
from subrad.perturb import closed_form_corrections
from subrad.protocol import plan, run

G = 2 * math.pi * 24e3  # rad/s


def report(number: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {label}: {status} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_pt_matrix_matches_closed_forms():
    t0 = time.perf_counter()
    worst = 0.0
    for n_atoms in range(2, 7):
        params = SystemParams.from_detuning_ratio(n_atoms, G, 30.0)
        for n in range(1, 5):
            basis = build_basis(n_atoms, n)
            mat = second_order_matrix(params, basis, build_sector(params, basis, n))
            got = np.sort(np.linalg.eigvalsh(mat))
            delta_e1, delta_ei = closed_form_corrections(params, n)
            want = np.sort([delta_e1] + [delta_ei] * (n_atoms - 1))
            scale = max(abs(delta_e1), abs(delta_ei))
            worst = max(worst, float(np.max(np.abs(got - want)) / scale))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    report(
        1,
        "second-order matrix spectrum equals closed forms (N=2..6, n=1..4)",
        ok,
        f"max rel deviation {worst:.2e} <= 1e-10, runtime {elapsed:.2f}s < 1s",
    )


def test_criterion_2_exact_follows_slow_model_within_2_percent():
    t0 = time.perf_counter()
    params = SystemParams.from_detuning_ratio(10, G, 30.0)
    basis = build_basis(10, FieldSpec.fock(0).required_n_max(10))
    prop = compile_propagator(params, basis, block_ids=[1])
    t_m, _ = plan(params)
    err = exact_vs_effective_error(prop, 1, np.linspace(0.0, t_m, 201))
    elapsed = time.perf_counter() - t0
    ok = err <= 0.02 and elapsed < 10.0
    report(
        2,
        "exact coefficients track the slow model (N=10, detuning ratio 30)",
        ok,
        f"max coefficient error {err:.4f} <= 0.02 over [0, t_m], runtime {elapsed:.2f}s < 10s",
    )


def test_criterion_3_experimental_estimates():
    t0 = time.perf_counter()
    params = SystemParams.from_detuning_ratio(10, G, 30.0)
    t_m, _ = plan(params)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(params.alpha - 2.51e4) <= 0.02e4
        and abs(t_m - 22e-6) <= 0.5e-6
        and elapsed < 1.0
    )
    report(
        3,
        "experimental estimate (g/2pi = 24 kHz, ratio 30, N = 10)",
        ok,
        f"alpha {params.alpha:.4g}/s in 2.51e4 +- 0.02e4, "
        f"t_m {t_m * 1e6:.3f} us in 22 +- 0.5, runtime {elapsed:.2f}s < 1s",
    )


def test_criterion_4_end_to_end_fidelity():
    t0 = time.perf_counter()
    results = []
    for n_atoms in (2, 5, 10):
        params = SystemParams.from_detuning_ratio(n_atoms, G, 100.0)
        rep = run(params, FieldSpec.fock(0))
        results.append((n_atoms, 100.0, rep.fidelity_subradiant, 0.995))
    rep = run(SystemParams.from_detuning_ratio(10, G, 30.0), FieldSpec.fock(0))
    results.append((10, 30.0, rep.fidelity_subradiant, 0.97))
    elapsed = time.perf_counter() - t0
    ok = all(f >= bound for _, _, f, bound in results) and elapsed < 30.0
    detail = ", ".join(
        f"N={n} ratio={r:.0f}: {f:.5f}>={b}" for n, r, f, b in results
    )
    report(4, "end-to-end dark-state fidelity", ok, f"{detail}; runtime {elapsed:.1f}s < 30s")


def test_criterion_5_field_independence():
    t0 = time.perf_counter()
    params = SystemParams.from_detuning_ratio(10, G, 100.0)
    fidelities = {
        "fock0": run(params, FieldSpec.fock(0)).fidelity_subradiant,
        "fock2": run(params, FieldSpec.fock(2)).fidelity_subradiant,
        "coherent1": run(params, FieldSpec.coherent(1.0)).fidelity_subradiant,
    }
    spread = max(fidelities.values()) - min(fidelities.values())
    elapsed = time.perf_counter() - t0
    ok = spread <= 0.02 and elapsed < 60.0
    report(
        5,
        "fidelity independent of the initial field (N=10, ratio 100)",
        ok,
        ", ".join(f"{k}={v:.5f}" for k, v in fidelities.items())
        + f"; spread {spread:.4f} <= 0.02, runtime {elapsed:.1f}s < 60s",
    )


def test_criterion_6_splitting_converges_quadratically():
    t0 = time.perf_counter()
    n_atoms = 10
    errors = []
    for ratio in (30.0, 100.0, 300.0):
        params = SystemParams.from_detuning_ratio(n_atoms, G, ratio)
        basis = build_basis(n_atoms, 1)
        prop = compile_propagator(params, basis, block_ids=[1])
        w = prop.eigenvalues[1]
        e0 = params.omega_c - n_atoms * params.omega_a / 2 - params.delta
        dark = [x for x in w if abs(x - e0) < 1e-6 * abs(params.delta)]
        bright = min(w)  # pushed below the sector for positive detuning
        splitting = abs(bright - e0)
        predicted = n_atoms * params.g**2 / params.delta
        errors.append(abs(splitting - predicted) / predicted)
        assert len(dark) == n_atoms - 1
    r1 = errors[0] / errors[1]
    r2 = errors[1] / errors[2]
    elapsed = time.perf_counter() - t0
    ok = 5.0 <= r1 <= 25.0 and 5.0 <= r2 <= 25.0
    report(
        6,
        "bright/dark splitting approaches N g^2/delta quadratically",
        ok,
        f"rel errors {errors[0]:.2e}, {errors[1]:.2e}, {errors[2]:.2e}; "
        f"ratios {r1:.1f}, {r2:.1f} in [5, 25]; runtime {elapsed:.1f}s",
    )


def test_criterion_7_invariant_suite():
    t0 = time.perf_counter()
    checks: list[tuple[str, bool, str]] = []

    # norm conservation and exact block confinement under evolution
    params = SystemParams.from_detuning_ratio(6, G, 30.0)
    basis = build_basis(6, 2)
    prop = compile_propagator(params, basis)
    state = control_excited_state(basis, np.array([0.0, 1.0, 0.0]))
    evolved = evolve(prop, state, 7.7 / params.alpha)
    norm_err = abs(evolved.norm() - 1.0)
    checks.append(("norm conservation", norm_err <= 1e-10, f"{norm_err:.1e}"))
    confined = set(evolved.block_amps) == set(state.block_amps)
    checks.append(("block confinement", confined, f"blocks {sorted(evolved.block_amps)}"))

    # Hermiticity of assembled Hamiltonians
    herm = build_hamiltonian(params, basis).hermiticity_error()
    checks.append(("Hermiticity", herm <= 1e-12, f"{herm:.1e}"))

    # SU(2) commutators on the atomic sector
    b_atomic = build_basis(5, 0)
    dim = b_atomic.dim

    def dense(op, dm=0):
        a = np.zeros((dim, dim), dtype=complex)
        for m, blk in op.blocks.items():
            src = b_atomic.block(m)
            tgt = b_atomic.block(m + dm)
            a[tgt.offset : tgt.offset + tgt.dim, src.offset : src.offset + src.dim] = blk
        return a

    jp = dense(collective_operator(b_atomic, "J+"), +1)
    jm = dense(collective_operator(b_atomic, "J-"), -1)
    jz = dense(collective_operator(b_atomic, "Jz"))
    comm = max(
        float(np.max(np.abs(jp @ jm - jm @ jp - 2 * jz))),
        float(np.max(np.abs(jz @ jp - jp @ jz - jp))),
        float(np.max(np.abs(jz @ jm - jm @ jz + jm))),
    )
    checks.append(("SU(2) commutators", comm <= 1e-12, f"{comm:.1e}"))

    # collective lowering annihilates every dark basis state
    worst_dark = 0.0
    for n_atoms in range(2, 11):
        b = build_basis(n_atoms, 0)
        lower = collective_operator(b, "J-")
        for v in subradiant_basis(b, 0):
            worst_dark = max(worst_dark, lower.apply(v).norm())
    checks.append(("dark-state annihilation", worst_dark <= 1e-12, f"{worst_dark:.1e}"))

    # dark weight of the control-excited expansion
    worst_dfs = 0.0
    for n_atoms in range(2, 11):
        b = build_basis(n_atoms, 0)
        st = control_excited_state(b, np.array([1.0]))
        worst_dfs = max(worst_dfs, abs(dfs_weight(st) - (n_atoms - 1) / n_atoms))
    checks.append(("initial dark weight (N-1)/N", worst_dfs <= 1e-12, f"{worst_dfs:.1e}"))

    elapsed = time.perf_counter() - t0
    ok = all(passed for _, passed, _ in checks)
    detail = "; ".join(f"{name} {'ok' if passed else 'BAD'} ({d})" for name, passed, d in checks)
    report(7, "invariant suite", ok, f"{detail}; runtime {elapsed:.1f}s")


def test_criterion_8_prepared_state_is_subradiant():
    t0 = time.perf_counter()
    params = SystemParams.from_detuning_ratio(10, G, 100.0)
    rep = run(params, FieldSpec.fock(0))
    basis = build_basis(10, 0)
    symmetric_emission = collective_operator(basis, "J+J-").expectation(
        symmetric_state(basis, 0)
    )
    elapsed = time.perf_counter() - t0
    ok = rep.emission_expectation <= 0.05 and abs(symmetric_emission - 10.0) < 1e-9
    report(
        8,
        "prepared state has suppressed emission coupling",
        ok,
        f"<J+J-> prepared {rep.emission_expectation:.2e} <= 0.05 vs "
        f"symmetric {symmetric_emission:.1f} = N; runtime {elapsed:.1f}s",
    )
