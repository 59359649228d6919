"""Correctness checks on the files one subrad CLI call writes.

`check_outputs` returns the list of problems it found; an empty list means
the call's output is correct.  Two kinds of check run:

* reference-free checks, for every seed: the closed-form matching time and
  phase, 0 <= fidelity <= dark weight <= 1, trajectory norm and population
  identities, sweep row order, the spectrum's size, order and trace, and its
  level-assignment errors |eigenvalue - pt_level|;
* for seed 0, a comparison against the reference files under
  `reference/<workload>/`, the outputs of one seed-0 call at the seed commit.
  Numbers must agree within 1e-10 absolute (relative for magnitudes above 1,
  such as rates in rad/s); the spectrum's rad/s columns within
  1e-10 * max|eigenvalue|, its `assignment` labels exactly.  The report's
  `meta` block describes the implementation (basis size, compiled blocks,
  package version), not the physics, and is not compared.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

REF_TOL = 1e-10
PLAN_TOL = 1e-12
ORDER_SLACK = 1e-12
NORM_TOL = 1e-10
IDENTITY_TOL = 1e-12
TRAJECTORY_POINTS = 400  # the CLI's default evolve.points

IMPLEMENTATION_KEYS = ("meta",)  # report keys left out of the reference comparison
SPECTRUM_RATE_COLUMNS = (
    "eigenvalue_rad_s",
    "shift_from_e0_rad_s",
    "pt_level_rad_s",
    "pt_shift_rad_s",
    "abs_error_rad_s",
)


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _close(value: float, ref: float, tol: float = REF_TOL) -> bool:
    return abs(value - ref) <= tol * max(1.0, abs(ref))


def _alpha(cfg: dict, n_atoms: int, delta_over_g: float) -> float:
    """Slow dispersive rate N g^2 / (2 delta) in 1/s, with delta = ratio * g."""
    return n_atoms * 2.0 * math.pi * cfg["g_over_2pi_hz"] / (2.0 * delta_over_g)


def _expected_plan(cfg: dict, n_atoms: int, delta_over_g: float) -> tuple[float, float]:
    """Branch-0 matching time (s) and cos(phi) from the closed forms."""
    alpha = _alpha(cfg, n_atoms, delta_over_g)
    t_m = math.asin(math.sqrt(n_atoms / (4.0 * n_atoms - 4.0))) / abs(alpha)
    return t_m, (n_atoms - 2.0) / (2.0 * n_atoms - 2.0)


def _check_plan_and_order(where, t_m, phi, fidelity, dark, t_ref, cos_ref, problems):
    if abs(t_m - t_ref) > PLAN_TOL * t_ref:
        problems.append(f"{where}: t_m {t_m!r} != closed form {t_ref!r}")
    if abs(math.cos(phi) - cos_ref) > PLAN_TOL:
        problems.append(f"{where}: cos(phi) {math.cos(phi)!r} != {cos_ref!r}")
    if not -ORDER_SLACK <= fidelity <= dark + ORDER_SLACK <= 1.0 + 2 * ORDER_SLACK:
        problems.append(f"{where}: expected 0 <= fidelity {fidelity!r} <= dfs {dark!r} <= 1")


def _compare_tree(path: str, value, ref, problems: list[str]) -> None:
    if isinstance(ref, dict):
        if not isinstance(value, dict) or set(value) != set(ref):
            problems.append(f"{path}: keys differ from the reference")
            return
        for key in ref:
            _compare_tree(f"{path}.{key}", value[key], ref[key], problems)
    elif isinstance(ref, list):
        if not isinstance(value, list) or len(value) != len(ref):
            problems.append(f"{path}: length differs from the reference")
            return
        for i, (v, r) in enumerate(zip(value, ref)):
            _compare_tree(f"{path}[{i}]", v, r, problems)
    elif isinstance(ref, float) and isinstance(value, (int, float)):
        if not _close(float(value), ref):
            problems.append(f"{path}: {value!r} differs from reference {ref!r}")
    elif value != ref:
        problems.append(f"{path}: {value!r} differs from reference {ref!r}")


def _compare_rows(name: str, rows, ref_rows, problems: list[str], abs_tols=None) -> None:
    """Compare CSV rows cell by cell; `abs_tols` maps columns to absolute tolerances."""
    abs_tols = abs_tols or {}
    if len(rows) != len(ref_rows):
        problems.append(f"{name}: {len(rows)} rows, reference has {len(ref_rows)}")
        return
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        for col, ref_cell in ref.items():
            cell = row.get(col)
            try:
                value, expected = float(cell), float(ref_cell)
                if col in abs_tols:
                    ok = abs(value - expected) <= abs_tols[col]
                else:
                    ok = _close(value, expected)
            except (TypeError, ValueError):
                ok = cell == ref_cell
            if not ok:
                problems.append(f"{name} row {i} {col}: {cell!r} != reference {ref_cell!r}")
                return


def _check_protocol(cfg, out_dir, ref_dir, problems):
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))["report"]
    t_ref, cos_ref = _expected_plan(cfg, cfg["n_atoms"], cfg["delta_over_g"])
    _check_plan_and_order(
        "report",
        report["t_m_seconds"],
        report["phi_radians"],
        report["fidelity_subradiant"],
        report["dfs_weight"],
        t_ref,
        cos_ref,
        problems,
    )
    rows = read_csv(out_dir / "trajectory.csv")
    if len(rows) != TRAJECTORY_POINTS:
        problems.append(f"trajectory: {len(rows)} rows, expected {TRAJECTORY_POINTS}")
    for i, row in enumerate(rows):
        r = {k: float(v) for k, v in row.items()}
        if not r["norm_error"] <= NORM_TOL:
            problems.append(f"trajectory row {i}: norm_error {r['norm_error']!r}")
            break
        gap = r["p_symmetric"] + r["p_subradiant"] - r["p_control"] - r["p_single_offcontrol"]
        if not abs(gap) <= IDENTITY_TOL:
            problems.append(f"trajectory row {i}: population identity off by {gap!r}")
            break
    if ref_dir is not None:
        ref = json.loads((ref_dir / "report.json").read_text(encoding="utf-8"))["report"]
        physics = {k: v for k, v in report.items() if k not in IMPLEMENTATION_KEYS}
        ref = {k: v for k, v in ref.items() if k not in IMPLEMENTATION_KEYS}
        _compare_tree("report", physics, ref, problems)
        _compare_rows("trajectory", rows, read_csv(ref_dir / "trajectory.csv"), problems)


def _check_sweep(cfg, out_dir, ref_dir, problems):
    rows = read_csv(out_dir / "sweep.csv")
    values = cfg["sweep"]["values"]
    if len(rows) != len(values):
        problems.append(f"sweep: {len(rows)} rows, expected {len(values)}")
        return
    for i, (row, value) in enumerate(zip(rows, values)):
        if row["error"]:
            problems.append(f"sweep row {i}: error {row['error']!r}")
            continue
        if int(row["point"]) != i or float(row["value"]) != float(value):
            problems.append(f"sweep row {i}: out of grid order ({row['point']}, {row['value']})")
        t_ref, cos_ref = _expected_plan(cfg, int(row["n_atoms"]), float(row["delta_over_g"]))
        _check_plan_and_order(
            f"sweep row {i}",
            float(row["t_m_seconds"]),
            float(row["phi_radians"]),
            float(row["fidelity_subradiant"]),
            float(row["dfs_weight"]),
            t_ref,
            cos_ref,
            problems,
        )
    if ref_dir is not None:
        _compare_rows("sweep", rows, read_csv(ref_dir / "sweep.csv"), problems)


def _block_levels(cfg: dict) -> list[tuple[int, int]]:
    """(atom excitations k, multiplicity C(N, k)) of the spectrum block.

    With the CLI's default cutoff n_max = M + N + 4 every photon number
    M - k in 0..M fits, so k runs over 0..min(M, N).
    """
    n_atoms, block = cfg["n_atoms"], cfg["spectrum"]["block"]
    return [(k, math.comb(n_atoms, k)) for k in range(min(block, n_atoms) + 1)]


def _check_spectrum(cfg, out_dir, ref_dir, problems):
    rows = read_csv(out_dir / "spectrum.csv")
    levels = _block_levels(cfg)
    dim = sum(mult for _, mult in levels)
    eig = [float(r["eigenvalue_rad_s"]) for r in rows]
    if len(eig) != dim:
        problems.append(f"spectrum: {len(eig)} rows, expected {dim}")
        return
    if any(b < a for a, b in zip(eig, eig[1:])):
        problems.append("spectrum: eigenvalues not ascending")
    # Atomic frame: omega_a = 0, omega_c = delta, so the interaction-free
    # diagonal is delta * photons and trace(H) = sum_k C(N, k) delta (M - k).
    delta = cfg["delta_over_g"] * 2.0 * math.pi * cfg["g_over_2pi_hz"]
    block = cfg["spectrum"]["block"]
    trace = sum(mult * delta * (block - k) for k, mult in levels)
    scale = max(abs(x) for x in eig)
    if abs(sum(eig) - trace) > 1e-12 * dim * scale:
        problems.append(f"spectrum: eigenvalue sum {sum(eig)!r} != trace {trace!r}")
    # Each eigenvalue's error against the slow-model level it was assigned.
    two_alpha = 2.0 * abs(_alpha(cfg, cfg["n_atoms"], cfg["delta_over_g"]))
    for i, (row, ev) in enumerate(zip(rows, eig)):
        err = abs(ev - float(row["pt_level_rad_s"]))
        if abs(float(row["abs_error_rad_s"]) - err) > ORDER_SLACK * scale:
            problems.append(f"spectrum row {i}: abs_error_rad_s != |eigenvalue - pt_level|")
            break
        if abs(float(row["rel_error_vs_2alpha"]) - err / two_alpha) > PLAN_TOL * max(
            1.0, err / two_alpha
        ):
            problems.append(f"spectrum row {i}: rel_error_vs_2alpha != abs_error / (2 alpha)")
            break
    if ref_dir is not None:
        ref_rows = read_csv(ref_dir / "spectrum.csv")
        ref_scale = max(abs(float(r["eigenvalue_rad_s"])) for r in ref_rows)
        tols = {col: REF_TOL * ref_scale for col in SPECTRUM_RATE_COLUMNS}
        tols["rel_error_vs_2alpha"] = REF_TOL * ref_scale / two_alpha
        _compare_rows("spectrum", rows, ref_rows, problems, tols)


CHECKERS = {"protocol": _check_protocol, "sweep": _check_sweep, "spectrum": _check_spectrum}


def check_outputs(command: str, cfg: dict, out_dir: Path, ref_dir: Path | None) -> list[str]:
    """Problems found in one call's outputs; [] when they are correct."""
    problems: list[str] = []
    try:
        CHECKERS[command](cfg, Path(out_dir), ref_dir, problems)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return problems

