#!/usr/bin/env python3
"""Self-tests of the benchmark itself: python3 perfbench/selftest.py

Prints one PASS/FAIL line per check and exits 1 if any fails.  Takes about
half a minute; workloads run at tiny sizes.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
import tempfile
from pathlib import Path

import checks
import run
import tracer
from workloads import WORKLOADS, make_config

COUNT_UNITS = ("count", "bytes")


def check_smoke_runs(env) -> None:
    """Every workload passes its output checks at a tiny size, traced or not."""
    for name in WORKLOADS:
        for seed in (0, 1):
            wl = run.WorkloadRun(name, seed, env, tiny=True)
            for traced in (False, True):
                sample = wl.cli_sample(traced=traced)
                assert sample["ok"], f"{name} seed {seed} traced={traced}: {wl.problems}"


def check_perturbed_report_fails() -> None:
    """A reference report with fidelity moved by 1e-6 counts as failed."""
    name = "protocol_fock"
    ref = run.REFERENCE_DIR / name
    cfg = make_config(name, 0)
    with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as tmp:
        out = Path(tmp) / "out"
        shutil.copytree(ref, out)
        assert checks.check_outputs("protocol", cfg, out, ref) == [], "unmodified copy fails"
        path = out / "report.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["report"]["fidelity_subradiant"] += 1e-6
        path.write_text(json.dumps(payload), encoding="utf-8")
        problems = checks.check_outputs("protocol", cfg, out, ref)
        assert problems, "perturbed fidelity passed the checks"


def check_report_meta_not_compared() -> None:
    """A report whose implementation `meta` block differs still passes."""
    name = "protocol_fock"
    ref = run.REFERENCE_DIR / name
    cfg = make_config(name, 0)
    with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as tmp:
        out = Path(tmp) / "out"
        shutil.copytree(ref, out)
        path = out / "report.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["report"]["meta"] = {"package_version": "9.9.9", "basis_dim": 1}
        path.write_text(json.dumps(payload), encoding="utf-8")
        problems = checks.check_outputs("protocol", cfg, out, ref)
        assert not problems, f"a different meta block failed: {problems}"


def check_perturbed_spectrum_fails() -> None:
    """A spectrum copy with one level assignment or one error changed counts as failed."""
    name = "spectrum_block"
    ref = run.REFERENCE_DIR / name
    cfg = make_config(name, 0)
    rows = checks.read_csv(ref / "spectrum.csv")
    mutations = {
        "assignment": lambda r: {**r, "assignment": "delta_ei"},
        "abs_error_rad_s": lambda r: {
            **r,
            "abs_error_rad_s": repr(float(r["abs_error_rad_s"]) + 1.0),
        },
    }
    with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as tmp:
        out = Path(tmp)
        for label, mutate in mutations.items():
            changed = [mutate(r) if i == 500 else r for i, r in enumerate(rows)]
            with open(out / "spectrum.csv", "w", newline="", encoding="utf-8") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
                writer.writeheader()
                writer.writerows(changed)
            for ref_dir in (ref, None) if label == "abs_error_rad_s" else (ref,):
                problems = checks.check_outputs("spectrum", cfg, out, ref_dir)
                assert problems, f"changed {label} passed (reference {ref_dir})"


def check_all_references_wrapped() -> None:
    """After install(), no subrad.* module still holds an unwrapped traced function."""
    sys.path.insert(0, str(run.ROOT / "src"))
    with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as tmp:
        originals = tracer.install(tracer.Tracer(Path(tmp)))
        left = tracer.unwrapped_references(originals)
        assert not left, f"unwrapped references: {left}"
        import subrad.cli
        import subrad.dynamics
        import subrad.perturb
        import subrad.protocol

        evolve = subrad.dynamics.evolve.__wrapped__
        assert subrad.protocol.evolve.__wrapped__ is evolve
        assert subrad.perturb.evolve.__wrapped__ is evolve
        assert subrad.cli.compile_propagator.__wrapped__ is not None
        names = {fn.__name__ for fn in originals}
        assert not names & {n.split(".")[1] for n in tracer.UNTRACED}, "UNTRACED was traced"


def check_counts_repeat(env) -> None:
    """Every count metric repeats exactly across two traced runs."""
    units = tracer.per_layer_units()
    counted = [m for m, unit in units.items() if unit in COUNT_UNITS]
    for name in WORKLOADS:
        wl = run.WorkloadRun(name, 0, env, tiny=True)
        first, second = (wl.cli_sample(traced=True) for _ in range(2))
        assert first["ok"] and second["ok"], f"{name}: {wl.problems}"
        diff = [m for m in counted if first["layers"][m] != second["layers"][m]]
        assert not diff, f"{name}: counts differ between traced runs: {diff}"


def main() -> int:
    env = run.bench_env()
    run.probe_environment(env)
    run.WORK_DIR.mkdir(exist_ok=True)
    tests = [
        ("smoke runs at tiny size", lambda: check_smoke_runs(env)),
        ("perturbed report fails", check_perturbed_report_fails),
        ("report meta not compared", check_report_meta_not_compared),
        ("perturbed spectrum fails", check_perturbed_spectrum_fails),
        ("counts repeat across traced runs", lambda: check_counts_repeat(env)),
        ("every reference wrapped", check_all_references_wrapped),
    ]
    failed = 0
    for label, test in tests:
        try:
            test()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {label}: {exc}")
        else:
            print(f"PASS {label}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
