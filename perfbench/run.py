#!/usr/bin/env python3
"""Benchmark of the subrad command line, one fresh process per sample.

    python3 perfbench/run.py --workload protocol_fock --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20     # every workload

Run from anywhere; the tree under test is the `src/` next to this directory.
Each sample launches the CLI exactly as the `subrad` console script does and
checks every output it writes (checks.py).  With `--trace 0` the run reports
the end-to-end metrics: wall and CPU seconds per call (CPU includes sweep pool
workers), seconds to `import subrad.cli` in a fresh interpreter, and the
median peak resident set of any one process of the call.  With `--trace 1` it
alternates untraced and traced calls (traced_cli.py) and reports the
per-layer metrics of tracer.py, plus the tracing overhead.  The last line of
standard output is one JSON object.

The host's speed is not steady: the same call takes 1.1 s or 2.1 s depending
on what else the machine runs, in phases that last from seconds to minutes,
so medians of raw times spread by up to 30% between runs.  Each call is
therefore paired with a probe timed just before it, `import numpy` in a fresh
interpreter, which runs no subrad code.  A timing is the median over the run
of (sample / its probe) x PROBE_REFERENCE_S: a host phase slows a sample and
its probe alike and cancels, while a change to subrad moves the metric in
full.  The human-readable lines give the unscaled quartiles as well.

Work files go to `.perfbench_run/` next to `src/`.  Samples run in a closed
loop, one call at a time, until `--seconds` have passed (at least three).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import tracer
from workloads import WORKLOADS, cli_args, make_config

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".perfbench_run"
REFERENCE_DIR = BENCH_DIR / "reference"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CLI_CODE = "import sys; from subrad.cli import main; sys.exit(main())"
MIN_SAMPLES = 3
MIN_SETUP_SAMPLES = 7
PROBE_CODE = "import numpy"
# About the probe's time on the host of baseline.json (Intel Xeon, 2 vCPUs,
# numpy 2.4.6) at full speed, so that scaled timings read as seconds there.
PROBE_REFERENCE_S = 0.125
SAMPLE_TIMEOUT_S = 150.0

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

ENV_PROBE = """
import json, sys, numpy, subrad, subrad.cli
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas['name']} {blas['version']}"
except Exception as exc:
    blas = f"unknown ({type(exc).__name__})"
print(json.dumps({"subrad_file": subrad.__file__, "python": sys.version.split()[0],
                  "numpy": numpy.__version__, "blas": blas}))
"""


class BenchError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


def bench_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + inherited if inherited else "")
    return env


def probe_environment(env: dict[str, str]) -> dict:
    """Check that `subrad` resolves to this tree; record what the numbers depend on."""
    proc = subprocess.run(
        [sys.executable, "-c", ENV_PROBE],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=SAMPLE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"cannot import subrad from {ROOT / 'src'}:\n{proc.stderr}")
    info = json.loads(proc.stdout.splitlines()[-1])
    expected = (ROOT / "src" / "subrad").resolve()
    if Path(info["subrad_file"]).resolve().parent != expected:
        raise BenchError(f"subrad resolves to {info['subrad_file']}, not {expected}")
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = git.stdout.strip() or None
    info.update(
        nproc=os.cpu_count(),
        platform=platform.platform(),
        threads={var: env[var] for var in THREAD_VARS},
        commit=commit,
    )
    return info


def run_process(argv: list[str], env: dict[str, str], log_path: Path) -> dict:
    """Run one process to completion: wall s, CPU s and peak RSS of its tree."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(SAMPLE_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            # wait4 reports the child's usage including its reaped descendants
            # (the sweep's pool workers); Popen.wait would discard it.
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "exit_code": proc.returncode,
    }


class WorkloadRun:
    """Generated config, output directories and sample records for one workload."""

    def __init__(self, name: str, seed: int, env: dict[str, str], tiny: bool = False):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.env = env
        self.config = make_config(name, seed, tiny=tiny)
        self.dir = WORK_DIR / name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config_path = self.dir / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=2) + "\n", encoding="utf-8")
        ref = REFERENCE_DIR / name
        self.reference = ref if seed == 0 and not tiny else None
        self.out_dir = self.dir / "out"
        self.problems: list[str] = []

    def cli_sample(self, traced: bool = False) -> dict:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        args = cli_args(self.workload, str(self.config_path), str(self.out_dir))
        if traced:
            spans = self.dir / "spans"
            shutil.rmtree(spans, ignore_errors=True)
            spans.mkdir()
            argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans), *args]
        else:
            argv = [sys.executable, "-c", CLI_CODE, *args]
        sample = run_process(argv, self.env, self.dir / "cli.log")
        problems = [] if sample["exit_code"] == 0 else [f"exit code {sample['exit_code']}"]
        if not problems:
            problems = checks.check_outputs(
                self.workload.command, self.config, self.out_dir, self.reference
            )
        if traced and not problems:
            try:
                sample["layers"] = tracer.summarize(self.dir / "spans", self.workload.jobs)
            except (OSError, ValueError) as exc:
                problems.append(f"unreadable trace: {exc}")
        sample["ok"] = not problems
        self.problems.extend(problems)
        return sample

    def import_sample(self, code: str) -> float:
        """Wall seconds for a fresh interpreter to run `code` (an import)."""
        sample = run_process([sys.executable, "-c", code], self.env, self.dir / "import.log")
        if sample["exit_code"] != 0:
            raise BenchError(f"{code!r} failed; see {self.dir / 'import.log'}")
        return sample["wall_s"]


def _scaled(pairs: list[tuple[float, float]]) -> tuple[float, str]:
    """Median of sample / probe x PROBE_REFERENCE_S over (sample, probe) pairs."""
    raw = [v for v, _ in pairs]
    q1, median, q3 = statistics.quantiles(raw, n=4)
    note = (
        f"median of {len(pairs)} probe-scaled samples "
        f"(unscaled q1 {q1:.4g}, median {median:.4g}, q3 {q3:.4g})"
    )
    return statistics.median(PROBE_REFERENCE_S * v / p for v, p in pairs), note


def measure_end_to_end(run: WorkloadRun, seconds: float) -> tuple[list[dict], dict]:
    samples, setup = [], []
    t_end = time.perf_counter() + seconds
    while len(samples) < MIN_SAMPLES or time.perf_counter() < t_end:
        probe = run.import_sample(PROBE_CODE)
        setup.append((run.import_sample("import subrad.cli"), probe))
        samples.append({**run.cli_sample(), "probe_s": probe})
    while len(setup) < MIN_SETUP_SAMPLES:
        probe = run.import_sample(PROBE_CODE)
        setup.append((run.import_sample("import subrad.cli"), probe))
    good = [s for s in samples if s["ok"]] or samples
    rss = [s["peak_rss_mb"] for s in good]
    metrics = {
        "wall_s": _scaled([(s["wall_s"], s["probe_s"]) for s in good]),
        "cpu_s": _scaled([(s["cpu_s"], s["probe_s"]) for s in good]),
        "setup_s": _scaled(setup),
        "peak_rss_mb": (statistics.median(rss), f"median of {len(rss)} samples"),
    }
    return samples, {k: (v, END_TO_END_UNITS[k], note) for k, (v, note) in metrics.items()}


def measure_layers(run: WorkloadRun, seconds: float) -> tuple[list[dict], dict]:
    plain, traced = [], []
    t_end = time.perf_counter() + seconds
    while not plain or not traced or time.perf_counter() < t_end:
        plain.append(run.cli_sample())
        traced.append(run.cli_sample(traced=True))
    layers = [s["layers"] for s in traced if s["ok"]]
    units = tracer.per_layer_units()
    metrics = {}
    for name, unit in units.items():
        if name == "trace.overhead_s":
            # Each pair runs back to back, so slow drift in host speed cancels.
            value = statistics.median(t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced))
        else:
            value = statistics.median(layer[name] for layer in layers) if layers else 0.0
        metrics[name] = (value, unit, f"median of {len(layers)} traced samples")
    return plain + traced, metrics


def report(run: WorkloadRun, samples: list[dict], metrics: dict, env_info: dict) -> dict:
    """Print the human-readable summary, save result.json, return the counts."""
    failed = sum(1 for s in samples if not s["ok"])
    lines = [f"workload {run.workload.name} (seed {run.seed}): {run.workload.why}"]
    for metric, (value, unit, note) in metrics.items():
        lines.append(f"  {metric:<40} {value:>14.6g} {unit:<6} {note}")
    n = len(samples)
    lines.append(
        f"  {'failed_ratio':<40} {failed / n:>14.6g} {'ratio':<6} {failed} of {n} invocations"
    )
    for problem in run.problems[:10]:
        lines.append(f"  FAILED CHECK: {problem}")
    print("\n".join(lines))
    record = {
        "workload": run.workload.name,
        "why": run.workload.why,
        "seed": run.seed,
        "config": run.config,
        "environment": env_info,
        "metrics": {k: {"value": v, "unit": u, "statistic": n} for k, (v, u, n) in metrics.items()},
        "samples": samples,
        "problems": run.problems,
    }
    (run.dir / "result.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return {"attempted": n, "failed": failed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = bench_env()
    try:
        env_info = probe_environment(env)
        print(
            "environment: "
            + ", ".join(f"{k}={v}" for k, v in env_info.items() if k != "subrad_file")
        )
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in names:
            run = WorkloadRun(name, args.seed, env)
            measure = measure_layers if args.trace else measure_end_to_end
            samples, metrics = measure(run, args.seconds)
            counts = report(run, samples, metrics, env_info)
            result["attempted"] += counts["attempted"]
            result["failed"] += counts["failed"]
            prefix = "" if len(names) == 1 else f"{name}."
            for metric, (value, unit, _note) in metrics.items():
                result["metrics"][prefix + metric] = {"value": value, "unit": unit}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
