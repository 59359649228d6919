"""Seeded workload configs for the subrad CLI benchmark.

Every workload runs one `subrad` subcommand on one generated config.  Seed 0
gives the canonical config, whose outputs are compared against the committed
reference files; any other seed draws only inputs that leave the problem size
unchanged (detuning ratio, thermal occupations), so timings from different
seeds measure the same amount of work.  The program never sees the seed:
configs carry no "seed" key.

All workloads use g/2pi = 24 kHz and default options.

A coherent-field protocol workload (N=8, about 4-6 s per call) is left out:
on a host whose speed swings by tens of percent, the few calls that fit in
one run do not give a steady fastest time.  Its layers are still measured:
propagation and compilation on sweep_thermal, trajectory metrics on
protocol_fock.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

G_OVER_2PI_HZ = 24000.0
SWEEP_LOW, SWEEP_HIGH, SWEEP_POINTS = 0.05, 0.40, 8


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # subrad subcommand
    jobs: int  # --jobs for the sweep; 1 elsewhere
    why: str  # why the workload is in the benchmark (one line)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "protocol_fock",
            "protocol",
            1,
            "metrics and basis size dominate, with no eigensolver cost; "
            "a compile or eigensolver change should show no gain here",
        ),
        Workload(
            "sweep_thermal",
            "sweep",
            2,
            "exercises the protocol.run mixture loop, perturb and the process pool, "
            "and bypasses trajectory sampling",
        ),
        Workload(
            "spectrum_block",
            "spectrum",
            1,
            "LAPACK and the CLI's own post-processing dominate; "
            "propagation, metrics and fields are bypassed",
        ),
    )
}


def _base(n_atoms: int, delta_over_g: float) -> dict:
    return {
        "n_atoms": n_atoms,
        "g_over_2pi_hz": G_OVER_2PI_HZ,
        "delta_over_g": delta_over_g,
    }


def make_config(name: str, seed: int, tiny: bool = False) -> dict:
    """Config for one workload; `tiny` shrinks the problem for smoke tests."""
    rng = random.Random(f"{name}:{seed}")
    canonical = seed == 0

    if name == "protocol_fock":
        ratio = 30.0 if canonical else rng.uniform(30.0, 60.0)
        cfg = _base(4 if tiny else 12, ratio)
        cfg["field"] = {"kind": "fock", "n": 0}
        return cfg

    if name == "sweep_thermal":
        points = 2 if tiny else SWEEP_POINTS
        width = (SWEEP_HIGH - SWEEP_LOW) / (points - 1)
        if canonical:
            values = [round(SWEEP_LOW + i * width, 12) for i in range(points)]
        else:
            # One draw per stratum keeps the total number of Fock components,
            # and so the work, nearly the same for every seed.
            stratum = (SWEEP_HIGH - SWEEP_LOW) / points
            values = [SWEEP_LOW + (i + rng.random()) * stratum for i in range(points)]
        cfg = _base(3 if tiny else 8, 100.0)
        cfg["field"] = {"kind": "thermal", "mean_n": values[0]}
        cfg["sweep"] = {"axis": "mean_n", "values": values}
        return cfg

    if name == "spectrum_block":
        ratio = 30.0 if canonical else rng.uniform(30.0, 60.0)
        n_atoms = 4 if tiny else 10
        cfg = _base(n_atoms, ratio)
        cfg["spectrum"] = {"block": n_atoms}
        return cfg

    raise KeyError(f"unknown workload {name!r}")


def cli_args(workload: Workload, config_path: str, out_dir: str) -> list[str]:
    args = [workload.command, "--config", config_path, "--out", out_dir]
    if workload.jobs > 1:
        args += ["--jobs", str(workload.jobs)]
    return args
