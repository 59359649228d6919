#!/usr/bin/env python3
"""Write the golden CLI cases under tests/golden/ from the current tree.

Each case is one in-process call `subrad.cli.main(argv)`, made with the case
directory as the working directory and COLUMNS=80, so that argparse wraps its
usage lines the same way everywhere.  A case directory holds:

    argv.json    the argv, with paths relative to the case directory
    config.json  the config the argv names (absent where it names none)
    exit_code    the code main returned
    stdout       what the call printed to stdout
    stderr       what the call printed to stderr
    out/         every file the call wrote; every argv writes under out/

tests/test_golden.py runs each case again and compares.  To rewrite every
case, or only the named ones:

    python tests/golden/write.py [case ...]

A change that rewrites a case changes the CLI contract, and lists the case
where it records the change.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
ROOT = GOLDEN.parents[1]
RESULT_FILES = ("exit_code", "stdout", "stderr")
G_HZ = 24000.0


def _workloads():
    """perfbench/workloads.py, loaded without writing bytecode under perfbench/."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
        del sys.modules[spec.name]
    return module


def _config(**overrides) -> dict:
    """N=10 at delta/g = 30 in vacuum with 8 trajectory points, then `overrides`;
    an override of None drops its key."""
    cfg = {
        "n_atoms": 10,
        "g_over_2pi_hz": G_HZ,
        "delta_over_g": 30.0,
        "field": {"kind": "fock", "n": 0},
        "evolve": {"points": 8},
    }
    cfg.update(overrides)
    return {k: v for k, v in cfg.items() if v is not None}


def _argv(command: str, *extra: str) -> list:
    return [command, "--config", "config.json", "--out", "out", *extra]


OMEGA = {"delta_over_g": None, "omega_a_over_2pi_hz": 50e9, "omega_c_over_2pi_hz": 50e9 + 30 * G_HZ}

# Configs run as `protocol` and again as `evolve` (case "<name>_evolve"); the
# names say what the config holds, and the stderr of a case what it refused.
PROTOCOL_CONFIGS = {
    "defaults": _config(),
    "negative_detuning": _config(n_atoms=4, delta_over_g=-100.0),
    "thermal": _config(n_atoms=5, delta_over_g=100.0, field={"kind": "thermal", "mean_n": 0.3}),
    "coherent": _config(
        n_atoms=3, delta_over_g=100.0,
        field={"kind": "coherent", "amplitude_re": 0.5, "amplitude_im": -0.5},
    ),
    "tm_branch_1": _config(n_atoms=4, delta_over_g=100.0, options={"tm_branch": 1}),
    "tm_branch_2_negative_detuning": _config(
        n_atoms=3, delta_over_g=-50.0, field={"kind": "fock", "n": 1}, options={"tm_branch": 2},
    ),
    "phi_override": _config(n_atoms=4, delta_over_g=100.0, options={"phi_override": 0.25}),
    "no_control_excitation": _config(
        n_atoms=3, delta_over_g=100.0, options={"excite_control": False},
    ),
    "pt_times_1_and_n_max": _config(
        n_atoms=3, delta_over_g=100.0, field={"kind": "fock", "n": 2},
        options={"pt_times": 1, "n_max": 6},
    ),
    "omega_frame": _config(**OMEGA),
    "seed_in_config": _config(n_atoms=3, seed=3),
    "validity_above_bound": _config(field={"kind": "fock", "n": 9}),
    "validity_above_bound_allow_invalid": _config(field={"kind": "fock", "n": 9}, allow_invalid=True),
    "unknown_key": _config(bogus=1),
    "fock_above_cutoff": _config(
        n_atoms=3, field={"kind": "fock", "n": 5}, options={"n_max": 4},
    ),
    "tight_coherent_cutoff": _config(
        n_atoms=3, delta_over_g=100.0, field={"kind": "coherent", "amplitude_re": 1.5},
        options={"n_max": 3},
    ),
    "underflowing_coherent": _config(
        n_atoms=3, delta_over_g=100.0, field={"kind": "coherent", "amplitude_re": 40},
        allow_invalid=True,
    ),
    "thermal_cutoff_before_validity": _config(
        n_atoms=50, delta_over_g=10.0, field={"kind": "thermal", "mean_n": 2},
        options={"n_max": 3},
    ),
    "clipped_block": _config(
        n_atoms=2, field={"kind": "fock", "n": 3}, options={"n_max": 3},
    ),
    "one_atom": _config(n_atoms=1),
    "phase_rounding": _config(n_atoms=2, delta_over_g=6e4),
    "overflowing_detuning": _config(n_atoms=4, delta_over_g=1e300),
}


def _sweep(axis: str, values: list, **overrides) -> dict:
    return _config(sweep={"axis": axis, "values": values}, **overrides)


SWEEP_CONFIGS = {
    "sweep_N": _sweep("N", [1, 2, 3, 5], delta_over_g=100.0),
    "sweep_N_omega_frame": _sweep("N", [2, 4], **OMEGA),
    "sweep_delta_ratio": _sweep("delta_ratio", [-30, 0, 30, 100, 1e300], n_atoms=5),
    "sweep_mean_n_fock": _sweep("mean_n", [-1, 0, 1, 2], n_atoms=3, delta_over_g=100.0),
    "sweep_mean_n_thermal": _sweep(
        "mean_n", [-0.5, 0, 0.1, 0.3], n_atoms=3, delta_over_g=100.0,
        field={"kind": "thermal", "mean_n": 0.1},
    ),
    "sweep_mean_n_coherent": _sweep(
        "mean_n", [-0.5, 0.25, 1.0], n_atoms=2, delta_over_g=6.0,
        field={"kind": "coherent", "amplitude_re": 0.5},
    ),
    "sweep_no_control_excitation": _sweep(
        "delta_ratio", [100.0], n_atoms=3, options={"excite_control": False},
    ),
    "refuse_sweep_without_axis": _config(),
}

SPECTRUM_CONFIGS = {
    "spectrum_photons_0": _config(delta_over_g=300.0, spectrum={"photons": 0}),
    "spectrum_block_3": _config(n_atoms=4, spectrum={"block": 3}),
    "spectrum_h0_only": _config(spectrum={"photons": 0, "h0_only": True}),
    "spectrum_single_atom_omega_frame": _config(
        n_atoms=1, delta_over_g=None, omega_a_over_2pi_hz=1e9,
        omega_c_over_2pi_hz=1e9 + 40 * G_HZ, spectrum={"photons": 0},
    ),
    "spectrum_omega_frame_photons_1": _config(n_atoms=3, spectrum={"photons": 1}, **OMEGA),
    "spectrum_clipped_block": _config(
        n_atoms=2, delta_over_g=-30.0, spectrum={"block": 3}, options={"n_max": 2},
    ),
    "refuse_spectrum_block_0": _config(n_atoms=3, spectrum={"block": 0}),
    "refuse_spectrum_too_many_rows": _config(
        n_atoms=17, delta_over_g=100.0, spectrum={"block": 17},
    ),
    "refuse_spectrum_non_finite": _config(
        n_atoms=4, delta_over_g=1e300, spectrum={"block": 2},
    ),
}


def cases() -> dict:
    """Every case: name -> (argv, config or None)."""
    workloads = _workloads()
    found = {}
    for name, workload in workloads.WORKLOADS.items():
        argv = workloads.cli_args(workload, "config.json", "out")
        found[f"perfbench_{name}_seed0"] = (argv, workloads.make_config(name, 0))
        if workload.command != "spectrum":
            cfg = {**workloads.make_config(name, 3), "evolve": {"points": 20}}
            found[f"perfbench_{name}_seed3"] = (argv, cfg)
    for name, cfg in PROTOCOL_CONFIGS.items():
        found[name] = (_argv("protocol"), cfg)
    found["seed_flag"] = (_argv("protocol", "--seed", "42"), _config(n_atoms=3, seed=1))
    found["argparse_config_equals"] = (
        ["protocol", "--config=config.json", "--out", "out"], _config(n_atoms=3),
    )
    found["argparse_conf_abbreviated"] = (
        ["protocol", "--conf", "config.json", "--out", "out"], _config(n_atoms=3),
    )
    for name, (argv, cfg) in list(found.items()):
        if argv[0] == "protocol":
            # at its 400 points the seed-0 trajectory would repeat protocol's byte for byte
            cfg = {"evolve": {"points": 20}, **cfg}
            found[f"{name}_evolve"] = (["evolve", *argv[1:]], cfg)
    for name, cfg in SWEEP_CONFIGS.items():
        found[name] = (_argv("sweep"), cfg)
    for name, cfg in SPECTRUM_CONFIGS.items():
        found[name] = (_argv("spectrum"), cfg)
    found["help"] = (["--help"], None)
    found["protocol_help"] = (["protocol", "--help"], None)
    found["usage_missing_config"] = (["protocol", "--out", "out"], None)
    return found


def run_case(case: Path, cwd: Path) -> tuple[int, str, str]:
    """Copy `case`, without its results, to `cwd` and call main(argv) there with COLUMNS=80.

    Returns the exit code, stdout and stderr of the call.
    """
    from subrad.cli import main

    shutil.copytree(case, cwd, ignore=shutil.ignore_patterns("out", *RESULT_FILES))
    argv = json.loads((case / "argv.json").read_text())
    out, err = io.StringIO(), io.StringIO()
    previous, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.chdir(cwd)
    os.environ["COLUMNS"] = "80"
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(previous)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return code, out.getvalue(), err.getvalue()


def write(name: str, argv: list, cfg: dict | None) -> None:
    case = GOLDEN / name
    shutil.rmtree(case, ignore_errors=True)
    case.mkdir()
    (case / "argv.json").write_text(json.dumps(argv) + "\n")
    if cfg is not None:
        (case / "config.json").write_text(json.dumps(cfg, indent=2) + "\n")
    with tempfile.TemporaryDirectory() as tmp:
        cwd = Path(tmp) / name
        code, out, err = run_case(case, cwd)
        if (cwd / "out").exists():
            shutil.copytree(cwd / "out", case / "out")
    for result, text in zip(RESULT_FILES, (f"{code}\n", out, err)):
        (case / result).write_text(text)
    print(f"{name}: exit {code}")


def main(names: list) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    every = cases()
    unknown = sorted(set(names) - set(every))
    if unknown:
        print(f"unknown case(s): {', '.join(unknown)}", file=sys.stderr)
        return 1
    for name in names or every:
        write(name, *every[name])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
