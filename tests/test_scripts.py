"""The example scripts run and write what they promise."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import subrad

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args, cwd):
    src = str(Path(subrad.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True, text=True, env=env, cwd=cwd,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return proc.stdout.splitlines()


def test_rydberg_defaults(tmp_path):
    out = tmp_path / "rydberg"
    lines = run_script("rydberg_defaults.py", "--out", str(out), cwd=tmp_path)
    assert lines[0].startswith("t_m = ")
    labels = ["alpha", "t_m", "phi", "fidelity", "dark weight", "<J+J->", "slow-model error"]
    assert [line.split("=")[0].strip() for line in lines[1:]] == labels
    assert json.loads((out / "config.json").read_text())["n_atoms"] == 10
    report = json.loads((out / "report.json").read_text())["report"]
    assert lines[4] == f"fidelity         = {report['fidelity_subradiant']:.6f}"
    assert (out / "trajectory.csv").read_text().startswith("t_seconds,")


def test_detuning_sweep(tmp_path):
    out = tmp_path / "sweep"
    args = ("--n-atoms", "4", "--ratios", "30,100", "--out", str(out))
    lines = run_script("detuning_sweep.py", *args, cwd=tmp_path)
    assert lines == [
        "swept 2 points over delta_ratio (0 failed)", f"results in {out / 'sweep.csv'}"
    ]
    with open(out / "sweep.csv", newline="", encoding="utf-8") as fh:
        rows = [(r["value"], r["n_atoms"], r["error"]) for r in csv.DictReader(fh)]
    assert rows == [("30", "4", ""), ("100", "4", "")]


def test_field_independence(tmp_path):
    lines = run_script("field_independence.py", cwd=tmp_path)
    assert lines[0] == "N=10, delta/g=100.0, g/2pi=24 kHz"
    assert lines[1].split() == ["field", "fidelity", "validity", "grade"]
    fields = ["fock(0)", "fock(1)", "fock(2)", "coherent(<n>=1)", "thermal(<n>=0.3)"]
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == fields
    assert all(0.999 < float(row[1]) <= 1.0 and row[3] == "ok" for row in rows)
    assert list(tmp_path.iterdir()) == []  # prints only
