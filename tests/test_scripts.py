"""The example scripts and the README's quick API example run and print what they promise."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import subrad
from subrad.protocol import run

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


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


def test_photon_tolerance(tmp_path):
    lines = run_script("photon_tolerance.py", cwd=tmp_path)
    assert lines[0] == "slow plan, g/2pi=10 kHz, atomic frame"
    assert lines[1].split() == ["N", "delta/g", "v", "n*_beat", "n*_0.99"]
    rows = [line.split() for line in lines[2:]]
    # the slow-plan columns of the n* table in ROADMAP "Measured"
    measured = [
        ("10", "30", "0.105", "3", "0"), ("10", "100", "0.032", "38", "6"),
        ("50", "30", "0.236", "0", "0"), ("50", "100", "0.071", "11", "8"),
        ("200", "100", "0.141", "0", "0"), ("200", "300", "0.047", "0", "1"),
        ("500", "100", "0.224", "0", "0"), ("1000", "1000", "0.032", "3", "26"),
    ]
    assert [tuple(row) for row in rows[:8]] == measured
    assert max(int(row[0]) for row in rows) == 100_000
    assert list(tmp_path.iterdir()) == []  # prints only


def test_readme_quick_api_example(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = readme.split("Quick API example:", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["run"] is run
    report = namespace["report"]
    assert capsys.readouterr().out == f"{report['t_m_microseconds']} {report['fidelity_subradiant']}\n"
