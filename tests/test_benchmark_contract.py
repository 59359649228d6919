"""What the benchmark in perfbench/ needs of the package.

perfbench/tracer.py wraps every public subrad function and sums self time per
module, perfbench/selftest.py checks that the wrappers reach the names that
protocol, perturb and cli import from dynamics, and perfbench/checks.py
compares the CLI's seed-0 outputs with perfbench/reference/.  The tracer wraps
only the modules that `import subrad.cli` loads.  These tests make
a change that breaks any of these contracts fail here, not only in the
benchmark.
"""

import importlib.util
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import subrad
import subrad.cli
import subrad.dynamics
import subrad.perturb
import subrad.protocol
from subrad.cli import RunConfig, main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(monkeypatch, name: str):
    """perfbench/<name>.py as a private module, loaded without writing bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tracer(monkeypatch):
    return load_perfbench(monkeypatch, "tracer")


def test_selftest_names_are_the_engine_functions():
    assert subrad.protocol.evolve is subrad.dynamics.evolve
    assert subrad.perturb.evolve is subrad.dynamics.evolve
    assert subrad.cli.compile_propagator is subrad.dynamics.compile_propagator


def subrad_function(name: str):
    """The subrad function of a span name such as "serialize.dump_json", or None."""
    layer, attr = name.split(".")
    return getattr(getattr(subrad, layer, None), attr, None)


with pytest.MonkeyPatch.context() as mp:
    MEASURES = load_perfbench(mp, "tracer").MEASURES

EVOLVE_MEASURE = pytest.mark.xfail(
    strict=True,
    reason='tracer.MEASURES["dynamics.evolve"] sizes an argument named state, which '
    "dynamics.evolve(block, psi, t) does not take (see the FOUND on it in CHANGES.md); "
    "only a revision of the benchmark can change perfbench/",
)


@pytest.mark.parametrize(
    "name, argument",
    [
        pytest.param(name, argument, marks=EVOLVE_MEASURE if name == "dynamics.evolve" else ())
        for name, (_, argument, _) in MEASURES.items()
        if argument is not None and subrad_function(name) is not None
    ],
)
def test_measured_argument_is_in_the_signature(name, argument):
    # the tracer binds each call's arguments and sizes this one by name
    assert argument in inspect.signature(subrad_function(name)).parameters


def test_every_module_is_a_tracer_layer(tracer):
    modules = {m.name for m in pkgutil.iter_modules(subrad.__path__)}
    assert modules and modules <= set(tracer.LAYERS), modules - set(tracer.LAYERS)


def test_importing_the_cli_loads_every_module():
    # a module that loads later would leave the trace without failing anything
    code = "import sys, subrad.cli; print(*[m for m in sys.modules if m.startswith('subrad.')])"
    env = {**os.environ, "PYTHONPATH": str(Path(subrad.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    modules = {f"subrad.{m.name}" for m in pkgutil.iter_modules(subrad.__path__)}
    assert modules - set(proc.stdout.split()) == set()


def test_summarize_takes_a_span_of_every_traced_function(tracer, tmp_path):
    names = sorted(set(tracer.traced_functions().values()) - {"cli.main"})
    assert "dynamics.compile_propagator" in names
    spans = [[0, None, "cli.main", 0.0, float(len(names)), {}]]
    spans += [[i, 0, name, i - 1.0, float(i), {}] for i, name in enumerate(names, 1)]
    (tmp_path / "spans-1.jsonl").write_text("".join(json.dumps(s) + "\n" for s in spans))
    out = tracer.summarize(tmp_path, 1)
    assert out["dynamics.compile_propagator.calls"] == 1


def test_report_keys_in_the_reference_order():
    path = PERFBENCH / "reference" / "protocol_fock" / "report.json"
    reference = json.loads(path.read_text(encoding="utf-8"))
    config = RunConfig.from_json(reference["config"])
    report = subrad.protocol.run(config.params(), config.field, config.options)
    assert list(report) == list(reference["report"])
    assert list(report["perturbation"]) == list(reference["report"]["perturbation"])


def test_seed_zero_workloads_pass_the_benchmark_checks(monkeypatch, tmp_path, capsys):
    workloads = load_perfbench(monkeypatch, "workloads")
    checks = load_perfbench(monkeypatch, "checks")
    for name, workload in workloads.WORKLOADS.items():
        cfg = workloads.make_config(name, 0)
        path, out = tmp_path / f"{name}.json", tmp_path / name
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(workloads.cli_args(workload, str(path), str(out))) == 0, capsys.readouterr()
        problems = checks.check_outputs(workload.command, cfg, out, PERFBENCH / "reference" / name)
        assert problems == [], (name, problems)
