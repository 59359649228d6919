"""Command-line interface: configs, exit codes, emitted files."""

import contextlib
import csv
import errno
import functools
import gc
import io
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spectrum_oracle
import subrad
import subrad.cli
import subrad.protocol
from subrad import serialize
from subrad.cli import _params, _parse_config, cmd_sweep, main
from subrad.fields import FIELD_KINDS, FieldSpec
from subrad.protocol import component_outcome, run

G_HZ = 24000.0


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {
        "n_atoms": 10,
        "g_over_2pi_hz": G_HZ,
        "delta_over_g": 30.0,
        "field": {"kind": "fock", "n": 0},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_protocol_rydberg_defaults(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["protocol", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    payload = json.loads((tmp_path / "out" / "report.json").read_text())
    report = payload["report"]
    assert report["t_m_microseconds"] == pytest.approx(22.0, abs=0.5)
    assert report["alpha_per_s"] == pytest.approx(2.51e4, abs=0.02e4)
    assert report["fidelity_subradiant"] > 0.97
    # config echo re-parses into the same config
    again = _parse_config(payload["config"])
    assert again["n_atoms"] == 10 and again["delta_over_g"] == 30.0
    assert (tmp_path / "out" / "trajectory.csv").exists()


def test_protocol_single_atom_exit_1(tmp_path, capsys):
    cfg = write_config(tmp_path, n_atoms=1)
    assert main(["protocol", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert "no subradiant sector" in capsys.readouterr().err


def test_protocol_validity_refusal_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, field={"kind": "fock", "n": 9})
    assert main(["protocol", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "validity" in capsys.readouterr().err
    forced = write_config(
        tmp_path, name="forced.json", field={"kind": "fock", "n": 9}, allow_invalid=True
    )
    assert main(["protocol", "--config", str(forced), "--out", str(tmp_path / "f")]) == 0


@pytest.mark.parametrize(
    "overrides, message",
    [
        (
            {"n_atoms": 3, "delta_over_g": 100.0,
             "field": {"kind": "coherent", "amplitude_re": 40}},
            "so no cutoff can hold the field; no n_max up to 1847 runs it",
        ),
        (
            {"n_atoms": 50, "delta_over_g": 10.0,
             "field": {"kind": "thermal", "mean_n": 2}, "options": {"n_max": 3}},
            "needs n_max >= 45, got 3; this run needs n_max >= 45",
        ),
    ],
    ids=["coherent-underflow", "thermal-below-cutoff"],
)
def test_protocol_cutoff_refusal_comes_before_the_validity_gate(
    tmp_path, capsys, overrides, message
):
    # v >= 0.3 as well, but allow_invalid cannot make the run go: exit 1 with the cutoff
    # message either way, not 2 with advice to set it
    for allow_invalid in (False, True):
        cfg = write_config(tmp_path, allow_invalid=allow_invalid, **overrides)
        assert main(["protocol", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: TruncationError: ") and message in err, err
        assert not (tmp_path / "o").exists()


def test_protocol_runnable_field_above_the_validity_bound_still_exits_2(tmp_path, capsys):
    # the thermal field refused above, under the default cutoff that runs it
    field = {"kind": "thermal", "mean_n": 2}
    cfg = write_config(tmp_path, n_atoms=50, delta_over_g=10.0, field=field)
    assert main(["protocol", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == (
        "refusing: validity parameter 1.225 >= 0.3 (set allow_invalid to force the run)\n"
    )
    assert not (tmp_path / "o").exists()


def test_protocol_deterministic_bytes(tmp_path):
    cfg = write_config(tmp_path, seed=3)
    for d in ("a", "b"):
        assert main(["protocol", "--config", str(cfg), "--out", str(tmp_path / d)]) == 0
    assert (tmp_path / "a" / "report.json").read_bytes() == (
        tmp_path / "b" / "report.json"
    ).read_bytes()
    assert (tmp_path / "a" / "trajectory.csv").read_bytes() == (
        tmp_path / "b" / "trajectory.csv"
    ).read_bytes()


def test_protocol_coherent_n10_keeps_the_product_engine_values(tmp_path):
    # the values the 2^N product-basis engine gave for this run, in about 48 s
    cfg = write_config(
        tmp_path,
        delta_over_g=100.0,
        field={"kind": "coherent", "amplitude_re": 1.0, "amplitude_im": 0.0},
    )
    assert main(["protocol", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())["report"]
    expected = {
        "fidelity_subradiant": 0.9998507951175846,
        "dfs_weight": 0.9998507951175848,
        "emission_expectation": 0.0004437920048556324,
        "pt_coefficient_error": 0.0021940706872058736,
    }
    for key, value in expected.items():
        assert report[key] == pytest.approx(value, abs=1e-12), key


def test_protocol_runs_two_hundred_atoms(tmp_path):
    # the product space has 2^200 * (n_max + 1) states; no dimension cap applies
    cfg = write_config(tmp_path, n_atoms=200, delta_over_g=100.0)
    assert main(["protocol", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())["report"]
    # on the two ladders the only dark state in reach is the target
    assert 0.0 <= report["fidelity_subradiant"] == report["dfs_weight"]
    assert report["dfs_weight"] <= 1.0
    # block 1 holds rungs 0 and 1 of the symmetric ladder and rung 1 of the other
    assert report["meta"]["max_block_dim"] == 3
    rows = read_csv(tmp_path / "o" / "trajectory.csv")
    assert len(rows) == 400
    assert all(float(r["norm_error"]) <= 1e-10 for r in rows)


def test_malformed_configs_exit_1(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"n_atoms": 4}))
    assert main(["protocol", "--config", str(missing), "--out", str(tmp_path)]) == 1
    assert "usage" in capsys.readouterr().err

    both = write_config(
        tmp_path,
        name="both.json",
        omega_a_over_2pi_hz=5.0e9,
        omega_c_over_2pi_hz=5.001e9,
    )
    assert main(["protocol", "--config", str(both), "--out", str(tmp_path)]) == 1
    assert "exactly one" in capsys.readouterr().err
    blocks = write_config(
        tmp_path, name="blocks.json", spectrum={"block": 2, "photons": "not a number"}
    )
    assert main(["spectrum", "--config", str(blocks), "--out", str(tmp_path / "o")]) == 1
    assert "at most one of spectrum.block or spectrum.photons" in capsys.readouterr().err

    for field, key in (
        ({"kind": "thermal"}, "field.mean_n"),
        ({"kind": "fock"}, "field.n"),
        ({}, "field.kind"),
        ({"kind": "squeezed"}, "field.kind"),
    ):
        cfg = write_config(tmp_path, name="field.json", field=field)
        assert main(["protocol", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "usage" in err and key in err and "Error:" not in err, err
    assert not (tmp_path / "o").exists()


OMEGA_PAIR = {"delta_over_g": None, "omega_a_over_2pi_hz": 5e9, "omega_c_over_2pi_hz": 5.1e9}


@pytest.mark.parametrize(
    "command, overrides, message",
    [
        # a sweep is refused before its first point runs, so no sweep.csv is written
        (
            "sweep",
            {"sweep": {"axis": "N", "values": [3, 2.5]}},
            "atom count must be an integer, got 2.5",
        ),
        (
            "sweep",
            {"sweep": {"axis": "mean_n", "values": [0, 1.5]}},
            "Fock sweep values must be integers, got 1.5",
        ),
        (
            "sweep",
            {**OMEGA_PAIR, "sweep": {"axis": "delta_ratio", "values": [30]}},
            "delta_ratio sweeps need a delta_over_g style config",
        ),
        (
            "sweep",
            {"sweep": {"axis": "bogus", "values": [3]}},
            "sweep axis must be one of ('N', 'delta_ratio', 'mean_n'), got 'bogus'",
        ),
        ("protocol", {"options": [1]}, "options must be a JSON object, got [1]"),
        ("protocol", {"g_over_2pi_hz": -1}, "g_over_2pi_hz must be positive, got -1.0"),
        (
            "protocol",
            {"delta_over_g": None, "omega_a_over_2pi_hz": 5e9},
            "the omega pair needs both omega_a and omega_c",
        ),
        (
            "evolve",
            {**OMEGA_PAIR, "omega_a_over_2pi_hz": -5e9},
            "omega_*_over_2pi_hz must be positive",
        ),
        # two faults per config, across sections: the one checked first is named
        (
            "protocol",
            {"g_over_2pi_hz": -1, "seed": 2.5},
            "g_over_2pi_hz must be positive, got -1.0",
        ),
        (
            "protocol",
            {"omega_a_over_2pi_hz": 5e9, "omega_c_over_2pi_hz": 5.1e9, "delta_over_g": "30"},
            "supply exactly one of delta_over_g or the "
            "omega_a_over_2pi_hz/omega_c_over_2pi_hz pair",
        ),
        (
            "protocol",
            {"options": {"pt_times": 0, "n_max": 2.2}},
            "options.pt_times must be at least 1, got 0",
        ),
        (
            "protocol",
            {"optoins": {}, "options": {"tm_branch": "1"}},
            "unknown key(s) in the config: optoins",
        ),
        (
            "protocol",
            {"evolve": {"points": 0}, "spectrum": {"block": 2.7}},
            "evolve.points must be at least 1, got 0",
        ),
        (
            "protocol",
            {"allow_invalid": "no", "evolve": {"t_final_seconds": math.nan}},
            "allow_invalid must be true or false, got 'no'",
        ),
        (
            "protocol",
            {"n_atoms": 2.5, "g_over_2pi_hz": None},
            "n_atoms must be an integer, got 2.5",
        ),
        (
            "protocol",
            {"n_atoms": None, "options": {"pt_time": 3}},
            "unknown key(s) in options: pt_time",
        ),
        (
            "protocol",
            {"sweep": {"step": 1}, "evolve": {"point": 9}},
            "unknown key(s) in sweep: step",
        ),
        ("protocol", {"options": [1], "sweep": "N"}, "options must be a JSON object, got [1]"),
        (
            "protocol",
            {"field": {"kind": "squeezed"}, "seed": True},
            f"field.kind must be one of {FIELD_KINDS}, got 'squeezed'",
        ),
        (
            "protocol",
            {"seed": "7", "options": {"tm_branch": 0.5}},
            "seed must be an integer, got '7'",
        ),
        (
            "protocol",
            {"options": {"tm_branch": 0.5, "phi_override": math.nan}},
            "options.tm_branch must be an integer, got 0.5",
        ),
        (
            "protocol",
            {"options": {"n_max": 20.2, "tm_branch": 0.5}},
            "options.n_max must be an integer, got 20.2",
        ),
        (
            "protocol",
            {"options": {"phi_override": "pi", "excite_control": "yes"}},
            "options.phi_override must be a finite number, got 'pi'",
        ),
        (
            "protocol",
            {"options": {"excite_control": None}, "evolve": {"points": 2.5}},
            "options.excite_control must be true or false, got None",
        ),
        (
            "protocol",
            {"spectrum": {"block": 2, "photons": 1}, "allow_invalid": "no"},
            "supply at most one of spectrum.block or spectrum.photons",
        ),
        (
            "protocol",
            {"spectrum": {"photons": 0.5, "h0_only": "false"}},
            "spectrum.photons must be an integer, got 0.5",
        ),
        (
            "protocol",
            {"evolve": {"t_final_seconds": math.inf}, "spectrum": {"h0_only": 1}},
            "evolve.t_final_seconds must be a finite number, got inf",
        ),
        (
            "protocol",
            {"spectrum": {"h0_only": 0}, "sweep": {"axis": "bogus"}},
            "spectrum.h0_only must be true or false, got 0",
        ),
        (
            "protocol",
            {**OMEGA_PAIR, "omega_c_over_2pi_hz": None, "field": {"kind": "coherent", "n": 1}},
            "the omega pair needs both omega_a and omega_c",
        ),
        (
            "protocol",
            {**OMEGA_PAIR, "omega_a_over_2pi_hz": -5e9, "field": {"kind": "squeezed"}},
            "omega_*_over_2pi_hz must be positive",
        ),
        (
            "protocol",
            {"field": {"kind": "fock"}, "options": {"pt_times": 0}},
            "config is missing required key 'field.n'",
        ),
        (
            "protocol",
            {"g_over_2pi_hz": None, "delta_over_g": math.nan},
            "config is missing required key 'g_over_2pi_hz'",
        ),
    ],
)
def test_refused_configs_print_the_usage_then_the_message(
    tmp_path, capsys, command, overrides, message
):
    cfg = write_config(tmp_path, n_atoms=3, delta_over_g=100.0)
    raw = {**json.loads(cfg.read_text()), **overrides}
    cfg.write_text(json.dumps({k: v for k, v in raw.items() if v is not None}))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and err.endswith(f"\nerror: {message}\n"), err
    assert not (tmp_path / "o").exists()


def test_options_take_their_names_and_defaults_from_protocol_options():
    base = {"n_atoms": 3, "g_over_2pi_hz": G_HZ, "delta_over_g": 100.0}
    assert _parse_config(base)["options"] == run.__kwdefaults__
    assert _parse_config({**base, "options": {}})["options"] == run.__kwdefaults__
    assert subrad.cli.SECTION_KEYS["options"] == set(run.__kwdefaults__)


def test_a_wrapped_run_does_not_change_config_parsing(monkeypatch):
    # perfbench's tracer rebinds cli.run to a functools.wraps wrapper, which has no
    # __kwdefaults__; the option names and defaults were read before that
    @functools.wraps(run)
    def traced(*args, **kwargs):
        return run(*args, **kwargs)

    monkeypatch.setattr(subrad.cli, "run", traced)
    assert traced.__kwdefaults__ is None
    base = {"n_atoms": 3, "g_over_2pi_hz": G_HZ, "delta_over_g": 100.0}
    assert _parse_config(base)["options"] == run.__kwdefaults__
    assert subrad.cli.SECTION_KEYS["options"] == set(subrad.cli.OPTION_PARSERS)
    assert set(subrad.cli.OPTION_PARSERS) == set(run.__kwdefaults__)


@pytest.mark.parametrize(
    "sweep, message",
    [
        (
            {"axis": "mean_n", "values": [math.nan, math.inf]},
            "sweep.values must be a finite number, got nan",
        ),
        ({"axis": "N", "values": [3, 2.5]}, "atom count must be an integer, got 2.5"),
        ({"axis": "mean_n", "values": [0, 1.5]}, "Fock sweep values must be integers, got 1.5"),
        ({"axis": "bogus"}, f"sweep axis must be one of {subrad.cli.SWEEP_AXES}, got 'bogus'"),
        ({"values": "30"}, "sweep.values must be an array, got '30'"),
    ],
    ids=["non-finite", "fractional-N", "fractional-fock", "axis", "not-an-array"],
)
@pytest.mark.parametrize("command", ["protocol", "sweep", "spectrum", "evolve"])
def test_every_command_refuses_a_bad_sweep_section(tmp_path, capsys, command, sweep, message):
    cfg = write_config(tmp_path, n_atoms=3, delta_over_g=100.0, sweep=sweep)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and err.endswith(f"\nerror: {message}\n"), err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text", [None, "{not json"], ids=["missing", "not-json"])
@pytest.mark.parametrize("command", ["protocol", "sweep", "spectrum", "evolve"])
def test_unreadable_config_exit_1(tmp_path, capsys, command, text):
    cfg = tmp_path / "config.json"
    if text is not None:
        cfg.write_text(text)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and f"\nerror: cannot read config {cfg}: " in err, err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("pt_times", [0, -3])
def test_pt_times_below_one_exit_1(tmp_path, capsys, pt_times):
    cfg = write_config(tmp_path, n_atoms=4, delta_over_g=100.0, options={"pt_times": pt_times})
    assert main(["protocol", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "pt_times must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "o" / "report.json").exists()


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"n_atoms": 3.7}, "n_atoms"),
        ({"n_atoms": True}, "n_atoms"),
        ({"field": {"kind": "fock", "n": 1.5}}, "field.n"),
        ({"options": {"tm_branch": 0.5}}, "options.tm_branch"),
        ({"options": {"n_max": 20.2}}, "options.n_max"),
        ({"options": {"pt_times": 50.5}}, "options.pt_times"),
        ({"seed": 2.5}, "seed"),
        ({"seed": False}, "seed"),
        ({"evolve": {"points": 2.5}}, "evolve.points"),
        ({"spectrum": {"block": 2.7}}, "spectrum.block"),
        ({"spectrum": {"photons": 0.5}}, "spectrum.photons"),
    ],
)
def test_non_integral_integer_keys_exit_1(tmp_path, capsys, overrides, key):
    cfg = write_config(tmp_path, n_atoms=4, delta_over_g=100.0)
    raw = json.loads(cfg.read_text())
    raw.update(overrides)
    cfg.write_text(json.dumps(raw))
    assert main(["protocol", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert f"{key} must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("points", [0, -2])
def test_points_below_one_exit_1(tmp_path, capsys, points):
    cfg = write_config(tmp_path, n_atoms=3, evolve={"points": points})
    for command in ("protocol", "evolve"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "evolve.points must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"delta_over_g": math.nan}, "delta_over_g"),
        ({"delta_over_g": math.inf}, "delta_over_g"),
        ({"g_over_2pi_hz": math.nan}, "g_over_2pi_hz"),
        ({"delta_over_g": None, "omega_a_over_2pi_hz": 5e9, "omega_c_over_2pi_hz": -math.inf},
         "omega_c_over_2pi_hz"),
        ({"field": {"kind": "thermal", "mean_n": math.nan}}, "field.mean_n"),
        ({"field": {"kind": "coherent", "amplitude_re": math.nan}}, "field.amplitude_re"),
        ({"field": {"kind": "coherent", "amplitude_im": math.inf}}, "field.amplitude_im"),
        ({"options": {"phi_override": math.nan}}, "options.phi_override"),
        ({"evolve": {"t_final_seconds": math.inf}}, "evolve.t_final_seconds"),
    ],
)
def test_non_finite_floats_exit_1(tmp_path, capsys, overrides, key):
    cfg = write_config(tmp_path, n_atoms=4, delta_over_g=100.0)
    raw = json.loads(cfg.read_text())
    raw.update(overrides)
    raw = {k: v for k, v in raw.items() if v is not None}
    cfg.write_text(json.dumps(raw))
    assert main(["protocol", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert f"{key} must be a finite number" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "overrides, where, key",
    [
        ({"optoins": {"pt_times": 0}}, "the config", "optoins"),
        ({"field": {"kind": "fock", "n": 0, "mean_n": 0.2}}, "field", "mean_n"),
        ({"options": {"pt_time": 11}}, "options", "pt_time"),
        ({"sweep": {"axis": "N", "values": [2], "step": 1}}, "sweep", "step"),
        ({"spectrum": {"blocks": 2}}, "spectrum", "blocks"),
        ({"evolve": {"point": 9}}, "evolve", "point"),
    ],
)
def test_unknown_keys_exit_1(tmp_path, capsys, overrides, where, key):
    cfg = write_config(tmp_path, n_atoms=3, delta_over_g=100.0, **overrides)
    assert main(["protocol", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert f"unknown key(s) in {where}: {key}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", ["false", 0, 1, None])
@pytest.mark.parametrize("key", ["allow_invalid", "options.excite_control", "spectrum.h0_only"])
def test_non_boolean_flags_exit_1(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path, n_atoms=3, delta_over_g=100.0)
    raw = json.loads(cfg.read_text())
    section, _, name = key.rpartition(".")
    (raw.setdefault(section, {}) if section else raw)[name] = value
    cfg.write_text(json.dumps(raw))
    command = "spectrum" if section == "spectrum" else "protocol"
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert f"{key} must be true or false" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_integral_float_keys_accepted():
    config = _parse_config(
        {
            "n_atoms": 4.0,
            "g_over_2pi_hz": G_HZ,
            "delta_over_g": 100.0,
            "field": {"kind": "fock", "n": 1.0},
            "options": {"tm_branch": 1.0, "n_max": 9.0, "pt_times": 11.0},
            "seed": 7.0,
        }
    )
    assert config["n_atoms"] == 4 and config["field"].n == 1
    opts = config["options"]
    assert (opts["tm_branch"], opts["n_max"], opts["pt_times"], config["seed"]) == (1, 9, 11, 7)
    assert all(type(v) is int for v in (config["n_atoms"], config["field"].n, opts["n_max"]))


def test_omega_pair_config(tmp_path):
    cfg = write_config(tmp_path, delta_over_g=None)
    raw = json.loads(cfg.read_text())
    del raw["delta_over_g"]
    raw["omega_a_over_2pi_hz"] = 50.0e9
    raw["omega_c_over_2pi_hz"] = 50.0e9 + 30 * G_HZ
    cfg.write_text(json.dumps(raw))
    assert main(["protocol", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    payload = json.loads((tmp_path / "o" / "report.json").read_text())
    assert payload["report"]["t_m_microseconds"] == pytest.approx(22.0, abs=0.5)


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, seed=1)
    assert main(
        ["protocol", "--config", str(cfg), "--out", str(tmp_path / "s"), "--seed", "42"]
    ) == 0
    payload = json.loads((tmp_path / "s" / "report.json").read_text())
    assert payload["report"]["meta"]["seed"] == 42


def test_the_parsed_config_is_never_mutated(tmp_path, monkeypatch, capsys):
    # sweep points and --seed build changed copies; the parsed dict and its raw stay as read
    base = {"n_atoms": 3, "g_over_2pi_hz": G_HZ, "delta_over_g": 100.0, "evolve": {"points": 8}}
    for axis, values in (("N", [2, 4]), ("delta_ratio", [50, -80]), ("mean_n", [0, 2])):
        raw = {**base, "sweep": {"axis": axis, "values": values}}
        config = _parse_config(raw)
        assert cmd_sweep(config, tmp_path / axis) == 0
        assert config == _parse_config(json.loads(json.dumps(raw)))
        assert config["raw"] == raw == json.loads(json.dumps(raw))

    cfg = write_config(tmp_path, **base, seed=1)
    loaded = []
    load = subrad.cli._load_config
    monkeypatch.setattr(subrad.cli, "_load_config", lambda p: loaded.append(load(p)) or loaded[-1])
    argv = ["protocol", "--config", str(cfg), "--out", str(tmp_path / "s"), "--seed", "42"]
    assert main(argv) == 0
    payload = json.loads((tmp_path / "s" / "report.json").read_text())
    assert payload["config"]["seed"] == payload["report"]["meta"]["seed"] == 42
    (config,) = loaded
    assert config == _parse_config(json.loads(cfg.read_text()))
    assert config["seed"] == config["raw"]["seed"] == 1


# -- sweep -------------------------------------------------------------------


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_sweep_detuning_grid(tmp_path):
    cfg = write_config(
        tmp_path,
        n_atoms=5,
        delta_over_g=100.0,
        sweep={"axis": "delta_ratio", "values": [30, 100, 300]},
    )
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sw")]) == 0
    rows = read_csv(tmp_path / "sw" / "sweep.csv")
    assert [float(r["value"]) for r in rows] == [30.0, 100.0, 300.0]
    # the requested ratio, not delta / g recomputed (30.000000000000004)
    assert [r["delta_over_g"] for r in rows] == ["30", "100", "300"]
    errs = [float(r["pt_coefficient_error"]) for r in rows]
    assert errs[0] > errs[1] > errs[2]  # envelope convergence
    base = float(rows[0]["fidelity_subradiant"])
    assert all(float(r["fidelity_subradiant"]) > base for r in rows[1:])


def test_sweep_atom_grid_tm_formula(tmp_path):
    cfg = write_config(
        tmp_path,
        delta_over_g=100.0,
        sweep={"axis": "N", "values": list(range(2, 13))},
    )
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sw")]) == 0
    rows = read_csv(tmp_path / "sw" / "sweep.csv")
    g = 2 * math.pi * G_HZ
    for row in rows:
        n = int(row["n_atoms"])
        alpha = n * g**2 / (2 * 100.0 * g)
        expected = math.asin(math.sqrt(n / (4 * n - 4))) / alpha
        assert float(row["t_m_seconds"]) == pytest.approx(expected, rel=1e-12)


def test_sweep_failure_recorded_in_row(tmp_path):
    cfg = write_config(
        tmp_path,
        delta_over_g=100.0,
        sweep={"axis": "N", "values": [1, 3]},
    )
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sw")]) == 0
    rows = read_csv(tmp_path / "sw" / "sweep.csv")
    assert "no subradiant sector" in rows[0]["error"]
    assert rows[1]["error"] == ""
    assert float(rows[1]["fidelity_subradiant"]) > 0.99


def test_sweep_validity_flag_flips(tmp_path):
    cfg = write_config(
        tmp_path,
        n_atoms=2,
        delta_over_g=6.0,
        field={"kind": "coherent", "amplitude_re": 0.5, "amplitude_im": 0.0},
        sweep={"axis": "mean_n", "values": [0.25, 1.0]},
    )
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sw")]) == 0
    rows = read_csv(tmp_path / "sw" / "sweep.csv")
    assert rows[0]["validity_grade"] == "marginal"
    assert rows[1]["validity_grade"] == "invalid"


@pytest.mark.parametrize(
    "field, value, message",
    [
        ({"kind": "fock", "n": 0}, -1, "Fock level must be >= 0, got -1"),
        ({"kind": "thermal", "mean_n": 0.1}, -0.5, "mean occupation must be >= 0, got -0.5"),
        (
            {"kind": "coherent", "amplitude_re": 0.1, "amplitude_im": 0.0},
            -0.5,
            "mean_n must be >= 0 (got -0.5)",
        ),
    ],
)
def test_sweep_negative_mean_recorded_in_row(tmp_path, field, value, message):
    cfg = write_config(
        tmp_path,
        n_atoms=3,
        delta_over_g=100.0,
        field=field,
        sweep={"axis": "mean_n", "values": [value, 0]},
    )
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sw")]) == 0
    with open(tmp_path / "sw" / "sweep.csv", newline="", encoding="utf-8") as fh:
        header, *lines = csv.reader(fh)
    assert {len(line) for line in lines} == {len(header)}
    rows = [dict(zip(header, line)) for line in lines]
    assert rows[0]["error"].startswith("ValueError: ") and message in rows[0]["error"]
    assert rows[0]["fidelity_subradiant"] == ""
    assert rows[1]["error"] == "" and float(rows[1]["fidelity_subradiant"]) > 0.99


def test_without_the_control_excitation_the_slow_model_error_is_null(tmp_path):
    cfg = write_config(
        tmp_path,
        n_atoms=3,
        delta_over_g=100.0,
        options={"excite_control": False},
        sweep={"axis": "delta_ratio", "values": [100.0]},
    )
    assert main(["protocol", "--config", str(cfg), "--out", str(tmp_path / "p")]) == 0
    text = (tmp_path / "p" / "report.json").read_text()
    assert '"pt_coefficient_error": null,' in text and '"pt_vs_exact_error": null' in text
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 0
    (row,) = read_csv(tmp_path / "s" / "sweep.csv")
    assert row["error"] == "" and row["pt_coefficient_error"] == ""


def test_write_csv_quotes_cells_with_commas_and_quotes(tmp_path):
    rows = [
        {"a": 1, "b": 0.5, "c": "plain"},
        {"a": 2, "b": None, "c": 'ValueError: bad "x", got -1'},
        {"a": 3, "b": True, "c": "two\nlines"},
    ]
    serialize.write_csv(tmp_path / "t.csv", ("a", "b", "c"), rows)
    text = (tmp_path / "t.csv").read_text(encoding="utf-8")
    # cells without a comma, quote or line break stay bare
    assert text.startswith("a,b,c\n1,0.5,plain\n")
    assert '2,,"ValueError: bad ""x"", got -1"\n' in text
    with open(tmp_path / "t.csv", newline="", encoding="utf-8") as fh:
        read = list(csv.reader(fh))
    assert read == [
        ["a", "b", "c"],
        ["1", "0.5", "plain"],
        ["2", "", 'ValueError: bad "x", got -1'],
        ["3", "true", "two\nlines"],
    ]


@pytest.mark.parametrize("counts", [None, [1] * 5], ids=["rows", "counted"])
def test_write_csv_text_of_values_that_compare_equal(tmp_path, counts):
    # -0.0 == 0.0 and True == 1 == 1.0, yet each has its own text
    values = [-0.0, 0.0, True, 1, 1.0]
    rows = [{"i": i, "v": v} for i, v in enumerate(values)]
    serialize.write_csv(tmp_path / "t.csv", ("i", "v"), rows, counts)
    lines = (tmp_path / "t.csv").read_text(encoding="utf-8").splitlines()
    assert lines == ["i,v"] + [
        f"{i},{text}" for i, text in enumerate(["-0", "0", "true", "1", "1"])
    ]


@pytest.mark.parametrize("counts", [None, [2, 1, 1]], ids=["rows", "counted"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_write_csv_refuses_a_cell_that_is_not_finite(tmp_path, bad, counts):
    rows = [{"i": 0, "v": 0.5}, {"i": 1, "v": bad}, {"i": 2, "v": 1.5}]
    with pytest.raises(ValueError, match=f"cell of column v is {bad}"):
        serialize.write_csv(tmp_path / "t.csv", ("i", "v"), rows, counts)
    assert not (tmp_path / "t.csv").exists()


def test_write_csv_numbers_counted_rows_in_the_first_column(tmp_path):
    rows = [{"a": 0.5, "b": "x,y"}, {"a": None, "b": False}]
    serialize.write_csv(tmp_path / "t.csv", ("n", "a", "b"), rows, [2, 1])
    text = (tmp_path / "t.csv").read_text(encoding="utf-8")
    assert text == 'n,a,b\n0,0.5,"x,y"\n1,0.5,"x,y"\n2,,false\n'


CELLS = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]),
    st.integers(-(10**6), 10**6).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def float_tables(draw):
    ncols = draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(CELLS, min_size=ncols, max_size=ncols), max_size=30))
    return np.array(rows, dtype=float).reshape(len(rows), ncols)


def assert_table_written_as_rows(path, table):
    columns = [f"c{j}" for j in range(table.shape[1])]
    serialize.write_table(path / "table.csv", columns, table)
    rows = [dict(zip(columns, row)) for row in table.tolist()]
    serialize.write_csv(path / "rows.csv", columns, rows)
    assert (path / "table.csv").read_bytes() == (path / "rows.csv").read_bytes()


@given(float_tables(), st.integers(1, 5))
@settings(max_examples=200, deadline=None)
def test_write_table_writes_the_bytes_of_write_csv(tmp_path_factory, table, row_block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(serialize, "ROW_BLOCK", row_block)
        assert_table_written_as_rows(tmp_path_factory.mktemp("t"), table)


def test_write_table_writes_a_long_table_in_row_blocks(tmp_path):
    table = np.random.default_rng(7).standard_normal((10**5, 7)) * np.logspace(-300, 300, 7)
    assert len(table) > 10 * serialize.ROW_BLOCK
    assert_table_written_as_rows(tmp_path, table)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_write_table_refuses_a_cell_that_is_not_finite(tmp_path, bad):
    table = np.ones((5, 3))
    table[3, 1] = bad
    with pytest.raises(ValueError, match=r"table cell \[3, 1\] is"):
        serialize.write_table(tmp_path / "t.csv", ("a", "b", "c"), table)
    assert not (tmp_path / "t.csv").exists()


def test_thermal_mean_n_sweep_compiles_each_fock_block_once(tmp_path, monkeypatch):
    # the sweep_thermal benchmark config: 8 thermal points share 15 photon numbers
    values = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4]
    raw = {
        "n_atoms": 8,
        "g_over_2pi_hz": G_HZ,
        "delta_over_g": 100.0,
        "field": {"kind": "thermal", "mean_n": values[0]},
        "sweep": {"axis": "mean_n", "values": values},
    }
    fields = [FieldSpec.thermal(v) for v in values]
    levels = [n for f in fields for _, n in f.components(f.required_n_max(8))]
    assert (len(levels), len(set(levels))) == (90, 15)

    compile_propagator = subrad.protocol.compile_propagator
    calls = []

    def counted(*args):
        calls.append(args)
        return compile_propagator(*args)

    monkeypatch.setattr(subrad.protocol, "compile_propagator", counted)
    assert cmd_sweep(_parse_config(raw), tmp_path / "warm") == 0
    assert len(calls) == len(set(levels))

    def cold_run(*args, **options):
        component_outcome.cache_clear()
        return run(*args, **options)

    monkeypatch.setattr(subrad.cli, "run", cold_run)
    calls.clear()
    assert cmd_sweep(_parse_config(raw), tmp_path / "cold") == 0
    assert len(calls) == len(levels)
    warm = (tmp_path / "warm" / "sweep.csv").read_bytes()
    assert warm == (tmp_path / "cold" / "sweep.csv").read_bytes()


@pytest.mark.parametrize("command", ["protocol", "evolve"])
def test_each_fock_component_compiles_once(tmp_path, monkeypatch, command):
    # protocol builds its report and its trajectory rows on one compile of each block
    cfg = write_config(
        tmp_path, n_atoms=5, delta_over_g=60.0, field={"kind": "thermal", "mean_n": 0.6},
        evolve={"points": 57},
    )
    config = _parse_config(json.loads(cfg.read_text()))
    params = _params(config)
    _, components = subrad.protocol.fock_components(params, config["field"])
    compile_propagator = subrad.protocol.compile_propagator
    blocks = []

    def counted(*args):
        blocks.append(args[1])
        return compile_propagator(*args)

    monkeypatch.setattr(subrad.protocol, "compile_propagator", counted)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert len(components) > 5 and blocks == [n + 1 for _, n in components]
    # the rows written are trajectory()'s, bit for bit
    times = subrad.dynamics.default_trajectory_times(params, config["points"])
    table = subrad.protocol.trajectory(params, config["field"], times)
    written = np.loadtxt(tmp_path / "o" / "trajectory.csv", delimiter=",", skiprows=1)
    assert np.array_equal(written, table)


def test_sweep_parallel_matches_serial(tmp_path):
    cfg = write_config(
        tmp_path,
        n_atoms=4,
        delta_over_g=100.0,
        sweep={"axis": "delta_ratio", "values": [40, 80, 160, 320]},
    )
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s1")]) == 0
    assert main(
        ["sweep", "--config", str(cfg), "--out", str(tmp_path / "s2"), "--jobs", "2"]
    ) == 0
    assert (tmp_path / "s1" / "sweep.csv").read_bytes() == (
        tmp_path / "s2" / "sweep.csv"
    ).read_bytes()


def test_sweep_without_section_exit_1(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert "sweep" in capsys.readouterr().err


@pytest.mark.parametrize("values", [0.3, "30", {"a": 30}])
def test_sweep_values_not_an_array_exit_1(tmp_path, capsys, values):
    cfg = write_config(tmp_path, sweep={"axis": "delta_ratio", "values": values})
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sw")]) == 1
    assert "sweep.values must be an array" in capsys.readouterr().err
    assert not (tmp_path / "sw").exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_exit_1(tmp_path, capsys, jobs):
    cfg = write_config(
        tmp_path, n_atoms=2, delta_over_g=100.0, sweep={"axis": "delta_ratio", "values": [40]}
    )
    argv = ["sweep", "--config", str(cfg), "--out", str(tmp_path / "sw"), "--jobs", jobs]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "usage:" in err and "--jobs: must be at least 1" in err
    assert not (tmp_path / "sw").exists()


# -- usage and start-up --------------------------------------------------------


@pytest.mark.parametrize(
    "argv, message",
    [
        (["protocol"], "the following arguments are required: --config"),
        (["sweep", "--config", "c.json", "--jobs", "x"], "argument --jobs: invalid int value: 'x'"),
        (["simulate", "--config", "c.json"], "invalid choice: 'simulate'"),
    ],
)
def test_usage_errors_exit_1(capsys, argv, message):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "usage: subrad" in err and message in err


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "usage: subrad" in capsys.readouterr().out
    helps = []
    for argv in (["protocol", "--help"], ["protocol", "-h"]):
        assert main(argv) == 0
        helps.append(capsys.readouterr())
    assert helps[0] == helps[1] and helps[0].out.startswith("usage: subrad protocol [-h] --config")


@pytest.mark.parametrize("command", ["protocol", "spectrum", "evolve"])
def test_jobs_only_on_sweep_exit_1(tmp_path, capsys, command):
    cfg = write_config(tmp_path)
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "o"), "--jobs", "2"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "usage: subrad" in err and "unrecognized arguments: --jobs 2" in err
    assert not (tmp_path / "o").exists()


def _run_as_program(code, argv, **run_args):
    """Run `code` in a fresh interpreter whose sys.argv[1:] is `argv`.

    `code` is a -c program, or None for `python -m subrad.cli`.  Its stdout
    is buffered, whatever PYTHONUNBUFFERED says here, so what it prints
    reaches the pipe only if the exit flushes it.
    """
    src = str(Path(subrad.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env.pop("PYTHONUNBUFFERED", None)
    start = ["-m", "subrad.cli"] if code is None else ["-c", code]
    run_args = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **run_args}
    return subprocess.run([sys.executable, *start, *argv], text=True, env=env, **run_args)


def test_import_leaves_the_pool_and_the_product_basis_unloaded(tmp_path):
    # A sweep runs its points in the CLI process, --jobs or not; the 2^N
    # product basis is a test oracle, not part of the package.  A call spelled
    # the plain way is parsed without argparse (and the gettext and locale it
    # loads), and nothing on the run path needs copy or cmath.  main() ends
    # the process, so the modules are listed by an exit handler.
    cfg = write_config(
        tmp_path, n_atoms=2, delta_over_g=100.0, sweep={"axis": "delta_ratio", "values": [40, 80]}
    )
    code = (
        "import atexit, sys; from subrad.cli import main; "
        "unwanted = {'concurrent.futures', 'multiprocessing', 'subrad.hilbert', 'dataclasses', "
        "'argparse', 'gettext', 'locale', 'copy', 'cmath'}; "
        "atexit.register(lambda: print(sorted(unwanted & set(sys.modules)))); sys.exit(main())"
    )
    for command, jobs in (("sweep", ["--jobs", "2"]), ("protocol", []), ("spectrum", [])):
        # started as the subrad console script starts it: main() reads sys.argv
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / command), *jobs]
        proc = _run_as_program(code, argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "[]", command
    assert len(read_csv(tmp_path / "sweep" / "sweep.csv")) == 2
    assert (tmp_path / "protocol" / "report.json").exists()
    assert len(read_csv(tmp_path / "spectrum" / "spectrum.csv")) == 3


def test_only_the_program_path_ends_the_process(tmp_path):
    # main() reading sys.argv owns the process: it runs the exit handlers
    # registered before it, flushes their output and exits with its own
    # code, so nothing after it runs.  main(argv) returns its code and leaves
    # the process and its collector as they were.
    cfg = write_config(tmp_path, n_atoms=2, delta_over_g=100.0)
    invalid = write_config(tmp_path, name="invalid.json", field={"kind": "fock", "n": 9})
    code = (
        "import atexit, sys; import subrad.cli; atexit.register(print, 'handler ran'); "
        "subrad.cli.main(); print('main returned'); sys.exit(99)"
    )
    for config, expected in ((cfg, 0), (invalid, 2)):
        argv = ["protocol", "--config", str(config), "--out", str(tmp_path / config.stem)]
        proc = _run_as_program(code, argv)
        assert proc.returncode == expected, proc.stderr
        assert proc.stdout.splitlines()[-1] == "handler ran", proc.stdout
        assert "main returned" not in proc.stdout
    frozen, enabled = gc.get_freeze_count(), gc.isenabled()
    assert main(["protocol", "--config", str(cfg), "--out", str(tmp_path / "in")]) == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_failed_flush_at_exit_is_reported_as_the_interpreter_reports_it(tmp_path):
    # With stdout on a full device the buffered summary line cannot be
    # written: the program path must not end the process over that error,
    # but leave it to the interpreter's exit, which reports it and exits 120.
    cfg = write_config(tmp_path, n_atoms=2, delta_over_g=100.0)
    argv = ["protocol", "--config", str(cfg), "--out", str(tmp_path / "p")]
    with open("/dev/full", "w") as full:
        proc = _run_as_program(None, argv, stdout=full)
    assert proc.returncode == 120, proc.stderr
    ignored, error = proc.stderr.splitlines()
    assert ignored.startswith("Exception ignored in: <_io.TextIOWrapper name='<stdout>'"), ignored
    assert error.startswith(f"OSError: [Errno {errno.ENOSPC}]"), error
    assert (tmp_path / "p" / "report.json").exists()


def test_the_program_path_writes_what_an_in_process_call_writes(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        n_atoms=3,
        field={"kind": "thermal", "mean_n": 0.2},
        sweep={"axis": "delta_ratio", "values": [40, 80]},
        spectrum={"block": 2},
        evolve={"points": 16},
    )
    invalid = write_config(tmp_path, name="invalid.json", field={"kind": "fock", "n": 9})
    refused = write_config(tmp_path, name="refused.json", allow_invalid="no")
    # the console script's start, and python -m subrad.cli
    script = "import sys; from subrad.cli import main; sys.exit(main())"
    starts = {"script": script, "module": None}
    cases = [(command, cfg, 0) for command in ("protocol", "sweep", "spectrum", "evolve")]
    cases += [("protocol", invalid, 2), ("protocol", refused, 1)]
    for command, config, expected in cases:
        name = f"{command}-{config.stem}"
        in_process = tmp_path / "in-process" / name
        assert main([command, "--config", str(config), "--out", str(in_process)]) == expected
        captured = capsys.readouterr()
        for start, code in starts.items():
            program = tmp_path / start / name
            proc = _run_as_program(code, [command, "--config", str(config), "--out", str(program)])
            assert (proc.returncode, proc.stdout, proc.stderr) == (
                expected, captured.out, captured.err
            ), program
            written = sorted(p.name for p in program.glob("*"))
            assert written == sorted(p.name for p in in_process.glob("*"))
            assert bool(written) == (expected == 0), program
            for file in written:
                assert (program / file).read_bytes() == (in_process / file).read_bytes(), file


def test_argparse_only_spellings_give_the_canonical_outputs(tmp_path, capsys):
    cfg = str(write_config(tmp_path, n_atoms=3))
    outputs = {}
    for name, argv in {
        "canonical": ["protocol", "--config", cfg, "--out", str(tmp_path / "canonical")],
        "equals": ["protocol", f"--config={cfg}", "--out", str(tmp_path / "equals")],
        "abbreviated": ["protocol", "--conf", cfg, "--out", str(tmp_path / "abbreviated")],
        "repeated": [
            "protocol", "--config", cfg, "--out", str(tmp_path / "first"),
            "--out", str(tmp_path / "repeated"),
        ],
    }.items():
        code = main(argv)
        captured = capsys.readouterr()
        out = tmp_path / name
        outputs[name] = (
            code, captured.out, captured.err,
            (out / "report.json").read_bytes(), (out / "trajectory.csv").read_bytes(),
        )
    assert outputs["canonical"][0] == 0
    for name, result in outputs.items():
        assert result == outputs["canonical"], name
    assert not (tmp_path / "first").exists()  # the last --out wins


COMMANDS = ("protocol", "sweep", "spectrum", "evolve")
FLAGS = ("--config", "--out", "--seed", "--jobs")
# spellings only argparse takes or refuses: help, abbreviations, --flag=value,
# the end of options, dashed or empty values, int() oddities and junk
ODD_TOKENS = ("-h", "--help", "--conf", "--config=x", "--", "-5", "-x y", "", "simulate", "--Config")
VALUES = ("0", "1", "2", " 3", "+4", "1_0", "x", "c.json", "")


@st.composite
def argvs(draw):
    """A command with some of its flags and values, then up to two tokens replaced or inserted."""
    command = draw(st.sampled_from(COMMANDS))
    flags = draw(st.permutations(FLAGS if command == "sweep" else FLAGS[:3]))
    argv = [command]
    for flag in flags[: draw(st.integers(1, len(flags)))]:
        argv += [flag, draw(st.sampled_from(VALUES))]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(argv) - 1))
        token = draw(st.sampled_from(COMMANDS + FLAGS + ODD_TOKENS + VALUES))
        if draw(st.booleans()):
            argv.insert(i, token)
        else:
            argv[i] = token
    return argv


@settings(max_examples=400, deadline=None)
@given(argvs())
def test_plain_parser_agrees_with_argparse(argv):
    plain = subrad.cli._plain_args(argv)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            expected = vars(subrad.cli._build_parser().parse_args(argv))
    except SystemExit:
        assert plain is None, argv
        return
    if expected.get("jobs", 1) < 1:  # main's own usage error
        assert plain is None, argv
    elif plain is not None:
        assert plain == expected, argv


def test_evolve_of_a_detuning_that_overflows_exit_1(tmp_path, capsys):
    # 1e300 g overflows the norm of H: the run's numbers would be NaN, so nothing is written
    cfg = write_config(tmp_path, delta_over_g=1e300)
    for command in ("evolve", "protocol"):
        with np.errstate(all="ignore"):
            assert main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == 1
        assert "EigensolverError" in capsys.readouterr().err
        assert not (tmp_path / command / "trajectory.csv").exists()


@pytest.mark.parametrize(
    "command, overrides",
    [
        # phases E t of about 1e305 rad: the norm holds, but every row would be noise
        ("evolve", {"n_atoms": 4, "evolve": {"t_final_seconds": 1e300}}),
        # t_m still runs; the trajectory over one slow period rounds its phases by 1.6e-6 rad
        ("protocol", {"n_atoms": 2, "delta_over_g": 6e4}),
    ],
)
def test_a_grid_whose_phases_rounded_away_exit_1(tmp_path, capsys, command, overrides):
    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert "phase rounding" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("evolve", {"n_atoms": 4, "evolve": {"t_final_seconds": 1e300}}),
        ("evolve", {"n_atoms": 2, "delta_over_g": 6e4}),
        ("protocol", {"n_atoms": 2, "delta_over_g": 6e4}),
    ],
)
def test_the_phase_refusal_names_the_first_time_whatever_the_chunking(
    tmp_path, capsys, monkeypatch, command, overrides
):
    cfg = write_config(tmp_path, **overrides)
    errors = []
    for budget in (subrad.dynamics.AMPLITUDE_BUDGET, 1):
        monkeypatch.setattr(subrad.dynamics, "AMPLITUDE_BUDGET", budget)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    # the grid's first time past PHASE_TOL; the one before it passes
    config = _parse_config(json.loads(cfg.read_text()))
    params = _params(config)
    if config["t_final_seconds"] is None:
        times = subrad.dynamics.default_trajectory_times(params, config["points"])
    else:
        times = np.linspace(0.0, config["t_final_seconds"], config["points"])
    n_max, ((_, n),) = subrad.protocol.fock_components(params, config["field"])
    block, _ = subrad.protocol._start(params, n, 1, n_max)
    rounding = np.finfo(float).eps * np.max(np.abs(block.eigenvalues)) * times
    i = int(np.argmax(rounding > subrad.dynamics.PHASE_TOL))
    assert i > 0 and rounding[i - 1] <= subrad.dynamics.PHASE_TOL
    assert errors[0] == (
        f"error: ValueError: phase rounding {rounding[i]:.3e} rad at t = {times[i]:.3e} s "
        f"exceeds {subrad.dynamics.PHASE_TOL}\n"
    )


def test_a_detuning_that_overflows_prints_only_the_refusal(tmp_path):
    # numpy's overflow warnings stay off stderr: the refusal is its one line
    cfg = write_config(tmp_path, n_atoms=4, delta_over_g=1e300, spectrum={"block": 2})
    src = str(Path(subrad.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    for command in ("protocol", "evolve", "spectrum"):
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / command)]
        proc = subprocess.run(
            [sys.executable, "-m", "subrad.cli", *argv], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 1, command
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith("error: "), proc.stderr
        assert not (tmp_path / command).exists()


# -- spectrum ----------------------------------------------------------------


def test_spectrum_single_atom_doublet(tmp_path):
    cfg = write_config(
        tmp_path,
        n_atoms=1,
        delta_over_g=None,
        spectrum={"photons": 0},
    )
    raw = json.loads(cfg.read_text())
    del raw["delta_over_g"]
    raw["omega_a_over_2pi_hz"] = 1.0e9
    raw["omega_c_over_2pi_hz"] = 1.0e9 + 40 * G_HZ
    cfg.write_text(json.dumps(raw))
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "sp")]) == 0
    rows = read_csv(tmp_path / "sp" / "spectrum.csv")
    assert len(rows) == 2
    g = 2 * math.pi * G_HZ
    delta = 40 * g
    evs = sorted(float(r["eigenvalue_rad_s"]) for r in rows)
    assert evs[1] - evs[0] == pytest.approx(math.sqrt(delta**2 + 4 * g**2), rel=1e-12)


def test_spectrum_splitting_accuracy_at_large_detuning(tmp_path):
    cfg = write_config(tmp_path, delta_over_g=300.0, spectrum={"photons": 0})
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "sp")]) == 0
    rows = read_csv(tmp_path / "sp" / "spectrum.csv")
    bright = [r for r in rows if r["assignment"] == "delta_e1"]
    dark = [r for r in rows if r["assignment"] == "delta_ei"]
    assert len(bright) == 1 and len(dark) == 9
    g = 2 * math.pi * G_HZ
    splitting = abs(
        float(bright[0]["eigenvalue_rad_s"]) - float(dark[0]["eigenvalue_rad_s"])
    )
    assert splitting == pytest.approx(10 * g**2 / (300.0 * g), rel=1e-3)  # N g^2/delta


def test_spectrum_h0_only_degenerate(tmp_path):
    cfg = write_config(tmp_path, spectrum={"photons": 0, "h0_only": True})
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "sp")]) == 0
    rows = read_csv(tmp_path / "sp" / "spectrum.csv")
    sector = [r for r in rows if r["assignment"].startswith("delta")]
    evs = {float(r["eigenvalue_rad_s"]) for r in sector}
    assert len(sector) == 10 and len(evs) == 1  # exact N-fold degeneracy


SPECTRUM_FRAMES = {
    "ratio": {"delta_over_g": 30.0},
    "laboratory": {"omega_a_over_2pi_hz": 1.0e9, "omega_c_over_2pi_hz": 1.0e9 + 30 * G_HZ},
    "negative_detuning": {"delta_over_g": -30.0},
}


def assert_spectrum_matches_oracle(tmp_path, capsys, raw):
    """Run `subrad spectrum` on `raw`; its file must equal the greedy oracle's."""
    cfg = tmp_path / "spectrum.json"
    cfg.write_text(json.dumps(raw))
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    config = _parse_config(raw)
    spectrum_oracle.write_spectrum_csv(config, tmp_path / "oracle.csv")
    expected = (tmp_path / "oracle.csv").read_bytes()
    rows = expected.count(b"\n") - 1
    assert capsys.readouterr().out == f"block M={config['spectrum_block']}: {rows} eigenvalues written\n"
    assert (tmp_path / "spectrum.csv").read_bytes() == expected, raw


@pytest.mark.parametrize("n_atoms", range(1, 10))
def test_spectrum_csv_matches_the_per_row_oracle(tmp_path, capsys, n_atoms):
    # every block 1..N+n_max; under the default cutoff every block above N
    # holds all N+1 free levels, so blocks up to N+5 cover it
    for frame, h0_only, n_max in itertools.product(SPECTRUM_FRAMES, (False, True), (None, 2, 5)):
        for block in range(1, n_atoms + (5 if n_max is None else n_max) + 1):
            raw = {"n_atoms": n_atoms, "g_over_2pi_hz": G_HZ, **SPECTRUM_FRAMES[frame]}
            raw["spectrum"] = {"block": block, "h0_only": h0_only}
            if n_max is not None:
                raw["options"] = {"n_max": n_max}
            assert_spectrum_matches_oracle(tmp_path, capsys, raw)


def test_spectrum_csv_of_a_large_block_matches_the_per_row_oracle(tmp_path, capsys):
    # 39,203 rows over 45 distinct eigenvalues
    raw = {"n_atoms": 16, "g_over_2pi_hz": G_HZ, "delta_over_g": 30.0, "spectrum": {"block": 8}}
    assert_spectrum_matches_oracle(tmp_path, capsys, raw)


@settings(max_examples=40, deadline=None)
@given(
    n_atoms=st.integers(1, 12),
    block=st.integers(1, 17),
    headroom=st.one_of(st.none(), st.integers(0, 4)),
    ratio=st.floats(30.0, 3000.0),
    negative=st.booleans(),
    h0_only=st.booleans(),
)
def test_rank_labels_match_the_greedy_oracle_at_large_detuning(
    tmp_path_factory, n_atoms, block, headroom, ratio, negative, h0_only
):
    # an unclipped block: the cutoff leaves every rung 0..min(N, M) in it
    raw = {"n_atoms": n_atoms, "g_over_2pi_hz": G_HZ, "delta_over_g": -ratio if negative else ratio}
    raw["spectrum"] = {"block": block, "h0_only": h0_only}
    if headroom is not None:
        raw["options"] = {"n_max": block + headroom}
    tmp_path = tmp_path_factory.mktemp("spectrum")
    cfg = tmp_path / "spectrum.json"
    cfg.write_text(json.dumps(raw))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    spectrum_oracle.write_spectrum_csv(_parse_config(raw), tmp_path / "oracle.csv")
    assert (tmp_path / "spectrum.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes(), raw


def test_spectrum_labels_the_single_dark_rung_delta_ei(tmp_path, capsys):
    # N=2, block 3 under n_max 2: the j = 0 ladder is rung 1 alone, so its
    # eigenvalue is the delta_ei level itself; delta_e1 is the level of the
    # clipped block, which has no rung 0, so the greedy oracle agrees
    raw = {"n_atoms": 2, "g_over_2pi_hz": G_HZ, "delta_over_g": -30.0}
    raw["spectrum"] = {"block": 3}
    raw["options"] = {"n_max": 2}
    assert_spectrum_matches_oracle(tmp_path, capsys, raw)
    rows = read_csv(tmp_path / "spectrum.csv")
    assert [(r["eigenvalue_rad_s"], r["assignment"]) for r in rows] == [
        ("-9067804.4600652345", "delta_e1"),
        ("-9047786.8423386049", "delta_ei"),
        ("-4503875.8034426719", "free_k2"),
    ]
    assert rows[1]["abs_error_rad_s"] == rows[1]["rel_error_vs_2alpha"] == "0"
    # 2 (N-1)(M-1) g^2 / delta of the clipped block, against 2.99 before it
    assert float(rows[0]["rel_error_vs_2alpha"]) < 0.01


def test_spectrum_keeps_zero_and_negative_zero_apart(tmp_path, capsys, monkeypatch):
    # 0.0 == -0.0, but they print as "0" and "-0": rows of equal values print apart
    def fake(*args):
        values, rungs, ladders, counts = [-0.0, -0.0, 0.0], [1, 1, 0], [0, 1, 0], [1, 2, 1]
        return tuple(map(np.array, (values, rungs, ladders, counts)))

    monkeypatch.setattr(subrad.cli, "spectrum", fake)
    monkeypatch.setattr(spectrum_oracle, "spectrum", fake)
    raw = {"n_atoms": 3, "g_over_2pi_hz": G_HZ, "delta_over_g": 30.0}
    raw["spectrum"] = {"block": 1, "h0_only": True}
    assert_spectrum_matches_oracle(tmp_path, capsys, raw)
    cells = [r["eigenvalue_rad_s"] for r in read_csv(tmp_path / "spectrum.csv")]
    assert cells == ["-0", "-0", "-0", "0"]


def test_spectrum_refuses_non_finite_values(tmp_path, capsys):
    # 2 alpha is about 1e-295 rad/s: the errors relative to it overflow
    cfg = write_config(tmp_path, n_atoms=4, delta_over_g=1e300, spectrum={"block": 2})
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "sp")]) == 1
    assert "rel_error_vs_2alpha is inf" in capsys.readouterr().err
    assert not (tmp_path / "sp").exists()


def test_spectrum_refuses_more_rows_than_it_can_hold(tmp_path, capsys):
    # block M=N of 17 atoms holds all 2^17 atomic configurations
    cfg = write_config(tmp_path, n_atoms=17, delta_over_g=100.0, spectrum={"block": 17})
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "sp")]) == 1
    assert "131072 eigenvalues" in capsys.readouterr().err
    assert not (tmp_path / "sp").exists()


@pytest.mark.parametrize(
    "spectrum, options, message",
    [
        # block 0 holds no single excitation; its default cutoff is 0 + N + 4
        ({"block": 0}, {}, "block 0 out of range 1..10"),
        ({"photons": -1}, {}, "block 0 out of range 1..10"),
        ({"block": 9}, {"n_max": 5}, "block 9 out of range 1..8"),
    ],
)
def test_spectrum_block_outside_one_to_n_plus_n_max_exit_1(
    tmp_path, capsys, spectrum, options, message
):
    cfg = write_config(tmp_path, n_atoms=3, spectrum=spectrum, options=options)
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "sp")]) == 1
    err = capsys.readouterr().err
    assert "usage" in err and message in err, err
    assert not (tmp_path / "sp").exists()


# -- evolve --------------------------------------------------------------------


def test_evolve_trajectory_csv(tmp_path):
    cfg = write_config(tmp_path, n_atoms=4, evolve={"points": 16})
    assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "ev")]) == 0
    lines = (tmp_path / "ev" / "trajectory.csv").read_text().splitlines()
    assert (
        lines[0]
        == "t_seconds,p_control,p_single_offcontrol,p_symmetric,p_subradiant,jpjm,norm_error"
    )
    assert len(lines) == 17
    first = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert float(first["p_control"]) == pytest.approx(1.0)
    assert float(first["p_subradiant"]) == pytest.approx(3 / 4)


def test_evolve_thermal_is_the_weighted_fock_average(tmp_path):
    mean_n = 0.2
    thermal = write_config(
        tmp_path, n_atoms=3, delta_over_g=60.0,
        field={"kind": "thermal", "mean_n": mean_n}, evolve={"points": 24},
    )
    assert main(["evolve", "--config", str(thermal), "--out", str(tmp_path / "th")]) == 0
    rows = read_csv(tmp_path / "th" / "trajectory.csv")
    expected = {}
    field = FieldSpec.thermal(mean_n)
    for w, n in field.components(field.required_n_max(3)):
        cfg = write_config(
            tmp_path, name=f"fock{n}.json", n_atoms=3, delta_over_g=60.0,
            field={"kind": "fock", "n": n}, evolve={"points": 24},
        )
        out = tmp_path / f"fock{n}"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
        for i, row in enumerate(read_csv(out / "trajectory.csv")):
            for key, value in row.items():
                if key != "t_seconds":
                    expected[i, key] = expected.get((i, key), 0.0) + w * float(value)
    assert len(rows) == 24
    for i, row in enumerate(rows):
        for key, value in row.items():
            if key != "t_seconds":
                assert float(value) == pytest.approx(expected[i, key], abs=1e-12), (i, key)


def test_evolve_reads_only_the_options_it_uses(tmp_path):
    # evolve has no gate and no slow-model check: the matching time, its phase and the
    # check grid leave its trajectory as it is
    unused = {"tm_branch": 1, "phi_override": 0.25, "pt_times": 1}
    written = []
    for name, options in (("plain", {}), ("unused", unused)):
        cfg = write_config(
            tmp_path, name=f"{name}.json", n_atoms=4, delta_over_g=60.0,
            field={"kind": "thermal", "mean_n": 0.3}, evolve={"points": 20}, options=options,
        )
        assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        written.append((tmp_path / name / "trajectory.csv").read_bytes())
    assert written[0] == written[1]


def test_evolve_refuses_clipped_fock_block(tmp_path, capsys):
    # Fock(3) with n_max=3 puts the whole state on the clipped block M=4
    cfg = write_config(
        tmp_path, n_atoms=2, field={"kind": "fock", "n": 3}, options={"n_max": 3}
    )
    for command in ("protocol", "evolve"):
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "TruncationRefusal" in err and "this run needs n_max >= 4" in err, err
        assert not (out / "trajectory.csv").exists()


def test_underflowing_coherent_field_refused_at_any_cutoff(tmp_path, capsys):
    field = {"kind": "coherent", "amplitude_re": 40}
    cfg = write_config(
        tmp_path, n_atoms=3, delta_over_g=3000.0, field=field, options={"n_max": 3000}
    )
    for command in ("protocol", "evolve"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == 1
        err = capsys.readouterr().err
        assert "exp(-|amp|^2/2) underflows to 0, so no cutoff can hold the field" in err, err
        assert not (tmp_path / command).exists()


def test_floats_emitted_with_17_digits(tmp_path):
    cfg = write_config(tmp_path, n_atoms=3, evolve={"points": 4})
    assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "ev")]) == 0
    text = (tmp_path / "ev" / "trajectory.csv").read_text()
    # a 17-significant-digit float round-trips bit-faithfully
    token = text.splitlines()[2].split(",")[3]
    assert float(token) == float(f"{float(token):.17g}")
    assert len(token.replace("-", "").replace(".", "").lstrip("0").split("e")[0]) <= 17


def test_report_json_escapes_echoed_strings_and_keys(tmp_path):
    sweep = {"axis": "mean\tn\né \"q\" \\", "values": [{'a "quoted" key\u0001': 1}]}
    serialize.dump_json({"config": {"sweep": sweep}}, tmp_path / "report.json")
    text = (tmp_path / "report.json").read_text(encoding="utf-8")
    assert json.loads(text)["config"]["sweep"] == sweep
    # characters that need no escape keep their bytes
    assert '"mean\\tn\\né \\"q\\" \\\\"' in text


def refuse_constant(name):
    raise ValueError(f"report.json holds {name}")


def assert_same_json(got, want, where="$"):
    """Equal values of equal types, keys in the same order, floats bit for bit."""
    assert type(got) is type(want), (where, got, want)
    if isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            assert_same_json(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (a, b) in enumerate(zip(got, want)):
            assert_same_json(a, b, f"{where}[{i}]")
    elif isinstance(want, float):
        assert got.hex() == want.hex(), (where, got, want)
    else:
        assert got == want, (where, got, want)


@pytest.mark.parametrize(
    "overrides",
    [
        {"field": {"kind": "fock", "n": 2}, "options": {"phi_override": 0.25}},
        {"field": {"kind": "coherent", "amplitude_re": 0.6, "amplitude_im": -0.3}, "seed": 7},
        {"field": {"kind": "thermal", "mean_n": 0.2}, "options": {"tm_branch": 1}},
        {**OMEGA_PAIR, "field": {"kind": "fock", "n": 1}},
    ],
    ids=["fock", "coherent", "thermal", "laboratory"],
)
def test_report_json_parses_to_the_config_and_the_report(tmp_path, overrides):
    cfg = write_config(tmp_path, n_atoms=5, delta_over_g=-40.0)
    raw = {**json.loads(cfg.read_text()), **overrides}
    raw = {k: v for k, v in raw.items() if v is not None}
    cfg.write_text(json.dumps(raw))
    assert main(["protocol", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    text = (tmp_path / "o" / "report.json").read_text(encoding="utf-8")
    payload = json.loads(text, parse_constant=refuse_constant)
    config = _parse_config(raw)
    report = run(_params(config), config["field"], **config["options"])
    if config["seed"] is not None:  # the CLI echoes the seed as the last meta key
        report["meta"]["seed"] = config["seed"]
    assert_same_json(payload, {"config": raw, "report": report})
    # an integral float of the config comes back as a float
    assert type(payload["config"]["g_over_2pi_hz"]) is float
    assert f'"g_over_2pi_hz": {G_HZ!r},' in text


def test_dump_json_refuses_nan_and_leaves_no_file(tmp_path):
    with pytest.raises(ValueError):
        serialize.dump_json({"x": math.nan}, tmp_path / "report.json")
    assert not (tmp_path / "report.json").exists()
