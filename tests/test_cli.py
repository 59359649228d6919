"""Command-line interface: configs, exit codes, emitted files."""

import json
import math

import pytest

from subrad.cli import RunConfig, main
from subrad.fields import FieldSpec
from subrad.protocol import ProtocolReport

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
    report = ProtocolReport.from_dict(payload["report"])
    assert report.t_m_microseconds == pytest.approx(22.0, abs=0.5)
    assert report.alpha_per_s == pytest.approx(2.51e4, abs=0.02e4)
    assert report.fidelity_subradiant > 0.97
    # config echo re-parses into an equal RunConfig
    again = RunConfig.from_json(payload["config"])
    assert again.n_atoms == 10 and again.delta_over_g == 30.0
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


def test_protocol_runs_two_hundred_atoms(tmp_path, monkeypatch):
    # the product space has 2^200 * (n_max + 1) states; no dimension cap applies
    monkeypatch.delenv("SUBRAD_MAX_DIM", raising=False)
    cfg = write_config(tmp_path, n_atoms=200, delta_over_g=100.0)
    assert main(["protocol", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())["report"]
    # in the |c, k, n> basis the dark weight is the target weight, so the two meet up to rounding
    assert 0.0 <= report["fidelity_subradiant"] <= report["dfs_weight"] + 1e-12
    assert report["dfs_weight"] <= 1.0
    assert report["meta"]["basis_dim"] == 2**200 * (report["meta"]["n_max"] + 1)
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
    config = RunConfig.from_json(
        {
            "n_atoms": 4.0,
            "g_over_2pi_hz": G_HZ,
            "delta_over_g": 100.0,
            "field": {"kind": "fock", "n": 1.0},
            "options": {"tm_branch": 1.0, "n_max": 9.0, "pt_times": 11.0},
            "seed": 7.0,
        }
    )
    assert config.n_atoms == 4 and config.field.n == 1 and config.seed == 7
    opts = config.options
    assert (opts.tm_branch, opts.n_max, opts.pt_times, opts.seed) == (1, 9, 11, 7)
    assert all(type(v) is int for v in (config.n_atoms, config.field.n, opts.n_max))


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


# -- sweep -------------------------------------------------------------------


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


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


class RecordingPool:
    """Stand-in for ProcessPoolExecutor that records its size and maps in-process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize(
    "jobs, n_points, cpus, expected",
    [
        (3, 2, 4, [2]),  # capped by the point count
        (3, 3, 2, [2]),  # capped by the CPU count
        (2, 3, 4, [2]),  # as asked
        (3, 2, 1, []),  # a cap of 1 runs serially
        (1, 2, 4, []),
        (2, 2, None, []),  # unknown CPU count counts as one
    ],
)
def test_sweep_workers_capped(tmp_path, monkeypatch, jobs, n_points, cpus, expected):
    import subrad.cli as cli

    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    values = [40, 80, 160][:n_points]
    cfg = write_config(
        tmp_path, n_atoms=2, delta_over_g=100.0, sweep={"axis": "delta_ratio", "values": values}
    )
    out = tmp_path / "sw"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--jobs", str(jobs)]) == 0
    assert RecordingPool.sizes == expected
    assert [float(r["value"]) for r in read_csv(out / "sweep.csv")] == values


def test_sweep_without_section_exit_1(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert "sweep" in capsys.readouterr().err


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


def test_spectrum_refuses_more_rows_than_it_can_hold(tmp_path, capsys):
    # block M=N of 17 atoms holds all 2^17 atomic configurations
    cfg = write_config(tmp_path, n_atoms=17, delta_over_g=100.0, spectrum={"block": 17})
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "sp")]) == 1
    assert "131072 eigenvalues" in capsys.readouterr().err
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
    for w, n in FieldSpec.thermal(mean_n).components():
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


def test_evolve_refuses_clipped_fock_block(tmp_path, capsys):
    # Fock(3) with n_max=3 puts the whole state on the clipped block M=4
    cfg = write_config(
        tmp_path, n_atoms=2, field={"kind": "fock", "n": 3}, options={"n_max": 3}
    )
    for command in ("protocol", "evolve"):
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert "TruncationRefusal" in capsys.readouterr().err
        assert not (out / "trajectory.csv").exists()


def test_floats_emitted_with_17_digits(tmp_path):
    cfg = write_config(tmp_path, n_atoms=3, evolve={"points": 4})
    assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "ev")]) == 0
    text = (tmp_path / "ev" / "trajectory.csv").read_text()
    # a 17-significant-digit float round-trips bit-faithfully
    token = text.splitlines()[2].split(",")[3]
    assert float(token) == float(f"{float(token):.17g}")
    assert len(token.replace("-", "").replace(".", "").lstrip("0").split("e")[0]) <= 17
