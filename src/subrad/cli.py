"""Command-line front end: single runs, sweeps, spectra and trajectories.

Configs are JSON with frequencies quoted as cycles per second over 2 pi
(g_over_2pi_hz etc.), matching how cavity experiments report parameters;
everything is converted to rad/s internally.  Exactly one of delta_over_g
or the (omega_a_over_2pi_hz, omega_c_over_2pi_hz) pair selects the frame:
the ratio form works in the atomic rotating frame where only the detuning
matters.

Exit codes: 0 success, 2 validity refusal (smallness parameter over 0.3
without allow_invalid), 1 anything else, usage errors included.
"""

from __future__ import annotations

import atexit
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import serialize
# compile_propagator is imported only for perfbench/selftest.py's tracer check
from .dynamics import (  # noqa: F401
    TRAJECTORY_COLUMNS,
    compile_propagator,
    default_trajectory_times,
    spectrum,
)
from .fields import FIELD_KINDS, FieldSpec
from .model import SystemParams
from .perturb import closed_form_corrections, validity_parameter, validity_grade
from .protocol import NoSubradiantSectorError, _run, fock_components, run, trajectory

TWO_PI = 2.0 * math.pi
# The config's options are run's keyword arguments, under their names and with
# their defaults; read at import, as a traced run (functools.wraps) has none.
OPTION_DEFAULTS = dict(run.__kwdefaults__)


class ConfigError(ValueError):
    pass


# Keys of the README schema, per config section; anything else is refused.
TOP_KEYS = frozenset(
    {
        "n_atoms", "g_over_2pi_hz", "delta_over_g", "omega_a_over_2pi_hz",
        "omega_c_over_2pi_hz", "field", "options", "allow_invalid", "seed",
        "sweep", "spectrum", "evolve",
    }
)
SECTION_KEYS = {
    "options": frozenset(OPTION_DEFAULTS),
    "sweep": frozenset({"axis", "values"}),
    "spectrum": frozenset({"photons", "block", "h0_only"}),
    "evolve": frozenset({"points", "t_final_seconds"}),
}
FIELD_KEYS = {
    "fock": frozenset({"kind", "n"}),
    "coherent": frozenset({"kind", "amplitude_re", "amplitude_im"}),
    "thermal": frozenset({"kind", "mean_n"}),
}


def _known(obj, allowed: frozenset, where: str) -> dict:
    """The config section `obj`, refused unless it is an object of allowed keys."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object, got {obj!r}")
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    return obj


def _integer(value, key: str) -> int:
    """An int or integral float from a config; booleans and fractions refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1:
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _count(value, key: str) -> int:
    """An integer of at least 1 from a config."""
    count = _integer(value, key)
    if count < 1:
        raise ConfigError(f"{key} must be at least 1, got {count}")
    return count


def _boolean(value, key: str) -> bool:
    """A JSON true or false from a config; strings, numbers and null refused."""
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def _real(value, key: str) -> float:
    """A finite number from a config; booleans, NaN and infinities refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return float(value)


# Each option's parser, in the order a config's options are checked.
OPTION_PARSERS = {
    "pt_times": _count, "n_max": _integer, "tm_branch": _integer,
    "phi_override": _real, "excite_control": _boolean,
}


def _field(obj) -> FieldSpec:
    """The field section, with its kind, required keys, integers and floats checked."""
    kind = obj.get("kind") if isinstance(obj, dict) else None
    _known(obj, FIELD_KEYS.get(kind, frozenset({"kind"})), "field")
    if kind not in FIELD_KEYS:
        raise ConfigError(f"field.kind must be one of {FIELD_KINDS}, got {kind!r}")
    required = {"fock": "n", "thermal": "mean_n"}.get(kind)
    if required is not None and required not in obj:
        raise ConfigError(f"config is missing required key 'field.{required}'")
    number = _integer if kind == "fock" else _real
    values = {k: number(v, f"field.{k}") for k, v in obj.items() if k != "kind"}
    if kind == "fock":
        return FieldSpec.fock(values["n"])
    if kind == "thermal":
        return FieldSpec.thermal(values["mean_n"])
    real, imag = (values.get(k, 0.0) for k in ("amplitude_re", "amplitude_im"))
    return FieldSpec.coherent(complex(real, imag))


SWEEP_AXES = ("N", "delta_ratio", "mean_n")


def _sweep(obj: dict, ratio: float | None, field: FieldSpec) -> tuple[str | None, tuple]:
    """The sweep section's axis (None if absent) and values, refused if no point can take one."""
    values = obj.get("values", [])
    if not isinstance(values, list):
        raise ConfigError(f"sweep.values must be an array, got {values!r}")
    values = tuple(_real(v, "sweep.values") for v in values)
    axis = obj.get("axis")
    if "axis" in obj and axis not in SWEEP_AXES:
        raise ConfigError(f"sweep axis must be one of {SWEEP_AXES}, got {axis!r}")
    for value in values:
        if axis == "N" and value != int(value):
            raise ConfigError(f"atom count must be an integer, got {value}")
        if axis == "delta_ratio" and ratio is None:
            raise ConfigError("delta_ratio sweeps need a delta_over_g style config")
        if axis == "mean_n" and field.kind == "fock" and value != int(value):
            raise ConfigError(f"Fock sweep values must be integers, got {value}")
    return axis, values


def _parse_config(obj: dict) -> dict:
    """The parsed run config of the JSON object `obj`; see README for the schema.

    Besides the parsed top-level keys (options as a dict of run's keyword
    arguments; seed is only echoed into report.json), it holds points
    (trajectory samples for protocol and evolve), t_final_seconds (the evolve
    span, None for one slow period), spectrum_block, h0_only, sweep_axis (None
    without one), sweep_values (a tuple of floats) and raw, `obj` itself.
    Callers copy it, never mutate it.
    """
    _known(obj, TOP_KEYS, "the config")
    sections = {k: _known(obj.get(k, {}), keys, k) for k, keys in SECTION_KEYS.items()}
    values = {}
    for key, parse in (("n_atoms", _integer), ("g_over_2pi_hz", _real)):
        if key not in obj:
            raise ConfigError(f"config is missing required key {key!r}")
        values[key] = parse(obj[key], key)
    if values["g_over_2pi_hz"] <= 0:
        raise ConfigError(f"g_over_2pi_hz must be positive, got {values['g_over_2pi_hz']}")

    frame = ("delta_over_g", "omega_a_over_2pi_hz", "omega_c_over_2pi_hz")
    has_ratio, *has_pair = (obj.get(k) is not None for k in frame)
    if has_ratio == any(has_pair):
        raise ConfigError(
            "supply exactly one of delta_over_g or the "
            "omega_a_over_2pi_hz/omega_c_over_2pi_hz pair"
        )
    if any(has_pair) and not all(has_pair):
        raise ConfigError("the omega pair needs both omega_a and omega_c")
    values.update({k: None if obj.get(k) is None else _real(obj[k], k) for k in frame})
    if any(has_pair) and min(values[k] for k in frame[1:]) <= 0:
        raise ConfigError("omega_*_over_2pi_hz must be positive")

    values["field"] = _field(obj.get("field", {"kind": "fock", "n": 0}))
    seed = obj.get("seed")
    values["seed"] = seed if seed is None else _integer(seed, "seed")
    values["options"] = {}
    for name, parse in OPTION_PARSERS.items():
        default = OPTION_DEFAULTS[name]
        value = sections["options"].get(name, default)
        # an absent option takes its default unparsed, as does null where that is None
        values["options"][name] = value if value is default else parse(value, f"options.{name}")

    evolve, spectrum = sections["evolve"], sections["spectrum"]
    values["points"] = _count(evolve.get("points", 400), "evolve.points")
    if "block" in spectrum:
        if "photons" in spectrum:
            raise ConfigError("supply at most one of spectrum.block or spectrum.photons")
        values["spectrum_block"] = _integer(spectrum["block"], "spectrum.block")
    else:
        values["spectrum_block"] = _integer(spectrum.get("photons", 0), "spectrum.photons") + 1
    values["allow_invalid"] = _boolean(obj.get("allow_invalid", False), "allow_invalid")
    span = evolve.get("t_final_seconds")
    values["t_final_seconds"] = span if span is None else _real(span, "evolve.t_final_seconds")
    values["h0_only"] = _boolean(spectrum.get("h0_only", False), "spectrum.h0_only")
    values["sweep_axis"], values["sweep_values"] = _sweep(
        sections["sweep"], values["delta_over_g"], values["field"]
    )
    return {**values, "raw": obj}


def _params(config: dict) -> SystemParams:
    """The SystemParams of a parsed config."""
    g = TWO_PI * config["g_over_2pi_hz"]
    if config["delta_over_g"] is not None:
        return SystemParams.from_detuning_ratio(config["n_atoms"], g, config["delta_over_g"])
    return SystemParams(
        n_atoms=config["n_atoms"],
        omega_a=TWO_PI * config["omega_a_over_2pi_hz"],
        omega_c=TWO_PI * config["omega_c_over_2pi_hz"],
        g=g,
    )


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return _parse_config(obj)


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------


def cmd_protocol(config: dict, out_dir: Path) -> int:
    params = _params(config)
    options = config["options"]
    # a cutoff refusal comes first
    fock_components(params, config["field"], options["n_max"], options["excite_control"])
    validity = validity_parameter(params, config["field"].mean_n)
    if validity_grade(validity) == "invalid" and not config["allow_invalid"]:
        print(
            f"refusing: validity parameter {validity:.3f} >= 0.3 "
            "(set allow_invalid to force the run)",
            file=sys.stderr,
        )
        return 2

    times = default_trajectory_times(params, config["points"])
    report, table = _run(params, config["field"], times, **options)
    if config["seed"] is not None:
        report["meta"]["seed"] = config["seed"]
    out_dir.mkdir(parents=True, exist_ok=True)
    serialize.dump_json({"config": config["raw"], "report": report}, out_dir / "report.json")
    serialize.write_table(out_dir / "trajectory.csv", TRAJECTORY_COLUMNS, table)
    print(
        f"t_m = {report['t_m_microseconds']:.6g} us, "
        f"fidelity = {report['fidelity_subradiant']:.6f}, "
        f"dark-subspace weight = {report['dfs_weight']:.6f}"
    )
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

SWEEP_COLUMNS = (
    "point",
    "axis",
    "value",
    "n_atoms",
    "delta_over_g",
    "g_over_2pi_hz",
    "field_kind",
    "field_mean_n",
    "alpha_per_s",
    "t_m_seconds",
    "phi_radians",
    "fidelity_subradiant",
    "dfs_weight",
    "pt_coefficient_error",
    "emission_expectation",
    "validity",
    "validity_grade",
    "error",
)


def _at(config: dict, axis: str, value: float) -> dict:
    """The config of the sweep point axis = value, which _sweep has passed."""
    if axis == "N":
        return {**config, "n_atoms": int(value)}
    if axis == "delta_ratio":
        return {**config, "delta_over_g": value}
    if config["field"].kind == "fock":
        field = FieldSpec.fock(int(value))
    elif config["field"].kind == "thermal":
        field = FieldSpec.thermal(value)
    elif value < 0:  # a negative mean has no amplitude
        raise ValueError(f"a coherent field's mean_n must be >= 0 (got {value})")
    else:
        field = FieldSpec.coherent(complex(math.sqrt(value), 0.0))
    return {**config, "field": field}


def _sweep_point(idx: int, axis: str, value: float, config: dict) -> dict:
    row = {"point": idx, "axis": axis, "value": value, "error": ""}
    try:
        point = _at(config, axis, value)
        params = _params(point)
        report = run(params, point["field"], **point["options"])
        ratio = params.delta / params.g if point["delta_over_g"] is None else point["delta_over_g"]
        row.update(
            {key: report[key] for key in SWEEP_COLUMNS if key in report},
            delta_over_g=ratio,
            g_over_2pi_hz=point["g_over_2pi_hz"],
            field_kind=point["field"].kind,
            field_mean_n=point["field"].mean_n,
        )
    except Exception as exc:  # per-point failures stay in-row
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def cmd_sweep(config: dict, out_dir: Path) -> int:
    axis = config["sweep_axis"]
    if axis is None or not config["sweep_values"]:
        raise ConfigError('sweep runs need config["sweep"] = {"axis": ..., "values": [...]}')
    rows = [_sweep_point(i, axis, v, config) for i, v in enumerate(config["sweep_values"])]

    out_dir.mkdir(parents=True, exist_ok=True)
    serialize.write_csv(out_dir / "sweep.csv", SWEEP_COLUMNS, rows)
    failures = sum(1 for r in rows if r["error"])
    print(f"swept {len(rows)} points over {axis} ({failures} failed)")
    return 0


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

SPECTRUM_MAX_ROWS = 1 << 16  # one row per eigenvalue of the product block

SPECTRUM_COLUMNS = (
    "index",
    "eigenvalue_rad_s",
    "shift_from_e0_rad_s",
    "pt_level_rad_s",
    "pt_shift_rad_s",
    "abs_error_rad_s",
    "rel_error_vs_2alpha",
    "assignment",
)


def cmd_spectrum(config: dict, out_dir: Path) -> int:
    params = _params(config)
    nn = params.n_atoms
    sector_n = config["spectrum_block"]
    h0_only = config["h0_only"]

    n_max = config["options"]["n_max"]
    if n_max is None:
        n_max = sector_n + nn + 4
    if not 1 <= sector_n <= nn + n_max:
        # block 0 (photons -1) holds no single excitation
        raise ConfigError(f"block {sector_n} out of range 1..{nn + n_max}")

    # Rung e of the block holds e excited atoms and M - e photons: comb(N, e) states.
    n_rows = sum(math.comb(nn, e) for e in range(max(0, sector_n - n_max), min(nn, sector_n) + 1))
    if n_rows > SPECTRUM_MAX_ROWS:
        raise ConfigError(
            f"block {sector_n} has {n_rows} eigenvalues, above the {SPECTRUM_MAX_ROWS} "
            "rows of a spectrum"
        )
    values, rungs, ladders, counts = spectrum(params, sector_n, n_max, h0_only)

    # Each ladder eigenvalue takes the slow-model level of the rung its rank
    # connects to: on rung 1 the shifted symmetric state (ladder 0) or the
    # dark states (ladder 1), on every other rung the unshifted free level.
    # A block above the cutoff has no rung 0, whose second-order term
    # -N M g^2 / delta the closed form of delta_e1 holds; it is taken out.
    e0 = params.omega_a * (1 - nn / 2.0) + params.omega_c * (sector_n - 1)
    delta_e1, delta_ei = closed_form_corrections(params, sector_n)
    de1 = 0.0 if h0_only else delta_e1
    if sector_n > n_max and not h0_only:
        de1 += nn * sector_n * params.g**2 / params.delta
    dei = 0.0 if h0_only or delta_ei is None else delta_ei
    scale = 2.0 * abs(params.alpha)
    rows = []
    for ev, e, lo in zip(values, rungs.tolist(), ladders.tolist()):
        if e == 1:
            label, lv = ("delta_e1", e0 + de1) if lo == 0 else ("delta_ei", e0 + dei)
        else:
            label = f"free_k{e}"
            lv = params.omega_a * (e - nn / 2.0) + params.omega_c * (sector_n - e)
        row = {
            "eigenvalue_rad_s": float(ev),
            "shift_from_e0_rad_s": float(ev - e0),
            "pt_level_rad_s": lv,
            "pt_shift_rad_s": lv - e0,
            "abs_error_rad_s": float(abs(ev - lv)),
            "rel_error_vs_2alpha": float(abs(ev - lv) / scale),
        }
        for column, value in row.items():
            if not math.isfinite(value):
                raise ValueError(f"block {sector_n}: {column} is {value}")
        row["assignment"] = label
        rows.append(row)

    out_dir.mkdir(parents=True, exist_ok=True)
    serialize.write_csv(out_dir / "spectrum.csv", SPECTRUM_COLUMNS, rows, counts.tolist())
    print(f"block M={sector_n}: {n_rows} eigenvalues written")
    return 0


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------


def cmd_evolve(config: dict, out_dir: Path) -> int:
    params = _params(config)
    if config["t_final_seconds"] is None:
        times = default_trajectory_times(params, config["points"])
    else:
        times = np.linspace(0.0, config["t_final_seconds"], config["points"])

    options = config["options"]
    table = trajectory(params, config["field"], times, options["n_max"], options["excite_control"])
    out_dir.mkdir(parents=True, exist_ok=True)
    serialize.write_table(out_dir / "trajectory.csv", TRAJECTORY_COLUMNS, table)
    print(f"wrote {len(table)} trajectory samples")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


COMMANDS = {
    "protocol": "single preparation run: report JSON + trajectory CSV",
    "sweep": "parameter sweep to CSV, one row per grid point",
    "spectrum": "block eigenvalues with slow-model assignments to CSV",
    "evolve": "trajectory CSV without the phase gate",
}


def _build_parser():
    import argparse  # loaded only when _plain_args declines an argv or a config is refused

    parser = argparse.ArgumentParser(
        prog="subrad",
        description="Dispersive-cavity dark-state preparation simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", default=".", help="output directory (default: .)")
        if name == "sweep":
            p.add_argument("--jobs", type=int, default=1, help="no effect; sweeps run in-process")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def _plain_args(argv: list) -> dict | None:
    """The arguments of `<command> --flag value ...`, or None to leave argv to argparse.

    Takes the command, then --config (required), --out, --seed and, for
    sweep, --jobs (at least 1), each at most once and spelled out, with a
    value that does not start with '-'; the integers go through int() as
    argparse's do.  Anything else (help, abbreviations, --flag=value,
    repeats, bad integers, extra tokens) is declined, so the parser of
    _build_parser stays the one authority on usage; on what it accepts,
    the result equals vars() of that parser's namespace.
    """
    if not argv or argv[0] not in COMMANDS or len(argv) % 2 == 0:
        return None
    flags = {"--config", "--out", "--seed"}
    args = {"command": argv[0], "out": ".", "seed": None}
    if argv[0] == "sweep":
        flags.add("--jobs")
        args["jobs"] = 1
    for flag, value in zip(argv[1::2], argv[2::2]):
        if flag not in flags or not isinstance(value, str) or value.startswith("-"):
            return None
        flags.remove(flag)
        if flag in ("--seed", "--jobs"):
            try:
                value = int(value)
            except ValueError:
                return None
            if flag == "--jobs" and value < 1:
                return None
        args[flag[2:]] = value
    return None if "--config" in flags else args


def main(argv=None) -> int:
    if argv is None:
        # Called as the program (the subrad console script, python -m
        # subrad.cli): run the call, the exit handlers and the flush of
        # stdout and stderr, then end the process without the interpreter's
        # teardown, whose collections walk every object numpy and subrad
        # made.  A caller that passes argv gets the code back.
        code = main(sys.argv[1:])
        atexit._run_exitfuncs()
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        except Exception:  # a full disk, a closed pipe: left to the interpreter's exit
            return code
        os._exit(code)
    argv = list(argv)
    args = _plain_args(argv)
    if args is None:
        parser = _build_parser()
        try:
            args = vars(parser.parse_args(argv))
            if args["command"] == "sweep" and args["jobs"] < 1:
                parser.error(f"argument --jobs: must be at least 1, got {args['jobs']}")
        except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
            return 1 if exc.code else 0
    try:
        config = _load_config(args["config"])
        seed = args["seed"]
        if seed is not None:
            config = {**config, "seed": seed, "raw": {**config["raw"], "seed": seed}}
        out_dir = Path(args["out"])
        command = args["command"]
        # Overflow and the like are not warned about: every command refuses a
        # non-finite result with its own error.
        with np.errstate(all="ignore"):
            if command == "protocol":
                return cmd_protocol(config, out_dir)
            if command == "sweep":
                return cmd_sweep(config, out_dir)
            if command == "spectrum":
                return cmd_spectrum(config, out_dir)
            if command == "evolve":
                return cmd_evolve(config, out_dir)
        raise AssertionError("unreachable")
    except ConfigError as exc:
        _build_parser().print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NoSubradiantSectorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
