"""Command-line front end: single runs, sweeps, spectra and trajectories.

Configs are JSON with frequencies quoted as cycles per second over 2 pi
(g_over_2pi_hz etc.), matching how cavity experiments report parameters;
everything is converted to rad/s internally.  Exactly one of delta_over_g
or the (omega_a_over_2pi_hz, omega_c_over_2pi_hz) pair selects the frame:
the ratio form works in the atomic rotating frame where only the detuning
matters.

Exit codes: 0 success, 2 validity refusal (smallness parameter over 0.3
without allow_invalid), 1 anything else.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import serialize
# compile_propagator is re-exported for code that imports it from this module
from .dynamics import TRAJECTORY_COLUMNS, compile_propagator, default_trajectory_times  # noqa: F401
from .fields import FieldSpec
from .model import SystemParams
from .perturb import closed_form_corrections, validity_parameter, validity_grade
from .protocol import NoSubradiantSectorError, ProtocolOptions, fock_components, run

TWO_PI = 2.0 * math.pi


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
    "options": frozenset({"tm_branch", "phi_override", "n_max", "pt_times", "excite_control"}),
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


def _field(obj) -> FieldSpec:
    """The field section, with its integer and float keys checked."""
    kind = obj.get("kind") if isinstance(obj, dict) else None
    _known(obj, FIELD_KEYS.get(kind, frozenset({"kind"})), "field")
    number = _integer if kind == "fock" else _real
    return FieldSpec.from_json(
        {k: v if k == "kind" else number(v, f"field.{k}") for k, v in obj.items()}
    )


@dataclass(frozen=True)
class RunConfig:
    """Parsed run configuration; see README for the JSON schema."""

    n_atoms: int
    g_over_2pi_hz: float
    delta_over_g: float | None
    omega_a_over_2pi_hz: float | None
    omega_c_over_2pi_hz: float | None
    field: FieldSpec
    options: ProtocolOptions
    allow_invalid: bool
    seed: int | None
    points: int  # trajectory samples for protocol and evolve
    t_final_seconds: float | None  # evolve span; None = one slow period
    spectrum_block: int
    h0_only: bool  # spectrum of the free Hamiltonian alone
    raw: dict

    @classmethod
    def from_json(cls, obj: dict) -> "RunConfig":
        _known(obj, TOP_KEYS, "the config")
        sections = {k: _known(obj.get(k, {}), keys, k) for k, keys in SECTION_KEYS.items()}
        try:
            n_atoms = _integer(obj["n_atoms"], "n_atoms")
            g_hz = _real(obj["g_over_2pi_hz"], "g_over_2pi_hz")
        except KeyError as exc:
            raise ConfigError(f"config is missing required key {exc}") from exc
        if g_hz <= 0:
            raise ConfigError(f"g_over_2pi_hz must be positive, got {g_hz}")

        ratio = obj.get("delta_over_g")
        oa = obj.get("omega_a_over_2pi_hz")
        oc = obj.get("omega_c_over_2pi_hz")
        has_pair = oa is not None or oc is not None
        if (ratio is None) == (not has_pair):
            raise ConfigError(
                "supply exactly one of delta_over_g or the "
                "omega_a_over_2pi_hz/omega_c_over_2pi_hz pair"
            )
        if has_pair:
            if oa is None or oc is None:
                raise ConfigError("the omega pair needs both omega_a and omega_c")
            oa = _real(oa, "omega_a_over_2pi_hz")
            oc = _real(oc, "omega_c_over_2pi_hz")
            if oa <= 0 or oc <= 0:
                raise ConfigError("omega_*_over_2pi_hz must be positive")
        else:
            ratio = _real(ratio, "delta_over_g")

        field = _field(obj.get("field", {"kind": "fock", "n": 0}))

        opt = sections["options"]
        seed = obj.get("seed")
        seed = seed if seed is None else _integer(seed, "seed")
        n_max = opt.get("n_max")
        phi = opt.get("phi_override")
        pt_times = _integer(opt.get("pt_times", 101), "options.pt_times")
        if pt_times < 1:
            raise ConfigError(f"options.pt_times must be at least 1, got {pt_times}")
        options = ProtocolOptions(
            n_max=n_max if n_max is None else _integer(n_max, "options.n_max"),
            tm_branch=_integer(opt.get("tm_branch", 0), "options.tm_branch"),
            phi_override=phi if phi is None else _real(phi, "options.phi_override"),
            excite_control=_boolean(opt.get("excite_control", True), "options.excite_control"),
            pt_times=pt_times,
            seed=seed,
        )

        evolve = sections["evolve"]
        points = _integer(evolve.get("points", 400), "evolve.points")
        if points < 1:
            raise ConfigError(f"evolve.points must be at least 1, got {points}")
        t_final = evolve.get("t_final_seconds")
        spectrum = sections["spectrum"]
        if "block" in spectrum:
            block = _integer(spectrum["block"], "spectrum.block")
        else:
            block = _integer(spectrum.get("photons", 0), "spectrum.photons") + 1
        return cls(
            n_atoms=n_atoms,
            g_over_2pi_hz=g_hz,
            delta_over_g=ratio,
            omega_a_over_2pi_hz=oa if has_pair else None,
            omega_c_over_2pi_hz=oc if has_pair else None,
            field=field,
            options=options,
            allow_invalid=_boolean(obj.get("allow_invalid", False), "allow_invalid"),
            seed=seed,
            points=points,
            t_final_seconds=t_final if t_final is None else _real(t_final, "evolve.t_final_seconds"),
            spectrum_block=block,
            h0_only=_boolean(spectrum.get("h0_only", False), "spectrum.h0_only"),
            raw=obj,
        )

    def params(self) -> SystemParams:
        g = TWO_PI * self.g_over_2pi_hz
        if self.delta_over_g is not None:
            return SystemParams.from_detuning_ratio(self.n_atoms, g, self.delta_over_g)
        return SystemParams(
            n_atoms=self.n_atoms,
            omega_a=TWO_PI * self.omega_a_over_2pi_hz,
            omega_c=TWO_PI * self.omega_c_over_2pi_hz,
            g=g,
        )


def _load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return RunConfig.from_json(obj)


def _trajectory(config: RunConfig, params: SystemParams, times: np.ndarray) -> list[dict]:
    """Trajectory rows from the initial state that protocol.run prepares.

    Every column is the weighted sum over the field's Fock components,
    which is the exact mixture average for every field kind.
    """
    from .reduced import trajectory_rows  # imported on first use; see its docstring

    n_max, components = fock_components(params, config.field, config.options)
    return trajectory_rows(params, n_max, components, config.options.excite_control, times)


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------


def cmd_protocol(config: RunConfig, out_dir: Path) -> int:
    params = config.params()
    validity = validity_parameter(params, config.field.mean_n)
    if validity_grade(validity) == "invalid" and not config.allow_invalid:
        print(
            f"refusing: validity parameter {validity:.3f} >= 0.3 "
            "(set allow_invalid to force the run)",
            file=sys.stderr,
        )
        return 2

    report = run(params, config.field, config.options)
    out_dir.mkdir(parents=True, exist_ok=True)
    serialize.dump_json(
        {"config": config.raw, "report": report.to_dict()}, out_dir / "report.json"
    )

    rows = _trajectory(config, params, default_trajectory_times(params, config.points))
    serialize.write_csv(out_dir / "trajectory.csv", TRAJECTORY_COLUMNS, rows)
    print(
        f"t_m = {report.t_m_microseconds:.6g} us, "
        f"fidelity = {report.fidelity_subradiant:.6f}, "
        f"dark-subspace weight = {report.dfs_weight:.6f}"
    )
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

SWEEP_AXES = ("N", "delta_ratio", "mean_n")

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


def _point_config(raw: dict, axis: str, value: float) -> dict:
    cfg = json.loads(json.dumps(raw))  # deep copy
    cfg.pop("sweep", None)
    if axis == "N":
        if value != int(value):
            raise ConfigError(f"atom count must be an integer, got {value}")
        cfg["n_atoms"] = int(value)
    elif axis == "delta_ratio":
        if cfg.get("delta_over_g") is None:
            raise ConfigError("delta_ratio sweeps need a delta_over_g style config")
        cfg["delta_over_g"] = value
    elif axis == "mean_n":
        field = dict(cfg.get("field", {"kind": "fock", "n": 0}))
        if field["kind"] == "fock":
            if value != int(value):
                raise ConfigError(f"Fock sweep values must be integers, got {value}")
            field["n"] = int(value)
        elif field["kind"] == "coherent":
            field["amplitude_re"] = math.sqrt(value)
            field["amplitude_im"] = 0.0
        else:
            field["mean_n"] = value
        cfg["field"] = field
    else:
        raise ConfigError(f"sweep axis must be one of {SWEEP_AXES}, got {axis!r}")
    return cfg


def _sweep_point(task: tuple[int, str, float, str]) -> dict:
    idx, axis, value, cfg_json = task
    row = {
        "point": idx,
        "axis": axis,
        "value": value,
        "error": "",
    }
    try:
        config = RunConfig.from_json(json.loads(cfg_json))
        params = config.params()
        report = run(params, config.field, config.options)
        row.update(
            n_atoms=params.n_atoms,
            delta_over_g=params.delta / params.g,
            g_over_2pi_hz=config.g_over_2pi_hz,
            field_kind=config.field.kind,
            field_mean_n=config.field.mean_n,
            alpha_per_s=report.alpha_per_s,
            t_m_seconds=report.t_m_seconds,
            phi_radians=report.phi_radians,
            fidelity_subradiant=report.fidelity_subradiant,
            dfs_weight=report.dfs_weight,
            pt_coefficient_error=report.pt_coefficient_error,
            emission_expectation=report.emission_expectation,
            validity=report.validity,
            validity_grade=report.validity_grade,
        )
    except Exception as exc:  # per-point failures stay in-row
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def cmd_sweep(config: RunConfig, out_dir: Path, jobs: int = 1) -> int:
    sweep = config.raw.get("sweep")
    if not sweep or "axis" not in sweep or not sweep.get("values"):
        raise ConfigError('sweep runs need config["sweep"] = {"axis": ..., "values": [...]}')
    axis = sweep["axis"]
    values = list(sweep["values"])
    tasks = []
    for i, v in enumerate(values):
        v = _real(v, "sweep.values")
        tasks.append((i, axis, v, json.dumps(_point_config(config.raw, axis, v))))

    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_point, tasks))
    else:
        rows = [_sweep_point(t) for t in tasks]
    rows.sort(key=lambda r: r["point"])

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


def cmd_spectrum(config: RunConfig, out_dir: Path) -> int:
    from .reduced import spectrum  # imported on first use; see its docstring

    params = config.params()
    nn = params.n_atoms
    sector_n = config.spectrum_block
    h0_only = config.h0_only

    n_max = config.options.n_max
    if n_max is None:
        n_max = sector_n + nn + 4
    if not 0 <= sector_n <= nn + n_max:
        raise ConfigError(f"block {sector_n} out of range for this basis")

    # Free levels of the block: e excited atoms and M - e photons, comb(N, e) states each.
    free = {
        e: params.omega_a * (e - nn / 2.0) + params.omega_c * (sector_n - e)
        for e in range(nn + 1)
        if 0 <= sector_n - e <= n_max
    }
    n_rows = sum(math.comb(nn, e) for e in free)
    if n_rows > SPECTRUM_MAX_ROWS:
        raise ConfigError(
            f"block {sector_n} has {n_rows} eigenvalues, above the {SPECTRUM_MAX_ROWS} "
            "rows of a spectrum"
        )
    eigenvalues = spectrum(params, sector_n, n_max, h0_only)

    # Slow-model level set: shifted degenerate sector plus unshifted free
    # levels, as (value, label, count) in ascending order.
    e0 = float(
        params.omega_a * (1 - nn / 2.0) + params.omega_c * (sector_n - 1)
    )
    corrections = closed_form_corrections(params, sector_n)
    de1 = 0.0 if h0_only else corrections.delta_e1
    dei = 0.0 if h0_only or corrections.delta_ei is None else corrections.delta_ei
    levels = [(e0 + de1, "delta_e1", 1), (e0 + dei, "delta_ei", nn - 1)]
    for val in sorted(set(free.values())):
        if abs(val - e0) > 1e-9 * max(abs(e0), abs(params.delta)):
            k = 1 + round((e0 - val) / params.delta)  # E(k) = E0 - (k-1) delta
            count = sum(math.comb(nn, e) for e, v in free.items() if abs(v - val) < 1e-6)
            levels.append((val, f"free_k{k}", count))
    levels.sort(key=lambda lv: lv[0])

    scale = 2.0 * abs(params.alpha)
    values = np.array([lv for lv, _, _ in levels])
    left = np.array([count for _, _, count in levels])
    rows = []
    for i, ev in enumerate(eigenvalues):
        # first minimum among untaken levels
        best = int(np.argmin(np.where(left > 0, np.abs(ev - values), math.inf)))
        left[best] -= 1
        lv, label, _ = levels[best]
        rows.append(
            {
                "index": i,
                "eigenvalue_rad_s": float(ev),
                "shift_from_e0_rad_s": float(ev - e0),
                "pt_level_rad_s": lv,
                "pt_shift_rad_s": lv - e0,
                "abs_error_rad_s": float(abs(ev - lv)),
                "rel_error_vs_2alpha": float(abs(ev - lv) / scale),
                "assignment": label,
            }
        )

    out_dir.mkdir(parents=True, exist_ok=True)
    serialize.write_csv(out_dir / "spectrum.csv", SPECTRUM_COLUMNS, rows)
    print(f"block M={sector_n}: {len(rows)} eigenvalues written")
    return 0


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------


def cmd_evolve(config: RunConfig, out_dir: Path) -> int:
    params = config.params()
    if config.t_final_seconds is None:
        times = default_trajectory_times(params, config.points)
    else:
        times = np.linspace(0.0, config.t_final_seconds, config.points)

    rows = _trajectory(config, params, times)
    out_dir.mkdir(parents=True, exist_ok=True)
    serialize.write_csv(out_dir / "trajectory.csv", TRAJECTORY_COLUMNS, rows)
    print(f"wrote {len(rows)} trajectory samples")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subrad",
        description="Dispersive-cavity dark-state preparation simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("protocol", "single preparation run: report JSON + trajectory CSV"),
        ("sweep", "parameter sweep to CSV, one row per grid point"),
        ("spectrum", "block eigenvalues with slow-model assignments to CSV"),
        ("evolve", "trajectory CSV without the phase gate"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", default=".", help="output directory (default: .)")
        p.add_argument("--jobs", type=int, default=1, help="sweep worker processes")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        if args.seed is not None:
            raw = dict(config.raw)
            raw["seed"] = args.seed
            config = RunConfig.from_json(raw)
        out_dir = Path(args.out)
        if args.command == "protocol":
            return cmd_protocol(config, out_dir)
        if args.command == "sweep":
            return cmd_sweep(config, out_dir, jobs=args.jobs)
        if args.command == "spectrum":
            return cmd_spectrum(config, out_dir)
        if args.command == "evolve":
            return cmd_evolve(config, out_dir)
        raise AssertionError("unreachable")
    except ConfigError as exc:
        parser.print_usage(sys.stderr)
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
