"""Timing spans around subrad's public functions, installed from outside.

`install` wraps every public module-level function of every `subrad.*`
module (except the per-element helpers in UNTRACED), `FieldSpec.components`, and `numpy.linalg.eigh`/`eigvalsh`, and
rebinds every module-level reference to them: `cli`, `protocol` and
`perturb` import functions by name, so rebinding only the defining module
would miss their calls.  A span is named `<module>.<function>` (`linalg.*`
for numpy), so the module is the layer.

Spans stay in memory and are appended to `spans-<pid>.jsonl` in the output
directory whenever a process's outermost span ends.  Sweep workers are
forked and exit without running `atexit`, so this per-span flush is what
gets their time into the trace.  `summarize` turns the span files into the
per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
import types
from pathlib import Path

# Per-element helpers, called up to ~10^6 times per command.  A span costs
# more than such a call (tracing them made protocol_fock 8x slower), so their
# time is left in their callers' self time.
UNTRACED = frozenset(
    {
        "hilbert.atom_code",
        "hilbert.config_excitations",
        "dynamics.single_excitation_amplitudes",
        "serialize.format_float",
    }
)

# Sizes computed per call: span name -> (key, argument name or None for the
# return value, function of that value).
MEASURES = {
    "dynamics.evolve": ("amps", "state", lambda st: sum(len(v) for v in st.block_amps.values())),
    "linalg.eigh": ("n3", "a", lambda a: a.shape[-1] ** 3),
    "linalg.eigvalsh": ("n3", "a", lambda a: a.shape[-1] ** 3),
    "hilbert.build_basis": ("dim", None, lambda basis: basis.dim),
    "fields.components": ("n", None, len),
    "serialize.write_csv": ("bytes", "path", os.path.getsize),
    "serialize.dump_json": ("bytes", "path", os.path.getsize),
}


class Tracer:
    """Per-process span recorder; a forked child starts with an empty stack."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.next_id = 0
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.spans, self.stack = [], []

    def flush(self) -> None:
        if not self.spans:
            return
        path = self.out_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []

    def wrap(self, name: str, fn):
        measure = MEASURES.get(name)
        signature = inspect.signature(fn) if measure else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self.next_id
            self.next_id += 1
            parent = self.stack[-1] if self.stack else None
            self.stack.append(span_id)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self.stack.pop()
            extra = {}
            if measure:
                key, param, size = measure
                value = signature.bind(*args, **kwargs).arguments[param] if param else result
                extra[key] = size(value)
            self.spans.append((span_id, parent, name, t0, t1, extra))
            if not self.stack:
                self.flush()
            return result

        return traced


def subrad_modules() -> list[types.ModuleType]:
    return [m for n, m in sorted(sys.modules.items()) if n.startswith("subrad.")]


def traced_functions() -> dict[types.FunctionType, str]:
    """Public module-level functions of subrad except UNTRACED, with span names."""
    out = {}
    for mod in subrad_modules():
        layer = mod.__name__.split(".", 1)[1]
        for attr, obj in vars(mod).items():
            name = f"{layer}.{attr}"
            if (
                isinstance(obj, types.FunctionType)
                and not attr.startswith("_")
                and obj.__module__ == mod.__name__
                and name not in UNTRACED
            ):
                out[obj] = name
    return out


def install(tracer: Tracer) -> set:
    """Wrap and rebind; return the original functions now traced."""
    import numpy as np

    import subrad.cli  # noqa: F401  (imports every subrad module)
    from subrad.fields import FieldSpec

    originals = traced_functions()
    wrappers = {fn: tracer.wrap(name, fn) for fn, name in originals.items()}
    for mod in [sys.modules["subrad"], *subrad_modules()]:
        for attr, obj in list(vars(mod).items()):
            if isinstance(obj, types.FunctionType) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
    FieldSpec.components = tracer.wrap("fields.components", FieldSpec.components)
    np.linalg.eigh = tracer.wrap("linalg.eigh", np.linalg.eigh)
    np.linalg.eigvalsh = tracer.wrap("linalg.eigvalsh", np.linalg.eigvalsh)
    return set(originals)


def unwrapped_references(originals: set) -> list[str]:
    """Module attributes in subrad.* that still point at an unwrapped original."""
    return [
        f"{mod.__name__}.{attr}"
        for mod in [sys.modules["subrad"], *subrad_modules()]
        for attr, obj in vars(mod).items()
        if isinstance(obj, types.FunctionType) and obj in originals
    ]


# ---------------------------------------------------------------------------
# Span files -> per-layer metrics
# ---------------------------------------------------------------------------

LAYERS = ("cli", "protocol", "fields", "hilbert", "model", "dynamics", "perturb", "serialize", "linalg")

# (span name, statistic, unit): statistic is calls, self_s or a MEASURES key + "_sum".
SPAN_METRICS = (
    ("dynamics.marginal_projected_weight", "calls", "count"),
    ("dynamics.marginal_projected_weight", "self_s", "s"),
    ("dynamics.sector_weights", "calls", "count"),
    ("dynamics.sector_weights", "self_s", "s"),
    ("dynamics.evolve", "calls", "count"),
    ("dynamics.evolve", "self_s", "s"),
    ("dynamics.evolve", "amps_sum", "count"),
    ("dynamics.trajectory_rows", "self_s", "s"),
    ("dynamics.compile_propagator", "calls", "count"),
    ("dynamics.compile_propagator", "self_s", "s"),
    ("linalg.eigh", "calls", "count"),
    ("linalg.eigh", "self_s", "s"),
    ("linalg.eigh", "n3_sum", "count"),
    ("linalg.eigvalsh", "self_s", "s"),
    ("linalg.eigvalsh", "n3_sum", "count"),
    ("cli.cmd_spectrum", "self_s", "s"),
    ("hilbert.build_basis", "calls", "count"),
    ("hilbert.build_basis", "self_s", "s"),
    ("hilbert.build_basis", "dim_sum", "count"),
    ("model.build_hamiltonian", "calls", "count"),
    ("model.build_hamiltonian", "self_s", "s"),
    ("model.collective_operator", "calls", "count"),
    ("model.collective_operator", "self_s", "s"),
    ("perturb.exact_vs_effective_error", "calls", "count"),
    ("perturb.exact_vs_effective_error", "self_s", "s"),
    ("protocol.run", "calls", "count"),
    ("protocol.run", "self_s", "s"),
    ("protocol.phase_gate", "self_s", "s"),
    ("protocol.dfs_weight", "self_s", "s"),
    ("cli.cmd_sweep", "self_s", "s"),
    ("serialize.write_csv", "self_s", "s"),
    ("serialize.write_csv", "bytes_sum", "bytes"),
    ("serialize.dump_json", "self_s", "s"),
    ("serialize.dump_json", "bytes_sum", "bytes"),
    ("fields.components", "n_sum", "count"),
)


def _metric_name(span: str, stat: str) -> str:
    if stat in ("bytes_sum", "n_sum"):
        stat = stat.removesuffix("_sum")
    return f"{span}.{stat}"


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {_metric_name(s, stat): unit for s, stat, unit in SPAN_METRICS}
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update(
        {
            "cli.sweep.worker_busy_s": "s",
            "cli.sweep.capacity_s": "s",
            "cli.sweep.parallel_efficiency": "ratio",
            "trace.coverage": "ratio",
            "trace.overhead_s": "s",
        }
    )
    return units


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def summarize(spans_dir: Path, jobs: int) -> dict[str, float]:
    """Per-layer metrics (all but trace.overhead_s) from one traced call.

    Self time is a span's duration minus its children's.  trace.coverage is
    the share of cli.main's interval covered by spans outside the cli layer,
    in any process; parallel_efficiency is the busy time of worker root spans
    over its base, capacity_s = jobs * cmd_sweep wall time.
    """
    by_pid: dict[str, list] = {}
    for path in sorted(Path(spans_dir).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            by_pid[path.stem] = [json.loads(line) for line in fh]
    roots = [s for spans in by_pid.values() for s in spans if s[2] == "cli.main"]
    if len(roots) != 1:
        raise ValueError(f"expected one cli.main span, found {len(roots)}")
    main = roots[0]

    stats: dict[str, dict[str, float]] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    worker_busy = 0.0
    library = []  # intervals of spans outside the cli layer, every process
    for spans in by_pid.values():
        child_time: dict[int, float] = {}
        for span_id, parent, name, t0, t1, extra in spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
        is_main = main in spans
        for span_id, parent, name, t0, t1, extra in spans:
            self_s = (t1 - t0) - child_time.get(span_id, 0.0)
            st = stats.setdefault(name, {"calls": 0, "self_s": 0.0})
            st["calls"] += 1
            st["self_s"] += self_s
            for key, value in extra.items():
                st[f"{key}_sum"] = st.get(f"{key}_sum", 0) + value
            layer_self[name.split(".", 1)[0]] += self_s
            if not name.startswith("cli."):
                library.append((t0, t1))
            if parent is None and not is_main:
                worker_busy += t1 - t0

    out: dict[str, float] = {}
    for span, stat, _unit in SPAN_METRICS:
        out[_metric_name(span, stat)] = stats.get(span, {}).get(stat, 0)
    out.update({f"{layer}.self_s": value for layer, value in layer_self.items()})
    sweep = [s for spans in by_pid.values() for s in spans if s[2] == "cli.cmd_sweep"]
    capacity = jobs * (sweep[0][4] - sweep[0][3]) if sweep else 0.0
    out["cli.sweep.worker_busy_s"] = worker_busy
    out["cli.sweep.capacity_s"] = capacity
    out["cli.sweep.parallel_efficiency"] = worker_busy / capacity if capacity else 0.0
    main_t0, main_t1 = main[3], main[4]
    out["trace.coverage"] = _union_length(library, main_t0, main_t1) / (main_t1 - main_t0)
    return out
