"""Spans recorded from outside the program, and the per-layer metrics they give.

The tracer replaces layer-boundary functions of the ``gridres`` modules with
wrappers that record a span per call.  A wrapper goes on every module
attribute that holds the original function, because callers look functions up
by the name they imported (``gridres.dispatch.solve`` is ``gridres.lp.solve``
imported into ``dispatch``).  Nothing inside the program changes; uninstalling
puts every original back.

Spans are kept in memory as ``[name, start, end, parent, op, attrs]`` rows and
written once, when the run ends.  A layer's self time is its span's duration
minus the part of that interval covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

# The self times of the spans inside an operation must sum to the operation's
# duration within this share; a larger gap means spans nest wrongly.
SELF_SUM_TOL = 1e-3


def _lp_attrs(args, kwargs, result) -> dict:
    lp = args[0] if args else kwargs["lp"]
    nnz = sum(len(row.coeffs) for row in lp.rows)
    slacks = sum(1 for row in lp.rows if row.rel.value != "=")
    return {
        "rows": lp.n_rows,
        "cols": lp.n_variables,
        "nnz": nnz,
        "tableau_bytes": lp.n_rows * (lp.n_variables + slacks) * 8,
        "iterations": int(result.iterations),
    }


def _write_attrs(args, kwargs, result) -> dict:
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


# Layer boundaries: (module, function, hook returning span attributes).
WRAPPED = [
    ("cli", "main", None),
    ("scenario", "load_scenario", None),
    ("scenario", "write_csv", _write_attrs),
    ("scenario", "write_json", _write_attrs),
    ("network", "synth_feeder", None),
    ("network", "validate", None),
    ("constraints", "build_namespace", None),
    ("constraints", "emit_voltage_drop", None),
    ("constraints", "emit_power_balance", None),
    ("constraints", "emit_limits", None),
    ("constraints", "apply_emissions", None),
    ("constraints", "solve_linear_flow", None),
    ("dispatch", "solve_baseline", None),
    ("dispatch", "build_baseline_lp", None),
    ("dispatch", "extract_result", None),
    ("robust", "solve_robust", None),
    ("robust", "build_robust_lp", None),
    ("robust", "tighten", None),
    ("lp", "solve", _lp_attrs),
    ("lp", "check_feasibility", None),
    ("advset", "characterize", None),
    ("advset", "build_recourse_lp", None),
    ("advset", "contains", None),
    ("sim", "run_simulation", None),
    ("sim", "events_from_polytopes", None),
    ("sim", "violation_report", None),
]

# Per-layer time metrics: the summed self time of these spans, in seconds.
SELF_TIME = {
    "lp.solve_s": ("lp.solve",),
    "lp.check_s": ("lp.check_feasibility",),
    "constraints.emit_s": (
        "constraints.build_namespace", "constraints.emit_voltage_drop",
        "constraints.emit_power_balance", "constraints.emit_limits",
        "constraints.apply_emissions",
    ),
    "dispatch.build_s": ("dispatch.build_baseline_lp",),
    "robust.build_s": ("robust.build_robust_lp", "robust.tighten"),
    "dispatch.extract_s": ("dispatch.extract_result",),
    "advset.build_s": ("advset.build_recourse_lp",),
    "advset.contains_s": ("advset.contains",),
    "sim.run_s": ("sim.run_simulation",),
    "constraints.flow_s": ("constraints.solve_linear_flow",),
    "sim.sample_s": ("sim.events_from_polytopes",),
    "sim.report_s": ("sim.violation_report",),
    "scenario.write_s": ("scenario.write_csv", "scenario.write_json"),
}
CALLS = {
    "lp.solve_calls": "lp.solve",
    "advset.contains_calls": "advset.contains",
    "sim.runs": "sim.run_simulation",
    "constraints.flow_calls": "constraints.solve_linear_flow",
}
# Taken from the traced set-up operations rather than from the passes.
SETUP_SELF_TIME = {
    "scenario.load_s": ("scenario.load_scenario",),
    "network.synth_s": ("network.synth_feeder",),
    "network.validate_s": ("network.validate",),
}

MIB = 2.0**20
GIB = 2.0**30


class Tracer:
    """Records spans of the calls made while an operation is open."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.ops: list[dict] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), math.nan, parent, len(self.ops) - 1, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, kind: str, pass_index: int):
        """An operation span; spans opened inside it carry its id."""
        if self._stack:
            raise RuntimeError("operations do not nest")
        self.ops.append({"kind": kind, "pass": pass_index, "span": len(self.spans)})
        idx = self._open(f"op.{kind}")
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:  # outside an operation: not traced
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                self.spans[idx][5] = hook(args, kwargs, result)
            return result

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "gridres" or n.startswith("gridres.")]
        for mod_name, fn_name, hook in WRAPPED:
            mod = importlib.import_module(f"gridres.{mod_name}")
            original = getattr(mod, fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, hook)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._restore.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._restore):
            setattr(m, attr, original)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Duration of each span minus the union of its children's intervals."""
        children: dict[int, list[int]] = {}
        for i, span in enumerate(self.spans):
            if span[3] >= 0:
                children.setdefault(span[3], []).append(i)
        out = []
        for i, (_name, start, end, _parent, _op, _attrs) in enumerate(self.spans):
            covered = 0.0
            cursor = start
            for c in sorted(children.get(i, ()), key=lambda c: self.spans[c][1]):
                lo = max(self.spans[c][1], cursor)
                hi = min(self.spans[c][2], end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append((end - start) - covered)
        return out

    def self_sum_error(self) -> float:
        """Largest relative gap between an operation's duration and the sum
        of the self times of all spans inside it (its own included)."""
        selfs = self.self_times()
        per_op = [0.0] * len(self.ops)
        for span, s in zip(self.spans, selfs):
            if span[4] >= 0:
                per_op[span[4]] += s
        worst = 0.0
        for op_id, op in enumerate(self.ops):
            root = self.spans[op["span"]]
            duration = root[2] - root[1]
            if duration > 0:
                worst = max(worst, abs(per_op[op_id] - duration) / duration)
        return worst

    def layer_metrics(self, pass_index: int, setup: bool = False) -> dict[str, float]:
        """Per-layer metrics over the spans of one pass, or of one round of
        set-up operations."""
        selfs = self.self_times()
        ops = {i for i, op in enumerate(self.ops)
               if (op["kind"] == "setup") == setup and op["pass"] == pass_index}
        chosen = [(s, t) for s, t in zip(self.spans, selfs) if s[4] in ops]
        if setup:
            return {metric: sum(t for s, t in chosen if s[0] in names)
                    for metric, names in SETUP_SELF_TIME.items()}

        out = {metric: sum(t for s, t in chosen if s[0] in names)
               for metric, names in SELF_TIME.items()}
        for metric, name in CALLS.items():
            out[metric] = sum(1 for s, _t in chosen if s[0] == name)
        solves = [s for s, _t in chosen if s[0] == "lp.solve"]
        out["lp.iterations"] = sum(s[5]["iterations"] for s in solves)
        out["lp.ms_per_iter"] = (1000.0 * out["lp.solve_s"] / out["lp.iterations"]
                                 if out["lp.iterations"] else 0.0)
        largest = max(solves, key=lambda s: s[5]["tableau_bytes"], default=None)
        for key in ("rows", "cols", "nnz"):
            out[f"lp.{key}"] = largest[5][key] if largest else 0
        out["lp.tableau_mb"] = largest[5]["tableau_bytes"] / MIB if largest else 0.0
        out["lp.bytes_moved_gb"] = sum(
            2 * s[5]["tableau_bytes"] * s[5]["iterations"] for s in solves) / GIB
        characterize = {i for i, s in enumerate(self.spans) if s[0] == "advset.characterize"}
        out["advset.lp_count"] = sum(1 for s in solves if s[3] in characterize)
        out["scenario.write_bytes"] = sum(
            s[5]["bytes"] for s, _t in chosen if s[0].startswith("scenario.write_"))
        return out

    def dump(self, path: Path) -> None:
        doc = {
            "columns": ["name", "start", "end", "parent", "op", "attrs"],
            "ops": self.ops,
            "spans": self.spans,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over passes."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
