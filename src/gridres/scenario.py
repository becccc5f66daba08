"""Scenario files: one JSON document that drives every pipeline stage.

A scenario names the network (an inline synthetic recipe or file references),
cost weights, solver knobs, the uncertainty box, adversarial axes, the event
timeline, and a single seed that governs all randomness.  Seeds are split
into named streams through ``numpy.random.SeedSequence(entropy=seed,
spawn_key=(stream,))``: stream 0 builds synthetic feeders, stream 2 draws
polytope samples, stream 3 draws per-step event samples.

Output files are written with deterministic ordering and repr-exact floats so
re-runs with equal inputs are byte-identical; the run manifest (which records
wall-clock timing) is the one deliberately non-reproducible artifact.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .advset import AdversarialAxis, validate_axes
from .constraints import (
    BuildOptions,
    P_DG_CAPACITY,
    P_PV_FORECAST,
    PARAM_CLASS,
    device_groups,
)
from .dispatch import CostConfig
from .lp import SolverOptions
from .network import NetworkModel, SynthSpec, load_model, synth_feeder, validate
from .robust import ReserveCosts, UncertaintyBox
from .sim import Event, EventTimeline

SCHEMA_VERSION = 1


class ScenarioError(ValueError):
    """A scenario file is malformed; the message names the offending field."""


@dataclass
class Scenario:
    name: str
    seed: int
    model: NetworkModel
    costs: CostConfig
    reserve_costs: ReserveCosts
    solver: SolverOptions
    build: BuildOptions
    box: UncertaintyBox
    axes: list[AdversarialAxis]
    advset_steps: list[int]
    timeline: EventTimeline

    @property
    def has_box(self) -> bool:
        return bool(self.box.entries)


def _require(doc: dict, key: str, context: str):
    if not isinstance(doc, dict):
        raise ScenarioError(f"{context}: expected a JSON object, got {doc!r}")
    if key not in doc:
        raise ScenarioError(f"{context}: missing required field {key!r}")
    return doc[key]


def _number(value, context: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ScenarioError(f"{context}: expected a number, got {value!r}") from None


def _integer(value, context: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ScenarioError(f"{context}: expected an integer, got {value!r}") from None


def _identifier(doc: dict, key: str, context: str) -> str:
    """The required string field `doc[key]`: a kind or an entity id."""
    value = _require(doc, key, context)
    if not isinstance(value, str):
        raise ScenarioError(f"{context}.{key}: expected a string, got {value!r}")
    return value


def _optional_number(value, context: str) -> float | None:
    return None if value is None else _number(value, context)


def _as_is(value, context: str):
    return value


def _section(doc: dict, key: str, convert: dict) -> dict:
    """The fields the scenario gives in the object `doc[key]`, each passed
    through its converter; absent fields are left to the dataclass defaults."""
    block = doc.get(key)
    if block is None:
        return {}
    if not isinstance(block, dict):
        raise ScenarioError(f"{key}: expected a JSON object, got {block!r}")
    for name in sorted(set(block) - set(convert)):
        raise ScenarioError(f"{key}: unknown field {name!r} = {block[name]!r}; "
                            f"expected one of {', '.join(convert)}")
    return {name: convert[name](value, f"{key}.{name}") for name, value in block.items()}


def _array(doc: dict, key: str, default=()) -> list:
    value = doc.get(key, default)
    if not isinstance(value, (list, tuple, range)):
        raise ScenarioError(f"{key}: expected a JSON array, got {value!r}")
    return value


def _nominal_of(unit, param: str, step: int) -> float:
    if param == P_DG_CAPACITY:
        return unit.capacity_va
    if param == P_PV_FORECAST:
        return float(unit.forecast_w[step])
    return float(unit.desired_w[step])


def _parse_box(doc: list, model: NetworkModel) -> UncertaintyBox:
    units = {cls: {u.id: u for u in group} for cls, group in device_groups(model)}
    box = UncertaintyBox()
    for i, entry in enumerate(doc):
        ctx = f"uncertainty[{i}]"
        param = _identifier(entry, "parameter", ctx)
        if param not in PARAM_CLASS:
            raise ScenarioError(f"{ctx}: unknown parameter {param!r}")
        cls = PARAM_CLASS[param]
        entity = _identifier(entry, "entity", ctx)
        if entity not in units[cls]:
            raise ScenarioError(f"{ctx}: unknown {cls} entity {entity!r}")
        try:
            a, b = (int(k) for k in _require(entry, "steps", ctx))
        except (TypeError, ValueError) as err:
            raise ScenarioError(f"{ctx}: steps: {err}") from err
        if not 0 <= a <= b <= model.steps:
            raise ScenarioError(f"{ctx}: steps [{a}, {b}) outside the horizon "
                                f"of {model.steps} steps")
        bound = {key: _number(value, f"{ctx}: {key}") for key, value in entry.items()
                 if key.startswith(("low_", "high_"))}
        for k in range(a, b):
            nom = _nominal_of(units[cls][entity], param, k)
            lo = hi = nom
            if "low_w" in bound:
                lo = bound["low_w"]
            if "low_scale" in bound:
                lo = nom * bound["low_scale"]
            if "low_sub_w" in bound:
                lo = nom - bound["low_sub_w"]
            if "high_w" in bound:
                hi = bound["high_w"]
            if "high_scale" in bound:
                hi = nom * bound["high_scale"]
            if "high_add_w" in bound:
                hi = nom + bound["high_add_w"]
            try:
                box.add(param, entity, k, lo, nom, hi)
            except ValueError as err:
                raise ScenarioError(f"{ctx}: {err}") from err
    return box


def load_scenario(path, seed_override: int | None = None,
                  poly_sides: int | None = None,
                  feas_tol: float | None = None) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as err:
        raise ScenarioError(f"cannot read scenario {path}: {err}") from err
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ScenarioError(
            f"scenario {path} is not valid JSON at byte offset {err.pos}: {err.msg}"
        ) from err

    if not isinstance(doc, dict):
        raise ScenarioError(f"scenario {path}: expected a JSON object, got {doc!r}")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ScenarioError(f"schema_version: expected {SCHEMA_VERSION}, got {version!r}")
    seed = _integer(doc.get("seed", 0), "seed") if seed_override is None else int(seed_override)

    net = _require(doc, "network", "scenario")
    if not isinstance(net, dict):
        raise ScenarioError(f"network: expected a JSON object, got {net!r}")
    if "synth" in net:
        try:
            synth = dict(net["synth"])
            synth.setdefault("seed", seed)
            model = synth_feeder(SynthSpec(**synth))
        except (TypeError, ValueError) as err:
            raise ScenarioError(f"network.synth: {err}") from err
    elif "files" in net:
        network_file = _require(net["files"], "network", "network.files")
        profiles_file = _require(net["files"], "profiles", "network.files")
        try:
            model = load_model(path.parent / network_file, path.parent / profiles_file)
        except (OSError, TypeError, ValueError, KeyError) as err:
            raise ScenarioError(f"network.files: {err}") from err
    else:
        raise ScenarioError("network: needs either 'synth' or 'files'")

    report = validate(model)
    if not report.ok:
        raise ScenarioError("network failed validation: " + "; ".join(report.problems))

    costs = CostConfig(**_section(doc, "costs", dict.fromkeys(
        ("dg_energy", "pv_curtail", "load_curtail"), _number)))
    reserve_costs = ReserveCosts.from_costs(costs, **_section(
        doc, "reserve_cost_factors", dict.fromkeys(("pv", "dg", "es", "load"), _number)))

    solver_fields = {"pricing": "bland"}  # the scenario-level default
    solver_fields.update(_section(doc, "solver", {
        "backend": _as_is, "feas_tol": _number, "opt_tol": _number, "pricing": _as_is}))
    if feas_tol is not None:
        solver_fields["feas_tol"] = feas_tol
    try:
        solver = SolverOptions(**solver_fields)
    except (TypeError, ValueError) as err:
        raise ScenarioError(f"solver: {err}") from err
    build_fields = _section(doc, "build", {
        "poly_sides": _integer, "pv_power_factor_gamma": _optional_number,
        "terminal_soc_geq_initial": lambda value, _context: bool(value)})
    if poly_sides is not None:
        build_fields["poly_sides"] = poly_sides
    try:
        build = BuildOptions(**build_fields)
    except ValueError as err:
        raise ScenarioError(f"build: {err}") from err

    box = _parse_box(_array(doc, "uncertainty"), model)
    try:
        box.validate(model)
    except ValueError as err:
        raise ScenarioError(f"uncertainty: {err}") from err

    axes = []
    for i, a in enumerate(_array(doc, "axes")):
        kind = _identifier(a, "kind", f"axes[{i}]")
        entity = _identifier(a, "entity", f"axes[{i}]")
        cap_w = _optional_number(a.get("cap_w"), f"axes[{i}].cap_w")
        try:
            axes.append(AdversarialAxis(kind, entity, cap_w))
        except ValueError as err:
            raise ScenarioError(f"axes[{i}]: {err}") from err
    try:
        validate_axes(model, axes)
    except ValueError as err:
        raise ScenarioError(str(err)) from err

    try:
        advset_steps = [int(k) for k in _array(doc, "advset_steps", range(model.steps))]
    except (TypeError, ValueError) as err:
        raise ScenarioError(f"advset_steps: {err}") from err
    for k in advset_steps:
        if not 0 <= k < model.steps:
            raise ScenarioError(f"advset_steps: step {k} outside horizon")

    events = []
    for i, e in enumerate(_array(doc, "timeline")):
        events.append(
            Event(
                _number(_require(e, "time_min", f"timeline[{i}]"), f"timeline[{i}].time_min"),
                _identifier(e, "kind", f"timeline[{i}]"),
                _identifier(e, "entity", f"timeline[{i}]"),
                _optional_number(e.get("magnitude_w"), f"timeline[{i}].magnitude_w"),
            )
        )
    timeline = EventTimeline(events)
    try:
        timeline.validate(model)
    except ValueError as err:
        raise ScenarioError(f"timeline: {err}") from err

    return Scenario(
        name=doc.get("name", path.stem),
        seed=seed,
        model=model,
        costs=costs,
        reserve_costs=reserve_costs,
        solver=solver,
        build=build,
        box=box,
        axes=axes,
        advset_steps=advset_steps,
        timeline=timeline,
    )


# ---------------------------------------------------------------------------
# deterministic file emission


def fmt(value: float) -> str:
    return repr(float(value))


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) if isinstance(v, float) else v for v in row])


def write_json(path: Path, doc: dict) -> None:
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def sha256_of(path: Path) -> str:
    digest = hashlib.sha256()
    digest.update(Path(path).read_bytes())
    return "sha256:" + digest.hexdigest()


class ManifestWriter:
    """Records inputs, outputs, seed, and timing of one CLI run."""

    def __init__(self, command: str, seed: int):
        self.command = command
        self.seed = seed
        self.inputs: dict[str, str] = {}
        self.outputs: list[str] = []
        self._t0 = time.perf_counter()

    def add_input(self, path: Path) -> None:
        self.inputs[str(path)] = sha256_of(path)

    def add_output(self, path: Path) -> None:
        self.outputs.append(Path(path).name)

    def write(self, out_dir: Path) -> Path:
        doc = {
            "tool": "gridres",
            "version": __version__,
            "command": self.command,
            "seed": self.seed,
            "inputs": self.inputs,
            "outputs": sorted(self.outputs),
            "timing_s": round(time.perf_counter() - self._t0, 6),
        }
        path = Path(out_dir) / "manifest.json"
        write_json(path, doc)
        return path
