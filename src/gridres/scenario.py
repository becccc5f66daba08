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

import hashlib
import json
import operator
import time
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .advset import AdversarialAxis, read_axis, validate_axes
from .constraints import BuildOptions, P_DG_CAPACITY, P_PV_FORECAST, PARAM_CLASS, device_groups
from .dispatch import CostConfig
from .lp import SolverOptions
from .network import InputError as ScenarioError  # a malformed scenario or command line
from .network import (NetworkModel, SynthSpec, array, dataclass_record, input_error, integer,
                      load_model, nullable, number, record, string, synth_feeder, validate)
from .network import write_csv, write_json  # noqa: F401  (the CLI writes through these names)
from .robust import ReserveCosts, UncertaintyBox
from .sim import Event, compile_timeline

SCHEMA_VERSION = 1


# Each box bound as a function of the nominal value and the given number.
LOW_BOUNDS = {"low_w": lambda nom, w: w, "low_scale": operator.mul, "low_sub_w": operator.sub}
HIGH_BOUNDS = {"high_w": lambda nom, w: w, "high_scale": operator.mul,
               "high_add_w": operator.add}

_read_scenario = record({
    "schema_version": integer,
    "network": record({}, {
        "synth": dataclass_record(SynthSpec),
        "files": record({"network": string, "profiles": string}),
    }),
}, {
    "name": string,
    "seed": integer,
    "costs": dataclass_record(CostConfig),
    "reserve_cost_factors": record({}, dict.fromkeys(("pv", "dg", "es", "load"), number)),
    "solver": record({}, {"backend": string, "feas_tol": number, "opt_tol": number}),
    "build": dataclass_record(BuildOptions),
    "uncertainty": array(record({"parameter": string, "entity": string, "steps": array(integer)},
                                dict.fromkeys([*LOW_BOUNDS, *HIGH_BOUNDS], number))),
    "axes": array(read_axis),
    "advset_steps": array(integer),
    "timeline": array(record({"time_min": number, "kind": string, "entity": string},
                             {"magnitude_w": nullable(number)})),
})


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
    events: list[dict]  # the timeline compiled per step, as the replay takes it

    @property
    def has_box(self) -> bool:
        return bool(self.box.entries)


def _nominal_of(unit, param: str, step: int) -> float:
    if param == P_DG_CAPACITY:
        return unit.capacity_va
    if param == P_PV_FORECAST:
        return float(unit.forecast_w[step])
    return float(unit.desired_w[step])


def _bound_rule(entry: dict, rules: dict, ctx: str):
    """The entry's bound on one side of the box as a function of the nominal
    value; an entry gives at most one bound per side."""
    given = [key for key in rules if key in entry]
    if len(given) > 1:
        raise ScenarioError(f"{ctx}: give at most one of {', '.join(rules)}, "
                            f"got {', '.join(given)}")
    if not given:
        return lambda nom: nom
    rule, value = rules[given[0]], entry[given[0]]
    return lambda nom: rule(nom, value)


def _parse_box(entries: list[dict], model: NetworkModel) -> UncertaintyBox:
    units = {cls: {u.id: u for u in group} for cls, group in device_groups(model)}
    box = UncertaintyBox()
    for i, entry in enumerate(entries):
        ctx = f"uncertainty[{i}]"
        param, entity = entry["parameter"], entry["entity"]
        if param not in PARAM_CLASS:
            raise ScenarioError(f"{ctx}: unknown parameter {param!r}")
        cls = PARAM_CLASS[param]
        if entity not in units[cls]:
            raise ScenarioError(f"{ctx}: unknown {cls} entity {entity!r}")
        if len(entry["steps"]) != 2:
            raise ScenarioError(f"{ctx}.steps: expected [first, last), got {entry['steps']}")
        a, b = entry["steps"]
        if not 0 <= a <= b <= model.steps:
            raise ScenarioError(f"{ctx}: steps [{a}, {b}) outside the horizon "
                                f"of {model.steps} steps")
        low = _bound_rule(entry, LOW_BOUNDS, ctx)
        high = _bound_rule(entry, HIGH_BOUNDS, ctx)
        for k in range(a, b):
            nom = _nominal_of(units[cls][entity], param, k)
            with input_error(ctx):
                box.add(param, entity, k, low(nom), nom, high(nom))
    return box


def load_scenario(path, seed_override: int | None = None,
                  poly_sides: int | None = None,
                  feas_tol: float | None = None) -> Scenario:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise ScenarioError(
            f"scenario {path} is not valid JSON at byte offset {err.pos}: {err.msg}"
        ) from err
    except (OSError, ValueError) as err:
        raise ScenarioError(f"cannot read scenario {path}: {err}") from err

    doc = _read_scenario(doc, "")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ScenarioError(f"schema_version: expected {SCHEMA_VERSION}, "
                            f"got {doc['schema_version']!r}")
    seed = doc.get("seed", 0) if seed_override is None else int(seed_override)
    if seed < 0:  # numpy seed sequences take only non-negative entropy
        raise ScenarioError(f"seed: expected a non-negative integer, got {seed}")

    net = doc["network"]
    if len(net) != 1:
        raise ScenarioError("network: needs exactly one of 'synth' and 'files'")
    if "synth" in net:
        with input_error("network.synth"):
            model = synth_feeder(SynthSpec(**{"seed": seed, **net["synth"]}))
    else:
        files = net["files"]
        with input_error("network.files"):
            model = load_model(path.parent / files["network"], path.parent / files["profiles"])

    report = validate(model)
    if not report.ok:
        raise ScenarioError("network failed validation: " + "; ".join(report.problems))

    with input_error("costs"):
        costs = CostConfig(**doc.get("costs", {}))
    with input_error("reserve_cost_factors"):
        reserve_costs = ReserveCosts.from_costs(costs, **doc.get("reserve_cost_factors", {}))

    solver_fields = doc.get("solver", {})
    if feas_tol is not None:
        solver_fields["feas_tol"] = feas_tol
    with input_error("solver"):
        solver = SolverOptions(**solver_fields)
    build_fields = doc.get("build", {})
    if poly_sides is not None:
        build_fields["poly_sides"] = poly_sides
    with input_error("build"):
        build = BuildOptions(**build_fields)

    box = _parse_box(doc.get("uncertainty", []), model)
    axes = doc.get("axes", [])
    with input_error(""):  # the message names the axis
        validate_axes(model, axes)

    advset_steps = doc.get("advset_steps", list(range(model.steps)))
    for k in advset_steps:
        if not 0 <= k < model.steps:
            raise ScenarioError(f"advset_steps: step {k} outside horizon")

    with input_error("timeline"):
        events = compile_timeline(model, [Event(**e) for e in doc.get("timeline", [])])

    return Scenario(doc.get("name", path.stem), seed, model, costs, reserve_costs, solver, build,
                    box, axes, advset_steps, events)


# ---------------------------------------------------------------------------
# the run's files


def sha256_of(path: Path) -> str:
    digest = hashlib.sha256()
    digest.update(Path(path).read_bytes())
    return "sha256:" + digest.hexdigest()


class ManifestWriter:
    """The one way a CLI run writes a file: it creates the output directory,
    hands out the path of each output while recording its name, and at the
    end writes the manifest of inputs, outputs, seed and timing there."""

    def __init__(self, command: str, seed: int, out_dir):
        self.command = command
        self.seed = seed
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.inputs: dict[str, str] = {}
        self.outputs: list[str] = []
        self._t0 = time.perf_counter()

    def add_input(self, path: Path) -> None:
        self.inputs[str(path)] = sha256_of(path)

    def output(self, name: str) -> Path:
        """The path to write output `name` to, recorded in the manifest."""
        self.outputs.append(name)
        return self.out_dir / name

    def write(self) -> Path:
        doc = {
            "tool": "gridres",
            "version": __version__,
            "command": self.command,
            "seed": self.seed,
            "inputs": self.inputs,
            "outputs": sorted(self.outputs),
            "timing_s": round(time.perf_counter() - self._t0, 6),
        }
        path = self.out_dir / "manifest.json"
        write_json(path, doc)
        return path
