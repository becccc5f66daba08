"""Quasi-static replay of cyber-physical events against a reserve schedule.

Each step keeps one ledger over the devices of every class: the scheduled
setpoint, the forced setpoint after the active events (a diesel trip or a
solar shortfall clips a generator; a masked load draws schedule plus masked
demand, never below zero), and the room to move up and down from there.  The
imbalance, masked demand plus clipped generation, is met by a proportional
controller:

    deployment_d = capacity_d / total_capacity * min(imbalance, total_capacity)

where capacity_d is the device's reserve in the imbalance's direction clipped
to its room (a tripped diesel deploys nothing; a battery is limited by its
realized state of charge).  Deployment beyond the pool is impossible: the
residual is recorded as shortfall, never silently dropped.
The network state is re-evaluated each step by a direct linear flow solve at
the realized device outputs; device reactive output stays at schedule while
load reactive power follows served load.  Masked load is invisible to the
operator but present in the physics, so it surfaces through the imbalance
measurement, which is exactly how the controller notices it.

A run replays per-step events, compiled from a timeline (a list of `Event`)
by `compile_timeline` or sampled by `events_from_polytopes`, against a
`CompiledReplay`: what every run of one schedule on one model reads (the
feeder's `RadialPlan` with the voltage and line limits, each device's
position, the per-step schedule, reserves and windows by position, the
loads' reactive ratios), built once by `compile_replay`.  A device's
position is its index in `device_groups` order.  A run maps each step's
events to positions once, keeps the ledger, the controller, the state of
charge and the flow and limit checks in lists indexed by position, and
builds each `Trajectory` array once, at the end.  Runs only read the
compiled replay, so every run of a command shares one.  A run is strictly
sequential in time; distinct runs over the same compiled replay (e.g. a
Monte Carlo suite) may execute concurrently.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .advset import AXIS_CLASS, InnerPolytope, _simplex_point_chunks
from .constraints import (RadialPlan, device_groups, device_window, reserve_room,
                          solve_linear_flow)
from .network import NetworkModel
from .robust import RobustResult

# event kind -> (device class it targets, whether it starts an event)
EVENT_KINDS = {
    "dg_trip": ("dg", True),
    "dg_restore": ("dg", False),
    "load_mask_start": ("load", True),
    "load_mask_end": ("load", False),
    "pv_loss": ("pv", True),
    "pv_restore": ("pv", False),
}


@dataclass
class Event:
    time_min: float
    kind: str
    entity: str
    magnitude_w: float | None = None  # dg_trip/pv_loss default to the full amount


def compile_timeline(model: NetworkModel, timeline: list[Event]) -> list[dict]:
    """Active event magnitudes per step: {(class, entity): magnitude_w}.

    An event at time t takes effect at the step whose interval contains t.
    Unclosed events stay active to the end of the horizon.  Raises ValueError
    on the first event that cannot be replayed, as the one walk reaches it.
    """
    units = {cls: {u.id: u for u in group} for cls, group in device_groups(model)}
    step_min = model.dt_hours * 60.0
    last_t = -math.inf
    active: dict[tuple[str, str], float | None] = {}
    out: list[dict] = []
    for ev in timeline:
        if ev.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {ev.kind!r}")
        if not 0 <= ev.time_min < math.inf:
            raise ValueError(f"time_min must be finite and non-negative, got {ev.time_min}")
        k = ev.time_min // step_min
        if k >= model.steps:
            raise ValueError(f"time_min must fall before the end of the horizon at "
                             f"{model.steps * step_min:g} min, got {ev.time_min}")
        if ev.time_min < last_t:
            raise ValueError("event times must be non-decreasing")
        last_t = ev.time_min
        cls, starts = EVENT_KINDS[ev.kind]
        if ev.entity not in units[cls]:
            raise ValueError(f"event references unknown {cls} entity {ev.entity!r}")
        while len(out) < k:  # the steps before this event's are complete
            out.append(dict(active))
        key = (cls, ev.entity)
        mag = ev.magnitude_w
        if not starts:
            if key not in active:
                raise ValueError(f"{ev.kind} for {ev.entity!r} has no matching start event")
            del active[key]
            continue
        if mag is None:
            if cls == "load":
                raise ValueError("load_mask_start needs a magnitude_w")
            mag = units["dg"][ev.entity].capacity_va if cls == "dg" else None  # pv: all of it
        elif not math.isfinite(mag):
            raise ValueError(f"magnitude_w must be finite, got {mag}")
        elif mag < 0 and cls != "load":  # a loss cannot raise a unit's output
            raise ValueError(f"{ev.kind} magnitude_w must be non-negative, got {mag}")
        active[key] = mag
    while len(out) < model.steps:
        out.append(dict(active))
    return out


def events_from_polytopes(
    polys: dict[int, InnerPolytope], seed: int, count: int
) -> Iterator[list[dict]]:
    """`count` runs of per-step event dictionaries sampled from per-step polytopes.

    At each step an independent point is drawn uniformly over the polytope,
    as :func:`gridres.advset.sample` draws, from a seed stream of its own per
    step; deterministic per seed.  Nothing is drawn by the call: each step's
    points are drawn from its stream a chunk at a time, and a run's
    dictionaries built, as the returned iterator reaches them, so memory does
    not grow with `count`.
    """
    horizon = max(polys) + 1
    steps = []  # (step, (class, entity) per axis)
    streams = []  # each step's points, as lists
    for k in sorted(polys):
        poly = polys[k]
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(3, k)))
        steps.append((k, [(AXIS_CLASS[axis.kind], axis.entity) for axis in poly.axes]))
        chunks = _simplex_point_chunks(poly, rng, count)
        streams.append(itertools.chain.from_iterable(map(np.ndarray.tolist, chunks)))

    def run(points: tuple[list[float], ...]) -> list[dict]:
        events = [{} for _ in range(horizon)]
        for (k, keys), point in zip(steps, points):
            events[k] = {key: mag for key, mag in zip(keys, point) if mag > 0.0}
        return events

    return map(run, zip(*streams))


def _total(values) -> float:
    """The sum of `values`, added left to right.  The replay's values are
    Python floats, which `sum()` compensates from Python 3.12 on; this adds
    them as `sum()` does on 3.11, so a replay does not depend on the version."""
    total = 0.0
    for value in values:
        total += value
    return total


def proportional_dispatch(
    imbalance_w: float, capacities_w: Sequence[float]
) -> tuple[list[float], float]:
    """Split `imbalance_w` across devices in proportion to their capacity.

    `capacities_w` holds each device's capacity in device order.  Returns
    (the deployments in that order, shortfall).  Deployments sum to
    min(imbalance, total capacity); with an empty pool everything is shortfall.
    """
    if any(c < 0 for c in capacities_w):
        raise ValueError("reserve capacities must be non-negative")
    total = _total(capacities_w)
    if imbalance_w <= 0.0 or total <= 0.0:
        return [0.0] * len(capacities_w), max(imbalance_w, 0.0)
    deployed = min(imbalance_w, total)
    return [c / total * deployed for c in capacities_w], imbalance_w - deployed


@dataclass
class Trajectory:
    """Per-step record of the simulated feeder state."""

    time_min: np.ndarray
    pv_w: np.ndarray
    dg_w: np.ndarray
    es_w: np.ndarray
    served_load_w: np.ndarray
    true_demand_w: np.ndarray
    shed_w: np.ndarray
    imbalance_w: np.ndarray
    deployed_up_w: np.ndarray
    deployed_down_w: np.ndarray
    shortfall_w: np.ndarray
    soc_wh: dict[str, np.ndarray]  # length K+1
    deployment_w: dict[tuple[str, str], np.ndarray]
    voltage_min_pu: np.ndarray
    voltage_max_pu: np.ndarray
    violations: dict[str, np.ndarray]  # class -> bool per step
    violation_magnitude: dict[str, np.ndarray]


VIOLATION_CLASSES = ("voltage", "soc", "line", "shortfall")
VOLTAGE_TOL = 1e-7  # pu of voltage magnitude outside [v_min, v_max] flagged as a violation

_STEP_SERIES = (
    "time_min", "pv_w", "dg_w", "es_w", "served_load_w",
    "true_demand_w", "shed_w", "imbalance_w", "deployed_up_w",
    "deployed_down_w", "shortfall_w", "voltage_min_pu", "voltage_max_pu",
)


@dataclass(frozen=True)
class CompiledReplay:
    """What every replay of one schedule on one model reads, built once by
    :func:`compile_replay` and never written by :func:`run_simulation`.

    A device's position is its index in `devices`, which lists them in
    `device_groups` order, so each class's positions are one range
    (`positions`).  Per step, `p`, `q`, `up` and `down` hold each device's
    scheduled active and reactive output and its up and down reserve by
    position, and `window` each device's `device_window`, None for a
    battery, whose window depends on its realized state of charge: a run
    works it out per step for each of `batteries`.  `tan_phi` holds each
    load's reactive to active power ratio.  All are Python floats.  `plan`,
    the feeder's `RadialPlan`, carries the voltage and line limits.
    """

    steps: int
    dt: float
    plan: RadialPlan
    devices: tuple  # (class, unit), in `device_groups` order
    position: dict[tuple[str, str], int]  # (class, id) -> position
    positions: dict[str, range]  # class -> its positions
    p: tuple[tuple[float, ...], ...]
    q: tuple[tuple[float, ...], ...]
    up: tuple[tuple[float, ...], ...]
    down: tuple[tuple[float, ...], ...]
    window: tuple[tuple[tuple[float, float] | None, ...], ...]
    batteries: tuple  # the storage units, in position order
    tan_phi: tuple[float, ...]


def compile_replay(model: NetworkModel, robust: RobustResult) -> CompiledReplay:
    """The invariants of replaying `robust`'s schedule on `model`."""
    groups = device_groups(model)
    devices = tuple((cls, u) for cls, units in groups for u in units)
    keys = [(cls, u.id) for cls, u in devices]
    positions, start = {}, 0
    for cls, units in groups:
        positions[cls] = range(start, start + len(units))
        start += len(units)
    steps = range(model.steps)

    def per_step(series: dict[tuple[str, str], np.ndarray]) -> tuple[tuple[float, ...], ...]:
        columns = [series[key] for key in keys]
        return tuple(tuple(float(column[k]) for column in columns) for k in steps)

    return CompiledReplay(
        steps=model.steps,
        dt=model.dt_hours,
        plan=RadialPlan.of(model),
        devices=devices,
        position={key: i for i, key in enumerate(keys)},
        positions=positions,
        p=per_step(robust.dispatch.p),
        q=per_step(robust.dispatch.q),
        up=per_step(robust.reserves.up),
        down=per_step(robust.reserves.down),
        window=tuple(tuple(None if cls == "es" else device_window(cls, u, k)
                           for cls, u in devices) for k in steps),
        batteries=tuple(model.storage_units),
        tan_phi=tuple(u.tan_phi for u in model.loads),
    )


def _ledger(replay: CompiledReplay, k: int, events: dict[int, float | None],
            soc: list[list[float]]) -> tuple[list[float], list[float], list[float]]:
    """(setpoint after events, room up, room down) of every device at step k,
    by position, given the active events by position and each battery's
    realized state of charge.

    The room is measured inside the device's window [lo, hi], a battery's
    narrowed by its realized state of charge.  A diesel trip or a solar
    shortfall lowers a generator's top, and its setpoint is the schedule
    clipped to what survives.  A mask moves only a load's draw, to schedule
    plus masked demand: shedding starts from that draw, while the room to
    draw more is what the operator sees, above the schedule.
    """
    n = len(replay.devices)
    sched, window, dt = replay.p[k], replay.window[k], replay.dt
    point, room_up, room_dn = [0.0] * n, [0.0] * n, [0.0] * n
    for cls in ("pv", "dg"):
        for i in replay.positions[cls]:
            lo, hi = window[i]
            if i in events:
                lost = events[i]
                hi = max(hi - (hi if lost is None else lost), 0.0)
            point[i] = p0 = min(sched[i], hi)
            room_up[i], room_dn[i] = reserve_room(cls, lo, hi, p0)
    for i, u, energy in zip(replay.positions["es"], replay.batteries, soc):
        lo, hi = device_window("es", u, k, e_in=energy[k], dt=dt)
        point[i] = p0 = sched[i]
        room_up[i], room_dn[i] = reserve_room("es", lo, hi, p0)
    for i in replay.positions["load"]:
        lo, hi = window[i]
        point[i] = draw = sched[i] + events.get(i, 0.0)
        room_up[i], room_dn[i] = draw - lo, hi - sched[i]
    return point, room_up, room_dn


def run_simulation(replay: CompiledReplay, events: list[dict]) -> Trajectory:
    """Replay per-step events against the compiled schedule: `events[k]` maps
    (class, entity) to the magnitude active at step k; steps past the list
    have none."""
    K = replay.steps
    dt = replay.dt
    n = len(replay.devices)
    at = {cls: slice(r.start, r.stop) for cls, r in replay.positions.items()}
    pv, dg, es, loads = (replay.positions[cls] for cls in ("pv", "dg", "es", "load"))
    cut = loads.start  # loads come last in `device_groups` order

    soc = [[float(u.initial_soc_wh)] for u in replay.batteries]
    series = {name: [] for name in _STEP_SERIES}
    deployment = []
    violations = {c: [False] * K for c in VIOLATION_CLASSES}
    magnitude = {c: [0.0] * K for c in VIOLATION_CLASSES}

    def flag(name: str, k: int, size: float) -> None:
        violations[name][k] = True
        magnitude[name][k] = max(magnitude[name][k], size)

    for k in range(K):
        series["time_min"].append(k * dt * 60.0)
        sched = replay.p[k]
        # a mask deeper than a load's scheduled draw applies as minus that
        # draw: the draw floors at zero, a load never generates
        step_events = {}
        for key, mag in (events[k] if k < len(events) else {}).items():
            i = replay.position[key]
            step_events[i] = max(mag, -sched[i]) if i in loads else mag

        # the ledger: per device, its setpoint after events and its room to
        # move up and down from there
        point, room_up, room_dn = _ledger(replay, k, step_events, soc)

        masks = [step_events.get(i, 0.0) for i in loads]
        forced_loss = (_total([sched[i] - point[i] for i in pv])
                       + _total([sched[i] - point[i] for i in dg]))
        imbalance = _total(masks) + forced_loss
        series["imbalance_w"].append(imbalance)

        # deployable reserve in the active direction: the allocation clipped
        # by what the device can physically deliver right now
        up = imbalance >= 0.0
        reserve, room = (replay.up[k], room_up) if up else (replay.down[k], room_dn)
        caps = [max(min(r, m), 0.0) for r, m in zip(reserve, room)]
        dep, shortfall = proportional_dispatch(imbalance if up else -imbalance, caps)
        deployed = _total(dep)
        series["deployed_up_w"].append(deployed if up else 0.0)
        series["deployed_down_w"].append(0.0 if up else deployed)
        series["shortfall_w"].append(shortfall)
        idle = [0.0] * n
        d_up, d_dn = (dep, idle) if up else (idle, dep)

        # realized operating point; loads move opposite to generators
        realized = ([p0 + a - b for p0, a, b in zip(point[:cut], d_up[:cut], d_dn[:cut])]
                    + [p0 - a + b for p0, a, b in zip(point[cut:], d_up[cut:], d_dn[cut:])])
        deployment.append([a - b for a, b in zip(d_up, d_dn)])

        series["pv_w"].append(_total(realized[at["pv"]]))
        series["dg_w"].append(_total(realized[at["dg"]]))
        series["es_w"].append(_total(realized[at["es"]]))
        true_demand = _total(sched[at["load"]]) + _total(masks)
        shed = _total(d_up[at["load"]])
        series["true_demand_w"].append(true_demand)
        series["shed_w"].append(shed)
        # demand-side ledger: demand = served + shed + unserved shortfall
        # (a down-direction shortfall is unabsorbed surplus, not unserved load)
        series["served_load_w"].append(
            true_demand - shed + _total(d_dn[at["load"]]) - (shortfall if up else 0.0)
        )

        # state of charge
        for i, u, energy in zip(es, replay.batteries, soc):
            e = energy[k] - realized[i] * dt
            energy.append(e)
            excess = max(u.energy_min_wh - e, e - u.energy_max_wh)
            if excess > 1e-6 * u.energy_max_wh:
                flag("soc", k, excess)

        # network state at the realized outputs; a load's reactive power
        # follows its served load
        q_w = list(replay.q[k])
        for i, tan_phi in zip(loads, replay.tan_phi):
            q_w[i] = realized[i] * tan_phi
        fp, fq, w = solve_linear_flow(replay.plan, realized, q_w)
        series["voltage_min_pu"].append(math.sqrt(max(min(w), 0.0)))
        series["voltage_max_pu"].append(math.sqrt(max(w)))
        for w_k, (v_min, v_max) in zip(w, replay.plan.voltage_limits):
            v = math.sqrt(max(w_k, 0.0))
            over = max(v_min - v, v - v_max)
            if over > VOLTAGE_TOL:
                flag("voltage", k, over)
        for p, q, limit in zip(fp, fq, replay.plan.line_limits):
            over = math.hypot(p, q) - limit
            if over > 1e-6:
                flag("line", k, over * replay.plan.s_base)
        if shortfall > 1e-3:
            flag("shortfall", k, shortfall)

    columns = np.array(deployment, dtype=float).reshape(K, n).T.copy()
    return Trajectory(
        **{name: np.array(values, dtype=float) for name, values in series.items()},
        soc_wh={u.id: np.array(energy) for u, energy in zip(replay.batteries, soc)},
        deployment_w={(cls, u.id): column for (cls, u), column in zip(replay.devices, columns)},
        violations={c: np.array(v, dtype=bool) for c, v in violations.items()},
        violation_magnitude={c: np.array(m, dtype=float) for c, m in magnitude.items()},
    )


@dataclass
class ViolationSummary:
    counts: dict[str, int]
    max_magnitude: dict[str, float]

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def clean(self) -> bool:
        return self.total == 0


def violation_report(traj: Trajectory) -> ViolationSummary:
    counts = {c: int(traj.violations[c].sum()) for c in VIOLATION_CLASSES}
    max_mag = {c: float(traj.violation_magnitude[c].max()) for c in VIOLATION_CLASSES}
    return ViolationSummary(counts, max_mag)
