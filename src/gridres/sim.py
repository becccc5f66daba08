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
feeder's `RadialPlan`, the devices, the per-step schedule, reserves and
windows, the voltage and line limits), built once by `compile_replay`.
Runs only read it, so every run of a command shares one.  A run is strictly
sequential in time; distinct runs over the same compiled replay (e.g. a
Monte Carlo suite) may execute concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .advset import AXIS_CLASS, InnerPolytope, _simplex_points
from .constraints import (PerUnit, RadialPlan, device_groups, device_window, reserve_room,
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
) -> list[list[dict]]:
    """`count` per-step event dictionaries sampled from per-step polytopes.

    At each step an independent point is drawn uniformly over the polytope,
    as :func:`gridres.advset.sample` draws, from a seed stream of its own per
    step; deterministic per seed.
    """
    steps = sorted(polys)
    horizon = max(steps) + 1
    runs: list[list[dict]] = [[{} for _ in range(horizon)] for _ in range(count)]
    for k in steps:
        poly = polys[k]
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(3, k)))
        points = _simplex_points(poly, rng, count)
        for r in range(count):
            events = {}
            for i, axis in enumerate(poly.axes):
                mag = float(points[r, i])
                if mag > 0.0:
                    events[(AXIS_CLASS[axis.kind], axis.entity)] = mag
            runs[r][k] = events
    return runs


def _total(values) -> float:
    """The sum of `values`, added left to right.  The replay's values are
    Python floats, which `sum()` compensates from Python 3.12 on; this adds
    them as `sum()` does on 3.11, so a replay does not depend on the version."""
    total = 0.0
    for value in values:
        total += value
    return total


def proportional_dispatch(
    imbalance_w: float, capacities_w: dict[tuple[str, str], float]
) -> tuple[dict[tuple[str, str], float], float]:
    """Split `imbalance_w` across devices in proportion to their capacity.

    Returns (per-device deployment, shortfall).  Deployments sum to
    min(imbalance, total capacity); with an empty pool everything is shortfall.
    """
    if any(c < 0 for c in capacities_w.values()):
        raise ValueError("reserve capacities must be non-negative")
    total = _total(capacities_w.values())
    if imbalance_w <= 0.0 or total <= 0.0:
        return {d: 0.0 for d in capacities_w}, max(imbalance_w, 0.0)
    deployed = min(imbalance_w, total)
    out = {d: c / total * deployed for d, c in capacities_w.items()}
    return out, imbalance_w - deployed


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


def _class_sum(column: dict[tuple[str, str], float], keys) -> float:
    return _total(column[key] for key in keys)


@dataclass(frozen=True)
class CompiledReplay:
    """What every replay of one schedule on one model reads, built once by
    :func:`compile_replay` and never written by :func:`run_simulation`.

    Per step, `p`, `q`, `up` and `down` map each device key (class, id) to
    its scheduled active and reactive output and its up and down reserve,
    and `window` maps each PV, diesel and load unit to its `device_window`
    (a battery's depends on its realized state of charge, so a run works it
    out per step).  All are Python floats.
    """

    steps: int
    dt: float
    plan: RadialPlan
    devices: tuple  # (class, unit), in `device_groups` order
    keys: dict[str, tuple[tuple[str, str], ...]]  # class -> its device keys
    p: tuple[dict[tuple[str, str], float], ...]
    q: tuple[dict[tuple[str, str], float], ...]
    up: tuple[dict[tuple[str, str], float], ...]
    down: tuple[dict[tuple[str, str], float], ...]
    window: tuple[dict[tuple[str, str], tuple[float, float]], ...]
    voltage_limits: tuple[tuple[tuple[str, str], float, float], ...]  # (bus, phase), v_min, v_max
    line_limits: tuple[tuple[tuple[str, str], float], ...]  # (branch, phase), limit in pu


def compile_replay(model: NetworkModel, robust: RobustResult) -> CompiledReplay:
    """The invariants of replaying `robust`'s schedule on `model`."""
    groups = device_groups(model)
    devices = tuple((cls, u) for cls, units in groups for u in units)
    steps = range(model.steps)

    def per_step(series: dict[tuple[str, str], np.ndarray]) -> tuple[dict, ...]:
        return tuple({(cls, u.id): float(series[(cls, u.id)][k]) for cls, u in devices}
                     for k in steps)

    pu = PerUnit.of(model)
    return CompiledReplay(
        steps=model.steps,
        dt=model.dt_hours,
        plan=RadialPlan.of(model),
        devices=devices,
        keys={cls: tuple((cls, u.id) for u in units) for cls, units in groups},
        p=per_step(robust.dispatch.p),
        q=per_step(robust.dispatch.q),
        up=per_step(robust.reserves.up),
        down=per_step(robust.reserves.down),
        window=tuple({(cls, u.id): device_window(cls, u, k) for cls, u in devices
                      if cls != "es"} for k in steps),
        voltage_limits=tuple(((bus.id, phase), bus.v_min, bus.v_max)
                             for bus in model.buses for phase in bus.phases),
        line_limits=tuple(((br.id, phase), pu.power(br.flow_limit_va))
                          for br in model.branches for phase in br.phases),
    )


def _forced_point(key: tuple[str, str], lo: float, hi: float, sched: float,
                  events: dict) -> tuple[float, float, float]:
    """(setpoint after events, room up, room down) of one device at a step.

    The room is measured inside the device's window [lo, hi], a battery's
    narrowed by its realized state of charge.  A diesel trip or a solar
    shortfall lowers a generator's top, and its setpoint is the schedule
    clipped to what survives.  A mask moves only a load's draw, to schedule
    plus masked demand: shedding starts from that draw, while the room to
    draw more is what the operator sees, above the schedule.
    """
    cls = key[0]
    if cls == "load":
        draw = sched + events.get(key, 0.0)
        return draw, draw - lo, hi - sched
    if cls != "es":
        if key in events:
            lost = events[key]
            hi = max(hi - (hi if lost is None else lost), 0.0)
        sched = min(sched, hi)
    return (sched, *reserve_room(cls, lo, hi, sched))


def run_simulation(replay: CompiledReplay, events: list[dict]) -> Trajectory:
    """Replay per-step events against the compiled schedule: `events[k]` maps
    (class, entity) to the magnitude active at step k; steps past the list
    have none."""
    K = replay.steps
    dt = replay.dt
    keys = replay.keys

    soc = {u.id: np.full(K + 1, u.initial_soc_wh, dtype=float)
           for cls, u in replay.devices if cls == "es"}
    arrays = {name: np.zeros(K) for name in _STEP_SERIES}
    deployment = {(cls, u.id): np.zeros(K) for cls, u in replay.devices}
    violations = {c: np.zeros(K, dtype=bool) for c in VIOLATION_CLASSES}
    magnitude = {c: np.zeros(K) for c in VIOLATION_CLASSES}

    def flag(name: str, k: int, excess: float, tol: float, size: float) -> None:
        if excess > tol:
            violations[name][k] = True
            magnitude[name][k] = max(magnitude[name][k], size)

    for k in range(K):
        arrays["time_min"][k] = k * dt * 60.0
        sched, window = replay.p[k], replay.window[k]
        # a mask deeper than a load's scheduled draw applies as minus that
        # draw: the draw floors at zero, a load never generates
        step_events = {key: max(mag, -sched[key]) if key[0] == "load" else mag
                       for key, mag in (events[k] if k < len(events) else {}).items()}

        # the ledger: per device, its schedule, its setpoint after events and
        # its room to move up and down from there
        point, room_up, room_dn = {}, {}, {}
        for cls, u in replay.devices:
            key = (cls, u.id)
            if cls == "es":
                lo, hi = device_window(cls, u, k, e_in=soc[u.id][k], dt=dt)
            else:
                lo, hi = window[key]
            point[key], room_up[key], room_dn[key] = _forced_point(
                key, lo, hi, sched[key], step_events)

        masks = [step_events.get(key, 0.0) for key in keys["load"]]
        forced_loss = (_total(sched[key] - point[key] for key in keys["pv"])
                       + _total(sched[key] - point[key] for key in keys["dg"]))
        imbalance = _total(masks) + forced_loss
        arrays["imbalance_w"][k] = imbalance

        # deployable reserve in the active direction: the allocation clipped
        # by what the device can physically deliver right now
        up = imbalance >= 0.0
        reserve, room = (replay.up[k], room_up) if up else (replay.down[k], room_dn)
        caps = {key: max(min(reserve[key], room[key]), 0.0) for key in point}
        dep, shortfall = proportional_dispatch(imbalance if up else -imbalance, caps)
        arrays["deployed_up_w" if up else "deployed_down_w"][k] = _total(dep.values())
        arrays["shortfall_w"][k] = shortfall
        idle = dict.fromkeys(dep, 0.0)
        d_up, d_dn = (dep, idle) if up else (idle, dep)

        # realized operating point; loads move opposite to generators
        realized = {}
        for key, p0 in point.items():
            if key[0] == "load":
                realized[key] = p0 - d_up[key] + d_dn[key]
            else:
                realized[key] = p0 + d_up[key] - d_dn[key]
            deployment[key][k] = d_up[key] - d_dn[key]

        arrays["pv_w"][k] = _class_sum(realized, keys["pv"])
        arrays["dg_w"][k] = _class_sum(realized, keys["dg"])
        arrays["es_w"][k] = _class_sum(realized, keys["es"])
        true_demand = _class_sum(sched, keys["load"]) + _total(masks)
        shed = _class_sum(d_up, keys["load"])
        arrays["true_demand_w"][k] = true_demand
        arrays["shed_w"][k] = shed
        # demand-side ledger: demand = served + shed + unserved shortfall
        # (a down-direction shortfall is unabsorbed surplus, not unserved load)
        arrays["served_load_w"][k] = (
            true_demand - shed + _class_sum(d_dn, keys["load"]) - (shortfall if up else 0.0)
        )

        # state of charge
        for cls, u in replay.devices:
            if cls == "es":
                soc[u.id][k + 1] = soc[u.id][k] - realized[(cls, u.id)] * dt
                e = soc[u.id][k + 1]
                excess = max(u.energy_min_wh - e, e - u.energy_max_wh)
                flag("soc", k, excess, 1e-6 * u.energy_max_wh, excess)

        # network state at the realized outputs; a load's reactive power
        # follows its served load
        q_w = dict(replay.q[k])
        for cls, u in replay.devices:
            if cls == "load":
                q_w[(cls, u.id)] = u.q_of(realized[(cls, u.id)])
        flows, w = solve_linear_flow(replay.plan, realized, q_w)
        arrays["voltage_min_pu"][k] = math.sqrt(max(min(w.values()), 0.0))
        arrays["voltage_max_pu"][k] = math.sqrt(max(w.values()))
        for bus_phase, v_min, v_max in replay.voltage_limits:
            v = math.sqrt(max(w[bus_phase], 0.0))
            over = max(v_min - v, v - v_max)
            flag("voltage", k, over, VOLTAGE_TOL, over)
        for branch_phase, limit in replay.line_limits:
            fp, fq = flows[branch_phase]
            over = math.hypot(fp, fq) - limit
            flag("line", k, over, 1e-6, over * replay.plan.s_base)
        flag("shortfall", k, shortfall, 1e-3, shortfall)

    return Trajectory(**arrays, soc_wh=soc, deployment_w=deployment,
                      violations=violations, violation_magnitude=magnitude)


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
