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
feeder's `RadialPlan`, the one layout of its devices and of its voltage and
line limits that the LP is built from too, the per-step schedule, reserves
and windows by position, the loads' reactive ratios), built once by
`compile_replay`.  A device's position is its index in the plan's
`device_groups` order.  It also holds each step's ledger with no event and
each limit's band, narrowed inward beyond any rounding.  A run copies a
step's ledger and recomputes only the devices its events touch and the
batteries, evaluates a limit only outside its band, and builds each
`Trajectory` array once, at the end.  Runs only read the compiled replay, so
every run of a command shares one.  A run is strictly sequential in time;
distinct runs over the same compiled replay (e.g. a Monte Carlo suite) may
execute concurrently.
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
LINE_TOL = 1e-6  # pu of apparent flow above a line's limit flagged as a violation
BAND_MARGIN = 1e-9  # relative; millions of ulps, beyond any rounding of a square or a root

_STEP_SERIES = (
    "time_min", "pv_w", "dg_w", "es_w", "served_load_w",
    "true_demand_w", "shed_w", "imbalance_w", "deployed_up_w",
    "deployed_down_w", "shortfall_w", "voltage_min_pu", "voltage_max_pu",
)


@dataclass(frozen=True)
class CompiledReplay:
    """What every replay of one schedule on one model reads, built once by
    :func:`compile_replay` and never written by :func:`run_simulation`.

    `plan`, the feeder's `RadialPlan`, lays out the devices and carries the
    voltage and line limits.  A device's position is its index in
    `plan.devices`, its (class, unit) pairs in `device_groups` order, so
    each class's positions are one range (`plan.positions`).  Per step,
    `p`, `q`, `up` and `down` hold each device's scheduled active and
    reactive output and its up and down reserve by position, and `window`
    each device's `device_window`, None for a battery, whose window depends
    on its realized state of charge: a run works it out per step for each
    battery.  `ledger` holds each step's setpoints with no event and the
    capacities, each reserve clipped to its `_ledger` room, by position (None
    at a battery), then its scheduled load total.  `tan_phi` holds each
    load's reactive to active power ratio.  All are Python floats.
    `voltage_band`, the squared voltage of every slot, and `line_bands`,
    each drop's squared apparent flow, lie `BAND_MARGIN` inside
    v_min - VOLTAGE_TOL, v_max + VOLTAGE_TOL and limit + LINE_TOL.
    """

    steps: int
    dt: float
    plan: RadialPlan
    p: tuple[tuple[float, ...], ...]
    q: tuple[tuple[float, ...], ...]
    up: tuple[tuple[float, ...], ...]
    down: tuple[tuple[float, ...], ...]
    window: tuple[tuple[tuple[float, float] | None, ...], ...]
    ledger: tuple  # (point, cap_up, cap_dn, demand)
    tan_phi: tuple[float, ...]
    voltage_band: tuple[float, float]
    line_bands: tuple[float, ...]


def compile_replay(model: NetworkModel, robust: RobustResult) -> CompiledReplay:
    """The invariants of replaying `robust`'s schedule on `model`."""
    plan = RadialPlan.of(model)
    devices = plan.devices
    steps = range(model.steps)

    def per_step(series: dict[tuple[str, str], np.ndarray]) -> tuple[tuple[float, ...], ...]:
        columns = [series[key] for key in plan.position]
        return tuple(tuple(float(column[k]) for column in columns) for k in steps)

    p, up, down = (per_step(s) for s in (robust.dispatch.p, robust.reserves.up,
                                         robust.reserves.down))
    window = tuple(tuple(None if cls == "es" else device_window(cls, u, k)
                         for cls, u in devices) for k in steps)

    def ledger(k: int) -> tuple:
        sched, loads = p[k], plan.positions["load"]
        entries = [(None,) * 3 if cls == "es" else _ledger(cls, sched[i], window[k][i], {}, i)
                   for i, (cls, _u) in enumerate(devices)]
        point, room_up, room_dn = (tuple(entry[j] for entry in entries) for j in range(3))
        caps = (tuple(None if m is None else max(min(r, m), 0.0) for r, m in zip(reserve, room))
                for reserve, room in ((up[k], room_up), (down[k], room_dn)))
        return point, *caps, _total(sched[loads.start:loads.stop])

    limits = plan.voltage_limits
    return CompiledReplay(
        steps=model.steps,
        dt=model.dt_hours,
        plan=plan,
        p=p,
        q=per_step(robust.dispatch.q),
        up=up,
        down=down,
        window=window,
        ledger=tuple(map(ledger, steps)),
        tan_phi=tuple(u.tan_phi for u in model.loads),
        voltage_band=(max(((lo - VOLTAGE_TOL) * (1.0 + BAND_MARGIN)) ** 2 for lo, _ in limits),
                      min(((hi + VOLTAGE_TOL) * (1.0 - BAND_MARGIN)) ** 2 for _, hi in limits)),
        line_bands=tuple(((limit + LINE_TOL) * (1.0 - BAND_MARGIN)) ** 2
                         for limit in plan.line_limits),
    )


def _ledger(cls: str, sched: float, window: tuple[float, float],
            events: dict[int, float | None], i: int) -> tuple[float, float, float]:
    """(setpoint after events, room up, room down) of the device of class
    `cls` at position i, scheduled at `sched` in the window [lo, hi] (a
    battery's narrowed by its realized state of charge), given the active
    events by position.  A diesel trip or a solar shortfall lowers a
    generator's top, and its setpoint is the schedule clipped to what
    survives.  A mask moves only a load's draw, to schedule plus masked
    demand: shedding starts from that draw, while the room to draw more is
    what the operator sees, above the schedule."""
    lo, hi = window
    if cls == "load":
        draw = sched + events.get(i, 0.0)
        return draw, draw - lo, hi - sched
    if i in events:
        lost = events[i]
        hi = max(hi - (hi if lost is None else lost), 0.0)
    point = sched if cls == "es" else min(sched, hi)
    return (point, *reserve_room(cls, lo, hi, point))


def _limit_flags(replay: CompiledReplay, fp: Sequence[float], fq: Sequence[float],
                 w: Sequence[float]) -> list[tuple[str, float]]:
    """("voltage", excess in pu) per slot and then ("line", excess in W) per
    drop that flags at a flow solve's squared voltages `w` and flows `fp`,
    `fq`, by the exact formula, which only a slot or drop outside its band
    needs: inside it, no limit flags."""
    plan, (lo, hi) = replay.plan, replay.voltage_band
    flags = []
    if not (lo <= min(w) and max(w) <= hi):
        for w_k, (v_min, v_max) in zip(w, plan.voltage_limits):
            if not lo <= w_k <= hi:
                v = math.sqrt(max(w_k, 0.0))
                over = max(v_min - v, v - v_max)
                if over > VOLTAGE_TOL:
                    flags.append(("voltage", over))
    for p, q, band, limit in zip(fp, fq, replay.line_bands, plan.line_limits):
        if not p * p + q * q <= band:
            over = math.hypot(p, q) - limit
            if over > LINE_TOL:
                flags.append(("line", over * plan.s_base))
    return flags


def run_simulation(replay: CompiledReplay, events: list[dict]) -> Trajectory:
    """Replay per-step events against the compiled schedule: `events[k]` maps
    (class, entity) to the magnitude active at step k; steps past the list
    have none."""
    K = replay.steps
    dt = replay.dt
    plan = replay.plan
    devices, position, positions = plan.devices, plan.position, plan.positions
    at = {cls: slice(r.start, r.stop) for cls, r in positions.items()}
    pv, dg, es, loads = (positions[cls] for cls in ("pv", "dg", "es", "load"))
    cut = loads.start  # loads come last in `device_groups` order
    batteries = [u for _cls, u in devices[at["es"]]]

    soc = [[float(u.initial_soc_wh)] for u in batteries]
    rows, deployment = [], []  # per step: its `_STEP_SERIES`, its deployment by position
    violations = {c: [False] * K for c in VIOLATION_CLASSES}
    magnitude = {c: [0.0] * K for c in VIOLATION_CLASSES}

    def flag(name: str, k: int, size: float) -> None:
        violations[name][k] = True
        magnitude[name][k] = max(magnitude[name][k], size)

    for k in range(K):
        sched, window = replay.p[k], replay.window[k]
        point, cap_up, cap_dn, demand = replay.ledger[k]
        # a mask deeper than a load's scheduled draw applies as minus that
        # draw: the draw floors at zero, a load never generates
        step_events = {}
        for key, mag in (events[k] if k < len(events) else {}).items():
            i = position[key]
            step_events[i] = max(mag, -sched[i]) if i in loads else mag

        # the ledger: per device, its setpoint after events, the step's
        # compiled one except where an event touches a device and at every
        # battery, which are recomputed with their room to move (up, down)
        point, rooms = list(point), {}
        for i in step_events:
            point[i], *rooms[i] = _ledger(devices[i][0], sched[i], window[i], step_events, i)
        for i, u, energy in zip(es, batteries, soc):
            point[i], *rooms[i] = _ledger(
                "es", sched[i], device_window("es", u, k, e_in=energy[k], dt=dt), step_events, i)

        masked = _total([step_events.get(i, 0.0) for i in loads])
        forced_loss = (_total([sched[i] - point[i] for i in pv])
                       + _total([sched[i] - point[i] for i in dg]))
        imbalance = masked + forced_loss

        # deployable reserve in the active direction: the allocation clipped
        # by what the device can physically deliver right now
        up = imbalance >= 0.0
        reserve, caps = (replay.up[k], list(cap_up)) if up else (replay.down[k], list(cap_dn))
        for i, (room_up, room_dn) in rooms.items():
            caps[i] = max(min(reserve[i], room_up if up else room_dn), 0.0)
        dep, shortfall = proportional_dispatch(imbalance if up else -imbalance, caps)
        deployed = _total(dep)

        # realized operating point, loads moving opposite to generators: the
        # setpoint plus up minus down deployment, the idle direction's 0.0
        # kept where it can turn -0.0 into +0.0 (x - 0.0 is x for every float)
        if up:
            realized = ([p0 + d for p0, d in zip(point[:cut], dep)]
                        + [p0 - d + 0.0 for p0, d in zip(point[cut:], dep[cut:])])
            deployment.append(dep)
        else:
            realized = ([p0 + 0.0 - d for p0, d in zip(point[:cut], dep)]
                        + [p0 + d for p0, d in zip(point[cut:], dep[cut:])])
            deployment.append([0.0 - d for d in dep])

        true_demand = demand + masked
        load_dep = _total(dep[cut:])  # shed up, absorbed down
        shed = load_dep if up else 0.0
        # demand-side ledger: demand = served + shed + unserved shortfall
        # (a down-direction shortfall is unabsorbed surplus, not unserved load)
        served = true_demand - shed + (0.0 if up else load_dep) - (shortfall if up else 0.0)

        # state of charge
        for i, u, energy in zip(es, batteries, soc):
            e = energy[k] - realized[i] * dt
            energy.append(e)
            excess = max(u.energy_min_wh - e, e - u.energy_max_wh)
            if excess > 1e-6 * u.energy_max_wh:
                flag("soc", k, excess)

        # network state at the realized outputs; a load's reactive power
        # follows its served load
        q_w = list(replay.q[k])
        q_w[cut:] = [p * tan_phi for p, tan_phi in zip(realized[cut:], replay.tan_phi)]
        fp, fq, w = solve_linear_flow(replay.plan, realized, q_w)
        rows.append((k * dt * 60.0, _total(realized[at["pv"]]), _total(realized[at["dg"]]),
                     _total(realized[at["es"]]), served, true_demand, shed, imbalance,
                     deployed if up else 0.0, 0.0 if up else deployed, shortfall,
                     math.sqrt(max(min(w), 0.0)), math.sqrt(max(w))))
        for name, size in _limit_flags(replay, fp, fq, w):
            flag(name, k, size)
        if shortfall > 1e-3:
            flag("shortfall", k, shortfall)

    series = np.array(rows, dtype=float).reshape(K, len(_STEP_SERIES)).T.copy()
    columns = np.array(deployment, dtype=float).reshape(K, len(devices)).T.copy()
    return Trajectory(
        **dict(zip(_STEP_SERIES, series)),
        soc_wh={u.id: np.array(energy) for u, energy in zip(batteries, soc)},
        deployment_w=dict(zip(position, columns)),
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
    counts = {c: int(np.count_nonzero(traj.violations[c])) for c in VIOLATION_CLASSES}
    max_mag = {c: float(traj.violation_magnitude[c].max()) for c in VIOLATION_CLASSES}
    return ViolationSummary(counts, max_mag)
