"""Quasi-static replay of cyber-physical events against a reserve schedule.

Each step: apply the active events (diesel trips, load-masking attacks, solar
shortfalls) to the scheduled operating point, measure the supply-demand
imbalance, and deploy reserves with a proportional controller:

    deployment_d = capacity_d / total_capacity * min(imbalance, total_capacity)

where capacity_d is the device's allocated reserve clipped to what it can
physically deliver right now (a tripped diesel deploys nothing; a battery is
limited by its realized state of charge).  Deployment beyond the pool is
impossible: the residual is recorded as shortfall, never silently dropped.
The network state is re-evaluated each step by a direct linear flow solve at
the realized injections; device reactive output stays at schedule while load
reactive power follows served load.  Masked load is invisible to the operator
but present in the physics, so it surfaces through the imbalance measurement,
which is exactly how the controller notices it.

A run is strictly sequential in time; distinct runs over the same immutable
model and schedule (e.g. a Monte Carlo suite) may execute concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .advset import AXIS_CLASS, InnerPolytope, _simplex_points
from .constraints import PerUnit, device_groups, solve_linear_flow
from .network import NetworkModel
from .robust import RobustResult

EVENT_KINDS = (
    "dg_trip",
    "dg_restore",
    "load_mask_start",
    "load_mask_end",
    "pv_loss",
    "pv_restore",
)


@dataclass
class Event:
    time_min: float
    kind: str
    entity: str
    magnitude_w: float | None = None  # dg_trip/pv_loss default to the full amount


@dataclass
class EventTimeline:
    events: list[Event] = field(default_factory=list)

    def validate(self, model: NetworkModel) -> None:
        ids = {
            "dg": {u.id for u in model.dg_units},
            "load": {u.id for u in model.loads},
            "pv": {u.id for u in model.pv_units},
        }
        group = {
            "dg_trip": "dg", "dg_restore": "dg",
            "load_mask_start": "load", "load_mask_end": "load",
            "pv_loss": "pv", "pv_restore": "pv",
        }
        last_t = -math.inf
        active: set[tuple[str, str]] = set()
        for ev in self.events:
            if ev.kind not in EVENT_KINDS:
                raise ValueError(f"unknown event kind {ev.kind!r}")
            if ev.time_min < last_t:
                raise ValueError("event times must be non-decreasing")
            last_t = ev.time_min
            g = group[ev.kind]
            if ev.entity not in ids[g]:
                raise ValueError(f"event references unknown {g} entity {ev.entity!r}")
            key = (g, ev.entity)
            if ev.kind in ("dg_trip", "load_mask_start", "pv_loss"):
                active.add(key)
                if ev.kind == "load_mask_start" and ev.magnitude_w is None:
                    raise ValueError("load_mask_start needs a magnitude_w")
            else:
                if key not in active:
                    raise ValueError(
                        f"{ev.kind} for {ev.entity!r} has no matching start event"
                    )
                active.discard(key)


def compile_timeline(model: NetworkModel, timeline: EventTimeline) -> list[dict]:
    """Active event magnitudes per step: {(group, entity): magnitude_w}.

    An event at time t takes effect at the step whose interval contains t.
    Unclosed events stay active to the end of the horizon.
    """
    timeline.validate(model)
    step_min = model.dt_hours * 60.0
    by_step: dict[int, list[Event]] = {}
    for ev in timeline.events:
        k = int(ev.time_min // step_min)
        by_step.setdefault(k, []).append(ev)
    caps = {u.id: u.capacity_va for u in model.dg_units}
    active: dict[tuple[str, str], float] = {}
    out = []
    for k in range(model.steps):
        for ev in by_step.get(k, []):
            if ev.kind == "dg_trip":
                active[("dg", ev.entity)] = (
                    caps[ev.entity] if ev.magnitude_w is None else ev.magnitude_w
                )
            elif ev.kind == "dg_restore":
                active.pop(("dg", ev.entity), None)
            elif ev.kind == "load_mask_start":
                active[("load", ev.entity)] = ev.magnitude_w
            elif ev.kind == "load_mask_end":
                active.pop(("load", ev.entity), None)
            elif ev.kind == "pv_loss":
                active[("pv", ev.entity)] = ev.magnitude_w  # None = full forecast
            elif ev.kind == "pv_restore":
                active.pop(("pv", ev.entity), None)
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


def proportional_dispatch(
    imbalance_w: float, capacities_w: dict[str, float]
) -> tuple[dict[str, float], float]:
    """Split `imbalance_w` across devices in proportion to their capacity.

    Returns (per-device deployment, shortfall).  Deployments sum to
    min(imbalance, total capacity); with an empty pool everything is shortfall.
    """
    if any(c < 0 for c in capacities_w.values()):
        raise ValueError("reserve capacities must be non-negative")
    total = sum(capacities_w.values())
    if imbalance_w <= 0.0 or total <= 0.0:
        return {d: 0.0 for d in capacities_w}, max(imbalance_w, 0.0)
    deployed = min(imbalance_w, total)
    out = {d: c / total * deployed for d, c in capacities_w.items()}
    return out, imbalance_w - deployed


@dataclass
class Trajectory:
    """Per-step record of the simulated feeder state."""

    time_min: np.ndarray
    sched_gen_w: np.ndarray
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


def run_simulation(
    model: NetworkModel,
    robust: RobustResult,
    timeline: EventTimeline | None = None,
    per_step_events: list[dict] | None = None,
    voltage_tol: float = 1e-7,
) -> Trajectory:
    """Replay `timeline` (or precompiled per-step events) against the schedule."""
    if per_step_events is None:
        per_step_events = compile_timeline(model, timeline or EventTimeline())
    dispatch = robust.dispatch
    reserves = robust.reserves
    K = model.steps
    dt = model.dt_hours
    pu = PerUnit.of(model)

    soc = {u.id: np.zeros(K + 1) for u in model.storage_units}
    for u in model.storage_units:
        soc[u.id][0] = u.initial_soc_wh

    arrays = {
        name: np.zeros(K)
        for name in (
            "time_min", "sched_gen_w", "pv_w", "dg_w", "es_w", "served_load_w",
            "true_demand_w", "shed_w", "imbalance_w", "deployed_up_w",
            "deployed_down_w", "shortfall_w", "voltage_min_pu", "voltage_max_pu",
        )
    }
    deployment: dict[tuple[str, str], np.ndarray] = {}
    for cls_name, units in device_groups(model):
        for u in units:
            deployment[(cls_name, u.id)] = np.zeros(K)
    violations = {c: np.zeros(K, dtype=bool) for c in VIOLATION_CLASSES}
    magnitude = {c: np.zeros(K) for c in VIOLATION_CLASSES}

    for k in range(K):
        events = per_step_events[k] if k < len(per_step_events) else {}
        arrays["time_min"][k] = k * dt * 60.0

        # realized availability after events
        dg_cap = {}
        for u in model.dg_units:
            lost = events.get(("dg", u.id), 0.0)
            dg_cap[u.id] = max(u.capacity_va - lost, 0.0)
        pv_avail = {}
        for u in model.pv_units:
            lost = events.get(("pv", u.id))
            fc = float(u.forecast_w[k])
            if ("pv", u.id) in events:
                pv_avail[u.id] = max(fc - (fc if lost is None else lost), 0.0)
            else:
                pv_avail[u.id] = fc

        # forced deviations from schedule
        pv0 = {u.id: min(dispatch.pv_p[u.id][k], pv_avail[u.id]) for u in model.pv_units}
        dg0 = {u.id: min(dispatch.dg_p[u.id][k], dg_cap[u.id]) for u in model.dg_units}
        es0 = {u.id: dispatch.es_p[u.id][k] for u in model.storage_units}
        load_sched = {u.id: dispatch.load_p[u.id][k] for u in model.loads}
        mask = {u.id: events.get(("load", u.id), 0.0) for u in model.loads}

        forced_loss = sum(dispatch.pv_p[u.id][k] - pv0[u.id] for u in model.pv_units)
        forced_loss += sum(dispatch.dg_p[u.id][k] - dg0[u.id] for u in model.dg_units)
        imbalance = sum(mask.values()) + forced_loss
        arrays["imbalance_w"][k] = imbalance

        # deployable reserve: allocation clipped by physics right now
        caps_up: dict[tuple[str, str], float] = {}
        caps_dn: dict[tuple[str, str], float] = {}
        for u in model.pv_units:
            caps_up[("pv", u.id)] = max(
                min(reserves.up[("pv", u.id)][k], pv_avail[u.id] - pv0[u.id]), 0.0
            )
            caps_dn[("pv", u.id)] = max(min(reserves.down[("pv", u.id)][k], pv0[u.id]), 0.0)
        for u in model.dg_units:
            caps_up[("dg", u.id)] = max(
                min(reserves.up[("dg", u.id)][k], dg_cap[u.id] - dg0[u.id]), 0.0
            )
            caps_dn[("dg", u.id)] = max(min(reserves.down[("dg", u.id)][k], dg0[u.id]), 0.0)
        for u in model.storage_units:
            e_now = soc[u.id][k]
            rate_up = u.power_w - es0[u.id]
            rate_dn = u.power_w + es0[u.id]
            energy_up = (e_now - u.energy_min_wh) / dt - es0[u.id]
            energy_dn = (u.energy_max_wh - e_now) / dt + es0[u.id]
            caps_up[("es", u.id)] = max(
                min(reserves.up[("es", u.id)][k], rate_up, energy_up), 0.0
            )
            caps_dn[("es", u.id)] = max(
                min(reserves.down[("es", u.id)][k], rate_dn, energy_dn), 0.0
            )
        for u in model.loads:
            draw = load_sched[u.id] + mask[u.id]
            caps_up[("load", u.id)] = max(
                min(reserves.up[("load", u.id)][k], draw - float(u.minimum_w[k])), 0.0
            )
            caps_dn[("load", u.id)] = max(
                min(
                    reserves.down[("load", u.id)][k],
                    float(u.desired_w[k]) - load_sched[u.id],
                ),
                0.0,
            )

        keyed_caps = {f"{c}:{i}": v for (c, i), v in caps_up.items()}
        if imbalance >= 0.0:
            dep, shortfall = proportional_dispatch(imbalance, keyed_caps)
            up_dep = {tuple(d.split(":", 1)): v for d, v in dep.items()}
            dn_dep = {key: 0.0 for key in caps_dn}
            arrays["deployed_up_w"][k] = sum(up_dep.values())
        else:
            keyed_dn = {f"{c}:{i}": v for (c, i), v in caps_dn.items()}
            dep, shortfall = proportional_dispatch(-imbalance, keyed_dn)
            dn_dep = {tuple(d.split(":", 1)): v for d, v in dep.items()}
            up_dep = {key: 0.0 for key in caps_up}
            arrays["deployed_down_w"][k] = sum(dn_dep.values())
        arrays["shortfall_w"][k] = shortfall

        # realized operating point
        pv_real = {
            u.id: pv0[u.id] + up_dep[("pv", u.id)] - dn_dep[("pv", u.id)]
            for u in model.pv_units
        }
        dg_real = {
            u.id: dg0[u.id] + up_dep[("dg", u.id)] - dn_dep[("dg", u.id)]
            for u in model.dg_units
        }
        es_real = {
            u.id: es0[u.id] + up_dep[("es", u.id)] - dn_dep[("es", u.id)]
            for u in model.storage_units
        }
        shed = {u.id: up_dep[("load", u.id)] for u in model.loads}
        served = {
            u.id: load_sched[u.id] + mask[u.id] - shed[u.id] + dn_dep[("load", u.id)]
            for u in model.loads
        }
        for key, val in up_dep.items():
            deployment[key][k] = val - dn_dep[key]

        arrays["pv_w"][k] = sum(pv_real.values())
        arrays["dg_w"][k] = sum(dg_real.values())
        arrays["es_w"][k] = sum(es_real.values())
        arrays["sched_gen_w"][k] = sum(
            dispatch.pv_p[u.id][k] for u in model.pv_units
        ) + sum(dispatch.dg_p[u.id][k] for u in model.dg_units) + sum(
            dispatch.es_p[u.id][k] for u in model.storage_units
        )
        arrays["true_demand_w"][k] = sum(load_sched.values()) + sum(mask.values())
        arrays["shed_w"][k] = sum(shed.values())
        # demand-side ledger: demand = served + shed + unserved shortfall
        # (a down-direction shortfall is unabsorbed surplus, not unserved load)
        up_shortfall = shortfall if imbalance >= 0.0 else 0.0
        arrays["served_load_w"][k] = (
            arrays["true_demand_w"][k] - arrays["shed_w"][k]
            + sum(dn_dep[("load", u.id)] for u in model.loads) - up_shortfall
        )

        # state of charge
        for u in model.storage_units:
            soc[u.id][k + 1] = soc[u.id][k] - es_real[u.id] * dt
            e = soc[u.id][k + 1]
            excess = max(u.energy_min_wh - e, e - u.energy_max_wh)
            if excess > 1e-6 * u.energy_max_wh:
                violations["soc"][k] = True
                magnitude["soc"][k] = max(magnitude["soc"][k], excess)

        # network state at the realized injections
        injections: dict[tuple[str, str], tuple[float, float]] = {}

        def inject(bus_id: str, p_w: float, q_w: float) -> None:
            bus = model.bus(bus_id)
            share = 1.0 / len(bus.phases)
            for phase in bus.phases:
                p0, q0 = injections.get((bus_id, phase), (0.0, 0.0))
                injections[(bus_id, phase)] = (
                    p0 + share * pu.power(p_w), q0 + share * pu.power(q_w),
                )

        for u in model.pv_units:
            inject(u.bus, pv_real[u.id], dispatch.pv_q[u.id][k])
        for u in model.dg_units:
            inject(u.bus, dg_real[u.id], dispatch.dg_q[u.id][k])
        for u in model.storage_units:
            inject(u.bus, es_real[u.id], dispatch.es_q[u.id][k])
        for u in model.loads:
            inject(u.bus, -served[u.id], -served[u.id] * math.tan(math.acos(u.power_factor)))

        flows, w = solve_linear_flow(model, injections)
        w_vals = np.array(list(w.values()))
        arrays["voltage_min_pu"][k] = math.sqrt(max(w_vals.min(), 0.0))
        arrays["voltage_max_pu"][k] = math.sqrt(w_vals.max())
        for (bus_id, phase), wv in w.items():
            bus = model.bus(bus_id)
            v = math.sqrt(max(wv, 0.0))
            over = max(bus.v_min - v, v - bus.v_max)
            if over > voltage_tol:
                violations["voltage"][k] = True
                magnitude["voltage"][k] = max(magnitude["voltage"][k], over)
        for br in model.branches:
            limit = pu.power(br.flow_limit_va)
            for phase in br.phases:
                fp, fq = flows[(br.id, phase)]
                over = math.hypot(fp, fq) - limit
                if over > 1e-6:
                    violations["line"][k] = True
                    magnitude["line"][k] = max(
                        magnitude["line"][k], over * pu.s_base
                    )
        if shortfall > 1e-3:
            violations["shortfall"][k] = True
            magnitude["shortfall"][k] = shortfall

    return Trajectory(
        time_min=arrays["time_min"],
        sched_gen_w=arrays["sched_gen_w"],
        pv_w=arrays["pv_w"],
        dg_w=arrays["dg_w"],
        es_w=arrays["es_w"],
        served_load_w=arrays["served_load_w"],
        true_demand_w=arrays["true_demand_w"],
        shed_w=arrays["shed_w"],
        imbalance_w=arrays["imbalance_w"],
        deployed_up_w=arrays["deployed_up_w"],
        deployed_down_w=arrays["deployed_down_w"],
        shortfall_w=arrays["shortfall_w"],
        soc_wh=soc,
        deployment_w=deployment,
        voltage_min_pu=arrays["voltage_min_pu"],
        voltage_max_pu=arrays["voltage_max_pu"],
        violations=violations,
        violation_magnitude=magnitude,
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
