"""Reserve-aware dispatch that stays feasible over a box of adversarial events.

The uncertain parameters are diesel capacity (outages), desired load
(masking attacks raise the true demand), and the solar forecast (sudden
cloud cover).  For a box, the robust counterpart of a row is the same row
evaluated at the box's worst end, so the box is read once (:func:`tighten`)
into its worst case in pu and the rows are emitted with those numbers:

  * a PV up-band p + R+ <= forecast is capped at the forecast's low end;
  * the load-balance equality cannot be tightened that way, so it is
    reformulated through recourse: per step, the guaranteed up-reserve pool
    must cover the worst-case imbalance (load-mask widths plus worst-case
    generation losses), and symmetrically for the down direction.

A diesel unit whose capacity can fall at some step cannot promise its own
reserves there, so its reserve variables are excluded from that step's
coverage pool; its worst-case output loss max(0, P - cap_low) enters the
requirement side through a helper variable instead.  Reserves are priced per
class at a fraction of the matching energy weight, so they are allocated only
when the box demands them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constraints import (
    BuildOptions,
    P_DG_CAPACITY,
    P_PV_FORECAST,
    PARAM_CLASS,
    ParamKey,
    PerUnit,
    VariableNamespace,
    build_feeder_lp,
    device_groups,
    device_window,
    reserve_room,
)
from .dispatch import (
    CostConfig,
    DispatchResult,
    device_series,
    require_valid,
    series_map,
    series_map_json,
    set_dispatch_objective,
    solve_dispatch_lp,
)
from .lp import Rel, SolverOptions
from .network import InputError, NetworkModel, non_negative_series, number, record, series


@dataclass
class UncertaintyBox:
    """Per-parameter interval [lo, hi] around a nominal value, in SI units.

    Keys are (parameter kind, entity id, step).  Parameters not present are
    certain at their model value.
    """

    entries: dict[ParamKey, tuple[float, float, float]] = field(default_factory=dict)

    def add(self, kind: str, entity: str, step: int, lo: float, nom: float, hi: float) -> None:
        if not all(map(math.isfinite, (lo, nom, hi))):
            raise ValueError(f"box entry {kind}/{entity}/{step}: lo, nom and hi must be "
                             f"finite, got {lo}, {nom}, {hi}")
        if not lo <= nom <= hi:
            raise ValueError(f"box entry {kind}/{entity}/{step}: need lo <= nom <= hi")
        self.entries[(kind, entity, step)] = (float(lo), float(nom), float(hi))


@dataclass
class WorstCase:
    """The worst case of an uncertainty box, in pu.

    `pv_floor` holds the low end of each uncertain solar forecast and
    `dg_floor` the low end of each diesel capacity that can fall, both keyed
    by (unit id, step); `mask_up` and `mask_down` sum the masked-load widths
    above and below nominal per step.
    """

    pv_floor: dict[tuple[str, int], float]
    dg_floor: dict[tuple[str, int], float]
    mask_up: np.ndarray
    mask_down: np.ndarray


def tighten(box: UncertaintyBox, model: NetworkModel) -> WorstCase:
    """Read `box` once into its worst case for the robust dispatch rows.

    Each entry is checked as it is read, since `entries` can be written past
    :meth:`UncertaintyBox.add`: the first whose kind is unknown, whose entity
    is no unit of that kind's class, whose step lies outside the horizon or
    whose bounds are out of order raises ValueError.  A diesel entry whose
    capacity cannot fall by more than 1e-12 pu is treated as certain and
    yields no floor.
    """
    pu = PerUnit.of(model)
    ids = {cls: {u.id for u in units} for cls, units in device_groups(model)}
    worst = WorstCase({}, {}, np.zeros(model.steps), np.zeros(model.steps))
    for (kind, entity, k), (lo, nom, hi) in box.entries.items():
        if kind not in PARAM_CLASS:
            raise ValueError(f"unknown uncertain parameter kind {kind!r}")
        if entity not in ids[PARAM_CLASS[kind]]:
            raise ValueError(f"box references unknown entity {entity!r} for {kind}")
        if not 0 <= k < model.steps:
            raise ValueError(f"box step {k} outside horizon")
        if not lo <= nom <= hi:
            raise ValueError(f"box entry {kind}/{entity}/{k}: lo <= nom <= hi violated")
        if kind == P_PV_FORECAST:
            worst.pv_floor[(entity, k)] = pu.power(lo)
        elif kind == P_DG_CAPACITY:
            if pu.power(nom - lo) > 1e-12:
                worst.dg_floor[(entity, k)] = pu.power(lo)
        else:  # masked desired load
            worst.mask_up[k] += pu.power(hi - nom)
            worst.mask_down[k] += pu.power(nom - lo)
    return worst


@dataclass
class ReserveCosts:
    pv: float
    dg: float
    es: float
    load: float

    @classmethod
    def from_costs(cls, costs: CostConfig, pv: float = 0.2, dg: float = 0.2,
                   es: float = 0.15, load: float = 0.2) -> "ReserveCosts":
        # each class priced at a factor of its energy counterpart, by default
        # below it; storage (unpriced in the dispatch objective) sits just
        # under diesel so event response leans on the batteries first
        for name, factor in {"pv": pv, "dg": dg, "es": es, "load": load}.items():
            if not factor >= 0.0:  # NaN fails too
                raise ValueError(f"{name} must be a non-negative number, got {factor}")
            if not math.isfinite(factor):
                raise ValueError(f"{name} must be finite, got {factor}")
        return cls(
            pv=pv * costs.pv_curtail,
            dg=dg * costs.dg_energy,
            es=es * costs.dg_energy,
            load=load * costs.load_curtail,
        )


@dataclass
class ReserveSchedule:
    """Up/down reserve headroom per device and step, in W."""

    up: dict[tuple[str, str], np.ndarray] = field(default_factory=dict)
    down: dict[tuple[str, str], np.ndarray] = field(default_factory=dict)

    def total_up(self, k: int) -> float:
        return float(sum(arr[k] for arr in self.up.values()))

    def total_down(self, k: int) -> float:
        return float(sum(arr[k] for arr in self.down.values()))

    @classmethod
    def zero(cls, model: NetworkModel) -> "ReserveSchedule":
        sched = cls()
        for cls_name, units in device_groups(model):
            for u in units:
                sched.up[(cls_name, u.id)] = np.zeros(model.steps)
                sched.down[(cls_name, u.id)] = np.zeros(model.steps)
        return sched

    @classmethod
    def from_headroom(cls, model: NetworkModel, dispatch: DispatchResult) -> "ReserveSchedule":
        """The implicit flexibility of a dispatch: distance to device limits.

        This is the reserve notion that applies to a plain economic dispatch,
        where nothing was explicitly set aside but headroom still exists: the
        room of each device's schedule inside its window, a battery's window
        narrowed by the energy entering each step.
        """
        sched = cls()
        for c, units in device_groups(model):
            for u in units:
                key = (c, u.id)
                e_in = dispatch.soc_wh[u.id] if c == "es" else [None] * model.steps
                lo, hi = np.array([device_window(c, u, k, e_in=e_in[k], dt=model.dt_hours)
                                   for k in range(model.steps)]).T
                up, down = reserve_room(c, lo, hi, dispatch.p[key])
                sched.up[key] = np.maximum(up, 0.0)
                sched.down[key] = np.maximum(down, 0.0)
        return sched


_read_robust = record({"dispatch": DispatchResult.from_json_dict,
                      "reserves": record(dict.fromkeys(
                          ("up", "down"), series_map(paired=True, read=non_negative_series))),
                      "objective_value": number, "reserve_cost": number,
                      "worst_up_w": series, "worst_down_w": series})


@dataclass
class RobustResult:
    dispatch: DispatchResult
    reserves: ReserveSchedule
    objective_value: float  # dispatch cost plus reserve cost
    reserve_cost: float
    worst_up_w: np.ndarray  # per-step worst-case up requirement covered
    worst_down_w: np.ndarray

    def to_json_dict(self) -> dict:
        return {"dispatch": self.dispatch.to_json_dict(),
                "reserves": {"up": series_map_json(self.reserves.up),
                             "down": series_map_json(self.reserves.down)},
                "objective_value": self.objective_value, "reserve_cost": self.reserve_cost,
                "worst_up_w": [float(v) for v in self.worst_up_w],
                "worst_down_w": [float(v) for v in self.worst_down_w]}

    @classmethod
    def from_json_dict(cls, doc, path: str = "") -> "RobustResult":
        doc = _read_robust(doc, path)
        return cls(**{**doc, "reserves": ReserveSchedule(**doc["reserves"])})

    def check_schedule(self, model: NetworkModel) -> None:
        """Raise InputError unless every device of `model` has p, q, up- and down-reserve
        series of model.steps values, and every storage unit a soc_wh series of steps + 1."""
        d, r, k = self.dispatch, self.reserves, model.steps
        want = {f"dispatch.soc_wh.{u.id}": (d.soc_wh.get(u.id), k + 1)
                for u in model.storage_units}
        for c, units in device_groups(model):
            for u in units:
                key = (c, u.id)
                want.update({f"dispatch.{c}_p_w.{u.id}": (d.p.get(key), k),
                             f"dispatch.{c}_q_w.{u.id}": (d.q.get(key), k),
                             f"reserves.up.{c}:{u.id}": (r.up.get(key), k),
                             f"reserves.down.{c}:{u.id}": (r.down.get(key), k)})
        for path, (arr, n) in want.items():
            if arr is None or len(arr) != n:
                got = "no series" if arr is None else f"{len(arr)} values"
                raise InputError(f"{path}: expected {n} values, got {got}")


def build_robust_lp(
    model: NetworkModel,
    costs: CostConfig,
    reserve_costs: ReserveCosts,
    box: UncertaintyBox,
    options: BuildOptions | None = None,
) -> tuple[VariableNamespace, WorstCase]:
    """The reserve dispatch LP against `box` as `ns.lp`, and the box's worst case."""
    worst = tighten(box, model)
    ns = build_feeder_lp(model, options or BuildOptions(), reserves=True,
                         pv_floor=worst.pv_floor)
    lp = ns.lp

    # worst-case output-loss helpers, `ns.dg_loss` by (unit id, step):
    # loss >= P - cap_low, loss >= 0
    dg_loss = ns.dg_loss = {(uid, k): lp.add_variable(f"dgloss[{uid},{k}]", 0.0)
                            for uid, k in sorted(worst.dg_floor)}
    for key, idx in dg_loss.items():
        lp.add_row({ns.p[("dg", *key)]: 1.0, idx: -1.0}, Rel.LE,
                   worst.dg_floor[key], "reserve_coverage")

    # per-step coverage: guaranteed reserves must absorb the worst-case
    # imbalance; reserves of capacity-uncertain diesel units do not count
    for k in range(model.steps):
        mask_up = worst.mask_up[k]
        mask_down = worst.mask_down[k]
        up_coeffs: dict[int, float] = {}
        dn_coeffs: dict[int, float] = {}
        for cls_name, units in device_groups(model):
            for u in units:
                if cls_name == "dg" and (u.id, k) in worst.dg_floor:
                    continue
                up_coeffs[ns.r_up[(cls_name, u.id, k)]] = -1.0
                dn_coeffs[ns.r_dn[(cls_name, u.id, k)]] = -1.0
        losses_at_k = [idx for (_dg_id, kk), idx in dg_loss.items() if kk == k]
        up_coeffs.update(dict.fromkeys(losses_at_k, 1.0))
        if mask_up > 0.0 or losses_at_k:
            lp.add_row(up_coeffs, Rel.LE, -mask_up, "reserve_coverage")
        if mask_down > 0.0:
            lp.add_row(dn_coeffs, Rel.LE, -mask_down, "reserve_coverage")

    set_dispatch_objective(ns, model, costs)
    for (cls_name, _uid, _k), idx in [*ns.r_up.items(), *ns.r_dn.items()]:
        lp.add_objective_term(idx, getattr(reserve_costs, cls_name))
    return ns, worst


def solve_robust(
    model: NetworkModel,
    costs: CostConfig | None = None,
    reserve_costs: ReserveCosts | None = None,
    box: UncertaintyBox | None = None,
    options: BuildOptions | None = None,
    solver: SolverOptions | None = None,
) -> RobustResult:
    """Solve the reserve-allocating dispatch against `box`.

    Infeasibility here means the box exceeds what any reserve allocation can
    cover at the stated device limits.
    """
    require_valid(model)
    costs = costs or CostConfig()
    reserve_costs = reserve_costs or ReserveCosts.from_costs(costs)
    box = box or UncertaintyBox()

    ns, worst = build_robust_lp(model, costs, reserve_costs, box, options)
    sol, dispatch = solve_dispatch_lp(model, costs, ns, solver, "robust")
    x, s = sol.values, PerUnit.of(model).s_base

    # reserves are definitionally non-negative; strip basic-variable dust
    up, down = ({key: np.maximum(arr, 0.0)
                 for key, arr in device_series(model, cols, x, s).items()}
                for cols in (ns.r_up, ns.r_dn))
    reserve_cost = 0.0  # priced as the LP's objective prices it
    for idx in [*ns.r_up.values(), *ns.r_dn.values()]:
        reserve_cost += ns.lp.objective[idx] * x[idx]

    total = dispatch.objective_value
    dispatch.objective_value = total - reserve_cost  # the pure dispatch part

    # realized worst-case requirement includes the diesel loss terms
    worst_up = worst.mask_up.copy()
    for (_dg_id, k), idx in ns.dg_loss.items():
        worst_up[k] += x[idx]

    return RobustResult(
        dispatch=dispatch,
        reserves=ReserveSchedule(up, down),
        objective_value=total,
        reserve_cost=reserve_cost,
        worst_up_w=worst_up * s,
        worst_down_w=worst.mask_down * s,
    )
