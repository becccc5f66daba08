"""Reserve-aware dispatch that stays feasible over a box of adversarial events.

The uncertain parameters are diesel capacity (outages), desired load
(masking attacks raise the true demand), and the solar forecast (sudden
cloud cover).  Robustification is by explicit worst-case substitution:

  * inequality rows that carry an uncertain parameter are tightened
    coordinate-wise by the sign of its coefficient (:func:`tighten`);
  * the load-balance equality cannot be tightened that way, so it is
    reformulated through recourse: per step, the guaranteed up-reserve pool
    must cover the worst-case imbalance (load-mask widths plus worst-case
    generation losses), and symmetrically for the down direction.

A diesel unit whose capacity is uncertain at some step cannot promise its own
reserves there, so its reserve variables are excluded from that step's
coverage pool; its worst-case output loss max(0, P - cap_low) enters the
requirement side through a helper variable instead.  Reserves are priced per
class at a fraction of the matching energy weight, so they are allocated only
when the box demands them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constraints import (
    BuildOptions,
    P_DG_CAPACITY,
    P_LOAD_DESIRED,
    P_PV_FORECAST,
    ParamKey,
    PerUnit,
    URow,
    apply_emissions,
    build_namespace,
    device_groups,
    emit_limits,
    emit_power_balance,
    emit_voltage_drop,
    nominal_params,
)
from .dispatch import (
    CostConfig,
    DispatchResult,
    InfeasibleDispatch,
    extract_result,
    set_dispatch_objective,
    _objective_constant,
)
from .lp import LpStatus, Rel, SolverOptions, solve
from .network import NetworkModel, validate


class UncertainEqualityRow(ValueError):
    """An equality row carries an uncertain parameter; reformulate via recourse."""


@dataclass
class UncertaintyBox:
    """Per-parameter interval [lo, hi] around a nominal value, in SI units.

    Keys are (parameter kind, entity id, step).  Parameters not present are
    certain at their model value.
    """

    entries: dict[ParamKey, tuple[float, float, float]] = field(default_factory=dict)

    def add(self, kind: str, entity: str, step: int, lo: float, nom: float, hi: float) -> None:
        if not lo <= nom <= hi:
            raise ValueError(f"box entry {kind}/{entity}/{step}: need lo <= nom <= hi")
        self.entries[(kind, entity, step)] = (float(lo), float(nom), float(hi))

    def is_zero_width(self, tol: float = 0.0) -> bool:
        return all(hi - lo <= tol for lo, _n, hi in self.entries.values())

    def validate(self, model: NetworkModel) -> None:
        known = {
            P_PV_FORECAST: {u.id for u in model.pv_units},
            P_DG_CAPACITY: {u.id for u in model.dg_units},
            P_LOAD_DESIRED: {u.id for u in model.loads},
        }
        for (kind, entity, step), (lo, nom, hi) in self.entries.items():
            if kind not in known:
                raise ValueError(f"unknown uncertain parameter kind {kind!r}")
            if entity not in known[kind]:
                raise ValueError(f"box references unknown entity {entity!r} for {kind}")
            if not 0 <= step < model.steps:
                raise ValueError(f"box step {step} outside horizon")
            if not lo <= nom <= hi:
                raise ValueError(f"box entry {kind}/{entity}/{step}: lo <= nom <= hi violated")


class PuBox:
    """Per-unit view of an uncertainty box with nominal fallbacks."""

    def __init__(self, bounds: dict[ParamKey, tuple[float, float]], nominal: dict[ParamKey, float]):
        self.bounds = bounds
        self.nominal = nominal

    @classmethod
    def of(cls, box: UncertaintyBox, model: NetworkModel) -> "PuBox":
        pu = PerUnit.of(model)
        bounds = {
            key: (pu.power(lo), pu.power(hi)) for key, (lo, _n, hi) in box.entries.items()
        }
        return cls(bounds, nominal_params(model))

    def lo(self, key: ParamKey) -> float:
        if key in self.bounds:
            return self.bounds[key][0]
        return self.nominal[key]

    def hi(self, key: ParamKey) -> float:
        if key in self.bounds:
            return self.bounds[key][1]
        return self.nominal[key]


def tighten(rows: list[URow], box: PuBox) -> list[URow]:
    """Worst-case substitution for uncertain inequality rows.

    A row coeffs.x + wterms.w <= rhs becomes coeffs.x <= rhs - max_box(wterms.w),
    evaluated coordinate-wise by coefficient sign (and min for >= rows).
    Equality rows with uncertain terms raise :class:`UncertainEqualityRow`.
    """
    out = []
    for row in rows:
        if not row.wterms:
            out.append(row)
            continue
        if row.rel is Rel.EQ:
            raise UncertainEqualityRow(
                f"equality row (tag {row.tag!r}) carries uncertain parameters; "
                "reformulate through reserve recourse before tightening"
            )
        shift = 0.0
        for key, coeff in row.wterms.items():
            if row.rel is Rel.LE:
                shift += coeff * (box.hi(key) if coeff > 0 else box.lo(key))
            else:  # GE: keep the row valid at the minimum of the uncertain term
                shift += coeff * (box.lo(key) if coeff > 0 else box.hi(key))
        out.append(URow(dict(row.coeffs), row.rel, row.rhs - shift, row.tag))
    return out


@dataclass
class ReserveCosts:
    pv: float
    dg: float
    es: float
    load: float

    @classmethod
    def from_costs(cls, costs: CostConfig) -> "ReserveCosts":
        # each class priced below its energy counterpart; storage (unpriced in
        # the dispatch objective) sits just under diesel so event response
        # leans on the batteries first
        return cls(
            pv=0.2 * costs.pv_curtail,
            dg=0.2 * costs.dg_energy,
            es=0.15 * costs.dg_energy,
            load=0.2 * costs.load_curtail,
        )

    def of(self, cls_name: str) -> float:
        return getattr(self, cls_name)


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
        where nothing was explicitly set aside but headroom still exists.
        """
        sched = cls()
        K = model.steps
        dt = model.dt_hours
        for u in model.pv_units:
            p = dispatch.pv_p[u.id]
            avail = np.asarray(u.forecast_w, dtype=float)
            sched.up[("pv", u.id)] = np.maximum(avail - p, 0.0)
            sched.down[("pv", u.id)] = np.maximum(p, 0.0)
        for u in model.dg_units:
            p = dispatch.dg_p[u.id]
            sched.up[("dg", u.id)] = np.maximum(u.capacity_va - p, 0.0)
            sched.down[("dg", u.id)] = np.maximum(p, 0.0)
        for u in model.storage_units:
            p = dispatch.es_p[u.id]
            soc_end = dispatch.soc_wh[u.id][1:]
            rate_up = u.power_w - p
            rate_dn = u.power_w + p
            energy_up = (soc_end - u.energy_min_wh) / dt - p
            energy_dn = (u.energy_max_wh - soc_end) / dt + p
            sched.up[("es", u.id)] = np.maximum(np.minimum(rate_up, energy_up), 0.0)
            sched.down[("es", u.id)] = np.maximum(np.minimum(rate_dn, energy_dn), 0.0)
        for u in model.loads:
            p = dispatch.load_p[u.id]
            sched.up[("load", u.id)] = np.maximum(p - np.asarray(u.minimum_w, dtype=float), 0.0)
            sched.down[("load", u.id)] = np.maximum(np.asarray(u.desired_w, dtype=float) - p, 0.0)
        return sched


@dataclass
class RobustResult:
    dispatch: DispatchResult
    reserves: ReserveSchedule
    objective_value: float  # dispatch cost plus reserve cost
    reserve_cost: float
    worst_up_w: np.ndarray  # per-step worst-case up requirement covered
    worst_down_w: np.ndarray

    def to_json_dict(self) -> dict:
        def keyed(d):
            return {
                f"{a}:{b}": [float(v) for v in arr] for (a, b), arr in sorted(d.items())
            }

        return {
            "dispatch": self.dispatch.to_json_dict(),
            "reserves": {"up": keyed(self.reserves.up), "down": keyed(self.reserves.down)},
            "objective_value": self.objective_value,
            "reserve_cost": self.reserve_cost,
            "worst_up_w": [float(v) for v in self.worst_up_w],
            "worst_down_w": [float(v) for v in self.worst_down_w],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "RobustResult":
        def keyed(d):
            out = {}
            for key, v in d.items():
                a, b = key.split(":", 1)
                out[(a, b)] = np.asarray(v, dtype=float)
            return out

        reserves = ReserveSchedule(
            up=keyed(doc["reserves"]["up"]), down=keyed(doc["reserves"]["down"])
        )
        return cls(
            dispatch=DispatchResult.from_json_dict(doc["dispatch"]),
            reserves=reserves,
            objective_value=float(doc["objective_value"]),
            reserve_cost=float(doc["reserve_cost"]),
            worst_up_w=np.asarray(doc["worst_up_w"], dtype=float),
            worst_down_w=np.asarray(doc["worst_down_w"], dtype=float),
        )


def reserve_margin(result: RobustResult, k: int) -> tuple[float, float]:
    """Total allocated (up, down) reserve in W at step k."""
    return result.reserves.total_up(k), result.reserves.total_down(k)


def _uncertain_dg_steps(box: UncertaintyBox, model: NetworkModel) -> set[tuple[str, int]]:
    pu = PerUnit.of(model)
    keys = set()
    for (kind, entity, step), (lo, nom, _hi) in box.entries.items():
        if kind == P_DG_CAPACITY and pu.power(nom - lo) > 1e-12:
            keys.add((entity, step))
    return keys


def build_robust_lp(
    model: NetworkModel,
    costs: CostConfig,
    reserve_costs: ReserveCosts,
    box: UncertaintyBox,
    options: BuildOptions | None = None,
):
    options = options or BuildOptions()
    pu = PerUnit.of(model)
    pu_box = PuBox.of(box, model)

    dg_loss_keys = tuple(sorted(_uncertain_dg_steps(box, model)))
    uncertain_pv = frozenset(
        (entity, step)
        for (kind, entity, step), (lo, _n, hi) in box.entries.items()
        if kind == P_PV_FORECAST
    )
    ns = build_namespace(model, reserves=True, dg_loss_keys=dg_loss_keys)
    lp = ns.make_lp()

    apply_emissions(lp, emit_voltage_drop(model, ns))
    apply_emissions(lp, emit_power_balance(model, ns))
    em = emit_limits(model, ns, options, reserves=True, uncertain_pv=uncertain_pv)
    apply_emissions(lp, tighten(em.rows, pu_box), em.bounds)

    # worst-case output-loss helpers: loss >= P - cap_low, loss >= 0
    loss_rows = []
    for (dg_id, k) in dg_loss_keys:
        cap_low = pu_box.lo((P_DG_CAPACITY, dg_id, k))
        loss_rows.append(
            URow(
                {ns.pdg[(dg_id, k)]: 1.0, ns.dg_loss[(dg_id, k)]: -1.0},
                Rel.LE,
                cap_low,
                "reserve_coverage",
            )
        )

    # per-step coverage: guaranteed reserves must absorb the worst-case
    # imbalance; reserves of capacity-uncertain diesel units do not count
    worst_up = np.zeros(model.steps)
    worst_down = np.zeros(model.steps)
    coverage_rows = []
    excluded = set(dg_loss_keys)
    for k in range(model.steps):
        mask_up = 0.0
        mask_down = 0.0
        for (kind, entity, step), (lo, nom, hi) in box.entries.items():
            if kind == P_LOAD_DESIRED and step == k:
                mask_up += pu.power(hi - nom)
                mask_down += pu.power(nom - lo)
        up_coeffs: dict[int, float] = {}
        dn_coeffs: dict[int, float] = {}
        for cls_name, units in device_groups(model):
            for u in units:
                if cls_name == "dg" and (u.id, k) in excluded:
                    continue
                up_coeffs[ns.r_up[(cls_name, u.id, k)]] = -1.0
                dn_coeffs[ns.r_dn[(cls_name, u.id, k)]] = -1.0
        losses_at_k = [dg_id for (dg_id, kk) in dg_loss_keys if kk == k]
        for dg_id in losses_at_k:
            up_coeffs[ns.dg_loss[(dg_id, k)]] = 1.0
        if mask_up > 0.0 or losses_at_k:
            coverage_rows.append(URow(up_coeffs, Rel.LE, -mask_up, "reserve_coverage"))
        if mask_down > 0.0:
            coverage_rows.append(URow(dn_coeffs, Rel.LE, -mask_down, "reserve_coverage"))
        worst_up[k] = mask_up  # diesel losses are added after solving
        worst_down[k] = mask_down
    apply_emissions(lp, loss_rows + coverage_rows)

    set_dispatch_objective(lp, ns, model, costs)
    for (cls_name, uid, k), idx in ns.r_up.items():
        lp.add_objective_term(idx, reserve_costs.of(cls_name))
    for (cls_name, uid, k), idx in ns.r_dn.items():
        lp.add_objective_term(idx, reserve_costs.of(cls_name))
    return lp, ns, worst_up, worst_down


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
    report = validate(model)
    if not report.ok:
        raise ValueError("model failed validation: " + "; ".join(report.problems))
    costs = costs or CostConfig()
    reserve_costs = reserve_costs or ReserveCosts.from_costs(costs)
    box = box or UncertaintyBox()
    box.validate(model)

    lp, ns, worst_up, worst_down = build_robust_lp(
        model, costs, reserve_costs, box, options
    )
    sol = solve(lp, solver)
    if sol.status is LpStatus.INFEASIBLE:
        tags = [lp.rows[i].tag for i in sol.infeasible_rows]
        raise InfeasibleDispatch(sol.infeasible_rows, tags, "robust")
    if sol.status is LpStatus.UNBOUNDED:
        raise ArithmeticError("robust dispatch unbounded; model is corrupt")

    pu = PerUnit.of(model)
    dispatch = extract_result(model, ns, sol, _objective_constant(model, costs))

    reserves = ReserveSchedule()
    for cls_name, units in device_groups(model):
        for u in units:
            up = np.array([sol.values[ns.r_up[(cls_name, u.id, k)]] for k in range(model.steps)])
            dn = np.array([sol.values[ns.r_dn[(cls_name, u.id, k)]] for k in range(model.steps)])
            # reserves are definitionally non-negative; strip basic-variable dust
            reserves.up[(cls_name, u.id)] = np.maximum(up, 0.0) * pu.s_base
            reserves.down[(cls_name, u.id)] = np.maximum(dn, 0.0) * pu.s_base

    reserve_cost = 0.0
    for (cls_name, _uid, _k), idx in ns.r_up.items():
        reserve_cost += reserve_costs.of(cls_name) * sol.values[idx]
    for (cls_name, _uid, _k), idx in ns.r_dn.items():
        reserve_cost += reserve_costs.of(cls_name) * sol.values[idx]

    total = dispatch.objective_value
    dispatch.objective_value = total - reserve_cost  # the pure dispatch part

    # realized worst-case requirement includes the diesel loss terms
    for (dg_id, k), idx in ns.dg_loss.items():
        worst_up[k] += sol.values[idx]

    return RobustResult(
        dispatch=dispatch,
        reserves=reserves,
        objective_value=total,
        reserve_cost=reserve_cost,
        worst_up_w=worst_up * pu.s_base,
        worst_down_w=worst_down * pu.s_base,
    )
