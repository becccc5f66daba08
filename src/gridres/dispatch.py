"""Multi-period optimal dispatch of the feeder's DER fleet.

Objective: weighted sum of diesel energy, solar curtailment, and load
curtailment over the horizon, evaluated in per-unit (numerically MW at the
default 1 MVA base).  Load shedding carries the largest default weight so
critical demand is served first; curtailing free solar carries the smallest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .constraints import (
    DEVICE_CLASSES,
    BuildOptions,
    VariableNamespace,
    build_feeder_lp,
    device_groups,
    PerUnit,
)
from .lp import LinearProgram, LpSolution, LpStatus, SolverOptions, solve
from .network import NetworkModel, integer, mapping, number, record, series, validate


@dataclass
class CostConfig:
    dg_energy: float = 1.0
    pv_curtail: float = 0.1
    load_curtail: float = 10.0

    def __post_init__(self) -> None:
        for f in fields(self):
            if not 0.0 <= getattr(self, f.name) < math.inf:  # NaN fails too
                raise ValueError(f"cost weights must be non-negative and finite, "
                                 f"got {f.name} = {getattr(self, f.name)}")


class InfeasibleDispatch(RuntimeError):
    """The dispatch problem has no feasible point.

    Carries the row indices and tags of the simplex's infeasibility
    certificate: rows that are infeasible together.  The HiGHS backend gives
    no certificate, and then `rows` is empty.
    """

    def __init__(self, rows: list[int], tags: list[str], context: str):
        self.rows = rows
        self.tags = tags
        detail = (f"{len(rows)} unsatisfiable rows (tags: {', '.join(sorted(set(tags))) or 'n/a'})"
                  if rows else "no infeasibility certificate (the HiGHS backend gives none)")
        super().__init__(f"{context} dispatch infeasible; {detail}")


def series_map(paired: bool = False, read=series):
    """A reader of a JSON object of series read by `read`, keyed by id or by a pair as "a:b"."""
    return lambda value, path: {tuple(key.split(":", 1)) if paired else key: arr
                                for key, arr in mapping(read)(value, path).items()}


def series_map_json(d: dict) -> dict[str, list[float]]:
    """A map of series as JSON, in key order; a pair key (a, b) is written "a:b"."""
    return {key if isinstance(key, str) else ":".join(key): [float(v) for v in arr]
            for key, arr in sorted(d.items())}


# The JSON layout of a DispatchResult: each series map, and whether it is keyed by a pair
# rather than an id; p and q are written as one map per class, <class>_p_w and <class>_q_w.
SERIES_MAPS = {"soc_wh": False, "voltage_sq_pu": True, "flow_p_w": True, "flow_q_w": True,
               "pv_curtail_w": False, "load_curtail_w": False}
DEVICE_MAPS = {f"{cls}_{part}_w": (part, cls) for part in ("p", "q") for cls in DEVICE_CLASSES}
_read_dispatch = record({"objective_value": number, "iterations": integer,
                        **{name: series_map(paired) for name, paired in SERIES_MAPS.items()},
                        **dict.fromkeys(DEVICE_MAPS, series_map())})


@dataclass
class DispatchResult:
    """Optimal setpoints in SI units plus the raw LP point for diagnostics.

    `p` and `q` hold each device's active and reactive series (W, var),
    keyed by (class, id) like the reserves.
    """

    p: dict[tuple[str, str], np.ndarray]
    q: dict[tuple[str, str], np.ndarray]
    soc_wh: dict[str, np.ndarray]  # length K+1, includes the initial state
    voltage_sq_pu: dict[tuple[str, str], np.ndarray]
    flow_p_w: dict[tuple[str, str], np.ndarray]
    flow_q_w: dict[tuple[str, str], np.ndarray]
    pv_curtail_w: dict[str, np.ndarray]
    load_curtail_w: dict[str, np.ndarray]
    objective_value: float
    iterations: int
    lp_values: np.ndarray = field(repr=False, default=None)

    def to_json_dict(self) -> dict:
        doc = {"objective_value": self.objective_value, "iterations": self.iterations,
               **{name: series_map_json(getattr(self, name)) for name in SERIES_MAPS}}
        for name, (part, cls) in DEVICE_MAPS.items():
            doc[name] = series_map_json({uid: arr for (c, uid), arr in getattr(self, part).items()
                                         if c == cls})
        return doc

    @classmethod
    def from_json_dict(cls, doc, path: str = "") -> "DispatchResult":
        doc = _read_dispatch(doc, path)
        for name, (part, c) in DEVICE_MAPS.items():
            doc.setdefault(part, {}).update({(c, uid): arr for uid, arr in doc.pop(name).items()})
        return cls(**doc)


def build_baseline_lp(
    model: NetworkModel, costs: CostConfig, options: BuildOptions | None = None
) -> tuple[LinearProgram, VariableNamespace]:
    ns = build_feeder_lp(model, options or BuildOptions())
    set_dispatch_objective(ns.lp, ns, model, costs)
    return ns.lp, ns


def set_dispatch_objective(
    lp: LinearProgram, ns: VariableNamespace, model: NetworkModel, costs: CostConfig
) -> None:
    """Install the dispatch cost on the LP variables.

    Curtailments are affine in the setpoints, so the LP carries -c2*Ppv and
    -c3*Pload; the constant baseline (c2*forecast + c3*desired) is added back
    when the reported objective is assembled.
    """
    weight = {"pv": -costs.pv_curtail, "dg": costs.dg_energy, "load": -costs.load_curtail}
    for (cls, _uid, _k), idx in ns.p.items():
        if cls in weight:
            lp.add_objective_term(idx, weight[cls])


def device_series(model: NetworkModel, cols: dict[tuple[str, str, int], int], x: np.ndarray,
                  scale: float = 1.0) -> dict[tuple[str, str], np.ndarray]:
    """Each device's series x[cols[(class, id, k)]] * scale, keyed (class, id) in
    `device_groups` order, the order the class totals are summed in."""
    return {(cls, u.id): np.array([x[cols[(cls, u.id, k)]] * scale for k in range(model.steps)])
            for cls, units in device_groups(model) for u in units}


def pair_series(model: NetworkModel, cols: dict[tuple[str, str, int], int], x: np.ndarray,
                scale: float = 1.0) -> dict[tuple[str, str], np.ndarray]:
    """Each (a, b) series x[cols[(a, b, k)]] * scale, keyed (a, b) in the order of `cols`."""
    out = {}
    for (a, b, k), idx in cols.items():
        out.setdefault((a, b), np.zeros(model.steps))[k] = x[idx] * scale
    return out


def extract_result(
    model: NetworkModel,
    ns: VariableNamespace,
    solution: LpSolution,
    objective_constant: float,
) -> DispatchResult:
    x = solution.values
    s = PerUnit.of(model).s_base
    p = device_series(model, ns.p, x, s)
    soc = {es.id: np.array([es.initial_soc_wh, *(x[ns.soc[(es.id, k)]] * s
                                                 for k in range(model.steps))])
           for es in model.storage_units}
    pv_curtail = {
        u.id: np.maximum(np.asarray(u.forecast_w, dtype=float) - p[("pv", u.id)], 0.0)
        for u in model.pv_units
    }
    load_curtail = {
        u.id: np.maximum(np.asarray(u.desired_w, dtype=float) - p[("load", u.id)], 0.0)
        for u in model.loads
    }

    return DispatchResult(
        p=p,
        q=device_series(model, ns.q, x, s),
        soc_wh=soc,
        voltage_sq_pu=pair_series(model, ns.w, x),
        flow_p_w=pair_series(model, ns.pflow, x, s),
        flow_q_w=pair_series(model, ns.qflow, x, s),
        pv_curtail_w=pv_curtail,
        load_curtail_w=load_curtail,
        objective_value=float(solution.objective_value + objective_constant),
        iterations=solution.iterations,
        lp_values=x,
    )


def require_valid(model: NetworkModel) -> None:
    """Raise ValueError naming every problem when `model` fails validation."""
    report = validate(model)
    if not report.ok:
        raise ValueError("model failed validation: " + "; ".join(report.problems))


def solve_dispatch_lp(model: NetworkModel, costs: CostConfig, lp: LinearProgram,
                      ns: VariableNamespace, solver: SolverOptions | None,
                      context: str) -> tuple[LpSolution, DispatchResult]:
    """Solve a dispatch LP to optimality and read its result.

    Raises :class:`InfeasibleDispatch` with the certificate's row tags, or
    ArithmeticError on an unbounded LP, which bounded devices rule out.
    """
    sol = solve(lp, solver)
    if sol.status is LpStatus.INFEASIBLE:
        tags = [lp.rows[i].tag for i in sol.infeasible_rows]
        raise InfeasibleDispatch(sol.infeasible_rows, tags, context)
    if sol.status is LpStatus.UNBOUNDED:
        raise ArithmeticError(f"{context} dispatch unbounded; model is corrupt")
    return sol, extract_result(model, ns, sol, _objective_constant(model, costs))


def solve_baseline(
    model: NetworkModel,
    costs: CostConfig | None = None,
    options: BuildOptions | None = None,
    solver: SolverOptions | None = None,
) -> DispatchResult:
    """Solve the baseline dispatch; raises :class:`InfeasibleDispatch` otherwise."""
    require_valid(model)
    costs = costs or CostConfig()
    lp, ns = build_baseline_lp(model, costs, options)
    return solve_dispatch_lp(model, costs, lp, ns, solver, "baseline")[1]


def _objective_constant(model: NetworkModel, costs: CostConfig) -> float:
    pu = PerUnit.of(model)
    constant = 0.0
    for pv in model.pv_units:
        constant += costs.pv_curtail * float(np.sum(pu.power(np.asarray(pv.forecast_w))))
    for ld in model.loads:
        constant += costs.load_curtail * float(np.sum(pu.power(np.asarray(ld.desired_w))))
    return constant


@dataclass
class AggregateSeries:
    """Per-step class totals (W) and voltage envelope, ready for plotting."""

    pv_w: np.ndarray
    dg_w: np.ndarray
    es_w: np.ndarray
    load_w: np.ndarray
    pv_curtail_w: np.ndarray
    load_curtail_w: np.ndarray
    v_min_pu: np.ndarray
    v_max_pu: np.ndarray


def summarize(result: DispatchResult) -> AggregateSeries:
    def total(d: dict, k_len: int) -> np.ndarray:
        if not d:
            return np.zeros(k_len)
        return np.sum(np.stack(list(d.values())), axis=0)

    def of_class(cls: str) -> dict:
        return {key: arr for key, arr in result.p.items() if key[0] == cls}

    K = len(next(iter(result.voltage_sq_pu.values())))
    volt = np.stack(list(result.voltage_sq_pu.values()))
    return AggregateSeries(
        pv_w=total(of_class("pv"), K),
        dg_w=total(of_class("dg"), K),
        es_w=total(of_class("es"), K),
        load_w=total(of_class("load"), K),
        pv_curtail_w=total(result.pv_curtail_w, K),
        load_curtail_w=total(result.load_curtail_w, K),
        v_min_pu=np.sqrt(volt.min(axis=0)),
        v_max_pu=np.sqrt(volt.max(axis=0)),
    )
