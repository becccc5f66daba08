"""Multi-period optimal dispatch of the feeder's DER fleet.

Objective: weighted sum of diesel energy, solar curtailment, and load
curtailment over the horizon, evaluated in per-unit (numerically MW at the
default 1 MVA base).  Load shedding carries the largest default weight so
critical demand is served first; curtailing free solar carries the smallest.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constraints import (
    BuildOptions,
    VariableNamespace,
    apply_emissions,
    build_namespace,
    emit_limits,
    emit_power_balance,
    emit_voltage_drop,
    PerUnit,
)
from .lp import LinearProgram, LpSolution, LpStatus, SolverOptions, solve
from .network import NetworkModel, validate


@dataclass
class CostConfig:
    dg_energy: float = 1.0
    pv_curtail: float = 0.1
    load_curtail: float = 10.0

    def validate(self) -> None:
        if min(self.dg_energy, self.pv_curtail, self.load_curtail) < 0:
            raise ValueError("cost weights must be non-negative")


class InfeasibleDispatch(RuntimeError):
    """The dispatch problem has no feasible point.

    Carries the offending row indices and tags (the phase-1 certificate).
    """

    def __init__(self, rows: list[int], tags: list[str], context: str):
        self.rows = rows
        self.tags = tags
        super().__init__(
            f"{context} dispatch infeasible; {len(rows)} unsatisfiable rows "
            f"(tags: {', '.join(sorted(set(tags))) or 'n/a'})"
        )


@dataclass
class DispatchResult:
    """Optimal setpoints in SI units plus the raw LP point for diagnostics."""

    pv_p: dict[str, np.ndarray]
    pv_q: dict[str, np.ndarray]
    dg_p: dict[str, np.ndarray]
    dg_q: dict[str, np.ndarray]
    es_p: dict[str, np.ndarray]
    es_q: dict[str, np.ndarray]
    load_p: dict[str, np.ndarray]
    load_q: dict[str, np.ndarray]
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
        def series(d):
            return {k: [float(v) for v in arr] for k, arr in sorted(d.items())}

        def keyed(d):
            return {
                f"{a}:{b}": [float(v) for v in arr] for (a, b), arr in sorted(d.items())
            }

        return {
            "objective_value": self.objective_value,
            "iterations": self.iterations,
            "pv_p_w": series(self.pv_p), "pv_q_w": series(self.pv_q),
            "dg_p_w": series(self.dg_p), "dg_q_w": series(self.dg_q),
            "es_p_w": series(self.es_p), "es_q_w": series(self.es_q),
            "load_p_w": series(self.load_p), "load_q_w": series(self.load_q),
            "soc_wh": series(self.soc_wh),
            "voltage_sq_pu": keyed(self.voltage_sq_pu),
            "flow_p_w": keyed(self.flow_p_w), "flow_q_w": keyed(self.flow_q_w),
            "pv_curtail_w": series(self.pv_curtail_w),
            "load_curtail_w": series(self.load_curtail_w),
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "DispatchResult":
        def series(d):
            return {k: np.asarray(v, dtype=float) for k, v in d.items()}

        def keyed(d):
            out = {}
            for key, v in d.items():
                a, b = key.split(":", 1)
                out[(a, b)] = np.asarray(v, dtype=float)
            return out

        return cls(
            pv_p=series(doc["pv_p_w"]), pv_q=series(doc["pv_q_w"]),
            dg_p=series(doc["dg_p_w"]), dg_q=series(doc["dg_q_w"]),
            es_p=series(doc["es_p_w"]), es_q=series(doc["es_q_w"]),
            load_p=series(doc["load_p_w"]), load_q=series(doc["load_q_w"]),
            soc_wh=series(doc["soc_wh"]),
            voltage_sq_pu=keyed(doc["voltage_sq_pu"]),
            flow_p_w=keyed(doc["flow_p_w"]), flow_q_w=keyed(doc["flow_q_w"]),
            pv_curtail_w=series(doc["pv_curtail_w"]),
            load_curtail_w=series(doc["load_curtail_w"]),
            objective_value=float(doc["objective_value"]),
            iterations=int(doc["iterations"]),
        )


def build_baseline_lp(
    model: NetworkModel, costs: CostConfig, options: BuildOptions | None = None
) -> tuple[LinearProgram, VariableNamespace]:
    options = options or BuildOptions()
    ns = build_namespace(model)
    lp = ns.make_lp()
    apply_emissions(lp, emit_voltage_drop(model, ns))
    apply_emissions(lp, emit_power_balance(model, ns))
    em = emit_limits(model, ns, options)
    apply_emissions(lp, em.rows, em.bounds)
    set_dispatch_objective(lp, ns, model, costs)
    return lp, ns


def set_dispatch_objective(
    lp: LinearProgram, ns: VariableNamespace, model: NetworkModel, costs: CostConfig
) -> None:
    """Install the dispatch cost on the LP variables.

    Curtailments are affine in the setpoints, so the LP carries -c2*Ppv and
    -c3*Pload; the constant baseline (c2*forecast + c3*desired) is added back
    when the reported objective is assembled.
    """
    costs.validate()
    for (_uid, _k), idx in ns.pdg.items():
        lp.add_objective_term(idx, costs.dg_energy)
    for (_uid, _k), idx in ns.ppv.items():
        lp.add_objective_term(idx, -costs.pv_curtail)
    for (_uid, _k), idx in ns.pload.items():
        lp.add_objective_term(idx, -costs.load_curtail)


def extract_result(
    model: NetworkModel,
    ns: VariableNamespace,
    solution: LpSolution,
    objective_constant: float,
) -> DispatchResult:
    pu = PerUnit.of(model)
    x = solution.values
    K = model.steps

    def series(index_map, ids, scale):
        return {
            uid: np.array([x[index_map[(uid, k)]] * scale for k in range(K)]) for uid in ids
        }

    s = pu.s_base
    pv_ids = [u.id for u in model.pv_units]
    dg_ids = [u.id for u in model.dg_units]
    es_ids = [u.id for u in model.storage_units]
    load_ids = [u.id for u in model.loads]

    soc = {}
    for es in model.storage_units:
        vals = [es.initial_soc_wh]
        vals += [x[ns.soc[(es.id, k)]] * s for k in range(K)]
        soc[es.id] = np.array(vals)

    voltage = {}
    for (bus, phase, k), idx in ns.w.items():
        voltage.setdefault((bus, phase), np.zeros(K))[k] = x[idx]
    flow_p = {}
    flow_q = {}
    for (br, phase, k), idx in ns.pflow.items():
        flow_p.setdefault((br, phase), np.zeros(K))[k] = x[idx] * s
    for (br, phase, k), idx in ns.qflow.items():
        flow_q.setdefault((br, phase), np.zeros(K))[k] = x[idx] * s

    pv_p = series(ns.ppv, pv_ids, s)
    load_p = series(ns.pload, load_ids, s)
    pv_curtail = {
        u.id: np.maximum(np.asarray(u.forecast_w, dtype=float) - pv_p[u.id], 0.0)
        for u in model.pv_units
    }
    load_curtail = {
        u.id: np.maximum(np.asarray(u.desired_w, dtype=float) - load_p[u.id], 0.0)
        for u in model.loads
    }

    return DispatchResult(
        pv_p=pv_p,
        pv_q=series(ns.qpv, pv_ids, s),
        dg_p=series(ns.pdg, dg_ids, s),
        dg_q=series(ns.qdg, dg_ids, s),
        es_p=series(ns.pes, es_ids, s),
        es_q=series(ns.qes, es_ids, s),
        load_p=load_p,
        load_q=series(ns.qload, load_ids, s),
        soc_wh=soc,
        voltage_sq_pu=voltage,
        flow_p_w=flow_p,
        flow_q_w=flow_q,
        pv_curtail_w=pv_curtail,
        load_curtail_w=load_curtail,
        objective_value=float(solution.objective_value + objective_constant),
        iterations=solution.iterations,
        lp_values=x,
    )


def solve_baseline(
    model: NetworkModel,
    costs: CostConfig | None = None,
    options: BuildOptions | None = None,
    solver: SolverOptions | None = None,
) -> DispatchResult:
    """Solve the baseline dispatch; raises :class:`InfeasibleDispatch` otherwise."""
    report = validate(model)
    if not report.ok:
        raise ValueError("model failed validation: " + "; ".join(report.problems))
    costs = costs or CostConfig()
    options = options or BuildOptions()
    lp, ns = build_baseline_lp(model, costs, options)
    constant = _objective_constant(model, costs)
    sol = solve(lp, solver)
    if sol.status is LpStatus.INFEASIBLE:
        tags = [lp.rows[i].tag for i in sol.infeasible_rows]
        raise InfeasibleDispatch(sol.infeasible_rows, tags, "baseline")
    if sol.status is LpStatus.UNBOUNDED:  # impossible with bounded devices
        raise ArithmeticError("baseline dispatch unbounded; model is corrupt")
    return extract_result(model, ns, sol, constant)


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
    def total(d: dict[str, np.ndarray], k_len: int) -> np.ndarray:
        if not d:
            return np.zeros(k_len)
        return np.sum(np.stack(list(d.values())), axis=0)

    K = len(next(iter(result.voltage_sq_pu.values())))
    volt = np.stack(list(result.voltage_sq_pu.values()))
    return AggregateSeries(
        pv_w=total(result.pv_p, K),
        dg_w=total(result.dg_p, K),
        es_w=total(result.es_p, K),
        load_w=total(result.load_p, K),
        pv_curtail_w=total(result.pv_curtail_w, K),
        load_curtail_w=total(result.load_curtail_w, K),
        v_min_pu=np.sqrt(volt.min(axis=0)),
        v_max_pu=np.sqrt(volt.max(axis=0)),
    )
