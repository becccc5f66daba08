"""Characterize the polytope of adversarial events a fixed dispatch tolerates.

Given setpoints and a reserve schedule for one step, an event along an axis
(diesel capacity loss, load increase, or solar forecast shortfall at one
entity) is *tolerable* when some recourse point exists with every network and
device row satisfied: active outputs may move only inside their reserve
bands, the targeted entity additionally accepts its forced reduction, load
reactive power follows served load, and inverter reactive output may
re-regulate freely inside its apparent-power polygon (volt/var response
consumes no active-power reserve).

Maximizing the event magnitude per axis yields one extreme point per axis;
their convex hull with the nominal point is an inner approximation of the
tolerable set: tolerability constraints are affine in (recourse, magnitude),
so any convex combination of feasible extremes stays feasible.

The per-axis problems share nothing but immutable inputs and may be solved
concurrently by callers; a built InnerPolytope is immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constraints import (
    BuildOptions,
    PerUnit,
    effective_impedance_pu,
    polygon_rows,
)
from .dispatch import DispatchResult
from .lp import LinearProgram, LpStatus, Rel, SolverOptions, solve
from .network import NetworkModel
from .robust import ReserveSchedule

AXIS_DG_LOSS = "dg_capacity_loss"
AXIS_LOAD_INCREASE = "load_increase"
AXIS_PV_ERROR = "pv_forecast_error"
AXIS_KINDS = (AXIS_DG_LOSS, AXIS_LOAD_INCREASE, AXIS_PV_ERROR)


class AxisInfeasible(RuntimeError):
    """Even a zero-magnitude event is infeasible; the dispatch point is not
    feasible as claimed."""


@dataclass(frozen=True)
class AdversarialAxis:
    kind: str
    entity: str
    cap_w: float | None = None  # outer-box magnitude cap; None = natural limits only

    def __post_init__(self):
        if self.kind not in AXIS_KINDS:
            raise ValueError(f"unknown axis kind {self.kind!r}")


@dataclass
class InnerPolytope:
    """Vertices {nominal, nominal + alpha_i e_i} in axis-magnitude coordinates (W)."""

    step: int
    axes: list[AdversarialAxis]
    alpha_w: np.ndarray

    @property
    def vertices_w(self) -> np.ndarray:
        m = len(self.axes)
        verts = np.zeros((m + 1, m))
        for i, a in enumerate(self.alpha_w):
            verts[i + 1, i] = a
        return verts

    def to_json_dict(self) -> dict:
        return {
            "step": self.step,
            "axes": [
                {"kind": a.kind, "entity": a.entity, "cap_w": a.cap_w} for a in self.axes
            ],
            "alpha_w": [float(a) for a in self.alpha_w],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "InnerPolytope":
        axes = [AdversarialAxis(a["kind"], a["entity"], a.get("cap_w")) for a in doc["axes"]]
        return cls(int(doc["step"]), axes, np.asarray(doc["alpha_w"], dtype=float))


def _validate_axes(axes: list[AdversarialAxis]) -> None:
    seen = set()
    for a in axes:
        key = (a.kind, a.entity)
        if key in seen:
            raise ValueError(f"duplicate axis {key}; axes must be independent")
        seen.add(key)


def build_recourse_lp(
    model: NetworkModel,
    dispatch: DispatchResult,
    reserves: ReserveSchedule,
    step: int,
    axes: list[AdversarialAxis],
    magnitudes_w: np.ndarray,
    free_axis: int | None = None,
    options: BuildOptions | None = None,
) -> tuple[LinearProgram, int | None]:
    """Single-step feasibility LP for an event; optionally one axis magnitude free.

    Returns the LP and the index of the free magnitude variable (scaled in pu)
    or None when all magnitudes are fixed.
    """
    options = options or BuildOptions()
    pu = PerUnit.of(model)
    s = pu.s_base
    k = step
    poly = polygon_rows(options.poly_sides)
    lp = LinearProgram()

    target_of: dict[tuple[str, str], int] = {}
    for i, axis in enumerate(axes):
        kind_map = {AXIS_DG_LOSS: "dg", AXIS_LOAD_INCREASE: "load", AXIS_PV_ERROR: "pv"}
        target_of[(kind_map[axis.kind], axis.entity)] = i

    alpha_idx: int | None = None
    if free_axis is not None:
        axis = axes[free_axis]
        hi = math.inf if axis.cap_w is None else axis.cap_w / s
        alpha_idx = lp.add_variable("alpha", 0.0, hi)

    def axis_term(i: int) -> tuple[float, float]:
        """(constant magnitude pu, alpha coefficient) for axis i."""
        if free_axis is not None and i == free_axis:
            return 0.0, 1.0
        return float(magnitudes_w[i]) / s, 0.0

    # realized device active powers; schedules are clamped into their physical
    # windows first so solver-tolerance dust cannot invert a recourse band
    r_pv: dict[str, int] = {}
    for u in model.pv_units:
        avail = float(u.forecast_w[k]) / s
        sched = min(max(dispatch.pv_p[u.id][k] / s, 0.0), avail)
        up = reserves.up[("pv", u.id)][k] / s
        dn = reserves.down[("pv", u.id)][k] / s
        i = target_of.get(("pv", u.id))
        if i is None:
            var = lp.add_variable(f"rpv[{u.id}]", max(0.0, sched - dn), min(sched + up, avail))
        else:
            var = lp.add_variable(f"rpv[{u.id}]", 0.0, min(sched + up, avail))
            mag, acoef = axis_term(i)
            coeffs = {var: 1.0}
            if acoef:
                coeffs[alpha_idx] = 1.0
            lp.add_row(coeffs, Rel.LE, avail - mag, "avail")  # r + alpha <= forecast
        r_pv[u.id] = var
    r_dg: dict[str, int] = {}
    for u in model.dg_units:
        cap = u.capacity_va / s
        sched = min(max(dispatch.dg_p[u.id][k] / s, 0.0), cap)
        up = reserves.up[("dg", u.id)][k] / s
        dn = reserves.down[("dg", u.id)][k] / s
        i = target_of.get(("dg", u.id))
        if i is None:
            var = lp.add_variable(f"rdg[{u.id}]", max(0.0, sched - dn), min(sched + up, cap))
        else:
            var = lp.add_variable(f"rdg[{u.id}]", 0.0, min(sched + up, cap))
            mag, acoef = axis_term(i)
            coeffs = {var: 1.0}
            if acoef:
                coeffs[alpha_idx] = 1.0
            lp.add_row(coeffs, Rel.LE, cap - mag, "cap")  # r + alpha <= capacity
        r_dg[u.id] = var
    r_es: dict[str, int] = {}
    for u in model.storage_units:
        p_max = u.power_w / s
        sched = min(max(dispatch.es_p[u.id][k] / s, -p_max), p_max)
        up = reserves.up[("es", u.id)][k] / s
        dn = reserves.down[("es", u.id)][k] / s
        e_in = dispatch.soc_wh[u.id][k] / s  # energy entering the step, pu-h
        e_min = u.energy_min_wh / s
        e_max = u.energy_max_wh / s
        dt = model.dt_hours
        lo = max(-p_max, sched - dn, (e_in - e_max) / dt)
        hi = min(p_max, sched + up, (e_in - e_min) / dt)
        r_es[u.id] = lp.add_variable(f"res[{u.id}]", min(lo, sched), max(hi, sched))
    r_load: dict[str, int] = {}
    q_load: dict[str, int] = {}
    for u in model.loads:
        desired = float(u.desired_w[k]) / s
        sched = min(max(dispatch.load_p[u.id][k] / s, 0.0), desired)
        up = reserves.up[("load", u.id)][k] / s
        dn = reserves.down[("load", u.id)][k] / s
        i = target_of.get(("load", u.id))
        if i is None:
            var = lp.add_variable(f"rload[{u.id}]", max(0.0, sched - up), min(sched + dn, desired))
        else:
            var = lp.add_variable(f"rload[{u.id}]")
            mag, acoef = axis_term(i)
            # serve at most the true demand, shed at most the up-reserve
            hi_coeffs = {var: 1.0}
            lo_coeffs = {var: -1.0}
            if acoef:
                hi_coeffs[alpha_idx] = -1.0
                lo_coeffs[alpha_idx] = 1.0
            lp.add_row(hi_coeffs, Rel.LE, sched + mag, "demand")
            lp.add_row(lo_coeffs, Rel.LE, up - sched - mag, "shed-band")
        r_load[u.id] = var
        q_load[u.id] = lp.add_variable(f"qload[{u.id}]")
        tan_phi = math.tan(math.acos(u.power_factor))
        lp.add_row({q_load[u.id]: 1.0, r_load[u.id]: -tan_phi}, Rel.EQ, 0.0, "pf")

    # network state at the recourse point
    w_var: dict[tuple[str, str], int] = {}
    root = model.root.id
    for bus in model.buses:
        for phase in bus.phases:
            if bus.id == root:
                w_var[(bus.id, phase)] = lp.add_variable(f"w[{bus.id},{phase}]", 1.0, 1.0)
            else:
                w_var[(bus.id, phase)] = lp.add_variable(
                    f"w[{bus.id},{phase}]", bus.v_min**2, bus.v_max**2
                )
    pf_var: dict[tuple[str, str], int] = {}
    qf_var: dict[tuple[str, str], int] = {}
    for br in model.branches:
        for phase in br.phases:
            pf_var[(br.id, phase)] = lp.add_variable(f"pflow[{br.id},{phase}]")
            qf_var[(br.id, phase)] = lp.add_variable(f"qflow[{br.id},{phase}]")
            z = effective_impedance_pu(br, phase, pu)
            lp.add_row(
                {
                    w_var[(br.to_bus, phase)]: 1.0,
                    w_var[(br.from_bus, phase)]: -1.0,
                    pf_var[(br.id, phase)]: 2.0 * z.real,
                    qf_var[(br.id, phase)]: 2.0 * z.imag,
                },
                Rel.EQ,
                0.0,
                "vdrop",
            )
            s_max = pu.power(br.flow_limit_va)
            for cs, sn, off in poly:
                lp.add_row(
                    {pf_var[(br.id, phase)]: cs, qf_var[(br.id, phase)]: sn},
                    Rel.LE,
                    s_max * off,
                    "line",
                )

    # reactive output re-regulates freely inside each inverter polygon
    q_pv: dict[str, int] = {}
    q_dg: dict[str, int] = {}
    q_es: dict[str, int] = {}
    for units, rmap, qmap, label in (
        (model.pv_units, r_pv, q_pv, "pv"),
        (model.dg_units, r_dg, q_dg, "dg"),
        (model.storage_units, r_es, q_es, "es"),
    ):
        for u in units:
            cap = u.capacity_va / s
            qmap[u.id] = lp.add_variable(f"q{label}[{u.id}]")
            for cs, sn, off in poly:
                lp.add_row({rmap[u.id]: cs, qmap[u.id]: sn}, Rel.LE, cap * off,
                           f"{label}-cap")

    parent = model.parent_branch()
    children = model.children()
    for bus in model.buses:
        share = 1.0 / len(bus.phases)
        for phase in bus.phases:
            pco: dict[int, float] = {}
            qco: dict[int, float] = {}
            up = parent.get(bus.id)
            if up is not None and phase in up.phases:
                pco[pf_var[(up.id, phase)]] = 1.0
                qco[qf_var[(up.id, phase)]] = 1.0
            for child in children[bus.id]:
                br = parent[child]
                if phase in br.phases:
                    pco[pf_var[(br.id, phase)]] = -1.0
                    qco[qf_var[(br.id, phase)]] = -1.0
            for u in model.pv_units:
                if u.bus == bus.id:
                    pco[r_pv[u.id]] = share
                    qco[q_pv[u.id]] = share
            for u in model.dg_units:
                if u.bus == bus.id:
                    pco[r_dg[u.id]] = share
                    qco[q_dg[u.id]] = share
            for u in model.storage_units:
                if u.bus == bus.id:
                    pco[r_es[u.id]] = share
                    qco[q_es[u.id]] = share
            for u in model.loads:
                if u.bus == bus.id:
                    pco[r_load[u.id]] = -share
                    qco[q_load[u.id]] = -share
            lp.add_row(pco, Rel.EQ, 0.0, "balance-p")
            lp.add_row(qco, Rel.EQ, 0.0, "balance-q")

    return lp, alpha_idx


def event_is_tolerable(
    model: NetworkModel,
    dispatch: DispatchResult,
    reserves: ReserveSchedule,
    step: int,
    axes: list[AdversarialAxis],
    magnitudes_w: np.ndarray,
    options: BuildOptions | None = None,
    solver: SolverOptions | None = None,
) -> bool:
    """Feasibility of the recourse LP at fixed event magnitudes."""
    lp, _ = build_recourse_lp(model, dispatch, reserves, step, axes, magnitudes_w,
                              free_axis=None, options=options)
    return solve(lp, solver).status is LpStatus.OPTIMAL


def characterize(
    model: NetworkModel,
    dispatch: DispatchResult,
    reserves: ReserveSchedule,
    axes: list[AdversarialAxis],
    step: int,
    options: BuildOptions | None = None,
    solver: SolverOptions | None = None,
) -> InnerPolytope:
    """Maximal tolerable magnitude along each axis at `step`, one LP per axis."""
    _validate_axes(axes)
    pu = PerUnit.of(model)
    alphas = np.zeros(len(axes))
    zeros = np.zeros(len(axes))
    for i in range(len(axes)):
        lp, alpha_idx = build_recourse_lp(
            model, dispatch, reserves, step, axes, zeros, free_axis=i, options=options
        )
        lp.set_objective({alpha_idx: -1.0})  # maximize alpha
        sol = solve(lp, solver)
        if sol.status is LpStatus.INFEASIBLE:
            raise AxisInfeasible(
                f"axis {axes[i].kind}/{axes[i].entity} infeasible even at zero "
                f"magnitude at step {step}; the dispatch point is not feasible"
            )
        if sol.status is LpStatus.UNBOUNDED:
            raise ValueError(
                f"axis {axes[i].kind}/{axes[i].entity} unbounded at step {step}; "
                "give the axis an outer cap"
            )
        alphas[i] = sol.values[alpha_idx] * pu.s_base
    return InnerPolytope(step, list(axes), alphas)


def characterize_steps(
    model: NetworkModel,
    dispatch: DispatchResult,
    reserves: ReserveSchedule,
    axes: list[AdversarialAxis],
    steps: list[int] | None = None,
    options: BuildOptions | None = None,
    solver: SolverOptions | None = None,
) -> dict[int, InnerPolytope]:
    steps = list(range(model.steps)) if steps is None else steps
    return {
        k: characterize(model, dispatch, reserves, axes, k, options, solver) for k in steps
    }


def contains(poly: InnerPolytope, point_w: np.ndarray, tol: float = 1e-9) -> bool:
    """Membership test: is `point_w` in the simplex conv{0, alpha_i e_i}?

    In closed form: x >= 0, x_i = 0 where alpha_i = 0, and sum x_i / alpha_i
    <= 1.  Coordinates are measured in units of max(1 W, max |alpha|), and
    `tol` (at least 1e-9) is allowed in those units on each sign and zero
    condition and on the sum.
    """
    point = np.asarray(point_w, dtype=float)
    m = len(poly.axes)
    if point.shape != (m,):
        raise ValueError(f"point has shape {point.shape}, expected ({m},)")
    tol = max(tol, 1e-9)
    alpha = poly.alpha_w
    scale = max(1.0, float(np.max(np.abs(alpha))) if m else 1.0)
    x = point / scale
    live = alpha > 0.0
    if (x < -tol).any() or (np.abs(x[~live]) > tol).any():
        return False
    return float(np.sum(x[live] / (alpha[live] / scale))) <= 1.0 + tol


def sample(poly: InnerPolytope, seed: int, count: int) -> np.ndarray:
    """`count` points drawn uniformly over the simplex of vertex weights.

    Weights come from normalized exponential draws, which is the uniform
    (Dirichlet(1,..,1)) distribution on the simplex; deterministic per seed.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(2,)))
    m = len(poly.axes)
    draws = rng.exponential(1.0, size=(count, m + 1))
    weights = draws / draws.sum(axis=1, keepdims=True)
    return weights @ poly.vertices_w


def project_2d(poly: InnerPolytope, axis_i: int, axis_j: int) -> tuple[list[tuple[float, float]], bool]:
    """Convex hull of the vertices projected on two axes, counterclockwise.

    Returns (vertices, degenerate); `degenerate` marks a hull that collapses
    to a segment or point.
    """
    if axis_i == axis_j:
        raise ValueError("projection axes must differ")
    pts = [(float(v[axis_i]), float(v[axis_j])) for v in poly.vertices_w]
    hull = _convex_hull(pts)
    return hull, len(hull) < 3


def _convex_hull(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Monotone chain; returns counterclockwise vertices without repeats."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:  # all collinear
        return [pts[0], pts[-1]]
    return hull
