"""Characterize the polytope of adversarial events a fixed dispatch tolerates.

Given setpoints and a reserve schedule for one step, an event along an axis
(diesel capacity loss, load increase, or solar forecast shortfall at one
entity) is *tolerable* when some recourse point exists with every network and
device row satisfied: active outputs may move only inside their reserve
bands, the targeted entity additionally accepts its forced reduction, load
reactive power follows served load, and inverter reactive output may
re-regulate freely inside its apparent-power polygon and, with a PV
power-factor gamma set, a PV unit's inside its cone |q| <= gamma p (volt/var
response consumes no active-power reserve).

The recourse LP is the one-step feeder LP of
:func:`gridres.constraints.build_feeder_lp` with reserves off, the same
network and device rows the dispatch LP enforces, with the voltage boxes and
the device windows as column bounds.  Its namespace names its one step, so
it declares no stored-energy columns and the LP carries no SoC rows, also on
a one-step horizon.  This module only narrows each column to the device's
reserve band around its schedule, inside its `device_window` (a battery's
narrowed by the energy entering the step), and adds one row (two for a
load) per axis.  A targeted load's column is freed instead, since the true
demand may exceed the desired level.  Each axis has a magnitude column
alpha_i in its targeted entity's row, so an event's magnitudes are column
bounds: fixed at alpha = m to test an event, or free for one axis and zero
for the rest to maximize along it.

Maximizing the event magnitude per axis yields one extreme point per axis;
their convex hull with the nominal point is an inner approximation of the
tolerable set: tolerability constraints are affine in (recourse, magnitude),
so any convex combination of feasible extremes stays feasible.

A pass walks one :class:`RecourseStep` over its steps in the order given:
the recourse LP is built once, its axes checked, and solved from the crash
basis with every magnitude at zero, then narrowed in place to each later
step through the namespace it was built with (its device columns' bounds
and its axis rows' right-hand sides) and re-solved from the kept state
(:class:`gridres.lp.KeptSimplex`) of the step before: the rows, assembled
once a pass, its basis and LU.  Every query re-bounds the magnitude columns
and re-solves from the step's kept state, adding its own etas, so a one-step
pass factors a B twice and a longer one seldom more.  An axis maximization
runs the primal simplex only; a membership test fixes the magnitudes, which
moves the basic values out of their bounds, and without an objective the
basis stays dual feasible, so the dual simplex answers it, as one cold solve
(:func:`event_is_tolerable`) would.  Distinct passes share nothing but
immutable inputs and may run concurrently; one step object serves one caller
at a time.  A built InnerPolytope is immutable.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import asdict, dataclass

import numpy as np

from .constraints import (BuildOptions, PerUnit, VariableNamespace, build_feeder_lp,
                          device_groups, device_window)
from .dispatch import DispatchResult
from .lp import LpSolution, LpStatus, Rel, Row, SolverOptions, solve
from .network import (InputError, NetworkModel, array, input_error, integer, mapping,
                      non_negative_series, nullable, number, record, string)
from .robust import ReserveSchedule

AXIS_DG_LOSS = "dg_capacity_loss"
AXIS_LOAD_INCREASE = "load_increase"
AXIS_PV_ERROR = "pv_forecast_error"
AXIS_KINDS = (AXIS_DG_LOSS, AXIS_LOAD_INCREASE, AXIS_PV_ERROR)
# the device class an axis of each kind targets
AXIS_CLASS = {AXIS_DG_LOSS: "dg", AXIS_LOAD_INCREASE: "load", AXIS_PV_ERROR: "pv"}


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
        if self.cap_w is not None and not self.cap_w >= 0.0:  # NaN fails too
            raise ValueError(f"cap_w must be a non-negative number, got {self.cap_w}")
        if self.cap_w == math.inf:
            raise ValueError("cap_w must be finite, got inf; null means no cap")


_axis_fields = record({"kind": string, "entity": string}, {"cap_w": nullable(number)})


def read_axis(value, path: str) -> AdversarialAxis:
    """An axis entry, of a scenario's `axes` or of a polytope.json step."""
    fields = _axis_fields(value, path)
    with input_error(path):
        return AdversarialAxis(**fields)


_read_polytope = record({"step": integer, "axes": array(read_axis),
                         "alpha_w": non_negative_series})


@dataclass(frozen=True, eq=False)
class InnerPolytope:
    """Vertices {nominal, nominal + alpha_i e_i} in axis-magnitude coordinates (W).

    Like any object holding an array, a polytope compares and hashes by
    identity; compare `alpha_w` to compare magnitudes."""

    step: int
    axes: tuple[AdversarialAxis, ...]
    alpha_w: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "axes", tuple(self.axes))
        object.__setattr__(self, "alpha_w", np.array(self.alpha_w, dtype=float))
        self.alpha_w.flags.writeable = False

    @property
    def vertices_w(self) -> np.ndarray:
        m = len(self.axes)
        verts = np.zeros((m + 1, m))
        for i, a in enumerate(self.alpha_w):
            verts[i + 1, i] = a
        return verts

    def to_json_dict(self) -> dict:
        return {"step": self.step, "axes": [asdict(a) for a in self.axes],
                "alpha_w": [float(a) for a in self.alpha_w]}

    @classmethod
    def from_json_dict(cls, doc, path: str = "") -> "InnerPolytope":
        poly = cls(**_read_polytope(doc, path))
        alpha, at = poly.alpha_w, f"{path}." if path else ""
        if alpha.shape != (len(poly.axes),):
            raise InputError(f"{at}alpha_w has {alpha.size} entries for {len(poly.axes)} axes")
        return poly


def polytopes_to_json(polys: dict[int, InnerPolytope]) -> dict:
    """The polytope.json document: each step's polytope under its step."""
    return {"steps": {str(k): p.to_json_dict() for k, p in sorted(polys.items())}}


def polytopes_from_json(doc, model: NetworkModel) -> dict[int, InnerPolytope]:
    """The polytopes of a polytope.json document by step, checked against `model`."""
    steps = record({"steps": mapping(InnerPolytope.from_json_dict)})(doc, "")["steps"]
    if not steps:
        raise InputError("no steps")
    for key, poly in steps.items():
        if key != str(poly.step):
            raise InputError(f"steps.{key}.step: expected {key}, got {poly.step}")
        if not 0 <= poly.step < model.steps:
            raise InputError(f"step {poly.step} outside the horizon of {model.steps} steps")
        validate_axes(model, poly.axes)
    return {poly.step: poly for poly in steps.values()}


def validate_axes(model: NetworkModel, axes: list[AdversarialAxis]) -> None:
    """Raise ValueError on an axis whose entity the model lacks, or a repeated one."""
    ids = {cls: {u.id for u in units} for cls, units in device_groups(model)}
    seen = set()
    for i, a in enumerate(axes):
        if a.entity not in ids[AXIS_CLASS[a.kind]]:
            raise ValueError(f"axes[{i}]: unknown entity {a.entity!r} for {a.kind}")
        if (a.kind, a.entity) in seen:
            raise ValueError(f"axes[{i}]: duplicate axis {a.kind}/{a.entity}; "
                             "axes must be independent")
        seen.add((a.kind, a.entity))


def build_recourse_lp(
    model: NetworkModel,
    dispatch: DispatchResult,
    reserves: ReserveSchedule,
    step: int,
    axes: list[AdversarialAxis],
    magnitudes_w: np.ndarray,
    options: BuildOptions | None = None,
) -> tuple[VariableNamespace, list[int]]:
    """Single-step feasibility LP for an event of one magnitude per axis.

    Returns its namespace (the LP is `ns.lp`) and each axis's magnitude
    column (pu), fixed at its magnitude.  Raises ValueError on a step outside
    the horizon, on axes failing `validate_axes`, or on another magnitude count.
    """
    _check_step(model, step)
    validate_axes(model, axes)
    s = PerUnit.of(model).s_base
    ns = build_feeder_lp(model, options or BuildOptions(), steps=(step,))
    alpha = [ns.lp.add_variable(f"alpha[{i}]", m / s, m / s)
             for i, m in enumerate(_magnitudes(magnitudes_w, axes))]
    _narrow(ns, alpha, model, dispatch, reserves, step, axes)
    return ns, alpha


def _check_step(model: NetworkModel, step: int) -> None:
    if not 0 <= step < model.steps:
        raise ValueError(f"step {step} outside the horizon of {model.steps} steps")


def _magnitudes(magnitudes_w, axes: list[AdversarialAxis]) -> np.ndarray:
    m = np.asarray(magnitudes_w, dtype=float)
    if m.shape != (len(axes),):
        raise ValueError(f"magnitudes have shape {m.shape}, expected ({len(axes)},)")
    return m


def _narrow(ns: VariableNamespace, alpha: list[int], model: NetworkModel,
            dispatch: DispatchResult, reserves: ReserveSchedule, k: int,
            axes: list[AdversarialAxis]) -> None:
    """Narrow the one-step recourse LP `ns.lp` to step k in place: set each
    device column's bounds and each axis row's right-hand side, adding the
    axis rows if the LP has none."""
    lp, s = ns.lp, PerUnit.of(model).s_base
    target_of = {(AXIS_CLASS[a.kind], a.entity): i for i, a in enumerate(axes)}
    limits = []  # (coefficients, rhs) of each axis row, in row order
    # realized device active powers narrow from their windows to reserve bands
    # around the schedule, each clamped into the declared window first and
    # kept in its band, so solver-tolerance dust cannot invert a band
    for cls, units in device_groups(model):
        for u in units:
            key = (cls, u.id)
            p = ns.p[(cls, u.id, ns.steps[0])]
            e_in = dispatch.soc_wh[u.id][k] / s if cls == "es" else None  # pu-h
            lo, hi = device_window(cls, u, k, s, e_in, model.dt_hours)
            declared_lo, declared_hi = device_window(cls, u, k, s)
            sched = min(max(dispatch.p[key][k] / s, declared_lo), declared_hi)
            up, down = reserves.up[key][k] / s, reserves.down[key][k] / s
            # a load's up-reserve sheds demand, so its band reaches up below p
            below, above = (up, down) if cls == "load" else (down, up)
            band_lo = min(max(lo, sched - below), sched)
            band_hi = max(min(sched + above, hi), sched)
            i = target_of.get(key)
            if i is None:
                lp.set_bounds(p, band_lo, band_hi)
            elif cls == "load":
                # served load is free: the true demand may exceed the desired
                # level; serve at most that demand, shed at most the up-reserve
                lp.set_bounds(p, -math.inf, math.inf)
                limits += [({p: 1.0, alpha[i]: -1.0}, sched),
                           ({p: -1.0, alpha[i]: 1.0}, up - sched)]
            else:
                # an axis on a solar or diesel unit takes its magnitude out of
                # the available power: the forecast or the rating
                lp.set_bounds(p, lo, band_hi)
                limits.append(({p: 1.0, alpha[i]: 1.0}, hi))
    rows = [row for row in lp.rows if row.tag == "axis"]
    if not rows:  # the LP as built: add its axis rows
        lp.rows += tuple(Row(coeffs, Rel.LE, float(rhs), "axis") for coeffs, rhs in limits)
    for row, (_, rhs) in zip(rows, limits):
        row.rhs = float(rhs)


class RecourseStep:
    """The recourse LP at one step of a pass, the namespace `ns` it was built
    with (the LP is `ns.lp`), and the kept state of its solve with every
    magnitude at zero, the only state it holds.  Each query re-solves the LP
    in place from that state (a plain solve under HiGHS or if it is
    infeasible); the first may store the LU of its basis there, the same for
    every query, so no answer depends on the queries before it."""

    def __init__(
        self,
        model: NetworkModel,
        dispatch: DispatchResult,
        reserves: ReserveSchedule,
        step: int,
        axes: list[AdversarialAxis],
        options: BuildOptions | None = None,
        solver: SolverOptions | None = None,
    ):
        self.model, self.dispatch, self.reserves = model, dispatch, reserves
        self.axes = list(axes)
        self.solver = solver
        self.s_base = PerUnit.of(model).s_base
        self.ns, self.alpha = build_recourse_lp(model, dispatch, reserves, step, self.axes,
                                                np.zeros(len(self.axes)), options)
        self.base = solve(self.ns.lp, solver)  # the built LP has no objective

    def move_to(self, step: int) -> None:
        """Narrow the LP to `step` in place and re-solve it at zero magnitude
        from the kept state of the step before, which the new one replaces."""
        _check_step(self.model, step)
        _narrow(self.ns, self.alpha, self.model, self.dispatch, self.reserves, step, self.axes)
        self.base = self.event(np.zeros(len(self.axes)))

    def _resolve(self, lower: np.ndarray, upper: np.ndarray,
                 objective: dict[int, float] | None = None) -> LpSolution:
        """Solve with magnitude i in [lower[i], upper[i]] (pu) under
        `objective`, starting from the zero-magnitude solve."""
        for col, lo, hi in zip(self.alpha, lower, upper):
            self.ns.lp.set_bounds(col, lo, hi)
        self.ns.lp.set_objective(objective or {})
        return solve(self.ns.lp, self.solver, start=self.base.kept)

    def event(self, magnitudes_w: np.ndarray) -> LpSolution:
        """The recourse LP with every magnitude fixed at `magnitudes_w` (W)."""
        m = _magnitudes(magnitudes_w, self.axes) / self.s_base
        return self._resolve(m, m)

    def maximize(self, i: int) -> LpSolution:
        """Maximize magnitude i up to its axis's cap, the others at zero."""
        if not 0 <= i < len(self.axes):
            raise ValueError(f"axis {i} outside the {len(self.axes)} axes")
        cap = self.axes[i].cap_w
        upper = np.zeros(len(self.axes))
        upper[i] = math.inf if cap is None else cap / self.s_base
        return self._resolve(np.zeros(len(self.axes)), upper, {self.alpha[i]: -1.0})


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
    """Feasibility of the recourse LP at fixed event magnitudes, solved cold once."""
    ns, _ = build_recourse_lp(model, dispatch, reserves, step, axes, magnitudes_w, options)
    return solve(ns.lp, solver).status is LpStatus.OPTIMAL


def characterize(
    model: NetworkModel,
    dispatch: DispatchResult,
    reserves: ReserveSchedule,
    axes: list[AdversarialAxis],
    step: int,
    options: BuildOptions | None = None,
    solver: SolverOptions | None = None,
) -> InnerPolytope:
    """Maximal tolerable magnitude along each axis at `step`: the one-step
    pass of :func:`characterize_steps`, whose LP is built and solved cold."""
    return characterize_steps(model, dispatch, reserves, axes, [step], options, solver)[step]


def characterize_steps(
    model: NetworkModel,
    dispatch: DispatchResult,
    reserves: ReserveSchedule,
    axes: list[AdversarialAxis],
    steps: list[int] | None = None,
    options: BuildOptions | None = None,
    solver: SolverOptions | None = None,
) -> dict[int, InnerPolytope]:
    """Maximal tolerable magnitude along each axis at each of `steps`
    (default: every step), walked in the order given on one
    :class:`RecourseStep`, each axis a :meth:`RecourseStep.maximize`."""
    polys, recourse = {}, None
    for k in range(model.steps) if steps is None else steps:
        if recourse is None:
            recourse = RecourseStep(model, dispatch, reserves, k, axes, options, solver)
        else:
            recourse.move_to(k)
        if recourse.base.status is not LpStatus.OPTIMAL:
            raise AxisInfeasible(f"recourse LP infeasible even at zero event magnitude at step "
                                 f"{k}; the dispatch point is not feasible")
        alphas = np.zeros(len(axes))
        for i, axis in enumerate(axes):
            sol = recourse.maximize(i)
            if sol.status is LpStatus.INFEASIBLE:  # alpha = 0 is feasible: numerical trouble
                raise AxisInfeasible(f"axis {axis.kind}/{axis.entity} infeasible at step {k} "
                                     "although zero magnitude is feasible")
            if sol.status is LpStatus.UNBOUNDED:
                raise ValueError(
                    f"axis {axis.kind}/{axis.entity} unbounded at step {k}; "
                    "give the axis an outer cap"
                )
            alphas[i] = sol.values[recourse.alpha[i]] * recourse.s_base
        polys[k] = InnerPolytope(k, axes, alphas)
    return polys


def contains(poly: InnerPolytope, point_w: np.ndarray, tol: float = 1e-9) -> bool:
    """Membership test: is `point_w` in the simplex conv{0, alpha_i e_i}?

    In closed form: x >= 0, x_i = 0 where alpha_i = 0, and sum x_i / alpha_i
    <= 1.  Coordinates are measured in units of max(1 W, max |alpha|), and
    `tol` (at least 1e-9) is allowed in those units on each sign and zero
    condition and on the sum; a NaN `tol` raises ValueError.
    """
    if math.isnan(tol):
        raise ValueError("tol must be a number, got nan")
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
    return _simplex_points(poly, rng, count)


def _simplex_points(poly: InnerPolytope, rng: np.random.Generator, count: int) -> np.ndarray:
    """`count` uniform points of `poly` from Dirichlet(1,..,1) vertex weights,
    drawn as normalized exponentials."""
    draws = rng.exponential(1.0, size=(count, len(poly.axes) + 1))
    weights = draws / draws.sum(axis=1, keepdims=True)
    return weights @ poly.vertices_w


SAMPLE_CHUNK = 1024  # points drawn at a time by a lazy draw


def _simplex_point_chunks(poly: InnerPolytope, rng: np.random.Generator,
                          count: int) -> Iterator[np.ndarray]:
    """The points of ``_simplex_points(poly, rng, count)``, bit for bit, drawn
    SAMPLE_CHUNK rows at a time as the iterator reaches them.  The
    exponential stream is sequential, and a point's coordinate i is
    w[i+1] alpha_i plus exact zeros, so no chunk size changes a bit."""
    for done in range(0, count, SAMPLE_CHUNK):
        yield _simplex_points(poly, rng, min(SAMPLE_CHUNK, count - done))


def project_2d(poly: InnerPolytope, axis_i: int, axis_j: int) -> tuple[list[tuple[float, float]], bool]:
    """Convex hull of the vertices projected on two axes, counterclockwise.

    The projected vertices are 0, alpha_i e_i and alpha_j e_j, so the hull is
    the origin followed by each of (alpha_i, 0) and (0, alpha_j) whose
    magnitude is positive.  Returns (vertices, degenerate); `degenerate` marks
    a hull that collapses to a segment or point.
    """
    for axis in (axis_i, axis_j):
        if not 0 <= axis < len(poly.axes):
            raise ValueError(f"projection axis {axis} outside the {len(poly.axes)} axes")
    if axis_i == axis_j:
        raise ValueError("projection axes must differ")
    a_i, a_j = float(poly.alpha_w[axis_i]), float(poly.alpha_w[axis_j])
    hull = [(0.0, 0.0)]
    if a_i > 0.0:
        hull.append((a_i, 0.0))
    if a_j > 0.0:
        hull.append((0.0, a_j))
    return hull, len(hull) < 3
