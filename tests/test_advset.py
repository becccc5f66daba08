from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from gridres import advset
from gridres.advset import (
    AdversarialAxis,
    AXIS_DG_LOSS,
    AXIS_LOAD_INCREASE,
    AXIS_PV_ERROR,
    AxisInfeasible,
    InnerPolytope,
    RecourseStep,
    build_recourse_lp,
    characterize,
    characterize_steps,
    contains,
    event_is_tolerable,
    project_2d,
    sample,
)
from gridres.constraints import BuildOptions, device_groups
from gridres.dispatch import CostConfig, solve_baseline
from gridres.lp import LinearProgram, LpStatus, MalformedProblem, Rel, SolverOptions, solve
from gridres.network import SynthSpec, synth_feeder
from gridres.robust import ReserveSchedule
from gridres.scenario import load_scenario
from util import single_bus, six_bus, two_bus

COSTS = CostConfig(1.0, 0.1, 10.0)
DOCS = Path(__file__).resolve().parent.parent / "docs" / "examples"


def dg_toy(load=2.0e6, cap=2.5e6, reserve=0.5e6):
    model = single_bus(load_des_w=load, load_min_w=0.5e6, dg_cap_va=cap)
    dispatch = solve_baseline(model, COSTS)
    reserves = ReserveSchedule.zero(model)
    reserves.up[("dg", "dg1")][:] = reserve
    return model, dispatch, reserves


def test_recourse_row_count_formulas_fuzz():
    rng = np.random.default_rng(23)
    for trial in range(8):
        gamma = 0.3 if trial % 2 else None  # the PV power-factor cone of the dispatch LP
        terminal = trial % 3 == 0  # adds no row: the recourse LP has no SoC rows
        spec = SynthSpec(
            buses=int(rng.integers(4, 9)),
            seed=int(rng.integers(0, 1000)),
            steps=1 + trial % 5,
            n_loads=int(rng.integers(2, 4)),
            n_pv=int(rng.integers(1, 3)),
            n_dg=int(rng.integers(1, 3)),
            n_storage=int(rng.integers(1, 3)),
            balanced_phases=False,
        )
        model = synth_feeder(spec)
        K = model.steps
        sides = int(rng.choice([4, 8]))
        # the row count does not depend on the operating point
        dispatch = SimpleNamespace(
            p={(cls, u.id): np.zeros(K) for cls, units in device_groups(model) for u in units},
            soc_wh={u.id: np.full(K + 1, u.initial_soc_wh) for u in model.storage_units},
        )
        axes = [AdversarialAxis(AXIS_DG_LOSS, u.id) for u in model.dg_units[:1]]
        axes += [AdversarialAxis(AXIS_PV_ERROR, u.id) for u in model.pv_units]
        axes += [AdversarialAxis(AXIS_LOAD_INCREASE, u.id)
                 for u in model.loads[:int(rng.integers(1, 3))]]
        step = int(rng.integers(0, K))
        ns, alpha = build_recourse_lp(model, dispatch, ReserveSchedule.zero(model), step,
                                      axes, np.zeros(len(axes)),
                                      BuildOptions(poly_sides=sides, pv_power_factor_gamma=gamma,
                                                   terminal_soc_geq_initial=terminal))
        lp = ns.lp
        bus_phases = sum(len(b.phases) for b in model.buses)
        branch_phases = sum(len(br.phases) for br in model.branches)
        n_pv, n_dg, n_es, n_load = (
            len(model.pv_units), len(model.dg_units),
            len(model.storage_units), len(model.loads),
        )
        axis_rows = sum(2 if a.kind == AXIS_LOAD_INCREASE else 1 for a in axes)
        assert lp.n_rows == (
            branch_phases + 2 * bus_phases
            + sides * (branch_phases + n_pv + n_dg + n_es)
            + n_load + axis_rows + (0 if gamma is None else 2 * n_pv)
        )
        assert len(alpha) == len(axes)
        assert all(lp.lower[c] == lp.upper[c] == 0.0 for c in alpha)


def test_one_step_recourse_ignores_the_soc_recursion():
    # the recourse LP carries no SoC rows, also when the horizon is one step:
    # a discharging battery keeps its schedule whatever the terminal-SoC flag
    model = six_bus(steps=1)
    dispatch = solve_baseline(model, COSTS)
    reserves = ReserveSchedule.from_headroom(model, dispatch)
    assert dispatch.p[("es", "es1")][0] > 0.0
    axes = [AdversarialAxis(AXIS_DG_LOSS, "dg1")]
    free, terminal = (characterize(model, dispatch, reserves, axes, 0,
                                   BuildOptions(terminal_soc_geq_initial=flag)).alpha_w
                      for flag in (False, True))
    np.testing.assert_array_equal(terminal, free)
    ns, _ = build_recourse_lp(model, dispatch, reserves, 0, axes, np.zeros(1),
                              BuildOptions(terminal_soc_geq_initial=True))
    assert not ns.soc and not any(name.startswith("soc[") for name in ns.lp.names)


def test_characterize_builds_once_per_step(monkeypatch):
    model = six_bus()
    dispatch = solve_baseline(model, COSTS)
    reserves = ReserveSchedule.from_headroom(model, dispatch)
    axes = [
        AdversarialAxis(AXIS_DG_LOSS, "dg1"),
        AdversarialAxis(AXIS_LOAD_INCREASE, "load1", cap_w=0.5e6),
        AdversarialAxis(AXIS_PV_ERROR, "pv1"),
    ]
    builds = []

    def counting(*args, **kwargs):
        builds.append(args[3])
        return build_recourse_lp(*args, **kwargs)

    monkeypatch.setattr(advset, "build_recourse_lp", counting)
    polys = characterize_steps(model, dispatch, reserves, axes, steps=[0, 2])
    assert builds == [0]  # step 2 narrows the LP built at step 0
    assert (polys[2].alpha_w > 0).any()


def test_one_phase_one_per_step_and_alpha_matches_cold(monkeypatch):
    """On the six-bus example the walk cold-solves only the first step's
    zero-magnitude LP, which runs the dual simplex to feasibility; every
    later solve starts from a kept state, and the axes, which take no dual
    pivot, find the cold solves' alpha."""
    sc = load_scenario(DOCS / "sixbus_scenario.json")
    dispatch = solve_baseline(sc.model, sc.costs, sc.build, sc.solver)
    reserves = ReserveSchedule.from_headroom(sc.model, dispatch)
    solves = []

    def recording(lp, options=None, start=None):
        sol = solve(lp, options, start)
        solves.append((start is None, sol.stats))
        return sol

    monkeypatch.setattr(advset, "solve", recording)
    steps = list(range(sc.model.steps))
    polys = characterize_steps(sc.model, dispatch, reserves, sc.axes, steps,
                               sc.build, sc.solver)
    monkeypatch.undo()
    per_step = 1 + len(sc.axes)
    assert len(solves) == per_step * len(steps)
    assert [cold for cold, _ in solves] == [True] + [False] * (len(solves) - 1)
    assert solves[0][1].dual_pivots > 0
    assert all(stats.start == "warm" for _, stats in solves[1:])
    assert all(stats.dual_pivots == 0
               for j, (_, stats) in enumerate(solves) if j % per_step)

    s = sc.model.base.power_va
    for k in steps:
        for i, axis in enumerate(sc.axes):
            ns, alpha = build_recourse_lp(sc.model, dispatch, reserves, k, sc.axes,
                                          np.zeros(len(sc.axes)), sc.build)
            lp = ns.lp
            lp.set_bounds(alpha[i], 0.0, np.inf if axis.cap_w is None else axis.cap_w / s)
            lp.set_objective({alpha[i]: -1.0})
            cold = solve(lp, sc.solver)
            assert polys[k].alpha_w[i] == pytest.approx(cold.values[alpha[i]] * s,
                                                        rel=1e-9, abs=1e-9)


def check_walk_orders(monkeypatch, model, dispatch, reserves, axes, build, solver, steps,
                      forward):
    """Walked in reverse, with one step repeated, and with each step alone,
    every alpha agrees with the forward walk `forward` to 1e-12 relative, and
    each step after a walk's first re-solves its zero-magnitude LP warm."""
    per_step = 1 + len(axes)
    repeated = steps[:2] + steps[1:]  # the second step twice in a row
    for walk in [steps[::-1], repeated] + [[k] for k in steps]:
        solves = []

        def recording(lp, options=None, start=None):
            sol = solve(lp, options, start)
            solves.append(sol.stats)
            return sol

        monkeypatch.setattr(advset, "solve", recording)
        if len(walk) == 1:
            polys = {walk[0]: characterize(model, dispatch, reserves, axes, walk[0], build,
                                           solver)}
        else:
            polys = characterize_steps(model, dispatch, reserves, axes, walk, build, solver)
        monkeypatch.undo()
        zero_magnitude = solves[::per_step]
        assert len(zero_magnitude) == len(walk)
        assert [stats.start for stats in zero_magnitude] == ["cold"] + ["warm"] * (len(walk) - 1)
        for k in walk:
            np.testing.assert_allclose(polys[k].alpha_w, forward[k].alpha_w, rtol=1e-12, atol=0)


def test_walk_order_moves_no_alpha(monkeypatch, advset_run):
    """One recourse LP narrowed from step to step answers as if each step were
    characterized alone, on the six-bus example and on cyber_event, in any
    order of the steps; a step outside the horizon still raises."""
    sc = load_scenario(DOCS / "sixbus_scenario.json")
    dispatch = solve_baseline(sc.model, sc.costs, sc.build, sc.solver)
    reserves = ReserveSchedule.from_headroom(sc.model, dispatch)
    steps = list(range(sc.model.steps))
    forward = characterize_steps(sc.model, dispatch, reserves, sc.axes, steps, sc.build,
                                 sc.solver)
    check_walk_orders(monkeypatch, sc.model, dispatch, reserves, sc.axes, sc.build, sc.solver,
                      steps, forward)
    for bad in (-1, sc.model.steps):
        with pytest.raises(ValueError, match=f"step {bad} outside the horizon of "
                                             f"{sc.model.steps} steps"):
            characterize_steps(sc.model, dispatch, reserves, sc.axes, [0, bad], sc.build,
                               sc.solver)

    scenario, wrap, polys = advset_run
    check_walk_orders(monkeypatch, scenario.model, wrap.dispatch, wrap.reserves, scenario.axes,
                      scenario.build, scenario.solver, list(scenario.advset_steps), polys)


def test_zero_reserves_zero_alpha():
    model = single_bus(load_des_w=1.0e6, load_min_w=1.0e6, dg_cap_va=1.0e6)
    dispatch = solve_baseline(model, COSTS)
    reserves = ReserveSchedule.zero(model)
    poly = characterize(model, dispatch, reserves,
                        [AdversarialAxis(AXIS_LOAD_INCREASE, "load1")], step=0)
    assert poly.alpha_w[0] == pytest.approx(0.0, abs=1.0)


def test_dg_headroom_bounds_load_axis():
    """2.0 MW dispatched of 2.5 MW with 0.5 MW held back: alpha* = 0.5 MW."""
    model, dispatch, reserves = dg_toy()
    poly = characterize(model, dispatch, reserves,
                        [AdversarialAxis(AXIS_LOAD_INCREASE, "load1")], step=0)
    assert poly.alpha_w[0] == pytest.approx(0.5e6, rel=1e-6)


def test_outer_cap_clamps_alpha():
    model, dispatch, reserves = dg_toy()
    poly = characterize(model, dispatch, reserves,
                        [AdversarialAxis(AXIS_LOAD_INCREASE, "load1", cap_w=0.3e6)],
                        step=0)
    assert poly.alpha_w[0] == pytest.approx(0.3e6, rel=1e-9)


def test_shed_reserve_extends_load_axis():
    # tolerable increase = generation headroom plus whatever can be shed
    model, dispatch, reserves = dg_toy()
    reserves.up[("load", "load1")][:] = 0.8e6
    poly = characterize(model, dispatch, reserves,
                        [AdversarialAxis(AXIS_LOAD_INCREASE, "load1")], step=0)
    assert poly.alpha_w[0] == pytest.approx(0.5e6 + 0.8e6, rel=1e-6)


def test_membership_basics():
    model, dispatch, reserves = dg_toy()
    axes = [
        AdversarialAxis(AXIS_LOAD_INCREASE, "load1"),
        AdversarialAxis(AXIS_DG_LOSS, "dg1"),
    ]
    poly = characterize(model, dispatch, reserves, axes, step=0)
    m = len(axes)
    assert contains(poly, np.zeros(m))  # the nominal point
    assert contains(poly, poly.vertices_w[1])  # an extreme point
    beyond = poly.vertices_w[1].copy()
    beyond[0] += 1e4
    assert not contains(poly, beyond)
    inside = 0.4 * poly.vertices_w[1] + 0.3 * poly.vertices_w[2]
    assert contains(poly, inside)
    with pytest.raises(ValueError, match="tol must be a number"):
        contains(poly, 0.1 * poly.vertices_w[1], tol=float("nan"))


def test_maximize_rejects_an_axis_outside_the_axes():
    model, dispatch, reserves = dg_toy()
    axes = [
        AdversarialAxis(AXIS_LOAD_INCREASE, "load1"),
        AdversarialAxis(AXIS_DG_LOSS, "dg1"),
    ]
    step = RecourseStep(model, dispatch, reserves, 0, axes)
    for i in (-1, len(axes)):
        with pytest.raises(ValueError, match=f"axis {i} outside the 2 axes"):
            step.maximize(i)
    assert step.maximize(1).status is LpStatus.OPTIMAL


def vertex_lp_contains(poly, point, tol=1e-9):
    """Membership as an LP over vertex weights: lam in [0, 1], sum lam = 1,
    sum lam_i v_i = point, in units of max(1, max |alpha|)."""
    m = len(poly.axes)
    scale = max(1.0, float(np.max(np.abs(poly.alpha_w))))
    lp = LinearProgram()
    lams = [lp.add_variable(f"lam{i}", 0.0, 1.0) for i in range(m + 1)]
    lp.add_row({v: 1.0 for v in lams}, Rel.EQ, 1.0)
    verts = poly.vertices_w / scale
    for d in range(m):
        coeffs = {lams[i]: verts[i, d] for i in range(m + 1) if verts[i, d] != 0.0}
        lp.add_row(coeffs, Rel.EQ, point[d] / scale)
    return solve(lp, SolverOptions(feas_tol=tol)).status is LpStatus.OPTIMAL


def test_contains_matches_vertex_lp():
    axes = [AdversarialAxis(AXIS_DG_LOSS, f"dg{i}") for i in range(4)]
    rng = np.random.default_rng(8)
    answers = []
    for alpha in ([1.2e6, 0.4e6, 2.5e5, 3.0e6], [0.9e6, 0.0, 1.5e6, 0.0]):
        poly = InnerPolytope(0, axes, np.array(alpha))
        live = poly.alpha_w > 0
        inside = sample(poly, seed=3, count=30)
        levels = (inside[:, live] / poly.alpha_w[live]).sum(axis=1)
        outside = inside * (rng.uniform(1.05, 2.0, size=(30, 1)) / levels[:, None])
        negative = inside.copy()
        negative[:, 0] = -rng.uniform(1e3, 1e5, size=30)
        off_axis = inside.copy()
        off_axis[:, ~live] = rng.uniform(1e3, 1e5, size=(30, int((~live).sum())))
        for point in np.concatenate([inside, outside, negative, off_axis]):
            expected = vertex_lp_contains(poly, point)
            assert contains(poly, point) == expected, (alpha, point)
            answers.append(expected)
    assert answers.count(True) >= 60 and answers.count(False) >= 120


def test_sampling_is_deterministic_and_inside():
    model, dispatch, reserves = dg_toy()
    axes = [
        AdversarialAxis(AXIS_LOAD_INCREASE, "load1"),
        AdversarialAxis(AXIS_DG_LOSS, "dg1"),
    ]
    poly = characterize(model, dispatch, reserves, axes, step=0)
    a = sample(poly, seed=11, count=40)
    b = sample(poly, seed=11, count=40)
    np.testing.assert_array_equal(a, b)
    assert sample(poly, seed=12, count=40).sum() != a.sum()
    for point in a:
        assert contains(poly, point, tol=1e-7)


def test_chunked_draws_are_the_points_of_one_draw():
    """Points drawn a chunk at a time, across chunk boundaries, are the
    points of one draw of the same stream, bit for bit."""
    axes = [AdversarialAxis(AXIS_DG_LOSS, f"dg{i}") for i in range(4)]
    poly = InnerPolytope(0, axes, np.array([3.0e5, 0.0, 1.7e5, 2.9e4]))
    count = 2 * advset.SAMPLE_CHUNK + 3
    whole = advset._simplex_points(poly, np.random.default_rng(9), count)
    chunks = list(advset._simplex_point_chunks(poly, np.random.default_rng(9), count))
    assert [len(c) for c in chunks] == [advset.SAMPLE_CHUNK, advset.SAMPLE_CHUNK, 3]
    assert np.concatenate(chunks).tobytes() == whole.tobytes()


def test_vertices_and_samples_are_tolerable():
    """The defining property: every vertex and every convex sample admits a
    feasible recourse point (the convexity argument, checked literally)."""
    model = six_bus()
    dispatch = solve_baseline(model, COSTS)
    reserves = ReserveSchedule.from_headroom(model, dispatch)
    axes = [
        AdversarialAxis(AXIS_DG_LOSS, "dg1"),
        AdversarialAxis(AXIS_LOAD_INCREASE, "load1", cap_w=0.5e6),
        AdversarialAxis(AXIS_PV_ERROR, "pv1"),
    ]
    step = 2
    poly = characterize(model, dispatch, reserves, axes, step=step)
    assert (poly.alpha_w >= -1e-9).all()
    for vert in poly.vertices_w:
        assert event_is_tolerable(model, dispatch, reserves, step, axes, vert)
    for point in sample(poly, seed=3, count=60):
        assert event_is_tolerable(model, dispatch, reserves, step, axes, point)


def test_maximality_certificate():
    """alpha* + 1e-3 MW along any axis is infeasible."""
    model = six_bus()
    dispatch = solve_baseline(model, COSTS)
    reserves = ReserveSchedule.from_headroom(model, dispatch)
    axes = [
        AdversarialAxis(AXIS_DG_LOSS, "dg1"),
        AdversarialAxis(AXIS_LOAD_INCREASE, "load1", cap_w=0.5e6),
    ]
    step = 1
    poly = characterize(model, dispatch, reserves, axes, step=step)
    for i in range(len(axes)):
        if axes[i].cap_w is not None and poly.alpha_w[i] >= axes[i].cap_w - 1e-6:
            continue  # clamped by the outer box, not by feasibility
        probe = np.zeros(len(axes))
        probe[i] = poly.alpha_w[i] + 1e3
        assert not event_is_tolerable(model, dispatch, reserves, step, axes, probe)


def test_pv_axis_alpha_tracks_headroom_over_time():
    model = two_bus(steps=2, load_des_w=1.0e6,
                    forecast_w=np.array([0.3e6, 0.9e6]), pv_cap_va=1.0e6)
    dispatch = solve_baseline(model, COSTS)
    reserves = ReserveSchedule.from_headroom(model, dispatch)
    axes = [AdversarialAxis(AXIS_PV_ERROR, "pv1")]
    polys = characterize_steps(model, dispatch, reserves, axes)
    assert polys[1].alpha_w[0] > polys[0].alpha_w[0]  # more sun, more tolerance


def test_infeasible_dispatch_point_flagged():
    model, dispatch, reserves = dg_toy()
    corrupt = dispatch
    # stay inside the device window (no clamping) but break the power balance
    corrupt.p[("dg", "dg1")] = corrupt.p[("dg", "dg1")] - 0.5e6
    reserves.up[("dg", "dg1")][:] = 0.0
    with pytest.raises(AxisInfeasible, match="at step 0"):
        characterize(model, corrupt, reserves,
                     [AdversarialAxis(AXIS_LOAD_INCREASE, "load1")], step=0)


def test_step_outside_the_horizon_is_rejected():
    model, dispatch, reserves = dg_toy()
    axes = [AdversarialAxis(AXIS_LOAD_INCREASE, "load1")]
    for step in (-1, model.steps):
        match = f"step {step} outside the horizon of {model.steps} steps"
        with pytest.raises(ValueError, match=match):
            build_recourse_lp(model, dispatch, reserves, step, axes, np.zeros(1))
        with pytest.raises(ValueError, match=match):
            characterize(model, dispatch, reserves, axes, step=step)
        with pytest.raises(ValueError, match=match):
            event_is_tolerable(model, dispatch, reserves, step, axes, np.zeros(1))


@pytest.mark.parametrize("axes, match", [
    ([AdversarialAxis(AXIS_DG_LOSS, "nope")],
     r"axes\[0\]: unknown entity 'nope' for dg_capacity_loss"),
    ([AdversarialAxis(AXIS_DG_LOSS, "dg1")] * 2,
     r"axes\[1\]: duplicate axis dg_capacity_loss/dg1; axes must be independent"),
], ids=["unknown-entity", "repeated-axis"])
def test_every_recourse_entry_point_checks_the_axes(axes, match):
    """An axis whose entity the model lacks, or a repeated one, raises
    `validate_axes`' ValueError at each entry point.  Unchecked, a 1 GW loss
    on either read as tolerable: the unknown entity's magnitude enters no
    row, and neither does a repeated axis's first copy, whose entity's row
    takes the last copy's magnitude."""
    model = six_bus()
    dispatch = solve_baseline(model, COSTS)
    reserves = ReserveSchedule.from_headroom(model, dispatch)
    gigawatt = np.zeros(len(axes))
    gigawatt[0] = 1e9
    with pytest.raises(ValueError, match=match):
        build_recourse_lp(model, dispatch, reserves, 0, axes, gigawatt)
    with pytest.raises(ValueError, match=match):
        RecourseStep(model, dispatch, reserves, 0, axes)
    with pytest.raises(ValueError, match=match):
        event_is_tolerable(model, dispatch, reserves, 0, axes, gigawatt)
    with pytest.raises(ValueError, match=match):
        characterize_steps(model, dispatch, reserves, axes)


def test_magnitudes_of_another_shape_are_rejected():
    model, dispatch, reserves = dg_toy()
    axes = [AdversarialAxis(AXIS_DG_LOSS, "dg1")]
    match = r"magnitudes have shape \(2,\), expected \(1,\)"
    with pytest.raises(ValueError, match=match):
        event_is_tolerable(model, dispatch, reserves, 0, axes, np.zeros(2))
    with pytest.raises(ValueError, match=match):
        RecourseStep(model, dispatch, reserves, 0, axes).event(np.zeros(2))


def test_infinite_magnitude_is_malformed():
    model, dispatch, reserves = dg_toy()
    axes = [AdversarialAxis(AXIS_LOAD_INCREASE, "load1")]
    with pytest.raises(MalformedProblem, match="upper bound -inf"):
        event_is_tolerable(model, dispatch, reserves, 0, axes, np.array([-np.inf]))


def test_projection_geometry():
    poly = InnerPolytope(
        step=0,
        axes=[
            AdversarialAxis(AXIS_DG_LOSS, "dg1"),
            AdversarialAxis(AXIS_LOAD_INCREASE, "load1"),
            AdversarialAxis(AXIS_PV_ERROR, "pv1"),
        ],
        alpha_w=np.array([1.2e6, 0.4e6, 0.0]),
    )
    hull, degenerate = project_2d(poly, 0, 1)
    assert not degenerate
    assert set(hull) == {(0.0, 0.0), (1.2e6, 0.0), (0.0, 0.4e6)}
    # counterclockwise orientation (positive shoelace area)
    area = 0.0
    for (x0, y0), (x1, y1) in zip(hull, hull[1:] + hull[:1]):
        area += x0 * y1 - x1 * y0
    assert area > 0

    # swapping axes reflects the polygon; area magnitude is unchanged
    hull_swapped, _ = project_2d(poly, 1, 0)
    area_swapped = 0.0
    for (x0, y0), (x1, y1) in zip(hull_swapped, hull_swapped[1:] + hull_swapped[:1]):
        area_swapped += x0 * y1 - x1 * y0
    assert abs(area_swapped) == pytest.approx(abs(area))

    # the axis with alpha = 0 collapses the projection to a segment
    seg, degenerate = project_2d(poly, 2, 0)
    assert degenerate and seg == [(0.0, 0.0), (0.0, 1.2e6)]

    # and two such axes to the point at the origin
    point, degenerate = project_2d(InnerPolytope(0, poly.axes, np.array([1.2e6, 0.0, 0.0])), 1, 2)
    assert degenerate and point == [(0.0, 0.0)]

    with pytest.raises(ValueError):
        project_2d(poly, 1, 1)
    for i, j in [(-1, 0), (0, -1), (3, 0), (0, 3)]:
        with pytest.raises(ValueError, match="outside the 3 axes"):
            project_2d(poly, i, j)


def test_sampled_points_inside_projection():
    model, dispatch, reserves = dg_toy()
    axes = [
        AdversarialAxis(AXIS_LOAD_INCREASE, "load1"),
        AdversarialAxis(AXIS_DG_LOSS, "dg1"),
    ]
    poly = characterize(model, dispatch, reserves, axes, step=0)
    hull, degenerate = project_2d(poly, 0, 1)
    assert not degenerate
    pts = sample(poly, seed=5, count=100)[:, [0, 1]]
    # convex hull membership via half-plane checks (ccw edges)
    for x, y in pts:
        for (x0, y0), (x1, y1) in zip(hull, hull[1:] + hull[:1]):
            cross = (x1 - x0) * (y - y0) - (y1 - y0) * (x - x0)
            assert cross >= -1e-3


def test_polytope_json_round_trip():
    poly = InnerPolytope(
        step=3,
        axes=[AdversarialAxis(AXIS_DG_LOSS, "dg1", cap_w=1.6e6)],
        alpha_w=np.array([0.9e6]),
    )
    doc = poly.to_json_dict()
    back = InnerPolytope.from_json_dict(doc)
    assert back.step == 3
    assert back.axes == poly.axes
    np.testing.assert_array_equal(back.alpha_w, poly.alpha_w)


def test_inner_polytope_is_immutable():
    """A built polytope's step, axes and magnitudes cannot be edited, and
    it holds its own float copy of the magnitudes it was given."""
    axes = [AdversarialAxis(AXIS_DG_LOSS, "dg1"), AdversarialAxis(AXIS_PV_ERROR, "pv1")]
    alpha = np.array([3, 2])
    poly = InnerPolytope(0, axes, alpha)
    alpha[0] = 7
    axes.append(AdversarialAxis(AXIS_LOAD_INCREASE, "load1"))
    assert poly.axes == tuple(axes[:2]) and poly.alpha_w.tolist() == [3.0, 2.0]
    assert poly.alpha_w.dtype == float
    with pytest.raises(ValueError, match="read-only"):
        poly.alpha_w[0] = -5.0
    with pytest.raises(AttributeError):
        poly.axes.append(AdversarialAxis(AXIS_LOAD_INCREASE, "load1"))
    with pytest.raises(AttributeError):
        poly.step = 1
    assert len(poly.axes) == 2 and poly.alpha_w.tolist() == [3.0, 2.0] and poly.step == 0


def test_inner_polytope_compares_by_identity():
    """`==`, `!=` and hashing answer without comparing arrays: two equal
    two-axis polytopes are distinct objects with equal magnitudes."""
    axes = (AdversarialAxis(AXIS_DG_LOSS, "dg1"), AdversarialAxis(AXIS_PV_ERROR, "pv1"))
    poly, twin = InnerPolytope(0, axes, [3.0, 2.0]), InnerPolytope(0, axes, [3.0, 2.0])
    assert poly == poly and not poly != poly
    assert poly != twin and not poly == twin
    assert {poly, twin, poly} == {poly, twin} and len({poly}) == 1
    assert np.array_equal(poly.alpha_w, twin.alpha_w) and poly.axes == twin.axes


def test_recourse_step_answers_equal_cold_solves():
    """On the six-bus example, 200 seeded magnitudes per step, inside and
    outside the polytope: the step object's answer equals a cold solve of
    the recourse LP built at those magnitudes, and every re-solve starts from
    the step's basis.  Answered a second time in reverse order, interleaved
    with the axis maximizations, every answer is the same bit for bit: no
    query depends on the queries before it."""
    sc = load_scenario(DOCS / "sixbus_scenario.json")
    dispatch = solve_baseline(sc.model, sc.costs, sc.build, sc.solver)
    reserves = ReserveSchedule.from_headroom(sc.model, dispatch)
    rng = np.random.default_rng(200)
    answers = []
    for k in range(sc.model.steps):
        poly = characterize(sc.model, dispatch, reserves, sc.axes, k, sc.build, sc.solver)
        step = RecourseStep(sc.model, dispatch, reserves, k, sc.axes, sc.build, sc.solver)
        inside = sample(poly, seed=k, count=100)
        outward = rng.uniform(1.05, 4.0, size=(100, 1)) * sample(poly, seed=100 + k, count=100)
        points = np.concatenate([inside, outward])
        first = []
        for point in points:
            sol = step.event(point)
            ns, _ = build_recourse_lp(sc.model, dispatch, reserves, k, sc.axes, point, sc.build)
            assert sol.status == solve(ns.lp, sc.solver).status, (k, point)
            assert sol.stats.start == "warm"
            answers.append(sol.status is LpStatus.OPTIMAL)
            first.append(sol)
        maxima = [step.maximize(i) for i in range(len(sc.axes))]
        every = len(points) // len(sc.axes)
        for j in reversed(range(len(points))):
            if j % every == 0:  # an axis maximization between the events
                i = j // every
                again = step.maximize(i)
                np.testing.assert_array_equal(again.values, maxima[i].values)
                assert again.stats == maxima[i].stats
            again = step.event(points[j])
            assert again.status == first[j].status and again.stats == first[j].stats
            if again.status is LpStatus.OPTIMAL:
                np.testing.assert_array_equal(again.values, first[j].values)
    assert answers[:100] == [True] * 100
    assert answers.count(False) >= 100, answers.count(False)


def test_headroom_sweep_resolves_without_a_cold_start(advset_run):
    """Headroom bands scaled by rho = 1 -> 0.75 -> 0.5 -> 0.25 on every
    cyber_event step: each re-solve of the step's LP starts from its
    zero-magnitude basis, never from the crash basis, and most take dual
    pivots."""
    scenario, wrap, _polys = advset_run
    model, dispatch = scenario.model, wrap.dispatch
    n_axes = len(scenario.axes)
    starts = []
    for k in range(model.steps):
        step = RecourseStep(model, dispatch, wrap.reserves, k, scenario.axes, scenario.build,
                            scenario.solver)
        for rho in (0.75, 0.5, 0.25):
            scaled = ReserveSchedule({key: rho * v for key, v in wrap.reserves.up.items()},
                                     {key: rho * v for key, v in wrap.reserves.down.items()})
            banded = build_recourse_lp(model, dispatch, scaled, k, scenario.axes,
                                       np.zeros(n_axes), scenario.build)[0].lp
            # the narrower bands are the column bounds and axis-row right-hand
            # sides of the LP built at the scaled reserves
            step.ns.lp.lower[:], step.ns.lp.upper[:] = banded.lower, banded.upper
            for row, new in zip(step.ns.lp.rows, banded.rows):
                row.rhs = new.rhs
            sol = step.event(np.zeros(n_axes))
            assert sol.status is solve(banded, scenario.solver).status is LpStatus.OPTIMAL
            starts.append((sol.stats.start, sol.stats.dual_pivots))
    assert len(starts) == 36 and all(start == "warm" for start, _ in starts)
    assert sum(pivots > 0 for _, pivots in starts) >= 29, starts
