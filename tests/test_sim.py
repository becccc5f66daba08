import dataclasses
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gridres.advset import AdversarialAxis, AXIS_DG_LOSS, AXIS_LOAD_INCREASE, characterize_steps
from gridres.constraints import P_DG_CAPACITY, P_LOAD_DESIRED
from gridres.dispatch import CostConfig, build_baseline_lp, solve_baseline
from gridres.lp import check_feasibility
from gridres.network import StorageUnit
from gridres.robust import ReserveSchedule, RobustResult, UncertaintyBox, solve_robust
from gridres.sim import (
    LINE_TOL,
    VOLTAGE_TOL,
    Event,
    _limit_flags,
    compile_replay,
    compile_timeline,
    events_from_polytopes,
    proportional_dispatch,
    run_simulation,
    violation_report,
)
from util import single_bus, six_bus

COSTS = CostConfig(1.0, 0.1, 10.0)


def test_proportional_split():
    dep, shortfall = proportional_dispatch(0.6e6, [1.0e6, 0.5e6])
    assert dep[0] == pytest.approx(0.4e6)
    assert dep[1] == pytest.approx(0.2e6)
    assert shortfall == 0.0


def test_proportional_zero_imbalance():
    dep, shortfall = proportional_dispatch(0.0, [1.0, 2.0])
    assert all(v == 0.0 for v in dep)
    assert shortfall == 0.0


def test_proportional_saturation():
    dep, shortfall = proportional_dispatch(2.0e6, [1.0e6, 0.5e6])
    assert sum(dep) == pytest.approx(1.5e6)
    assert shortfall == pytest.approx(0.5e6)


def test_proportional_empty_pool():
    dep, shortfall = proportional_dispatch(1.0e6, [])
    assert dep == []
    assert shortfall == pytest.approx(1.0e6)


def test_timeline_validation():
    model = six_bus()
    with pytest.raises(ValueError, match="matching start"):
        compile_timeline(model, [Event(10.0, "dg_restore", "dg1")])
    with pytest.raises(ValueError, match="non-decreasing"):
        compile_timeline(model, [Event(20.0, "dg_trip", "dg1"), Event(10.0, "dg_restore", "dg1")])
    with pytest.raises(ValueError, match="magnitude"):
        compile_timeline(model, [Event(5.0, "load_mask_start", "load1")])
    with pytest.raises(ValueError, match="unknown"):
        compile_timeline(model, [Event(5.0, "dg_trip", "nope")])
    with pytest.raises(ValueError, match="finite"):
        compile_timeline(model, [Event(5.0, "load_mask_start", "load1", float("nan"))])
    with pytest.raises(ValueError, match="non-negative"):  # a mask may be negative, a loss not
        compile_timeline(model, [Event(5.0, "pv_loss", "pv1", -1.0)])


def test_compile_timeline_windows():
    model = six_bus(steps=8)  # 15-minute steps
    tl = [
        Event(30.0, "dg_trip", "dg1"),
        Event(45.0, "load_mask_start", "load1", 0.1e6),
        Event(75.0, "dg_restore", "dg1"),
        Event(90.0, "load_mask_end", "load1"),
    ]
    steps = compile_timeline(model, tl)
    assert ("dg", "dg1") not in steps[1]
    assert steps[2][("dg", "dg1")] == pytest.approx(1.5e6)  # full trip default
    assert steps[3][("load", "load1")] == pytest.approx(0.1e6)
    assert ("dg", "dg1") not in steps[5]
    assert ("load", "load1") in steps[5]
    assert steps[6] == {}


def event_toy():
    """Single bus with a trippable DG, storage for reserves, and a maskable load."""
    model = single_bus(load_des_w=1.0e6, load_min_w=0.3e6, dg_cap_va=1.5e6,
                       with_storage=True, steps=4)
    box = UncertaintyBox()
    for k in range(model.steps):
        box.add(P_DG_CAPACITY, "dg1", k, 0.5e6, 1.5e6, 1.5e6)
        box.add(P_LOAD_DESIRED, "load1", k, 1.0e6, 1.0e6, 1.2e6)
    robust = solve_robust(model, COSTS, box=box)
    return model, robust


def test_empty_timeline_reproduces_schedule():
    model, robust = event_toy()
    traj = run_simulation(compile_replay(model, robust), [])
    np.testing.assert_array_equal(traj.imbalance_w, 0.0)
    np.testing.assert_array_equal(traj.deployed_up_w, 0.0)
    np.testing.assert_array_equal(traj.shortfall_w, 0.0)
    sched = np.array([
        sum(robust.dispatch.p[("dg", u.id)][k] for u in model.dg_units)
        for k in range(model.steps)
    ])
    np.testing.assert_array_equal(traj.dg_w, sched)
    for u in model.storage_units:
        np.testing.assert_allclose(traj.soc_wh[u.id], robust.dispatch.soc_wh[u.id],
                                   atol=1e-6)
    assert violation_report(traj).clean()


def test_event_replay_deploys_and_stays_clean():
    model, robust = event_toy()
    # 15-minute steps: trip in step 1, mask in steps 2-3
    tl = [
        Event(15.0, "dg_trip", "dg1", 0.5e6),
        Event(30.0, "dg_restore", "dg1"),
        Event(30.0, "load_mask_start", "load1", 0.2e6),
        Event(55.0, "load_mask_end", "load1"),
    ]
    traj = run_simulation(compile_replay(model, robust), compile_timeline(model, tl))
    report = violation_report(traj)
    assert report.clean(), report
    # the trip bites only if the unit was dispatched above the derated level
    pdg = robust.dispatch.p[("dg", "dg1")]
    expect_1 = max(pdg[1] - 1.0e6, 0.0)
    assert traj.imbalance_w[1] == pytest.approx(expect_1, abs=1e-3)
    assert traj.imbalance_w[2] == pytest.approx(0.2e6, abs=1e-3)
    np.testing.assert_allclose(traj.deployed_up_w, traj.imbalance_w, atol=1e-3)
    # conservation ledger, exact
    np.testing.assert_allclose(
        traj.true_demand_w, traj.served_load_w + traj.shed_w + traj.shortfall_w,
        atol=1e-9,
    )


def test_soc_recursion_replay():
    model, robust = event_toy()
    tl = [Event(0.0, "dg_trip", "dg1", 0.8e6), Event(30.0, "dg_restore", "dg1")]
    traj = run_simulation(compile_replay(model, robust), compile_timeline(model, tl))
    dt = model.dt_hours
    for u in model.storage_units:
        es_series = []
        for k in range(model.steps):
            es_series.append((traj.soc_wh[u.id][k] - traj.soc_wh[u.id][k + 1]) / dt)
        # replay: E_{k+1} - E_k + P*dt = 0 exactly
        for k in range(model.steps):
            resid = traj.soc_wh[u.id][k + 1] - traj.soc_wh[u.id][k] + es_series[k] * dt
            assert abs(resid) <= 1e-9


def test_reserve_deployed_early_flags_a_later_scheduled_discharge():
    """A battery holding 80 kWh (floor 20 kWh) is scheduled idle, then to
    discharge 200 kW for a 15-minute step: 30 kWh stays above the floor.
    A 100 kW mask at step 0 deploys its whole up-reserve, 25 kWh, so the
    scheduled discharge ends 15 kWh below the floor, and the replay flags
    that step's state of charge by exactly that much."""
    model = single_bus(load_des_w=1.0e6, load_min_w=0.5e6, dg_cap_va=1.5e6, steps=2)
    model.storage_units = [StorageUnit("es1", "bus0", 0.4e6, 0.02e6, 0.2e6, 0.5e6, 0.08e6)]
    base = solve_baseline(model, COSTS)
    base.p[("es", "es1")] = np.array([0.0, 0.2e6])
    base.p[("dg", "dg1")] = 1.0e6 - base.p[("es", "es1")]
    reserves = ReserveSchedule.zero(model)
    reserves.up[("es", "es1")][0] = 0.1e6
    schedule = RobustResult(base, reserves, base.objective_value, 0.0, np.zeros(2),
                            np.zeros(2))
    replay = compile_replay(model, schedule)
    clean = run_simulation(replay, [])
    np.testing.assert_allclose(clean.soc_wh["es1"], [80e3, 80e3, 30e3], rtol=0, atol=1e-6)
    assert violation_report(clean).clean()

    traj = run_simulation(replay, [{("load", "load1"): 0.1e6}])
    assert traj.deployed_up_w[0] == pytest.approx(0.1e6, abs=1e-6)
    np.testing.assert_allclose(traj.soc_wh["es1"], [80e3, 55e3, 5e3], rtol=0, atol=1e-6)
    np.testing.assert_array_equal(traj.violations["soc"], [False, True])
    np.testing.assert_allclose(traj.violation_magnitude["soc"], [0.0, 15e3], rtol=0, atol=1e-6)
    report = violation_report(traj)
    assert report.counts == {"voltage": 0, "soc": 1, "line": 0, "shortfall": 0}
    assert report.max_magnitude["soc"] == pytest.approx(15e3, abs=1e-6)


def test_oversized_event_records_shortfall():
    model, robust = event_toy()
    tl = [Event(0.0, "load_mask_start", "load1", 5.0e6)]
    traj = run_simulation(compile_replay(model, robust), compile_timeline(model, tl))
    report = violation_report(traj)
    assert report.counts["shortfall"] > 0
    assert report.max_magnitude["shortfall"] > 1.0e6
    # saturation: never deploys more than the allocated pool
    for k in range(model.steps):
        for (cls_name, uid), series in traj.deployment_w.items():
            assert series[k] <= robust.reserves.up[(cls_name, uid)][k] + 1e-6


def test_violation_report_matches_recount():
    model, robust = event_toy()
    tl = [Event(0.0, "load_mask_start", "load1", 5.0e6)]
    traj = run_simulation(compile_replay(model, robust), compile_timeline(model, tl))
    report = violation_report(traj)
    for cls_name, flags in traj.violations.items():
        assert report.counts[cls_name] == int(flags.sum())


def test_down_direction_absorbs_load_drop():
    """Negative imbalance (load below schedule) deploys down-reserves."""
    model = single_bus(load_des_w=1.0e6, load_min_w=0.3e6, dg_cap_va=1.5e6,
                       with_storage=True, steps=2)
    box = UncertaintyBox()
    for k in range(model.steps):
        box.add(P_LOAD_DESIRED, "load1", k, 0.7e6, 1.0e6, 1.0e6)
    robust = solve_robust(model, COSTS, box=box)
    tl = [Event(0.0, "load_mask_start", "load1", -0.3e6)]
    traj = run_simulation(compile_replay(model, robust), compile_timeline(model, tl))
    assert traj.imbalance_w[0] == pytest.approx(-0.3e6, abs=1e-3)
    assert traj.deployed_down_w[0] == pytest.approx(0.3e6, abs=1e-3)
    assert violation_report(traj).clean()


def test_mask_deeper_than_the_draw_floors_the_draw_at_zero():
    """A negative mask beyond the scheduled draw applies as minus that draw:
    the load stops drawing, it never generates."""
    model, robust = event_toy()
    sched = robust.dispatch.p[("load", "load1")]
    deep = compile_timeline(model, [Event(0.0, "load_mask_start", "load1", -5.0e6)])
    exact = [{("load", "load1"): -sched[k]} for k in range(model.steps)]
    replay = compile_replay(model, robust)
    traj, floored = (run_simulation(replay, events) for events in (deep, exact))
    np.testing.assert_array_equal(traj.true_demand_w, 0.0)
    np.testing.assert_array_equal(traj.imbalance_w, -sched)
    for name in ("imbalance_w", "true_demand_w", "served_load_w", "shortfall_w"):
        np.testing.assert_array_equal(getattr(traj, name), getattr(floored, name))


def test_recourse_point_satisfies_perturbed_rows():
    """Box-vertex events: the controller's recourse point passes
    check_feasibility on the nominal rows re-evaluated at the realized
    parameters (single-step events keep the SoC schedule intact)."""
    rng = np.random.default_rng(31)
    model, robust = event_toy()
    replay = compile_replay(model, robust)
    for _ in range(100):
        k = int(rng.integers(0, model.steps))
        trip = bool(rng.integers(0, 2))
        mask = bool(rng.integers(0, 2))
        step_min = model.dt_hours * 60.0
        events = []
        if trip:
            events.append(Event(k * step_min, "dg_trip", "dg1", 1.0e6))
            if k + 1 < model.steps:
                events.append(Event((k + 1) * step_min, "dg_restore", "dg1"))
        if mask:
            events.append(Event(k * step_min, "load_mask_start", "load1", 0.2e6))
            if k + 1 < model.steps:
                events.append(Event((k + 1) * step_min, "load_mask_end", "load1"))
        events.sort(key=lambda e: e.time_min)
        traj = run_simulation(replay, compile_timeline(model, events))
        assert violation_report(traj).clean()

        # rebuild the nominal problem at the realized parameters
        perturbed = single_bus(load_des_w=1.0e6, load_min_w=0.3e6, dg_cap_va=1.5e6,
                               with_storage=True, steps=4)
        if trip:
            perturbed.dg_units[0].capacity_va = 1.5e6  # bound handled below
        lp, ns = build_baseline_lp(perturbed, COSTS)
        point = np.zeros(lp.n_variables)
        point[ns.w[("bus0", "a", 0)]] = 1.0
        for kk in range(model.steps):
            point[ns.w[("bus0", "a", kk)]] = 1.0
            point[ns.p[("dg", "dg1", kk)]] = traj.dg_w[kk] / 1e6
            point[ns.p[("es", "es1", kk)]] = traj.es_w[kk] / 1e6
            point[ns.p[("load", "load1", kk)]] = traj.served_load_w[kk] / 1e6
            point[ns.soc[("es1", kk)]] = traj.soc_wh["es1"][kk + 1] / 1e6
        # loosen the load window to the realized demand before checking
        for kk in range(model.steps):
            lo, hi = lp.lower[ns.p[("load", "load1", kk)]], lp.upper[ns.p[("load", "load1", kk)]]
            true_hi = traj.true_demand_w[kk] / 1e6
            lp.set_bounds(ns.p[("load", "load1", kk)], min(lo, true_hi), max(hi, true_hi))
            if trip and kk == k:
                lp.set_bounds(ns.p[("dg", "dg1", kk)], 0.0, 0.5)  # derated capacity
        report = check_feasibility(lp, point, tol=1e-6)
        assert report.max_row_residual <= 1e-6, (trip, mask, k, report.violations)
        assert report.max_bound_violation <= 1e-6


def test_polytope_sampled_events_simulate_clean():
    model, robust = event_toy()
    axes = [
        AdversarialAxis(AXIS_DG_LOSS, "dg1"),
        AdversarialAxis(AXIS_LOAD_INCREASE, "load1", cap_w=0.6e6),
    ]
    polys = characterize_steps(model, robust.dispatch, robust.reserves, axes)
    runs = list(events_from_polytopes(polys, seed=7, count=25))
    assert len(runs) == 25
    again = events_from_polytopes(polys, seed=7, count=25)
    for a, b in zip(runs, again):
        assert a == b
    replay = compile_replay(model, robust)
    for per_step in runs:
        traj = run_simulation(replay, per_step)
        assert violation_report(traj).clean()


# Runs the draw in a child process whose address space is capped, so that a
# draw that allocates every point at once fails there with a MemoryError
# (37 GiB for 10**9 points of five weights) instead of taking the machine's
# memory.
LAZY_DRAW = """
import numpy as np
from gridres.advset import AXIS_DG_LOSS, AXIS_LOAD_INCREASE, AdversarialAxis, InnerPolytope
from gridres.sim import events_from_polytopes

axes = [AdversarialAxis(AXIS_DG_LOSS, "dg1"), AdversarialAxis(AXIS_LOAD_INCREASE, "load1"),
        AdversarialAxis(AXIS_DG_LOSS, "dg2"), AdversarialAxis(AXIS_LOAD_INCREASE, "load2")]
alpha = np.array([2.0e5, 0.0, 5.0e4, 1.25e5])
polys = {k: InnerPolytope(k, axes, alpha * (k + 1)) for k in (0, 2, 3)}
many = events_from_polytopes(polys, 2026, 10**9)
first = [next(many) for _ in range(3)]
assert first == list(events_from_polytopes(polys, 2026, 3)), first
print("ok")
"""
ADDRESS_SPACE_CAP = 2 * 2**30  # bytes


def test_sampled_runs_are_drawn_lazily():
    """The first 3 of 10**9 sampled runs are the 3 runs of count=3, drawn
    without room for the other points."""
    import gridres

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))

    env = dict(os.environ, PYTHONPATH=str(Path(gridres.__file__).parent.parent),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", LAZY_DRAW], env=env, preexec_fn=cap,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stdout == "ok\n", proc.stderr


def test_pv_loss_and_restore_events():
    """A solar shortfall forces output down; reserves cover the gap."""
    model = single_bus(load_des_w=0.8e6, load_min_w=0.3e6, dg_cap_va=1.5e6,
                       with_pv=True, with_storage=True, steps=4)
    from gridres.constraints import P_PV_FORECAST
    from gridres.robust import UncertaintyBox, solve_robust

    box = UncertaintyBox()
    for k in range(model.steps):
        box.add(P_PV_FORECAST, "pv1", k, 0.2e6, 0.5e6, 0.5e6)
    robust = solve_robust(model, COSTS, box=box)
    # the tightened band keeps dispatch under the worst-case forecast
    assert robust.dispatch.p[("pv", "pv1")][0] <= 0.2e6 + 1.0

    # a loss at the box edge: dispatch already sits below the worst forecast,
    # so the event forces nothing and the replay is clean
    tl = [
        Event(0.0, "pv_loss", "pv1", 0.3e6),
        Event(30.0, "pv_restore", "pv1"),
    ]
    traj = run_simulation(compile_replay(model, robust), compile_timeline(model, tl))
    assert violation_report(traj).clean()
    np.testing.assert_allclose(traj.imbalance_w, 0.0, atol=1e-3)

    # a loss beyond the covered box forces output below dispatch; if the gap
    # exceeds the reserve pool the residual is recorded as shortfall
    full = [Event(0.0, "pv_loss", "pv1")]  # default: all of it
    traj = run_simulation(compile_replay(model, robust), compile_timeline(model, full))
    assert traj.pv_w[0] == pytest.approx(0.0, abs=1e-6)
    assert traj.imbalance_w[0] == pytest.approx(robust.dispatch.p[("pv", "pv1")][0], abs=1e-3)


def test_no_event_voltages_match_schedule():
    """The simulator's flow re-evaluation reproduces the LP's network state."""
    from gridres.constraints import P_LOAD_DESIRED
    from gridres.dispatch import summarize
    from gridres.robust import UncertaintyBox, solve_robust

    model = six_bus(steps=3)
    box = UncertaintyBox()
    for k in range(model.steps):
        box.add(P_LOAD_DESIRED, "load1", k,
                *(lambda n: (n, n, n + 0.1e6))(float(model.loads[0].desired_w[k])))
    robust = solve_robust(model, COSTS, box=box)
    traj = run_simulation(compile_replay(model, robust), [])
    agg = summarize(robust.dispatch)
    np.testing.assert_allclose(traj.voltage_min_pu, agg.v_min_pu, atol=5e-7)
    np.testing.assert_allclose(traj.voltage_max_pu, agg.v_max_pu, atol=5e-7)


def trajectory_bytes(traj) -> dict:
    """Every array of a `Trajectory`, dictionary entries by key, as (dtype, shape, bytes)."""
    out = {}
    for f in dataclasses.fields(traj):
        value = getattr(traj, f.name)
        for key, arr in (value.items() if isinstance(value, dict) else [(None, value)]):
            out[(f.name, key)] = (arr.dtype.str, arr.shape, arr.tobytes())
    return out


def test_compiled_replay_is_read_only_across_runs(advset_run, event_run):
    """Runs through one compiled replay leave nothing behind for the next."""
    scenario, wrap, polys = advset_run
    run_a, run_b = events_from_polytopes(polys, seed=7, count=2)
    replay = compile_replay(scenario.model, wrap)
    first = run_simulation(replay, run_a)
    other = run_simulation(replay, run_b)
    again = run_simulation(replay, run_a)
    assert trajectory_bytes(first) == trajectory_bytes(again)
    assert trajectory_bytes(first) != trajectory_bytes(other)
    assert {"soc_wh", "deployment_w", "violations", "violation_magnitude"} <= {
        name for name, _key in trajectory_bytes(first)}

    # the c4 timeline through a replay that sampled runs went through first
    # equals the fixture's, replayed through a freshly compiled one
    scenario, _base, robust, traj, _t = event_run
    shared = compile_replay(scenario.model, robust)
    for events in (run_a, run_b):
        run_simulation(shared, events)
    assert trajectory_bytes(run_simulation(shared, scenario.events)) == trajectory_bytes(traj)


def assert_ledger_close(actual, desired):
    """Equal to 1e-9 relative or 1e-6 W, whichever is looser."""
    actual, desired = np.asarray(actual), np.asarray(desired)
    tol = np.maximum(1e-9 * np.maximum(np.abs(actual), np.abs(desired)), 1e-6)
    assert (np.abs(actual - desired) <= tol).all(), (actual, desired)


def test_ledger_identities_on_out_of_set_runs(advset_run):
    """Sampled beyond the tolerable set (every alpha scaled by 10), runs break
    voltage, line and shortfall limits, and every step's ledger still holds."""
    scenario, wrap, polys = advset_run
    model = scenario.model
    scaled = {k: dataclasses.replace(p, alpha_w=p.alpha_w * 10.0) for k, p in polys.items()}
    replay = compile_replay(model, wrap)
    loads = [("load", u.id) for u in model.loads]
    broken = dict.fromkeys(("voltage", "line", "shortfall"), 0)
    for events in events_from_polytopes(scaled, seed=2026, count=200):
        traj = run_simulation(replay, events)
        for name in broken:
            broken[name] += int(traj.violations[name].sum())
        up = traj.imbalance_w >= 0.0
        assert_ledger_close(sum(traj.deployment_w.values()),
                            traj.deployed_up_w - traj.deployed_down_w)
        assert_ledger_close(np.where(up, traj.deployed_up_w, traj.deployed_down_w)
                            + traj.shortfall_w, np.abs(traj.imbalance_w))
        assert_ledger_close(traj.served_load_w - traj.true_demand_w,
                            -sum(traj.deployment_w[key] for key in loads)
                            - np.where(up, traj.shortfall_w, 0.0))
        assert_ledger_close(sum((soc[:-1] - soc[1:]) / model.dt_hours
                                for soc in traj.soc_wh.values()), traj.es_w)
    assert all(broken.values()), broken


def unfiltered_flags(plan, fp, fq, w) -> list[tuple[str, float]]:
    """Every slot's and drop's limit check by the exact formula, no band."""
    flags = []
    for w_k, (v_min, v_max) in zip(w, plan.voltage_limits):
        v = math.sqrt(max(w_k, 0.0))
        over = max(v_min - v, v - v_max)
        if over > VOLTAGE_TOL:
            flags.append(("voltage", over))
    for p, q, limit in zip(fp, fq, plan.line_limits):
        over = math.hypot(p, q) - limit
        if over > LINE_TOL:
            flags.append(("line", over * plan.s_base))
    return flags


def near(x: float, spread: float = 1e-9, ulps: int = 3) -> list[float]:
    """x - spread, x and x + spread, each with the floats up to `ulps` ulps
    either side of it."""
    out = []
    for centre in (x - spread, x, x + spread):
        y = centre
        for _ in range(ulps):
            y = math.nextafter(y, -math.inf)
        for _ in range(2 * ulps + 1):
            out.append(y)
            y = math.nextafter(y, math.inf)
    return out


def test_limit_bands_never_skip_a_flag(event_run):
    """Voltages and flows within 1e-9 and a few ulps of each flagging
    threshold, and of each compiled band's edge, flag exactly as the
    unfiltered formula does, with the same magnitudes."""
    scenario, _base, robust, _traj, _t = event_run
    model = scenario.model
    # limits that differ by bus and branch, so the common voltage band is
    # narrower than some slots' own
    buses = [dataclasses.replace(b, v_min=0.9 + 0.02 * (j % 3), v_max=1.04 + 0.03 * (j % 2))
             for j, b in enumerate(model.buses)]
    branches = [dataclasses.replace(br, flow_limit_va=br.flow_limit_va * (1.0 + 0.5 * (j % 2)))
                for j, br in enumerate(model.branches)]
    replay = compile_replay(dataclasses.replace(model, buses=buses, branches=branches), robust)
    plan = replay.plan
    slots, drops = len(plan.bus_phases), len(plan.drops)
    lo, hi = replay.voltage_band
    seen = {"flagged": 0, "clean": 0, "outside band, clean": 0}

    def check(fp, fq, w, inside: bool) -> None:
        want = unfiltered_flags(plan, fp, fq, w)
        assert _limit_flags(replay, fp, fq, w) == want, (fp, fq, w)
        seen["flagged" if want else "outside band, clean" if not inside else "clean"] += 1

    zeros = [0.0] * drops
    for s, (v_min, v_max) in enumerate(plan.voltage_limits):
        probes = [w_k for t in (v_min - VOLTAGE_TOL, v_max + VOLTAGE_TOL)
                  for w_k in [v * v for v in near(t)] + near(t * t)] + near(lo) + near(hi)
        for w_k in probes:
            w = [1.0] * slots
            w[s] = w_k
            check(zeros, zeros, w, lo <= w_k <= hi)
            check(zeros, zeros, [w_k] * slots, lo <= w_k <= hi)
    for d, (limit, band) in enumerate(zip(plan.line_limits, replay.line_bands)):
        for size in near(limit + LINE_TOL) + near(math.sqrt(band)):
            for angle in (0.0, 0.7, math.pi / 2, 2.5, math.pi, -1.2):
                fp, fq = [0.0] * drops, [0.0] * drops
                fp[d], fq[d] = size * math.cos(angle), size * math.sin(angle)
                check(fp, fq, [1.0] * slots, fp[d] ** 2 + fq[d] ** 2 <= band)
    assert all(seen.values()), seen
