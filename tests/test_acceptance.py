"""End-to-end acceptance checks for the toolkit, one test per criterion.

Each test prints a PASS line when its criterion holds at the stated
tolerance (run with -s or -rP to see them).  The shipped scenario fixtures
under scenarios/ are the systems under test; the manifest file is exempt
from the byte-identity check because it records wall-clock timing.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from gridres.advset import event_is_tolerable
from gridres.cli import main
from gridres.dispatch import summarize
from gridres.lp import LpStatus, SolverOptions, solve
from gridres.robust import UncertaintyBox, solve_robust
from gridres.sim import compile_replay, events_from_polytopes, run_simulation, violation_report
from vertex_oracle import brute_force_min, random_bounded_lp

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

MW = 1.0e6
BALANCE_TOL_W = 1e-9 * MW  # "1e-9" conservation, stated in MW/per-unit terms


def ok(criterion: str, detail: str = "") -> None:
    print(f"PASS {criterion}" + (f" ({detail})" if detail else ""))


def test_c1_lp_oracle_equivalence():
    """200 seeded random LPs match brute-force vertex enumeration to 1e-6."""
    rng = np.random.default_rng(20240809)
    t0 = time.perf_counter()
    optimal = 0
    for _ in range(200):
        lp = random_bounded_lp(rng)
        expected = brute_force_min(lp)
        sol = solve(lp)
        if expected is None:
            assert sol.status is LpStatus.INFEASIBLE
        else:
            assert sol.status is LpStatus.OPTIMAL
            assert sol.objective_value == pytest.approx(expected, abs=1e-6)
            optimal += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"
    ok("criterion 1: LP oracle equivalence",
       f"{optimal} optimal of 200 in {elapsed:.1f}s")


def test_c2_baseline_qualitative_reproduction(lshl_run, hsll_run):
    """Morning fixture sheds early then recovers; midday fixture never runs
    the diesel; voltages and SoC stay inside limits on both."""
    for scenario, result in (lshl_run, hsll_run[:2]):
        agg = summarize(result)
        assert (agg.v_min_pu >= 0.95 - 1e-9).all()
        assert (agg.v_max_pu <= 1.05 + 1e-9).all()
        for unit in scenario.model.storage_units:
            soc = result.soc_wh[unit.id]
            assert (soc >= unit.energy_min_wh - 1e-3).all()
            assert (soc <= unit.energy_max_wh + 1e-3).all()

    scenario, result = lshl_run
    agg = summarize(result)
    dg_cap = sum(d.capacity_va for d in scenario.model.dg_units)
    desired = np.sum([ld.desired_w for ld in scenario.model.loads], axis=0)
    forecast = np.sum([pv.forecast_w for pv in scenario.model.pv_units], axis=0)
    k_star = next(
        k for k in range(scenario.model.steps) if dg_cap + forecast[k] >= desired[k]
    )
    assert agg.load_curtail_w[0] > 1e3, "no shedding at the first step"
    for k in range(k_star, scenario.model.steps):
        assert agg.load_curtail_w[k] == pytest.approx(0.0, abs=1e-1)

    _scenario, hsll_base, _rob = hsll_run
    for (cls, _uid), series in hsll_base.p.items():
        if cls == "dg":
            np.testing.assert_allclose(series, 0.0, atol=1e-3)
    ok("criterion 2: baseline qualitative reproduction",
       f"shedding ends at step {k_star}; midday diesel identically zero")


def test_c3_robust_at_least_baseline(event_run, hsll_run):
    scenario, base, robust, _traj, _t = event_run
    assert robust.objective_value >= base.objective_value - 1e-9

    _s, hsll_base, hsll_rob = hsll_run
    assert hsll_rob.objective_value >= hsll_base.objective_value - 1e-9

    zero_box = UncertaintyBox()
    for (kind, entity, step), (_lo, nom, _hi) in scenario.box.entries.items():
        zero_box.add(kind, entity, step, nom, nom, nom)
    degenerate = solve_robust(scenario.model, scenario.costs, scenario.reserve_costs,
                              zero_box, scenario.build, scenario.solver)
    assert degenerate.objective_value == pytest.approx(base.objective_value, abs=1e-7)
    ok("criterion 3: robust >= baseline",
       f"gap {robust.objective_value - base.objective_value:.4f}; zero-width box ties")


def test_c4_cyber_physical_event_replay(event_run):
    """Trip at 20 min, mask at 30, restore at 40, clear at 50: clean replay
    with allocated up-reserve covering the realized imbalance throughout."""
    scenario, _base, robust, traj, elapsed = event_run
    assert elapsed < 60.0, f"robust solve + replay took {elapsed:.1f}s"
    report = violation_report(traj)
    assert report.total == 0, report.counts
    for k in range(scenario.model.steps):
        assert robust.reserves.total_up(k) >= traj.imbalance_w[k] - 1e-3

    # the response the event is supposed to trigger: battery plus solar output
    # exceeds schedule while the diesel is offline (minutes 20-40)
    model = scenario.model
    sched = np.array([
        sum(robust.dispatch.p[("pv", u.id)][k] for u in model.pv_units)
        + sum(robust.dispatch.p[("es", u.id)][k] for u in model.storage_units)
        for k in range(model.steps)
    ])
    realized = traj.pv_w + traj.es_w
    trip_steps = [k for k in range(model.steps) if 20.0 <= traj.time_min[k] < 40.0]
    for k in trip_steps:
        assert realized[k] > sched[k] + 1e3
    ok("criterion 4: cyber-physical event replay",
       f"{elapsed:.1f}s, zero violations, reserves cover imbalance")


def test_c5_adversarial_set_soundness(advset_run):
    """Every polytope vertex admits a feasible recourse at 1e-7, and 100
    sampled event sets replay with zero violations."""
    scenario, wrap, polys = advset_run
    tight = SolverOptions(feas_tol=1e-7)
    for k, poly in polys.items():
        for vertex in poly.vertices_w:
            assert event_is_tolerable(
                scenario.model, wrap.dispatch, wrap.reserves, k, poly.axes, vertex,
                scenario.build, tight,
            ), f"vertex infeasible at step {k}"

    runs = events_from_polytopes(polys, seed=scenario.seed, count=100)
    total = 0
    replay = compile_replay(scenario.model, wrap)
    for per_step in runs:
        traj = run_simulation(replay, per_step)
        report = violation_report(traj)
        total += report.total
        for unit in scenario.model.storage_units:
            soc = traj.soc_wh[unit.id]
            assert (soc >= unit.energy_min_wh - 1e-3).all()
            assert (soc <= unit.energy_max_wh + 1e-3).all()
    assert total == 0, f"{total} violations across the sample suite"
    ok("criterion 5: adversarial-set soundness",
       "all vertices feasible; 100 sampled events replay clean")


def test_c6_maximality_certification(advset_run):
    """alpha* + 1e-3 MW is infeasible on every axis (or clamped by the box)."""
    scenario, wrap, polys = advset_run
    probed = 0
    clamped = 0
    for k, poly in polys.items():
        for i, axis in enumerate(poly.axes):
            if axis.cap_w is not None and poly.alpha_w[i] >= axis.cap_w - 1e-6:
                clamped += 1  # the outer box, not feasibility, stops this axis
                continue
            probe = np.zeros(len(poly.axes))
            probe[i] = poly.alpha_w[i] + 1e3  # +1e-3 MW in native units
            assert not event_is_tolerable(
                scenario.model, wrap.dispatch, wrap.reserves, k, poly.axes, probe,
                scenario.build,
            ), f"axis {axis.kind}/{axis.entity} not maximal at step {k}"
            probed += 1
    assert probed > 0
    ok("criterion 6: maximality certification",
       f"{probed} axes certified infeasible beyond alpha*, {clamped} box-clamped")


def test_c7_time_varying_set_shape(advset_run):
    """The solar axis tolerates more at the high-headroom instant (T=25 min)
    than at the low-headroom one (T=1 min)."""
    scenario, _wrap, polys = advset_run
    step_min = scenario.model.dt_hours * 60.0
    k_low = int(1.0 // step_min)    # T = 1 min
    k_high = int(25.0 // step_min)  # T = 25 min
    pv_axis = next(
        i for i, a in enumerate(scenario.axes) if a.kind == "pv_forecast_error"
    )
    lo = polys[k_low].alpha_w[pv_axis]
    hi = polys[k_high].alpha_w[pv_axis]
    assert hi > lo + 1e-6, (lo, hi)
    ok("criterion 7: time-varying set shape",
       f"pv axis alpha* {lo / MW:.3f} MW at T=1 -> {hi / MW:.3f} MW at T=25")


def test_c8_conservation_properties(event_run, advset_run):
    """Demand ledger, supply balance, and SoC recursion replay to 1e-9."""

    def check(model, robust, traj):
        supply = traj.pv_w + traj.dg_w + traj.es_w
        assert np.abs(supply - traj.served_load_w).max() <= BALANCE_TOL_W
        ledger = traj.true_demand_w - (
            traj.served_load_w + traj.shed_w + traj.shortfall_w
        )
        assert np.abs(ledger).max() <= BALANCE_TOL_W
        dt = model.dt_hours
        for unit in model.storage_units:
            es_real = robust.dispatch.p[("es", unit.id)] + traj.deployment_w[("es", unit.id)]
            for k in range(model.steps):
                resid = (
                    traj.soc_wh[unit.id][k + 1] - traj.soc_wh[unit.id][k]
                    + es_real[k] * dt
                )
                assert abs(resid) <= 1e-9 * unit.energy_max_wh

    scenario, _base, robust, traj, _t = event_run
    check(scenario.model, robust, traj)

    adv_scenario, wrap, polys = advset_run
    runs = events_from_polytopes(polys, seed=adv_scenario.seed, count=20)
    replay = compile_replay(adv_scenario.model, wrap)
    for per_step in runs:
        check(adv_scenario.model, wrap, run_simulation(replay, per_step))
    ok("criterion 8: conservation properties", "ledger and SoC replay within 1e-9")


def read_outputs(out_dir: Path) -> dict[str, bytes]:
    # the manifest records wall-clock timing and is exempt by design
    return {
        p.name: p.read_bytes()
        for p in sorted(Path(out_dir).iterdir())
        if p.name != "manifest.json"
    }


def test_c9_byte_identical_cli_runs(tmp_path):
    """Every subcommand, re-run with equal inputs and seed, emits identical bytes."""
    lshl = str(SCENARIOS / "lshl.json")
    event = str(SCENARIOS / "cyber_event.json")
    plans = [
        ("baseline", ["baseline", lshl]),
        ("synth", ["synth", lshl]),
        ("robust", ["robust", event]),
        ("advset", ["advset", event, "--project", "1", "2", "6"]),
    ]
    outputs = {}
    for name, argv in plans:
        pair = []
        for sub in ("a", "b"):
            out = tmp_path / f"{name}_{sub}"
            assert main([*argv, "--out", str(out)]) == 0
            pair.append(read_outputs(out))
        assert pair[0] == pair[1], f"{name} runs differ"
        outputs[name] = tmp_path / f"{name}_a"

    adv = outputs["advset"]
    sims = [
        ("simulate", ["simulate", event, "--robust", str(adv / "robust.json")]),
        ("sample", ["simulate", event, "--robust", str(adv / "robust.json"),
                    "--polytope", str(adv / "polytope.json"), "--sample", "25"]),
    ]
    for name, argv in sims:
        pair = []
        for sub in ("a", "b"):
            out = tmp_path / f"{name}_{sub}"
            assert main([*argv, "--out", str(out)]) == 0
            pair.append(read_outputs(out))
        assert pair[0] == pair[1], f"{name} runs differ"

    # validate twice for completeness (stdout only, no output files)
    assert main(["validate", lshl]) == 0
    assert main(["validate", lshl]) == 0
    ok("criterion 9: deterministic CLI", "all subcommands byte-identical on re-run")
