import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture(scope="session")
def lshl_run():
    from gridres.dispatch import solve_baseline
    from gridres.scenario import load_scenario

    scenario = load_scenario(SCENARIOS / "lshl.json")
    result = solve_baseline(scenario.model, scenario.costs, scenario.build, scenario.solver)
    return scenario, result


@pytest.fixture(scope="session")
def hsll_run():
    from gridres.dispatch import solve_baseline
    from gridres.robust import solve_robust
    from gridres.scenario import load_scenario

    scenario = load_scenario(SCENARIOS / "hsll.json")
    base = solve_baseline(scenario.model, scenario.costs, scenario.build, scenario.solver)
    robust = solve_robust(scenario.model, scenario.costs, scenario.reserve_costs,
                          scenario.box, scenario.build, scenario.solver)
    return scenario, base, robust


@pytest.fixture(scope="session")
def event_run():
    """Baseline, robust solve, and timed timeline replay of the event fixture."""
    from gridres.dispatch import solve_baseline
    from gridres.robust import solve_robust
    from gridres.scenario import load_scenario
    from gridres.sim import compile_replay, run_simulation

    scenario = load_scenario(SCENARIOS / "cyber_event.json")
    base = solve_baseline(scenario.model, scenario.costs, scenario.build, scenario.solver)
    t0 = time.perf_counter()
    robust = solve_robust(scenario.model, scenario.costs, scenario.reserve_costs,
                          scenario.box, scenario.build, scenario.solver)
    traj = run_simulation(compile_replay(scenario.model, robust), scenario.events)
    elapsed = time.perf_counter() - t0
    return scenario, base, robust, traj, elapsed


@pytest.fixture(scope="session")
def advset_run():
    """The adversarial-set pipeline around the baseline dispatch's headroom."""
    from gridres.advset import characterize_steps
    from gridres.dispatch import solve_baseline
    from gridres.robust import ReserveSchedule, RobustResult
    from gridres.scenario import load_scenario

    scenario = load_scenario(SCENARIOS / "cyber_event.json")
    base = solve_baseline(scenario.model, scenario.costs, scenario.build, scenario.solver)
    reserves = ReserveSchedule.from_headroom(scenario.model, base)
    wrap = RobustResult(
        dispatch=base, reserves=reserves, objective_value=base.objective_value,
        reserve_cost=0.0, worst_up_w=np.zeros(scenario.model.steps),
        worst_down_w=np.zeros(scenario.model.steps),
    )
    polys = characterize_steps(
        scenario.model, base, reserves, scenario.axes, scenario.advset_steps,
        scenario.build, scenario.solver,
    )
    return scenario, wrap, polys
