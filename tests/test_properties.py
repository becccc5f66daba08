"""The paper's guarantees on feeders no one picked: properties of the pipeline
over seeded random synthetic feeders.

Each feeder is a copy of `scenarios/cyber_event.json` on a 14-bus synthetic
feeder, named by its seed and its phase layout: balanced (the generation
fleet on the three-phase trunk, loads split evenly over the phases) or
unbalanced (loads and generators on any bus, single-phase laterals
included).  The default set is balanced seeds 1 and 2 and unbalanced seeds
3 and 4.  `GRIDRES_PROPERTY_FEEDERS=N` and `GRIDRES_PROPERTY_SEED=S` draw N
feeders instead, seeds S to S + N - 1, the first half balanced and the rest
unbalanced; `tools/properties_at_seed.sh` sets them.

* P1, backend agreement: the baseline objective and every alpha of the
  tolerable set around the baseline's headroom (as `gridres advset` runs
  it), the built-in simplex against HiGHS, to 1e-9 relative; a baseline one
  backend finds infeasible, the other does too.
* P2, soundness (criterion c5 per step, its vertex half): every vertex of
  every step's polytope, the nominal point and each alpha_i e_i, is
  tolerable at feas_tol 1e-7.
* P3, maximality (criterion c6): alpha_i + 1 kW along any axis is not
  tolerable, unless the axis's cap clamps alpha_i.
* P4, model consistency: at every step, `solve_linear_flow` at the
  baseline's device outputs gives the LP's squared voltages to 1e-9 pu, on
  single-phase laterals too, where the drop order differs from the branch
  order.
* P5, exits: `gridres baseline` on a feeder exits 0 and prints nothing, or,
  when the baseline is infeasible, exits 2 with one line.  The unbalanced
  seed-6 feeder is such a feeder and always runs.
"""

import dataclasses
import json
import os
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from gridres.advset import characterize_steps, event_is_tolerable
from gridres.cli import main
from gridres.constraints import RadialPlan, device_groups, solve_linear_flow
from gridres.dispatch import InfeasibleDispatch, solve_baseline
from gridres.robust import ReserveSchedule
from gridres.scenario import load_scenario

CYBER = Path(__file__).resolve().parent.parent / "scenarios" / "cyber_event.json"
BUSES = 14
REL = 1e-9
SOUND_TOL = 1e-7  # the feasibility tolerance a vertex is tolerable at (c5)
BEYOND_W = 1e3  # the step past alpha_i that must not be tolerable (c6)
FLOW_TOL = 1e-9  # pu of squared voltage between the flow solve and the LP (P4)


class Feeder(NamedTuple):
    seed: int
    balanced: bool

    def __str__(self) -> str:
        return f"{'balanced' if self.balanced else 'unbalanced'}-{self.seed}"

    def write(self, path: Path) -> Path:
        """The scenario file of this feeder, written at `path`."""
        doc = json.loads(CYBER.read_text())
        doc["seed"] = self.seed
        doc["network"]["synth"].update(buses=BUSES, balanced_phases=self.balanced)
        path.write_text(json.dumps(doc, indent=2))
        return path


def drawn_feeders() -> list[Feeder]:
    count = int(os.environ.get("GRIDRES_PROPERTY_FEEDERS", "4"))
    first = int(os.environ.get("GRIDRES_PROPERTY_SEED", "1"))
    balanced = (count + 1) // 2
    return [Feeder(first + i, i < balanced) for i in range(count)]


FEEDERS = drawn_feeders()
INFEASIBLE = Feeder(6, balanced=False)  # its baseline has no feasible point


def outcome(scenario, backend: str):
    """The baseline objective and the alphas (W, one row per step) under
    `backend`, or None if the baseline is infeasible."""
    solver = dataclasses.replace(scenario.solver, backend=backend)
    try:
        base = solve_baseline(scenario.model, scenario.costs, scenario.build, solver)
    except InfeasibleDispatch:
        return None
    reserves = ReserveSchedule.from_headroom(scenario.model, base)
    polys = characterize_steps(scenario.model, base, reserves, scenario.axes,
                               scenario.advset_steps, scenario.build, solver)
    return base.objective_value, np.array([polys[k].alpha_w for k in sorted(polys)])


@pytest.mark.parametrize("feeder", FEEDERS, ids=str)
def test_p1_simplex_and_highs_agree(feeder, tmp_path):
    scenario = load_scenario(feeder.write(tmp_path / "scenario.json"))
    ours, ref = outcome(scenario, "simplex"), outcome(scenario, "scipy")
    assert (ours is None) == (ref is None), f"{feeder}: one backend found no baseline"
    if ours is None:
        return
    (objective, alpha), (ref_objective, ref_alpha) = ours, ref
    assert objective == pytest.approx(ref_objective, rel=REL, abs=0.0)
    assert alpha.shape == ref_alpha.shape and alpha.size
    np.testing.assert_allclose(alpha, ref_alpha, rtol=REL, atol=0.0)


@pytest.fixture(scope="module")
def tolerable_sets(tmp_path_factory):
    """Per feeder, once: its scenario, baseline, headroom reserves and
    polytopes under the built-in simplex, or None if the baseline is
    infeasible."""
    cache = {}

    def of(feeder: Feeder):
        if feeder not in cache:
            path = feeder.write(tmp_path_factory.mktemp(str(feeder)) / "scenario.json")
            scenario = load_scenario(path)
            try:
                base = solve_baseline(scenario.model, scenario.costs, scenario.build,
                                      scenario.solver)
            except InfeasibleDispatch:
                cache[feeder] = None
                return None
            reserves = ReserveSchedule.from_headroom(scenario.model, base)
            polys = characterize_steps(scenario.model, base, reserves, scenario.axes,
                                       scenario.advset_steps, scenario.build, scenario.solver)
            cache[feeder] = scenario, base, reserves, polys
        return cache[feeder]

    return of


@pytest.mark.parametrize("feeder", FEEDERS, ids=str)
def test_p2_every_vertex_is_tolerable(feeder, tolerable_sets):
    found = tolerable_sets(feeder)
    if found is None:
        pytest.skip(f"{feeder}: no feasible baseline")
    scenario, base, reserves, polys = found
    tight = dataclasses.replace(scenario.solver, feas_tol=SOUND_TOL)
    for k, poly in polys.items():
        for j, vertex in enumerate(poly.vertices_w):
            assert event_is_tolerable(scenario.model, base, reserves, k, poly.axes, vertex,
                                      scenario.build, tight), f"{feeder}: step {k} vertex {j}"


@pytest.mark.parametrize("feeder", FEEDERS, ids=str)
def test_p3_one_kilowatt_past_alpha_is_not_tolerable(feeder, tolerable_sets):
    found = tolerable_sets(feeder)
    if found is None:
        pytest.skip(f"{feeder}: no feasible baseline")
    scenario, base, reserves, polys = found
    probed = 0
    for k, poly in polys.items():
        for i, axis in enumerate(poly.axes):
            if axis.cap_w is not None and poly.alpha_w[i] >= axis.cap_w - 1e-6:
                continue  # the cap, not feasibility, stops this axis
            probe = np.zeros(len(poly.axes))
            probe[i] = poly.alpha_w[i] + BEYOND_W
            assert not event_is_tolerable(scenario.model, base, reserves, k, poly.axes, probe,
                                          scenario.build, scenario.solver), (
                f"{feeder}: axis {axis.kind}/{axis.entity} not maximal at step {k}")
            probed += 1
    assert probed > 0


@pytest.mark.parametrize("feeder", FEEDERS, ids=str)
def test_p4_linear_flow_gives_the_lp_voltages(feeder, tolerable_sets):
    found = tolerable_sets(feeder)
    if found is None:
        pytest.skip(f"{feeder}: no feasible baseline")
    scenario, base, _, _ = found
    model = scenario.model
    plan = RadialPlan.of(model)
    keys = [(cls, u.id) for cls, units in device_groups(model) for u in units]
    assert sorted(plan.bus_phases) == sorted(base.voltage_sq_pu)
    for k in range(model.steps):
        _, _, w = solve_linear_flow(plan, [base.p[key][k] for key in keys],
                                    [base.q[key][k] for key in keys])
        for key, w_k in zip(plan.bus_phases, w, strict=True):
            assert w_k == pytest.approx(base.voltage_sq_pu[key][k], rel=0.0, abs=FLOW_TOL), (
                f"{feeder}: {key} at step {k}")


@pytest.mark.parametrize("feeder", sorted({*FEEDERS, INFEASIBLE}), ids=str)
def test_p5_baseline_exits_0_or_2_with_one_line(feeder, tmp_path, capsys):
    code = main(["baseline", str(feeder.write(tmp_path / "scenario.json")),
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    if feeder == INFEASIBLE:
        assert code == 2
    assert code in (0, 2), err
    if code == 0:
        assert err == ""
    else:
        assert err.count("\n") == 1 and err.startswith("infeasible: "), err
        assert "unsatisfiable rows (tags: " in err
