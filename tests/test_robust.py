import dataclasses

import numpy as np
import pytest

from gridres.constraints import (P_DG_CAPACITY, P_LOAD_DESIRED, P_PV_FORECAST, PerUnit,
                                 device_groups)
from gridres.dispatch import CostConfig, InfeasibleDispatch, solve_baseline
from gridres.lp import SolverOptions
from gridres.network import SynthSpec, synth_feeder
from gridres.robust import (
    ReserveCosts,
    ReserveSchedule,
    RobustResult,
    UncertaintyBox,
    build_robust_lp,
    solve_robust,
    tighten,
)
from util import single_bus, six_bus

COSTS = CostConfig(1.0, 0.1, 10.0)


def test_tighten_upper_bound_uses_low_end():
    """P + R+ <= forecast with forecast in [0.3, 0.5] MW is capped at 0.3 MW."""
    model = single_bus(with_pv=True, steps=2)
    box = UncertaintyBox()
    box.add(P_PV_FORECAST, "pv1", 1, 0.3e6, 0.5e6, 0.5e6)
    worst = tighten(box, model)
    assert worst.pv_floor == {("pv1", 1): pytest.approx(0.3)}  # pu at 1 MVA


def test_tighten_skips_zero_width_diesel_entry():
    """A diesel capacity that cannot fall is certain: no floor, no loss helper."""
    model = single_bus(steps=2)
    box = UncertaintyBox()
    box.add(P_DG_CAPACITY, "dg1", 0, 2.0e6, 2.0e6, 2.0e6)
    box.add(P_DG_CAPACITY, "dg1", 1, 0.5e6, 2.0e6, 2.0e6)
    assert tighten(box, model).dg_floor == {("dg1", 1): pytest.approx(0.5)}


def test_tighten_sums_mask_widths_per_step():
    model = six_bus(steps=3)
    box = UncertaintyBox()
    box.add(P_LOAD_DESIRED, "load1", 1, 0.9e6, 1.0e6, 1.2e6)
    box.add(P_LOAD_DESIRED, "load2", 1, 0.7e6, 1.0e6, 1.1e6)
    box.add(P_LOAD_DESIRED, "load3", 2, 1.0e6, 1.0e6, 1.4e6)
    worst = tighten(box, model)
    assert worst.mask_up == pytest.approx([0.0, 0.3, 0.4])
    assert worst.mask_down == pytest.approx([0.0, 0.4, 0.0])


BOUNDS = (0.9e6, 1.0e6, 1.2e6)
BAD_ENTRIES = {  # case: (key, (lo, nom, hi), message)
    "step-before-horizon": ((P_LOAD_DESIRED, "load1", -1), BOUNDS,
                            "box step -1 outside horizon"),
    "step-past-horizon": ((P_LOAD_DESIRED, "load1", 40), BOUNDS,
                          "box step 40 outside horizon"),
    "unknown-kind": (("wind_forecast", "load1", 0), BOUNDS,
                     "unknown uncertain parameter kind 'wind_forecast'"),
    "unknown-load": ((P_LOAD_DESIRED, "nope", 0), BOUNDS,
                     "box references unknown entity 'nope' for load_desired"),
    "unknown-diesel": ((P_DG_CAPACITY, "nope", 0), BOUNDS,
                       "box references unknown entity 'nope' for dg_capacity"),
    "pv-entity-as-diesel": ((P_DG_CAPACITY, "pv1", 0), BOUNDS,
                            "box references unknown entity 'pv1' for dg_capacity"),
    "bounds-out-of-order": ((P_LOAD_DESIRED, "load1", 0), (1.1e6, 1.0e6, 1.2e6),
                            "box entry load_desired/load1/0: lo <= nom <= hi violated"),
}


@pytest.mark.parametrize("entry_point", ["tighten", "build_robust_lp", "solve_robust"])
@pytest.mark.parametrize("case", BAD_ENTRIES)
def test_every_box_reader_rejects_a_bad_entry(entry_point, case):
    """An entry written straight into `entries`, past `add`, is checked where
    the box is read: none is dropped, wrapped onto another step or summed in."""
    model = single_bus(with_pv=True, steps=2)
    box = UncertaintyBox()
    box.add(P_LOAD_DESIRED, "load1", 1, *BOUNDS)  # a good entry first
    key, bounds, message = BAD_ENTRIES[case]
    box.entries[key] = bounds
    read = {"tighten": lambda: tighten(box, model),
            "build_robust_lp": lambda: build_robust_lp(
                model, COSTS, ReserveCosts.from_costs(COSTS), box),
            "solve_robust": lambda: solve_robust(model, COSTS, box=box)}[entry_point]
    with pytest.raises(ValueError) as err:
        read()
    assert str(err.value) == message


def test_tighten_reports_the_first_bad_entry():
    model = single_bus(steps=2)
    box = UncertaintyBox()
    for key in [(P_LOAD_DESIRED, "load1", 5), ("wind_forecast", "load1", 0)]:
        box.entries[key] = (1.0e6, 1.0e6, 1.2e6)
    with pytest.raises(ValueError, match="^box step 5 outside horizon$"):
        tighten(box, model)


def test_zero_width_box_matches_baseline():
    model = single_bus(load_des_w=1.0e6, load_min_w=0.4e6, dg_cap_va=2.0e6)
    base = solve_baseline(model, COSTS)
    box = UncertaintyBox()
    box.add(P_LOAD_DESIRED, "load1", 0, 1.0e6, 1.0e6, 1.0e6)
    rob = solve_robust(model, COSTS, box=box)
    assert rob.objective_value == pytest.approx(base.objective_value, abs=1e-7)
    assert rob.reserve_cost == pytest.approx(0.0, abs=1e-9)
    assert rob.reserves.total_up(0) == pytest.approx(0.0, abs=1e-3)
    assert rob.reserves.total_down(0) == pytest.approx(0.0, abs=1e-3)


def test_load_mask_allocates_up_reserve():
    """Load in [1, 1.4] MW with a 2 MW DG: serve 1 MW and hold 0.4 MW up.

    Hand algebra: coverage forces 0.4 MW of up-reserve; the cheapest source is
    the DG at 0.2*c1 per MW, so the objective is c1*1 + 0.2*c1*0.4 = 1.08.
    """
    model = single_bus(load_des_w=1.0e6, load_min_w=0.4e6, dg_cap_va=2.0e6)
    box = UncertaintyBox()
    box.add(P_LOAD_DESIRED, "load1", 0, 1.0e6, 1.0e6, 1.4e6)
    rob = solve_robust(model, COSTS, box=box)
    assert rob.dispatch.p[("dg", "dg1")][0] >= 1.0e6 - 1.0
    assert rob.reserves.total_up(0) >= 0.4e6 - 1.0
    assert rob.reserves.up[("dg", "dg1")][0] == pytest.approx(0.4e6, abs=1.0)
    assert rob.objective_value == pytest.approx(1.08, abs=1e-7)
    assert rob.worst_up_w[0] == pytest.approx(0.4e6, abs=1.0)


def test_load_mask_below_nominal_prices_down_reserve():
    """Load in [0.6, 1] MW around a 1 MW nominal, with a 2 MW DG: the demand
    drop is covered by 0.4 MW of DG down-reserve at 0.2*c1 per MW, so the
    reserve cost is 0.08 and the objective c1*1 + 0.08 = 1.08."""
    model = single_bus(load_des_w=1.0e6, load_min_w=0.4e6, dg_cap_va=2.0e6)
    box = UncertaintyBox()
    box.add(P_LOAD_DESIRED, "load1", 0, 0.6e6, 1.0e6, 1.0e6)
    rob = solve_robust(model, COSTS, box=box)
    assert rob.reserves.down[("dg", "dg1")][0] == pytest.approx(0.4e6, abs=1.0)
    assert rob.reserve_cost == pytest.approx(0.08, abs=1e-9)
    assert rob.objective_value == pytest.approx(1.08, abs=1e-7)
    assert rob.dispatch.objective_value == pytest.approx(1.0, abs=1e-7)


def test_up_reserve_monotone_in_mask_width():
    model = single_bus(load_des_w=1.0e6, load_min_w=0.4e6, dg_cap_va=2.0e6)
    prev = -1.0
    for extra in (0.0, 0.2e6, 0.4e6, 0.8e6):
        box = UncertaintyBox()
        box.add(P_LOAD_DESIRED, "load1", 0, 1.0e6, 1.0e6, 1.0e6 + extra)
        rob = solve_robust(model, COSTS, box=box)
        up = rob.reserves.total_up(0)
        assert up >= prev - 1.0
        prev = up


def test_robust_never_cheaper_than_baseline():
    model = synth_feeder(SynthSpec(seed=5, profile="high_solar_low_load"))
    base = solve_baseline(model, COSTS)
    box = UncertaintyBox()
    for k in range(model.steps):
        box.add(P_LOAD_DESIRED, "load01", k, *(lambda n: (n, n, n + 0.25e6))(
            float(model.loads[0].desired_w[k])
        ))
    rob = solve_robust(model, COSTS, box=box)
    assert rob.objective_value >= base.objective_value - 1e-9
    for k in range(model.steps):
        assert rob.reserves.total_up(k) >= 0.25e6 - 1.0


def test_box_beyond_capability_is_infeasible():
    model = single_bus(load_des_w=1.0e6, load_min_w=0.9e6, dg_cap_va=1.2e6)
    box = UncertaintyBox()
    box.add(P_LOAD_DESIRED, "load1", 0, 1.0e6, 1.0e6, 6.0e6)  # hopeless mask
    with pytest.raises(InfeasibleDispatch) as err:
        solve_robust(model, COSTS, box=box)
    assert "robust" in str(err.value)
    assert "reserve_coverage" in err.value.tags


def test_infeasible_dispatch_under_highs_says_it_has_no_certificate():
    """HiGHS proves infeasibility without naming rows; the message says so
    rather than reporting zero unsatisfiable rows."""
    model = single_bus(load_des_w=1.0e6, load_min_w=0.9e6, dg_cap_va=1.2e6)
    box = UncertaintyBox()
    box.add(P_LOAD_DESIRED, "load1", 0, 1.0e6, 1.0e6, 6.0e6)  # hopeless mask
    with pytest.raises(InfeasibleDispatch) as err:
        solve_robust(model, COSTS, box=box, solver=SolverOptions(backend="scipy"))
    assert err.value.rows == []
    assert str(err.value) == ("robust dispatch infeasible; no infeasibility certificate "
                              "(the HiGHS backend gives none)")


def test_dg_outage_covered_by_other_devices():
    """A tripping DG keeps its dispatch but other devices hold the reserves."""
    model = single_bus(load_des_w=1.0e6, load_min_w=0.3e6, dg_cap_va=1.5e6,
                       with_storage=True)
    box = UncertaintyBox()
    box.add(P_DG_CAPACITY, "dg1", 0, 0.0, 1.5e6, 1.5e6)  # full trip possible
    rob = solve_robust(model, COSTS, box=box)
    pdg = rob.dispatch.p[("dg", "dg1")][0]
    assert pdg >= 0.5e6 - 1.0  # the unit still runs despite being trippable
    # its own reserves are worthless during the outage window
    assert rob.reserves.up[("dg", "dg1")][0] == pytest.approx(0.0, abs=1.0)
    # the guaranteed pool (everything but the trippable unit) covers the loss
    covered = (
        rob.reserves.up[("es", "es1")][0] + rob.reserves.up[("load", "load1")][0]
    )
    assert covered >= pdg - 1.0
    assert rob.worst_up_w[0] == pytest.approx(pdg, abs=1.0)


def test_pv_forecast_uncertainty_tightens_dispatch():
    model = single_bus(load_des_w=0.8e6, load_min_w=0.2e6, dg_cap_va=2.0e6,
                       with_pv=True)
    # forecast nominally 0.5 MW but may come in at 0.3 MW
    box = UncertaintyBox()
    box.add(P_PV_FORECAST, "pv1", 0, 0.3e6, 0.5e6, 0.5e6)
    rob = solve_robust(model, COSTS, box=box)
    ppv = rob.dispatch.p[("pv", "pv1")][0]
    rup = rob.reserves.up[("pv", "pv1")][0]
    assert ppv + rup <= 0.3e6 + 1.0  # dispatched below the worst forecast


@pytest.mark.parametrize("p_w, soc_in_wh, up_w, down_w", [
    (-0.1e6, 0.25e6, 0.3e6, 0.4e6),  # charging just above the 0.2 MWh floor
    (0.1e6, 1.95e6, 0.4e6, 0.3e6),   # discharging just below the 2 MWh ceiling
], ids=["charging", "discharging"])
def test_storage_headroom_uses_energy_entering_the_step(p_w, soc_in_wh, up_w, down_w):
    """With 15-minute steps and 0.5 MW of rate, the energy window binds: the
    headroom is the energy entering the step over dt, less the setpoint."""
    model = single_bus(with_storage=True)
    base = solve_baseline(model, COSTS)
    soc = np.array([soc_in_wh, soc_in_wh - p_w * model.dt_hours])
    dispatch = dataclasses.replace(base, p={**base.p, ("es", "es1"): np.array([p_w])},
                                   soc_wh={"es1": soc})
    sched = ReserveSchedule.from_headroom(model, dispatch)
    assert sched.up[("es", "es1")][0] == pytest.approx(up_w)
    assert sched.down[("es", "es1")][0] == pytest.approx(down_w)


def test_reserve_costs_default_ordering():
    rc = ReserveCosts.from_costs(COSTS)
    assert rc.pv < rc.es < rc.dg < rc.load


def test_scipy_backend_solves_the_pipeline():
    from gridres.lp import SolverOptions

    model = single_bus(load_des_w=1.0e6, load_min_w=0.4e6, dg_cap_va=2.0e6)
    box = UncertaintyBox()
    box.add(P_LOAD_DESIRED, "load1", 0, 1.0e6, 1.0e6, 1.4e6)
    ours = solve_robust(model, COSTS, box=box)
    theirs = solve_robust(model, COSTS, box=box,
                          solver=SolverOptions(backend="scipy"))
    assert theirs.objective_value == pytest.approx(ours.objective_value, abs=1e-6)


@pytest.mark.parametrize("run", ["hsll_run", "event_run"])
def test_reserve_cost_is_the_priced_reserves(request, run):
    """The reported reserve cost is each class's reserve price times its
    allocated up and down reserve, in pu, and the dispatch part is the rest
    of the objective."""
    scenario, _base, rob, *_replay = request.getfixturevalue(run)
    r, prices = rob.reserves, scenario.reserve_costs
    priced = sum(getattr(prices, cls) * float(np.sum(r.up[(cls, uid)] + r.down[(cls, uid)]))
                 for cls, uid in r.up) / PerUnit.of(scenario.model).s_base
    assert rob.reserve_cost > 0.0
    assert rob.reserve_cost == pytest.approx(priced, rel=1e-9)
    assert rob.objective_value == pytest.approx(
        rob.dispatch.objective_value + rob.reserve_cost, rel=1e-12)


def test_result_json_round_trip(hsll_run):
    """robust.json reads back to the same document; dispatch.json keeps one
    `<class>_p_w` / `<class>_q_w` map per device class, keyed by unit id."""
    scenario, _base, rob = hsll_run
    doc = rob.to_json_dict()
    assert RobustResult.from_json_dict(doc).to_json_dict() == doc
    dispatch = doc["dispatch"]
    assert set(dispatch) == {
        "objective_value", "iterations", "soc_wh", "voltage_sq_pu", "flow_p_w",
        "flow_q_w", "pv_curtail_w", "load_curtail_w",
        "pv_p_w", "pv_q_w", "dg_p_w", "dg_q_w", "es_p_w", "es_q_w", "load_p_w", "load_q_w",
    }
    for cls, units in device_groups(scenario.model):
        assert units
        for part in ("p", "q"):
            assert sorted(dispatch[f"{cls}_{part}_w"]) == sorted(u.id for u in units)
