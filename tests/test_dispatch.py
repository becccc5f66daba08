import dataclasses
from pathlib import Path

import numpy as np
import pytest

from gridres.dispatch import (
    CostConfig,
    InfeasibleDispatch,
    build_baseline_lp,
    solve_baseline,
    summarize,
)
from gridres.lp import check_feasibility
from gridres.network import SynthSpec, load_model, synth_feeder
from util import single_bus, six_bus
from vertex_oracle import brute_force_min


COSTS = CostConfig(dg_energy=1.0, pv_curtail=0.1, load_curtail=10.0)


def test_forced_balance_toy():
    """1 MW inflexible load, 2 MW DG: the DG serves it at cost c1*1."""
    model = single_bus(load_des_w=1.0e6, load_min_w=1.0e6, dg_cap_va=2.0e6)
    result = solve_baseline(model, COSTS)
    assert result.p[("dg", "dg1")][0] == pytest.approx(1.0e6, abs=1)
    assert result.load_curtail_w["load1"][0] == pytest.approx(0.0, abs=1)
    assert result.objective_value == pytest.approx(COSTS.dg_energy * 1.0, abs=1e-7)


def test_scarce_capacity_sheds_to_the_cap():
    """2 MW desired, 0.5 MW critical, 1 MW DG: serve 1 MW, shed 1 MW.

    Hand LP: min c1*P + c3*(2 - P) for P in [0.5, 1] -> P = 1,
    objective = 1 + 10 = 11.  Cross-checked against the vertex oracle.
    """
    model = single_bus(load_des_w=2.0e6, load_min_w=0.5e6, dg_cap_va=1.0e6)
    result = solve_baseline(model, COSTS)
    assert result.p[("dg", "dg1")][0] == pytest.approx(1.0e6, abs=1)
    assert result.p[("load", "load1")][0] == pytest.approx(1.0e6, abs=1)
    assert result.load_curtail_w["load1"][0] == pytest.approx(1.0e6, abs=1)
    assert result.objective_value == pytest.approx(11.0, abs=1e-7)

    lp, ns = build_baseline_lp(model, COSTS)
    for j in range(lp.n_variables):
        # box the free reactive variables so the vertex oracle can enumerate;
        # the inverter polygons already confine them well inside +-5 pu
        if not np.isfinite(lp.lower[j]):
            lp.lower[j] = -5.0
        if not np.isfinite(lp.upper[j]):
            lp.upper[j] = 5.0
    oracle = brute_force_min(lp)
    constant = COSTS.load_curtail * 2.0  # c3 * desired, in pu
    assert oracle + constant == pytest.approx(result.objective_value, abs=1e-6)


def test_infeasible_when_critical_load_exceeds_capacity():
    model = single_bus(load_des_w=3.0e6, load_min_w=2.5e6, dg_cap_va=1.0e6)
    with pytest.raises(InfeasibleDispatch) as err:
        solve_baseline(model, COSTS)
    assert err.value.rows  # certificate present


def test_high_solar_low_load_zeroes_the_dg():
    model = synth_feeder(SynthSpec(seed=5, profile="high_solar_low_load"))
    result = solve_baseline(model, COSTS)
    for (cls, _uid), series in result.p.items():
        if cls == "dg":
            np.testing.assert_allclose(series, 0.0, atol=1e-3)


def test_objective_recomputes_from_series():
    model = six_bus()
    result = solve_baseline(model, COSTS)
    total = 0.0
    for (cls, _uid), series in result.p.items():
        if cls == "dg":
            total += COSTS.dg_energy * series.sum() / 1e6
    for series in result.pv_curtail_w.values():
        total += COSTS.pv_curtail * series.sum() / 1e6
    for series in result.load_curtail_w.values():
        total += COSTS.load_curtail * series.sum() / 1e6
    assert total == pytest.approx(result.objective_value, abs=1e-6)


def test_summarize_balance_and_curtailment():
    model = six_bus()
    result = solve_baseline(model, COSTS)
    agg = summarize(result)
    # lossless model: generation equals served load at every step
    np.testing.assert_allclose(
        agg.pv_w + agg.dg_w + agg.es_w, agg.load_w, atol=1.0
    )
    # adequate capacity: nothing shed, voltages inside the box
    np.testing.assert_allclose(agg.load_curtail_w, 0.0, atol=1.0)
    assert (agg.v_min_pu >= 0.95 - 1e-9).all()
    assert (agg.v_max_pu <= 1.05 + 1e-9).all()


def test_zero_curtailment_series_when_capacity_ample():
    model = single_bus(load_des_w=0.5e6, load_min_w=0.2e6, dg_cap_va=2.0e6,
                       with_pv=True, steps=3)
    result = solve_baseline(model, COSTS)
    agg = summarize(result)
    np.testing.assert_allclose(agg.load_curtail_w, 0.0, atol=1)


def test_load_curtailment_monotone_in_penalty():
    """Raising c3 never increases the total energy shed."""
    model = single_bus(load_des_w=2.0e6, load_min_w=0.3e6, dg_cap_va=1.2e6)
    shed = []
    for c3 in (0.5, 2.0, 10.0, 50.0):
        result = solve_baseline(model, CostConfig(1.0, 0.1, c3))
        shed.append(sum(s.sum() for s in result.load_curtail_w.values()))
    assert all(a >= b - 1e-3 for a, b in zip(shed, shed[1:]))


def test_optimum_passes_feasibility_check():
    model = six_bus()
    lp, ns = build_baseline_lp(model, COSTS)
    result = solve_baseline(model, COSTS)
    report = check_feasibility(lp, result.lp_values)
    assert report.ok(1e-7)


def test_lshl_fixture_sheds_early_then_recovers():
    """Morning deficit: shedding shows up at the first step and vanishes for
    every step once diesel plus solar covers the desired load.  (The battery
    may shift shedding between deficit steps at equal cost, so only the first
    step and the recovered tail are pinned.)"""
    model = synth_feeder(
        SynthSpec(seed=5, profile="low_solar_high_load", initial_soc="low")
    )
    result = solve_baseline(model, COSTS)
    agg = summarize(result)
    dg_cap = sum(d.capacity_va for d in model.dg_units)
    desired = np.sum([ld.desired_w for ld in model.loads], axis=0)
    forecast = np.sum([pv.forecast_w for pv in model.pv_units], axis=0)
    k_star = next(k for k in range(model.steps) if dg_cap + forecast[k] >= desired[k])
    assert 0 < k_star
    assert agg.load_curtail_w[0] > 1e3  # positive at the first step
    assert agg.load_curtail_w[:k_star].sum() > 1e3
    for k in range(k_star, model.steps):
        assert agg.load_curtail_w[k] == pytest.approx(0.0, abs=0.1)


def test_terminal_soc_flag_pins_the_horizon_end():
    from gridres.constraints import BuildOptions

    model = single_bus(load_des_w=1.0e6, load_min_w=0.5e6, dg_cap_va=2.0e6,
                       with_pv=True, with_storage=True, steps=4)
    free = solve_baseline(model, COSTS)
    pinned = solve_baseline(model, COSTS, BuildOptions(terminal_soc_geq_initial=True))
    # unconstrained: the battery drains its free energy to displace diesel
    assert free.soc_wh["es1"][-1] < free.soc_wh["es1"][0] - 1e3
    assert pinned.soc_wh["es1"][-1] >= pinned.soc_wh["es1"][0] - 1e-3


def test_branch_written_upstream_gives_the_same_dispatch():
    """A branch whose `from` is its downstream end drops the voltage the same
    way: the LP's ends come from the tree, as its flows are signed by it."""
    docs = Path(__file__).resolve().parent.parent / "docs" / "examples"
    forward = load_model(docs / "sixbus_network.json", docs / "sixbus_profiles.csv")
    trunk = forward.branches[0]
    assert (trunk.from_bus, trunk.to_bus) == ("bus0", "bus1")
    reversed_trunk = dataclasses.replace(trunk, from_bus="bus1", to_bus="bus0")
    backward = dataclasses.replace(forward, branches=[reversed_trunk, *forward.branches[1:]])
    a = solve_baseline(forward, COSTS)
    b = solve_baseline(backward, COSTS)
    assert b.objective_value == pytest.approx(a.objective_value, rel=1e-12)
    assert b.voltage_sq_pu.keys() == a.voltage_sq_pu.keys()
    for key, w in a.voltage_sq_pu.items():
        np.testing.assert_allclose(b.voltage_sq_pu[key], w, rtol=0, atol=1e-12, err_msg=str(key))
    np.testing.assert_allclose(b.flow_p_w[("bus1->bus0", "a")], a.flow_p_w[("bus0->bus1", "a")],
                               rtol=0, atol=1e-6)
