import dataclasses
import math

import numpy as np
import pytest

from gridres.constraints import (
    BuildOptions,
    PerUnit,
    RadialPlan,
    build_namespace,
    device_groups,
    effective_impedance_pu,
    emit_limits,
    emit_power_balance,
    emit_voltage_drop,
    polygon_rows,
    solve_linear_flow,
)
from gridres.dispatch import CostConfig, solve_baseline
from gridres.lp import Rel
from gridres.network import Branch, Bus, NetworkModel, SynthSpec, synth_feeder, validate
from util import Z_BASE, six_bus, two_bus


def test_namespace_count_two_bus():
    # by hand: w per bus-phase-step + P/Q flow per branch-phase-step
    #          + P/Q per device-step + P/Q per load-step
    model = two_bus(steps=1, load=False)
    ns = build_namespace(model)
    assert len(ns.w) == 2
    assert len(ns.pflow) == len(ns.qflow) == 1
    for cls in ("pv", "dg"):
        assert [key for key in ns.p if key[0] == cls] == [(cls, f"{cls}1", 0)]
        assert [key for key in ns.q if key[0] == cls] == [(cls, f"{cls}1", 0)]
    assert ns.lp.n_variables == 2 + 2 + 2 + 2


def test_namespace_time_scaling():
    a = build_namespace(two_bus(steps=1))
    b = build_namespace(two_bus(steps=3))
    assert b.lp.n_variables == 3 * a.lp.n_variables


def test_namespace_empty_devices():
    model = two_bus(steps=2, load=False)
    model.pv_units = []
    model.dg_units = []
    ns = build_namespace(model)
    assert ns.lp.n_variables == len(ns.w) + len(ns.pflow) + len(ns.qflow)


def test_namespace_deterministic_ordering():
    model = six_bus()
    a = build_namespace(model)
    b = build_namespace(model)
    assert a.lp.names == b.lp.names
    assert a.lp.names[0].startswith("w[")


def test_voltage_drop_direct_substitution():
    """z = 0.01+0.02j pu, P = 1, Q = 0.5 pu at w_from = 1 gives w_to = 0.96."""
    model = two_bus(z_pu=0.01 + 0.02j, load=False)
    ns = build_namespace(model)
    rows = emit_voltage_drop(RadialPlan.of(model), ns)
    assert len(rows) == 1
    row = rows[0]
    # w_to - w_from + 2r P + 2x Q = 0  =>  w_to = 1 - 2(0.01*1 + 0.02*0.5) = 0.96
    point = {
        ns.w[("bus0", "a", 0)]: 1.0,
        ns.pflow[("bus0->bus1", "a", 0)]: 1.0,
        ns.qflow[("bus0->bus1", "a", 0)]: 0.5,
    }
    residual = sum(coeff * point.get(idx, 0.0) for idx, coeff in row.coeffs.items())
    w_to_coeff = row.coeffs[ns.w[("bus1", "a", 0)]]
    assert w_to_coeff == 1.0
    w_to = -(residual - 0.0)  # solve the row for w_to
    assert w_to == pytest.approx(0.96, abs=1e-12)


def test_voltage_drop_zero_impedance_is_identity():
    model = two_bus(z_pu=0.0 + 0.0j, load=False)
    ns = build_namespace(model)
    row = emit_voltage_drop(RadialPlan.of(model), ns)[0]
    assert row.coeffs.get(ns.pflow[("bus0->bus1", "a", 0)], 0.0) == 0.0
    assert row.coeffs.get(ns.qflow[("bus0->bus1", "a", 0)], 0.0) == 0.0


def test_three_phase_balanced_rows_identical():
    """Equal diagonal impedance, no mutuals: the per-phase rows coincide."""
    z = (0.004 + 0.009j) * Z_BASE
    model = NetworkModel(
        buses=[Bus("bus0", "abc"), Bus("bus1", "abc")],
        branches=[Branch("bus0", "bus1", "abc", {"aa": z, "bb": z, "cc": z}, 2e6)],
        pv_units=[], dg_units=[], storage_units=[], loads=[],
        steps=1, dt_hours=0.25,
    )
    pu = PerUnit.of(model)
    zs = [effective_impedance_pu(model.branches[0], p, pu) for p in "abc"]
    assert zs[0] == pytest.approx(zs[1]) == pytest.approx(zs[2])
    assert zs[0] == pytest.approx(0.004 + 0.009j)


def test_rotation_mixes_mutual_impedance():
    z_self = (0.004 + 0.009j) * Z_BASE
    z_mut = (0.001 + 0.003j) * Z_BASE
    branch = Branch(
        "bus0", "bus1", "abc",
        {"aa": z_self, "bb": z_self, "cc": z_self, "ab": z_mut, "ac": z_mut, "bc": z_mut},
        2e6,
    )
    model = NetworkModel(
        buses=[Bus("bus0", "abc"), Bus("bus1", "abc")], branches=[branch],
        pv_units=[], dg_units=[], storage_units=[], loads=[], steps=1, dt_hours=0.25,
    )
    pu = PerUnit.of(model)
    za = effective_impedance_pu(branch, "a", pu)
    # a-phase picks up the two mutuals rotated by +-120 degrees; with equal
    # mutual impedance their sum is -z_mut
    expected = (z_self - z_mut) / pu.z_base
    assert za == pytest.approx(expected)


def test_power_balance_leaf_and_junction():
    model = six_bus(steps=1)
    ns = build_namespace(model)
    rows = emit_power_balance(RadialPlan.of(model), ns)
    # 2 rows (P, Q) per bus-phase-step
    n_bus_phase = sum(len(b.phases) for b in model.buses)
    assert len(rows) == 2 * n_bus_phase

    # leaf bus3 hosts load2 on phase b: inflow + (-load share) = 0
    leaf_p = next(
        r for r in rows
        if ns.pflow.get(("bus1->bus3", "b", 0)) in r.coeffs
        and ns.p.get(("load", "load2", 0)) in r.coeffs
    )
    assert leaf_p.coeffs[ns.pflow[("bus1->bus3", "b", 0)]] == 1.0
    assert leaf_p.coeffs[ns.p[("load", "load2", 0)]] == -1.0

    # junction bus1 on phase a: inflow from trunk, outflow to bus2 lateral
    junction = next(
        r for r in rows
        if r.coeffs.get(ns.pflow.get(("bus0->bus1", "a", 0))) == 1.0
        and r.coeffs.get(ns.pflow.get(("bus1->bus2", "a", 0))) == -1.0
    )
    assert junction is not None


def test_balance_rows_telescope_to_lossless_identity():
    """Summing all P rows leaves only generation - load (flows cancel)."""
    model = six_bus(steps=2)
    ns = build_namespace(model)
    rows = emit_power_balance(RadialPlan.of(model), ns)
    k = 1
    total = {}
    for row in rows:
        touches_k = any(
            idx in row.coeffs for idx in (
                list(ns.pflow.get((br.id, p, k), -1) for br in model.branches for p in br.phases)
            )
        )
        for idx, coeff in row.coeffs.items():
            total[idx] = total.get(idx, 0.0) + coeff
    # every flow variable cancels out
    for key, idx in ns.pflow.items():
        assert total.get(idx, 0.0) == pytest.approx(0.0, abs=1e-12)
    for key, idx in ns.qflow.items():
        assert total.get(idx, 0.0) == pytest.approx(0.0, abs=1e-12)
    # device shares sum back to one per device-step
    for (cls, uid, kk), idx in ns.p.items():
        if cls == "dg":
            assert total.get(idx) == pytest.approx(1.0)
        elif cls == "load":
            assert total.get(idx) == pytest.approx(-1.0)


def test_polygon_vertex_feasible_with_two_adjacent_equalities():
    """Derived polygon oracle: vertices sit at angles 2*pi*t/sides, radius S."""
    sides = 8
    rows = polygon_rows(sides)
    s = 1.0
    vertex = (s * math.cos(0.0), s * math.sin(0.0))  # angle 0 vertex
    residuals = [cs * vertex[0] + sn * vertex[1] - s * off for cs, sn, off in rows]
    tight = [i for i, r in enumerate(residuals) if abs(r) < 1e-12]
    assert all(r <= 1e-12 for r in residuals)
    assert tight == [0, sides - 1]  # two adjacent rows (normals at +-pi/8)


def test_polygon_is_inscribed():
    """Dense sampling: every point satisfying the rows lies inside the circle."""
    rng = np.random.default_rng(6)
    rows = polygon_rows(8)
    pts = rng.uniform(-1.5, 1.5, size=(4000, 2))
    inside_rows = np.ones(len(pts), dtype=bool)
    for cs, sn, off in rows:
        inside_rows &= pts[:, 0] * cs + pts[:, 1] * sn <= off + 1e-12
    norms = np.hypot(pts[:, 0], pts[:, 1])
    assert inside_rows.any()
    assert (norms[inside_rows] <= 1.0 + 1e-9).all()
    # and it is a tight fit: some admitted point reaches past the apothem
    assert norms[inside_rows].max() > math.cos(math.pi / 8)


def test_soc_recursion_arithmetic():
    """E_next = E - P*dt: 3 MWh at 1.5 MW for 0.25 h leaves 2.625 MWh."""
    model = two_bus(steps=2)
    model.storage_units = [
        __import__("gridres.network", fromlist=["StorageUnit"]).StorageUnit(
            "es1", "bus1", 2.0e6, 0.5e6, 5.0e6, 2.5e6, 3.0e6
        )
    ]
    ns = build_namespace(model)
    rows = emit_limits(model, RadialPlan.of(model), ns, BuildOptions())
    rec = [r for r in rows if r.tag == "storage" and r.rel is Rel.EQ]
    assert len(rec) == 2
    first = rec[0]
    # soc[0] + dt * pes[0] = E0  ->  with pes = 1.5 pu, soc[0] = 3.0 - 0.375
    point = {ns.p[("es", "es1", 0)]: 1.5}
    lhs_coeff = first.coeffs[ns.soc[("es1", 0)]]
    assert lhs_coeff == 1.0
    soc0 = first.rhs - first.coeffs[ns.p[("es", "es1", 0)]] * point[ns.p[("es", "es1", 0)]]
    assert soc0 == pytest.approx(3.0 - 1.5 * 0.25)


def test_night_pv_forced_to_zero():
    model = two_bus(steps=1, forecast_w=np.array([0.0]))
    ns = build_namespace(model)
    p = ns.p[("pv", "pv1", 0)]
    assert ns.lp.lower[p] == 0.0 and ns.lp.upper[p] == 0.0


def test_row_count_formulas_fuzz():
    rng = np.random.default_rng(17)
    for _ in range(8):
        spec = SynthSpec(
            buses=int(rng.integers(4, 9)),
            seed=int(rng.integers(0, 1000)),
            steps=int(rng.integers(2, 6)),
            n_loads=int(rng.integers(2, 4)),
            n_pv=int(rng.integers(1, 3)),
            n_dg=int(rng.integers(1, 3)),
            n_storage=int(rng.integers(1, 3)),
            balanced_phases=False,  # row counting is agnostic to balance
        )
        model = synth_feeder(spec)
        ns = build_namespace(model)
        K = model.steps
        sides = 8
        bus_phases = sum(len(b.phases) for b in model.buses)
        branch_phases = sum(len(br.phases) for br in model.branches)

        vd = emit_voltage_drop(RadialPlan.of(model), ns)
        assert len(vd) == branch_phases * K
        pb = emit_power_balance(RadialPlan.of(model), ns)
        assert len(pb) == 2 * bus_phases * K
        rows = emit_limits(model, RadialPlan.of(model), ns, BuildOptions(poly_sides=sides))
        by_tag = {}
        for r in rows:
            by_tag[r.tag] = by_tag.get(r.tag, 0) + 1
        n_pv, n_dg, n_es, n_load = (
            len(model.pv_units), len(model.dg_units),
            len(model.storage_units), len(model.loads),
        )
        assert by_tag["line_limits"] == branch_phases * K * sides
        assert by_tag["pv_cap"] == n_pv * K * sides
        assert by_tag["dg_cap"] == n_dg * K * sides
        assert by_tag["storage"] == n_es * K * sides + n_es * K
        assert by_tag["power_factor"] == n_load * K
        # voltage boxes and curtailment windows are column bounds, not rows
        lp, pu = ns.lp, PerUnit.of(model)
        buses = {b.id: b for b in model.buses}
        assert len(ns.w) == bus_phases * K
        for (bus, _phase, _k), idx in ns.w.items():
            b = buses[bus]
            want = (1.0, 1.0) if bus == model.root.id else (b.v_min**2, b.v_max**2)
            assert (lp.lower[idx], lp.upper[idx]) == want
        windows = {("pv", u.id, k): (0.0, pu.power(float(u.forecast_w[k])))
                   for u in model.pv_units for k in range(K)}
        windows.update({("load", u.id, k): (pu.power(float(u.minimum_w[k])),
                                            pu.power(float(u.desired_w[k])))
                        for u in model.loads for k in range(K)})
        assert len(windows) == (n_pv + n_load) * K
        for key, window in windows.items():
            assert (lp.lower[ns.p[key]], lp.upper[ns.p[key]]) == window


def test_line_polygons_carry_their_branch_limits():
    """Every line polygon holds one drop's flow columns, at the rating of that
    drop's own branch: 2.4 MVA on the synthetic trunk, 1.8 MVA on a lateral.
    The feeder's breadth-first drops are not in branch order, so a polygon
    given another drop's limit would carry the wrong rating."""
    model = synth_feeder(SynthSpec(buses=8, seed=3, steps=2, balanced_phases=False))
    plan = RadialPlan.of(model)
    assert plan.drop_rows != tuple(range(len(plan.drops)))
    assert {br.flow_limit_va for br in model.branches} == {2.4e6, 1.8e6}
    sides = 8
    ns = build_namespace(model)
    rows = [r for r in emit_limits(model, plan, ns, BuildOptions(poly_sides=sides))
            if r.tag == "line_limits"]
    drop = {(ns.pflow[key], ns.qflow[key]): key for key in ns.pflow}  # (branch, phase, k)
    limit = {br.id: br.flow_limit_va for br in model.branches}
    polygons = {}
    for r in rows:
        key = drop[tuple(r.coeffs)]
        assert r.rhs == limit[key[0]] / plan.s_base * math.cos(math.pi / sides)
        polygons.setdefault(key, []).append((r.coeffs[ns.pflow[key]], r.coeffs[ns.qflow[key]]))
    assert polygons.keys() == ns.pflow.keys()
    for polygon in polygons.values():
        assert polygon == [(cs, sn) for cs, sn, _ in polygon_rows(sides)]


def test_voltage_monotone_on_consuming_feeder():
    """Positive flow toward a net-consuming child bus lowers its voltage."""
    model = two_bus(z_pu=0.01 + 0.02j, load_des_w=1.0e6, forecast_w=np.array([0.0]))
    result = solve_baseline(model, CostConfig())
    w0 = result.voltage_sq_pu[("bus0", "a")][0]
    w1 = result.voltage_sq_pu[("bus1", "a")][0]
    assert w0 == pytest.approx(1.0)
    assert w1 < w0


def test_linear_flow_matches_lp_voltages():
    """The sweep's w and flows equal the LP's, also when the single-phase
    lateral bus1-bus3, which feeds load2, is written downstream to upstream."""
    forward = six_bus(steps=2)
    lateral = forward.branches[2]
    assert (lateral.id, lateral.phases) == ("bus1->bus3", "b")
    backward = dataclasses.replace(forward, branches=[
        dataclasses.replace(br, from_bus="bus3", to_bus="bus1") if br is lateral else br
        for br in forward.branches])
    assert validate(backward).ok
    k = 1
    for model in (forward, backward):
        result = solve_baseline(model, CostConfig())
        keys = [(cls, u.id) for cls, units in device_groups(model) for u in units]
        plan = RadialPlan.of(model)
        fp, fq, w = solve_linear_flow(plan, [result.p[key][k] for key in keys],
                                      [result.q[key][k] for key in keys])
        assert sorted(plan.bus_phases) == sorted(result.voltage_sq_pu)
        for key, w_k in zip(plan.bus_phases, w, strict=True):
            assert w_k == pytest.approx(result.voltage_sq_pu[key][k], abs=5e-7)
        # one flow per non-root slot, fed by its bus's branch, signed upstream to downstream
        _, parent, _ = model.tree()
        flows = [(parent[bus].id, phase) for bus, phase in plan.bus_phases if bus in parent]
        assert sorted(flows) == sorted(result.flow_p_w)
        for key, p, q in zip(flows, fp, fq, strict=True):
            assert p * plan.s_base == pytest.approx(result.flow_p_w[key][k], abs=1e-6)
            assert q * plan.s_base == pytest.approx(result.flow_q_w[key][k], abs=1e-6)
    assert result.flow_p_w[("bus3->bus1", "b")][k] > 0.0  # into bus3, which only draws


def test_optional_pv_power_factor_rows():
    """With a gamma set, PV reactive output is fenced to |Q| <= gamma * P."""
    model = two_bus(steps=2)
    ns = build_namespace(model)
    rows = emit_limits(model, RadialPlan.of(model), ns, BuildOptions(pv_power_factor_gamma=0.4))
    pf_rows = [r for r in rows if r.tag == "power_factor" and r.rel is Rel.LE]
    assert len(pf_rows) == 2 * 1 * 2  # two rows per pv unit and step

    from gridres.dispatch import CostConfig, solve_baseline

    result = solve_baseline(model, CostConfig(), BuildOptions(pv_power_factor_gamma=0.4))
    for k in range(model.steps):
        p = result.p[("pv", "pv1")][k]
        q = result.q[("pv", "pv1")][k]
        assert abs(q) <= 0.4 * p + 1e-1


def test_mutually_coupled_trunk_solves_end_to_end():
    """Off-diagonal trunk impedance flows through the rotation into a solvable
    model with physically sensible (slightly asymmetric) voltages."""
    model = six_bus(steps=2)
    trunk = model.branches[0]
    z_mut = (0.0005 + 0.0015j) * Z_BASE
    for pair in ("ab", "ac", "bc"):
        trunk.impedance_ohm[pair] = z_mut
    from gridres.dispatch import CostConfig, solve_baseline

    result = solve_baseline(model, CostConfig())
    for (bus, phase), series in result.voltage_sq_pu.items():
        assert (series >= 0.95**2 - 1e-9).all()
        assert (series <= 1.05**2 + 1e-9).all()
    # equal mutuals subtract from the self term, so drops shrink vs uncoupled
    pu = PerUnit.of(model)
    z_eff = effective_impedance_pu(trunk, "a", pu)
    assert z_eff.real < (trunk.z("a", "a") / pu.z_base).real
