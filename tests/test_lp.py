import dataclasses
from pathlib import Path

import numpy as np
import pytest

import gridres.lp as lp_module
from gridres.lp import (
    DimensionMismatch,
    IterationLimitExceeded,
    LinearProgram,
    LpStatus,
    MalformedProblem,
    Rel,
    Row,
    SolverOptions,
    check_feasibility,
    solve,
)
from vertex_oracle import brute_force_min, objective_vector, random_bounded_lp

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# BLAND_STALL per test id: the shipped allowance of degenerate pivots before
# Bland's rule takes over from Dantzig's, and none, so that Bland's lowest-index
# entering and leaving choice follows every degenerate pivot
STALL = {"dantzig": 40, "bland": 0}


@pytest.fixture
def bland_stall(request, monkeypatch):
    monkeypatch.setattr(lp_module, "BLAND_STALL", STALL[request.param])
    return request.param


by_stall = pytest.mark.parametrize("bland_stall", list(STALL), indirect=True)


def single_var_lp():
    lp = LinearProgram()
    x = lp.add_variable("x", 0.0, 10.0)
    lp.set_objective({x: 1.0})
    lp.add_row({x: 1.0}, Rel.GE, 2.0)
    return lp, x


def test_bound_binding_minimum():
    lp, x = single_var_lp()
    sol = solve(lp)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.values[x] == pytest.approx(2.0, abs=1e-9)
    assert sol.objective_value == pytest.approx(2.0, abs=1e-9)


def test_empty_feasible_set():
    lp = LinearProgram()
    x = lp.add_variable("x")
    lp.set_objective({x: 1.0})
    lp.add_row({x: 1.0}, Rel.LE, 0.0)
    lp.add_row({x: 1.0}, Rel.GE, 1.0)
    sol = solve(lp)
    assert sol.status is LpStatus.INFEASIBLE
    assert sol.infeasible_rows  # certificate names at least one row


@pytest.mark.parametrize("backend", ["simplex", "scipy"])
def test_lp_without_variables(backend):
    opts = SolverOptions(backend=backend)
    sol = solve(LinearProgram(), opts)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective_value == 0.0 and sol.values.shape == (0,)

    lp = LinearProgram()
    lp.add_row({}, Rel.LE, 1.0)
    lp.add_row({}, Rel.EQ, 0.0)
    lp.add_row({}, Rel.GE, 0.0)
    assert solve(lp, opts).status is LpStatus.OPTIMAL
    lp.add_row({}, Rel.GE, 0.5)
    lp.add_row({}, Rel.EQ, -1.0)
    sol = solve(lp, opts)
    assert sol.status is LpStatus.INFEASIBLE
    assert sol.infeasible_rows == [3, 4]


def test_infeasibility_certificate_rows_are_infeasible_together():
    """Each infeasible random LP, cut down to the rows its certificate names
    with every column and bound kept, is still infeasible for HiGHS and for
    the vertex oracle."""
    rng = np.random.default_rng(5)
    highs = SolverOptions(backend="scipy")
    infeasible = 0
    for _ in range(400):
        lp = random_bounded_lp(rng)
        sol = solve(lp)
        if sol.status is not LpStatus.INFEASIBLE:
            continue
        infeasible += 1
        rows = sol.infeasible_rows
        assert rows and rows == sorted(set(rows))
        core = LinearProgram()
        for j, name in enumerate(lp.names):
            core.add_variable(name, lp.lower[j], lp.upper[j])
        for ri in rows:
            core.add_row(lp.rows[ri].coeffs, lp.rows[ri].rel, lp.rows[ri].rhs)
        assert solve(core, highs).status is LpStatus.INFEASIBLE, rows
        assert brute_force_min(core) is None, rows
    assert infeasible >= 200


def test_unbounded():
    lp = LinearProgram()
    x = lp.add_variable("x", 0.0)
    lp.set_objective({x: -1.0})
    sol = solve(lp)
    assert sol.status is LpStatus.UNBOUNDED
    assert solve(lp, SolverOptions(backend="scipy")).status is LpStatus.UNBOUNDED


def test_fixed_and_free_variables():
    lp = LinearProgram()
    x = lp.add_variable("x", 3.0, 3.0)
    y = lp.add_variable("y")  # free
    lp.set_objective({y: 1.0})
    lp.add_row({x: 1.0, y: 1.0}, Rel.GE, 5.0)
    sol = solve(lp)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.values[x] == pytest.approx(3.0)
    assert sol.values[y] == pytest.approx(2.0, abs=1e-9)


def test_equality_row():
    lp = LinearProgram()
    x = lp.add_variable("x", 0.0, 5.0)
    y = lp.add_variable("y", 0.0, 5.0)
    lp.set_objective({x: 2.0, y: 1.0})
    lp.add_row({x: 1.0, y: 1.0}, Rel.EQ, 4.0)
    sol = solve(lp)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(4.0, abs=1e-8)  # all weight on y
    assert sol.values[y] == pytest.approx(4.0, abs=1e-8)


def test_redundant_equality_row_keeps_its_logical_basic():
    """A redundant equality row keeps its fixed logical basic at zero; the
    basis names a column of [A | I] in every position."""
    lp = LinearProgram()
    x = lp.add_variable("x", 0.0, 4.0)
    y = lp.add_variable("y", 0.0, 4.0)
    lp.set_objective({x: 1.0, y: 2.0})
    lp.add_row({x: 1.0, y: 1.0}, Rel.EQ, 1.0)
    lp.add_row({x: 2.0, y: 2.0}, Rel.EQ, 2.0)
    sol = solve(lp)
    assert sol.status is LpStatus.OPTIMAL
    np.testing.assert_allclose(sol.values, [1.0, 0.0], atol=1e-12)
    n_columns = lp.n_variables + lp.n_rows
    assert all(0 <= j < n_columns for j in sol.kept.basic), sol.kept.basic

    lp.rows[1].rhs = 3.0  # now 2x + 2y = 3 contradicts x + y = 1
    for answer in (solve(lp, start=sol.kept), solve(lp)):
        assert answer.status is LpStatus.INFEASIBLE
        assert answer.infeasible_rows == [0, 1]
    assert solve(lp, SolverOptions(backend="scipy")).status is LpStatus.INFEASIBLE


def test_malformed_problems():
    lp = LinearProgram()
    x = lp.add_variable("x", 0.0, 1.0)
    lp.add_row({x + 5: 1.0}, Rel.LE, 1.0)  # dangling index
    with pytest.raises(MalformedProblem):
        solve(lp)

    lp2 = LinearProgram()
    y = lp2.add_variable("y", 0.0, 1.0)
    lp2.add_row({y: float("nan")}, Rel.LE, 1.0)
    with pytest.raises(MalformedProblem):
        solve(lp2)

    lp3 = LinearProgram()
    with pytest.raises(MalformedProblem):
        lp3.add_variable("z", 2.0, 1.0)

    # a column fixed at an infinite bound has no finite value to take
    lp4 = LinearProgram()
    lp4.add_variable("w", np.inf, np.inf)
    with pytest.raises(MalformedProblem, match="lower bound \\+inf on variable 'w'"):
        solve(lp4)
    lp5, x = single_var_lp()
    lp5.set_bounds(x, -np.inf, -np.inf)
    with pytest.raises(MalformedProblem, match="upper bound -inf on variable 'x'"):
        solve(lp5)
    with pytest.raises(MalformedProblem, match="upper bound -inf"):
        check_feasibility(lp5, np.zeros(1))

    # set_bounds checks its index and its bounds as add_variable does, and
    # writes nothing when it raises: -1 would bound the last column
    lp6, x = single_var_lp()
    for idx in (-1, lp6.n_variables):
        with pytest.raises(MalformedProblem, match=f"unknown variable index {idx}$"):
            lp6.set_bounds(idx, 5.0, 5.0)
    for lower, upper in ((np.nan, 1.0), (0.0, np.nan)):
        with pytest.raises(MalformedProblem, match="NaN bound on variable 'x'"):
            lp6.set_bounds(x, lower, upper)
    assert (lp6.lower, lp6.upper) == ([0.0], [10.0])


def _duplicate_name(lp, x):
    lp.add_variable("x", 0.0, 1.0)


def _objective_index_out_of_range(lp, x):
    lp.add_objective_term(3, 1.0)
    solve(lp)


def _non_finite_objective(lp, x):
    lp.set_objective({x: np.inf})
    solve(lp)


def _non_finite_rhs(lp, x):  # on the first assembly of these rows
    lp.add_row({x: 1.0}, Rel.LE, np.nan)
    solve(lp)


@pytest.mark.parametrize("edit, message", [
    (_duplicate_name, "duplicate variable name 'x'"),
    (lambda lp, x: lp.add_variable("y", np.nan, 1.0), "NaN bound on variable 'y'"),
    (lambda lp, x: lp.add_variable("y", 0.0, np.nan), "NaN bound on variable 'y'"),
    (lambda lp, x: lp.set_bounds(x, 2.0, 1.0), "lower > upper on variable 'x'"),
    (_objective_index_out_of_range, "objective references unknown variable index 3"),
    (_non_finite_objective, "non-finite objective coefficient on index 0"),
    (_non_finite_rhs, "non-finite rhs on row 1"),
], ids=["duplicate-name", "nan-lower", "nan-upper", "set-bounds-crossed",
        "objective-index", "objective-inf", "rhs-nan"])
def test_input_check_names_the_defect(edit, message):
    lp, x = single_var_lp()
    with pytest.raises(MalformedProblem, match=f"^{message}$"):
        edit(lp, x)


def test_assembly_of_irregular_rows():
    """An empty row, an explicit zero coefficient, a row whose coefficients
    come in descending column order and a column in no row."""
    lp = LinearProgram()
    for j, (lo, hi) in enumerate([(0.0, 4.0), (-1.0, 3.0), (0.0, 2.0), (-2.0, 5.0)]):
        lp.add_variable(f"x{j}", lo, hi)
    lp.set_objective({0: -1.0, 1: -2.0, 2: 0.5, 3: 1.0})  # x3 is in no row
    lp.add_row({2: 1.0, 1: 1.0, 0: 1.0}, Rel.LE, 4.0)
    lp.add_row({}, Rel.LE, 1.0)
    lp.add_row({0: 1.0, 1: 0.0, 2: -1.0}, Rel.GE, -1.0)
    lp.add_row({1: 1.0, 0: -1.0}, Rel.EQ, 0.5)

    sol = solve(lp)
    ref = solve(lp, SolverOptions(backend="scipy"))
    assert sol.status is ref.status is LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(ref.objective_value, abs=1e-9)
    assert sol.objective_value == pytest.approx(brute_force_min(lp), abs=1e-9)
    np.testing.assert_allclose(sol.values, ref.values, atol=1e-9)
    assert sol.values[3] == -2.0
    assert check_feasibility(lp, sol.values).ok(1e-9)

    report = check_feasibility(lp, np.array([4.0, 3.0, 0.0, 0.0]))
    assert report.violations == [(0, 3.0), (3, 1.5)]
    report = check_feasibility(lp, np.array([0.0, -1.0, 2.0, 0.0]))
    assert report.violations == [(2, 1.0), (3, 1.5)]
    assert report.max_row_residual == 1.5


def test_iteration_limit_is_loud():
    rng = np.random.default_rng(3)
    lp = random_bounded_lp(rng)
    with pytest.raises(IterationLimitExceeded):
        solve(lp, SolverOptions(max_iterations=1))


def test_iteration_cap_of_zero_allows_no_pivot():
    lp, _ = single_var_lp()  # the slack basis is infeasible: it takes a pivot
    with pytest.raises(IterationLimitExceeded):
        solve(lp, SolverOptions(max_iterations=0))
    assert solve(lp, SolverOptions(max_iterations=None)).status is LpStatus.OPTIMAL


@pytest.mark.parametrize("cap", [-5, 2.5, True, "10"],
                         ids=["negative", "fraction", "boolean", "string"])
def test_bad_iteration_cap_is_rejected(cap):
    with pytest.raises(ValueError, match="max_iterations"):
        SolverOptions(max_iterations=cap)


def test_check_feasibility_examples():
    lp, x = single_var_lp()
    report = check_feasibility(lp, np.array([2.0]))
    assert report.max_row_residual == 0.0
    assert report.violations == []

    report = check_feasibility(lp, np.array([1.5]))
    assert report.max_row_residual == pytest.approx(0.5)
    assert report.violations == [(0, pytest.approx(0.5))]

    with pytest.raises(DimensionMismatch):
        check_feasibility(lp, np.array([1.0, 2.0]))


def test_solution_round_trips_through_check_feasibility():
    rng = np.random.default_rng(11)
    for _ in range(30):
        lp = random_bounded_lp(rng)
        sol = solve(lp)
        if sol.status is LpStatus.OPTIMAL:
            report = check_feasibility(lp, sol.values)
            assert report.ok(1e-7)


def test_determinism_bitwise():
    rng = np.random.default_rng(7)
    for _ in range(10):
        lp = random_bounded_lp(rng)
        a = solve(lp)
        b = solve(lp)
        assert a.status == b.status
        if a.status is LpStatus.OPTIMAL:
            assert np.array_equal(a.values, b.values)
            assert a.objective_value == b.objective_value


@by_stall
def test_oracle_equivalence(bland_stall):
    """Simplex matches brute-force vertex enumeration on random bounded LPs."""
    rng = np.random.default_rng(2024)
    options = SolverOptions()
    checked = 0
    for _ in range(60):
        lp = random_bounded_lp(rng)
        expected = brute_force_min(lp)
        sol = solve(lp, options)
        if expected is None:
            assert sol.status is LpStatus.INFEASIBLE
        else:
            assert sol.status is LpStatus.OPTIMAL
            assert sol.objective_value == pytest.approx(expected, abs=1e-6)
            checked += 1
    assert checked > 20


def test_scipy_backend_agrees_with_simplex():
    rng = np.random.default_rng(99)
    for _ in range(25):
        lp = random_bounded_lp(rng)
        ours = solve(lp)
        ref = solve(lp, SolverOptions(backend="scipy"))
        assert ours.status == ref.status
        if ours.status is LpStatus.OPTIMAL:
            assert ours.objective_value == pytest.approx(ref.objective_value, abs=1e-6)


def test_weak_duality_probe():
    """No random feasible point beats the reported optimum."""
    rng = np.random.default_rng(5)
    built = 0
    while built < 10:
        lp = random_bounded_lp(rng)
        if any(row.rel is Rel.EQ for row in lp.rows):
            continue  # equality rows make random probing vacuous
        sol = solve(lp)
        if sol.status is not LpStatus.OPTIMAL:
            continue
        built += 1
        lo = np.array(lp.lower)
        hi = np.array(lp.upper)
        pts = rng.uniform(lo, hi, size=(1000, lp.n_variables))
        c = objective_vector(lp)
        for x in pts:
            if check_feasibility(lp, x).ok(0.0):
                assert x @ c >= sol.objective_value - 1e-6


def test_lp_text_dump():
    lp = LinearProgram()
    x = lp.add_variable("p[dev1,0]", 0.0, 2.0)
    y = lp.add_variable("q[dev1,0]")
    lp.set_objective({x: 1.5})
    lp.add_row({x: 1.0, y: -0.5}, Rel.LE, 3.0)
    text = lp.to_lp_text("toy")
    assert "Minimize" in text and "Subject To" in text and "Bounds" in text
    assert "p(dev1_0)" in text  # sanitized names
    assert "q(dev1_0) free" in text
    assert text.endswith("End\n")


@by_stall
def test_beale_cycling_instance_terminates(bland_stall):
    """The classic degenerate instance that cycles under naive pivoting."""
    lp = LinearProgram()
    x1 = lp.add_variable("x1", 0.0, 1e3)
    x2 = lp.add_variable("x2", 0.0, 1e3)
    x3 = lp.add_variable("x3", 0.0, 1e3)
    x4 = lp.add_variable("x4", 0.0, 1e3)
    lp.set_objective({x1: -0.75, x2: 150.0, x3: -0.02, x4: 6.0})
    lp.add_row({x1: 0.25, x2: -60.0, x3: -0.04, x4: 9.0}, Rel.LE, 0.0)
    lp.add_row({x1: 0.5, x2: -90.0, x3: -0.02, x4: 3.0}, Rel.LE, 0.0)
    lp.add_row({x3: 1.0}, Rel.LE, 1.0)
    sol = solve(lp)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(-0.05, abs=1e-9)


def beale_lp() -> LinearProgram:
    lp = LinearProgram()
    x1, x2, x3, x4 = (lp.add_variable(f"x{i}", 0.0, 1e3) for i in range(1, 5))
    lp.set_objective({x1: -0.75, x2: 150.0, x3: -0.02, x4: 6.0})
    lp.add_row({x1: 0.25, x2: -60.0, x3: -0.04, x4: 9.0}, Rel.LE, 0.0)
    lp.add_row({x1: 0.5, x2: -90.0, x3: -0.02, x4: 3.0}, Rel.LE, 0.0)
    lp.add_row({x3: 1.0}, Rel.LE, 1.0)
    return lp


@pytest.mark.parametrize("bland_stall, bland_entries", [("dantzig", 1), ("bland", 1)],
                         indirect=["bland_stall"])
def test_beale_stall_records_a_bland_entry(bland_stall, bland_entries):
    sol = solve(beale_lp())
    assert sol.status is LpStatus.OPTIMAL
    assert sol.stats.bland_entries == bland_entries


def test_stats_parts_sum_to_iterations(monkeypatch):
    rng = np.random.default_rng(17)
    totals = dict(dual_pivots=0, primal_pivots=0, bound_flips=0, refactorizations=0)
    for _ in range(40):
        lp = random_bounded_lp(rng)
        for stall in STALL.values():
            monkeypatch.setattr(lp_module, "BLAND_STALL", stall)
            sol = solve(lp)
            stats = sol.stats
            assert stats.dual_pivots + stats.primal_pivots + stats.bound_flips == sol.iterations
            if sol.status is LpStatus.OPTIMAL:
                assert stats.refactorizations >= 1  # the final re-solve
            for key in totals:
                totals[key] += getattr(stats, key)
    assert all(totals.values()), totals  # every counter was exercised
    assert solve(random_bounded_lp(rng), SolverOptions(backend="scipy")).stats is None


def test_eta_updates_match_dense_inverse():
    """FTRAN and BTRAN through the LU factors and the product-form etas agree
    with the replaced basis matrix, also when pivots repeat a row."""
    from scipy.sparse import csc_matrix

    from gridres.lp import _Basis

    rng = np.random.default_rng(5)
    m = 12
    B = rng.normal(size=(m, m)) + 4.0 * np.eye(m)
    basis = _Basis(m)
    basis.factor(csc_matrix(B))
    for r in (3, 7, 3, 0, 7, 7, 11, 3, 5):
        a = rng.normal(size=m) + 4.0 * np.eye(m)[r]
        w = basis.ftran(a)
        np.testing.assert_allclose(B @ w, a, atol=1e-10)
        v = rng.normal(size=m)
        np.testing.assert_allclose(B.T @ basis.btran(v), v, atol=1e-10)
        basis.push(r, w)
        B[:, r] = a  # the entering column replaces column r
    v = rng.normal(size=m)
    np.testing.assert_allclose(B @ basis.ftran(v), v, atol=1e-10)
    np.testing.assert_allclose(B.T @ basis.btran(v), v, atol=1e-10)


def test_larger_lps_match_scipy_backend():
    """Beyond the vertex oracle's reach, the scipy backend is the referee."""
    rng = np.random.default_rng(404)
    agreed = 0
    for _ in range(30):
        n = int(rng.integers(8, 26))
        m = int(rng.integers(10, 31))
        lp = LinearProgram()
        for j in range(n):
            lp.add_variable(f"x{j}", float(rng.uniform(-5, 0)), float(rng.uniform(0.5, 6)))
        lp.set_objective({j: float(rng.uniform(-3, 3)) for j in range(n)})
        for _ in range(m):
            cols = rng.choice(n, size=int(rng.integers(2, 6)), replace=False)
            coeffs = {int(j): float(rng.uniform(-2, 2)) for j in cols}
            rel = (Rel.LE, Rel.GE, Rel.EQ)[int(rng.choice([0, 0, 0, 0, 1, 2]))]
            rhs = float(rng.uniform(0.0, 6.0)) if rel is Rel.LE else float(rng.uniform(-4, 2))
            lp.add_row(coeffs, rel, rhs)
        ours = solve(lp)
        ref = solve(lp, SolverOptions(backend="scipy"))
        assert ours.status == ref.status
        if ours.status is LpStatus.OPTIMAL:
            assert ours.objective_value == pytest.approx(ref.objective_value, abs=1e-6)
            agreed += 1
    assert agreed >= 10


def rebound_and_reprice(lp: LinearProgram, rng: np.random.Generator) -> None:
    """Move some bounds (fixing a few columns) and draw a new objective."""
    for j in range(lp.n_variables):
        u = rng.random()
        if u < 0.3:
            lp.set_bounds(j, float(rng.uniform(-3.0, 0.0)), float(rng.uniform(0.5, 4.0)))
        elif u < 0.4:
            value = float(rng.uniform(-1.0, 1.0))
            lp.set_bounds(j, value, value)
    lp.set_objective({j: float(rng.uniform(-2.0, 2.0)) for j in range(lp.n_variables)})


def test_warm_start_matches_cold_solve():
    rng = np.random.default_rng(99)
    opt = SolverOptions()
    warm_only = 0
    for _ in range(25):
        lp = random_bounded_lp(rng)
        first = solve(lp)
        if first.status is not LpStatus.OPTIMAL:
            assert first.kept is None
            continue
        for _ in range(3):
            rebound_and_reprice(lp, rng)
            cold = solve(lp)
            warm = solve(lp, start=first.kept)
            assert warm.status == cold.status
            if cold.status is LpStatus.OPTIMAL:
                assert warm.objective_value == pytest.approx(cold.objective_value,
                                                             rel=1e-9, abs=1e-12)
                assert check_feasibility(lp, warm.values).ok(opt.feas_tol)
                warm_only += warm.stats.dual_pivots == 0 < cold.stats.dual_pivots
    assert warm_only >= 5  # starts that skipped a dual simplex the cold solve needed


def test_warm_start_from_unchanged_lp_takes_no_pivots():
    rng = np.random.default_rng(3)
    solved = 0
    for _ in range(10):
        lp = random_bounded_lp(rng)
        cold = solve(lp)
        if cold.status is not LpStatus.OPTIMAL:
            continue
        warm = solve(lp, start=cold.kept)
        assert warm.iterations == 0
        assert warm.objective_value == pytest.approx(cold.objective_value, rel=1e-12, abs=1e-12)
        np.testing.assert_array_equal(warm.kept.basic, cold.kept.basic)
        solved += 1
    assert solved >= 3


def equality_pair_lp():
    """min x subject to x + y = 4, x in [0, 10], y in [0, 1]: x = 3 basic, y at 1."""
    lp = LinearProgram()
    x = lp.add_variable("x", 0.0, 10.0)
    y = lp.add_variable("y", 0.0, 1.0)
    lp.set_objective({x: 1.0})
    lp.add_row({x: 1.0, y: 1.0}, Rel.EQ, 4.0)
    return lp, x, y


def test_warm_start_outside_its_bounds_runs_the_dual_simplex():
    lp, x, y = equality_pair_lp()
    start = solve(lp).kept
    # y stays at its upper bound 5, so x_B = -1 < 0; d_y = -1 keeps the basis
    # dual feasible
    lp.set_bounds(y, 2.0, 5.0)
    cold = solve(lp)
    warm = solve(lp, start=start)
    assert warm.status is LpStatus.OPTIMAL and warm.stats.start == "warm"
    assert warm.values[x] == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_array_equal(warm.values, cold.values)
    # the dual simplex on the LP's own costs ends at the optimum
    assert warm.stats.dual_pivots >= 1 and warm.stats.primal_pivots == 0


@pytest.mark.parametrize("upper", [np.inf], ids=["bound-lost"])
def test_warm_start_falls_back_to_cold(upper):
    lp, x, y = equality_pair_lp()
    start = solve(lp).kept
    # y was at its upper bound, which is no longer finite: the start keeps
    # its basis and y moves to the bound a cold start gives it, 2
    lp.set_bounds(y, 2.0, upper)
    cold = solve(lp)
    warm = solve(lp, start=start)
    assert warm.status is LpStatus.OPTIMAL
    assert warm.values[x] == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_array_equal(warm.values, cold.values)
    assert warm.stats.start == "warm" and warm.stats.dual_pivots == 0 < cold.stats.dual_pivots


def test_start_that_is_not_kept_is_malformed():
    """A kept state is the only warm start, under either backend."""
    lp, _, _ = equality_pair_lp()
    sol = solve(lp)
    for start in (sol, sol.kept.basic, (sol.kept.basic, sol.kept.status)):
        for options in (SolverOptions(), SolverOptions(backend="scipy")):
            with pytest.raises(MalformedProblem, match="start must be a KeptSimplex, not"):
                solve(lp, options, start=start)


def test_kept_start_rereads_bounds_objective_and_rhs():
    """Re-banding a kept LP's bounds, objective and a row's rhs in place is
    allowed: the re-solve takes over the kept factorization, answers as a
    cold solve does, and checks what it re-reads as a full assembly does."""
    lp, x, y = equality_pair_lp()
    kept = solve(lp).kept
    lp.set_bounds(y, 0.0, 0.5)
    lp.rows[0].rhs = 5.0  # x + y = 5: x = 4.5 with y at 0.5
    lp.set_objective({x: 1.0, y: -1.0})
    sol = solve(lp, start=kept)
    assert sol.stats.start == "warm" and sol.stats.refactorizations == 0
    assert sol.values[x] == pytest.approx(4.5, abs=1e-12)
    np.testing.assert_array_equal(sol.values, solve(lp).values)
    lp.rows[0].rhs = np.inf
    with pytest.raises(MalformedProblem, match="non-finite rhs on row 0"):
        solve(lp, start=kept)
    lp.lower[x] = np.nan
    with pytest.raises(MalformedProblem, match="NaN bound on variable 'x'"):
        solve(lp, start=kept)


@pytest.mark.parametrize("edit, message", [
    ("other LP", "kept start belongs to another LinearProgram"),
    ("add_row", "solved on 1 rows and 2 columns; the problem has 2 and 2"),
    ("add_variable", "solved on 1 rows and 2 columns; the problem has 1 and 3"),
    ("replaced row", "kept start belongs to another LinearProgram or rows: solved on 1 rows"),
])
def test_kept_start_of_another_shape_is_malformed(edit, message):
    lp, x, y = equality_pair_lp()
    kept = solve(lp).kept
    if edit == "other LP":
        lp, _, _ = equality_pair_lp()
    elif edit == "add_row":
        lp.add_row({y: 1.0}, Rel.LE, 1.0)
    elif edit == "add_variable":
        lp.add_variable("z", 0.0, 1.0)
    else:  # an equal row, but not the object the kept state was solved on
        lp.rows = (dataclasses.replace(lp.rows[0]),)
    with pytest.raises(MalformedProblem, match=message):
        solve(lp, start=kept)


def test_rows_are_assembled_once_per_rows_tuple():
    """An LP's rows are an immutable tuple, assembled once: two solves and a
    feasibility check of an unchanged LP share one assembly of its rows, and
    only a rebound `rows` tuple, as add_row makes, or another column count
    assembles them again."""
    lp, x, y = equality_pair_lp()
    with pytest.raises(TypeError):
        lp.rows[0] = Row({x: 1.0}, Rel.EQ, 4.0)
    first, second = solve(lp), solve(lp)
    check_feasibility(lp, first.values)
    assembled = lp._assembled_rows
    assert first.kept.rows is second.kept.rows is assembled and assembled.source is lp.rows
    lp.add_row({y: 1.0}, Rel.LE, 1.0)
    grown = solve(lp).kept.rows
    assert grown is not assembled and grown.A.shape == (2, 2)
    lp.add_variable("z", 0.0, 1.0)
    check_feasibility(lp, np.zeros(3))
    assert lp._assembled_rows is not grown and lp._assembled_rows.A.shape == (2, 3)


def test_scipy_backend_returns_no_basis():
    lp, x, _ = equality_pair_lp()
    start = solve(lp).kept
    sol = solve(lp, SolverOptions(backend="scipy"), start=start)
    assert sol.status is LpStatus.OPTIMAL and sol.kept is None
    assert sol.values[x] == pytest.approx(3.0)


def crash_lp(case: str) -> LinearProgram:
    """A boxed LP whose row hints the crash start must partly refuse."""
    lp = LinearProgram()
    x = lp.add_variable("x", *((1.0, 1.0) if case == "fixed" else (0.0, 1.0)))
    y = lp.add_variable("y", 0.0, 3.0)
    z = lp.add_variable("z", 0.0, 4.0)
    lp.set_objective({x: -1.0, y: 0.5, z: 0.25})
    if case == "outside-bounds":  # y and z start at 0, so x would start at 2 > 1
        lp.add_row({x: 1.0, y: 1.0, z: 1.0}, Rel.EQ, 2.0, basic=x)
    elif case == "fixed":
        lp.add_row({x: 1.0, y: 1.0}, Rel.EQ, 2.0, basic=x)
        lp.add_row({y: 1.0, z: -1.0}, Rel.LE, 0.5, basic=z)
    elif case == "claimed":  # the second row's claim on y is refused
        lp.add_row({x: 1.0, y: 1.0}, Rel.EQ, 1.5, basic=y)
        lp.add_row({y: 1.0, z: -1.0}, Rel.EQ, 0.0, basic=y)
    else:  # "singular": the two hinted columns are parallel in B
        lp.add_row({x: 1.0, y: 1.0, z: 1.0}, Rel.EQ, 2.0, basic=x)
        lp.add_row({x: 1.0, y: 1.0, z: -1.0}, Rel.EQ, 0.0, basic=y)
    return lp


@pytest.mark.parametrize("case", ["outside-bounds", "fixed", "claimed", "singular"])
def test_refused_crash_hints_still_solve(case):
    lp = crash_lp(case)
    sol = solve(lp)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(brute_force_min(lp), abs=1e-9)
    assert check_feasibility(lp, sol.values).ok(1e-9)


def test_crash_hint_that_fits_skips_phase_one():
    lp, x, _ = equality_pair_lp()  # y starts at 0, so x = 4 is within [0, 10]
    assert solve(lp).stats.dual_pivots > 0
    lp.rows = (dataclasses.replace(lp.rows[0], basic=x),)
    sol = solve(lp)
    assert sol.status is LpStatus.OPTIMAL and sol.stats.dual_pivots == 0
    assert sol.objective_value == pytest.approx(3.0, abs=1e-12)


def test_random_crash_hints_match_the_oracle():
    rng = np.random.default_rng(31)
    checked = 0
    for _ in range(60):
        lp = random_bounded_lp(rng)
        hinted = []
        for row in lp.rows:  # usually a column of the row, sometimes any
            pool = list(row.coeffs) if rng.random() < 0.8 else range(lp.n_variables)
            hinted.append(dataclasses.replace(row, basic=int(rng.choice(pool))))
        lp.rows = tuple(hinted)
        expected = brute_force_min(lp)
        sol = solve(lp)
        if expected is None:
            assert sol.status is LpStatus.INFEASIBLE
        else:
            assert sol.status is LpStatus.OPTIMAL
            assert sol.objective_value == pytest.approx(expected, abs=1e-6)
            checked += 1
    assert checked > 20


def test_hint_of_unknown_column_is_malformed():
    lp, x, _ = equality_pair_lp()
    lp.rows = (dataclasses.replace(lp.rows[0], basic=x + 5),)
    with pytest.raises(MalformedProblem, match="hints unknown variable index"):
        solve(lp)


def test_lshl_crash_start_cuts_phase_one():
    """The DistFlow crash basis covers all but a few equality rows of lshl."""
    from gridres.dispatch import build_baseline_lp
    from gridres.scenario import load_scenario

    scenario = load_scenario(SCENARIOS / "lshl.json")
    assert scenario.seed == 2026
    lp = build_baseline_lp(scenario.model, scenario.costs, scenario.build).lp
    sol = solve(lp, scenario.solver)
    ref = solve(lp, SolverOptions(backend="scipy"))
    assert sol.status is LpStatus.OPTIMAL
    assert sol.stats.dual_pivots <= 141  # 709 phase-1 pivots from an all-slack-and-artificial start
    assert sol.objective_value == pytest.approx(ref.objective_value, rel=1e-9)


def rebound(lp: LinearProgram, rng: np.random.Generator) -> None:
    """Move, shrink or fix the bounds of some columns; often enough to move
    the start's basic values out of their bounds, or to leave no feasible
    point at all."""
    for j in range(lp.n_variables):
        u = rng.random()
        if u < 0.4:
            lo = float(rng.uniform(-3.0, 1.0))
            lp.set_bounds(j, lo, lo + float(rng.uniform(0.0, 3.0)))
        elif u < 0.5:
            value = float(rng.uniform(-1.0, 1.0))
            lp.set_bounds(j, value, value)


def test_resolve_after_bound_changes_matches_oracle_and_highs(monkeypatch):
    """60 random LPs, a third of them without objective, re-solved from their
    basis after random bound changes: the same answer as the vertex oracle and
    HiGHS, and dual pivots bounded by max_iterations.  Every other LP runs
    with no degenerate pivot allowed before Bland's rule takes over."""
    rng = np.random.default_rng(61)
    highs = SolverOptions(backend="scipy")
    checked = 0
    seen = {"warm": 0, "dual": 0, "dual-infeasible": 0, "zero-objective": 0, "limited": 0}
    while checked < 60:
        lp = random_bounded_lp(rng)
        if checked % 3 == 0:
            lp.set_objective({})
        monkeypatch.setattr(lp_module, "BLAND_STALL", list(STALL.values())[checked % 2])
        options = SolverOptions()
        first = solve(lp, options)
        if first.status is not LpStatus.OPTIMAL:
            continue
        rebound(lp, rng)
        sol = solve(lp, options, start=first.kept)
        stats = sol.stats
        assert stats.start == "warm"
        assert stats.primal_pivots + stats.dual_pivots + stats.bound_flips == sol.iterations
        expected = brute_force_min(lp)
        ref = solve(lp, highs)
        assert sol.status == ref.status
        if expected is None:
            assert sol.status is LpStatus.INFEASIBLE
            rows = sol.infeasible_rows
            assert rows and rows == sorted(set(rows)) and 0 <= rows[0] <= rows[-1] < lp.n_rows
            seen["dual-infeasible"] += 1
        else:
            assert sol.status is LpStatus.OPTIMAL
            assert sol.objective_value == pytest.approx(expected, abs=1e-6)
            assert sol.objective_value == pytest.approx(ref.objective_value, abs=1e-6)
            assert check_feasibility(lp, sol.values).ok(options.feas_tol)
        if stats.dual_pivots > 1:
            with pytest.raises(IterationLimitExceeded, match=r"\(dual simplex\)"):
                solve(lp, SolverOptions(max_iterations=1), start=first.kept)
            seen["limited"] += 1
        seen["dual" if stats.dual_pivots else "warm"] += 1
        seen["zero-objective"] += not lp.objective
        checked += 1
    assert min(seen.values()) >= 5, seen


def test_dual_stall_falls_back_to_lowest_index(monkeypatch):
    """With no stall allowed, every dual pivot after a degenerate one picks
    by lowest index; the answers still match the oracle."""
    monkeypatch.setattr(lp_module, "BLAND_STALL", 0)
    rng = np.random.default_rng(8)
    fallbacks = 0
    for _ in range(80):
        lp = random_bounded_lp(rng)
        lp.set_objective({})  # every dual pivot is degenerate
        first = solve(lp)
        if first.status is not LpStatus.OPTIMAL:
            continue
        rebound(lp, rng)
        sol = solve(lp, start=first.kept)
        expected = brute_force_min(lp)
        assert sol.status is (LpStatus.INFEASIBLE if expected is None else LpStatus.OPTIMAL)
        if sol.stats.primal_pivots == 0:  # any fallback was the dual simplex's
            fallbacks += sol.stats.bland_entries
    assert fallbacks >= 5


def test_kept_row_coefficients_are_read_only():
    """A kept state answers for the rows it was solved on, so a row's
    coefficients cannot be edited in place; a changed row is a new Row,
    which the kept state refuses."""
    lp, x, y = equality_pair_lp()
    kept = solve(lp).kept
    with pytest.raises(TypeError):
        lp.rows[0].coeffs[y] = 2.0  # x + 2y = 4 would move x from 3 to 2
    assert solve(lp, start=kept).values[x] == pytest.approx(3.0, abs=1e-12)
    coeffs = {x: 1.0, y: 2.0}
    lp.rows = (Row(coeffs, Rel.EQ, 4.0),)
    coeffs[y] = 5.0  # the row holds its own copy
    with pytest.raises(MalformedProblem, match="belongs to another LinearProgram or rows"):
        solve(lp, start=kept)
    sol = solve(lp)
    assert sol.status is LpStatus.OPTIMAL and sol.values[x] == pytest.approx(2.0, abs=1e-12)


def test_only_a_kept_rows_rhs_can_be_reset():
    """A kept state re-reads only each row's rhs, so that is all of a Row
    that can change: rebinding its coefficients, relation, tag or crash hint
    raises, and a re-solve from the kept state answers as a cold solve of
    the LP as it stands."""
    lp, x, y = equality_pair_lp()
    kept = solve(lp).kept
    row = lp.rows[0]
    for name, value in [("coeffs", {x: 1.0, y: 2.0}), ("rel", Rel.GE), ("tag", "other"),
                        ("basic", x)]:
        with pytest.raises(AttributeError, match=f"Row.{name} is set once"):
            setattr(row, name, value)
    assert (dict(row.coeffs), row.rel, row.tag, row.basic) == ({x: 1.0, y: 1.0}, Rel.EQ, "", None)
    assert solve(lp, start=kept).values[x] == pytest.approx(3.0, abs=1e-12)
    row.rhs = 5.0
    warm, cold = solve(lp, start=kept), solve(lp)
    assert warm.values[x] == pytest.approx(cold.values[x], abs=1e-12)
    assert cold.values[x] == pytest.approx(4.0, abs=1e-12)


def test_kept_state_factors_its_basis_once():
    """A warm solve that pivoted ends on its LU and etas, so its kept state
    carries no factorization.  The first re-solve from it factors B and
    keeps the LU there; a second re-solve factors nothing and answers bit
    for bit as a re-solve that factors the same B itself."""
    rng = np.random.default_rng(2027)
    checked = 0
    while checked < 20:
        lp = random_bounded_lp(rng)
        first = solve(lp)
        if first.status is not LpStatus.OPTIMAL:
            continue
        rebound(lp, rng)
        second = solve(lp, start=first.kept)
        if second.status is not LpStatus.OPTIMAL or second.kept.lu is not None:
            continue
        kept = second.kept
        unfactored = dataclasses.replace(kept)  # the same state, before any re-solve
        rebound(lp, rng)
        once = solve(lp, start=kept)
        again = solve(lp, start=kept)
        own = solve(lp, start=unfactored)
        assert kept.lu is not None and unfactored.lu is not None
        assert own.stats == once.stats
        assert again.stats == dataclasses.replace(once.stats,
                                                  refactorizations=once.stats.refactorizations - 1)
        assert once.status == again.status == own.status
        if once.status is LpStatus.OPTIMAL:
            np.testing.assert_array_equal(again.values, once.values)
            np.testing.assert_array_equal(own.values, once.values)
        checked += 1


def test_warm_chain_matches_cold_solve_and_highs():
    """Cold, then warm from the cold solve's kept state, then warm from
    that warm solve's, the bounds moved before each re-solve."""
    rng = np.random.default_rng(2027)
    highs = SolverOptions(backend="scipy")
    chained = 0
    while chained < 40:
        lp = random_bounded_lp(rng)
        first = solve(lp)
        if first.status is not LpStatus.OPTIMAL:
            continue
        rebound(lp, rng)
        second = solve(lp, start=first.kept)
        if second.status is not LpStatus.OPTIMAL or not (
                second.stats.primal_pivots or second.stats.dual_pivots):
            continue
        assert second.stats.start == "warm"
        rebound(lp, rng)
        third = solve(lp, start=second.kept)
        cold = solve(lp)
        ref = solve(lp, highs)
        assert third.stats.start == "warm"
        assert third.status == cold.status == ref.status
        if third.status is LpStatus.OPTIMAL:
            assert third.objective_value == pytest.approx(cold.objective_value,
                                                          rel=1e-9, abs=1e-9)
            assert third.objective_value == pytest.approx(ref.objective_value, abs=1e-6)
            assert check_feasibility(lp, third.values).ok(SolverOptions().feas_tol)
        chained += 1


def test_warm_resolve_refactors_when_its_check_fails(monkeypatch):
    """A warm re-solve checks its answer through the LU and etas it pivoted
    on; if that check fails it refactors once and checks again."""
    lp, x, y = equality_pair_lp()
    start = solve(lp).kept
    lp.set_bounds(y, 2.0, 5.0)  # x_B = -1: one dual pivot
    plain = solve(lp, start=start)
    assert plain.stats.dual_pivots == 1 and plain.stats.refactorizations == 0
    assert plain.kept.lu is None  # an eta is pending

    real = lp_module._Assembled.feasibility
    reports = []

    def failing(fails):
        def feasibility(self, point, tol):
            report = real(self, point, tol)
            reports.append(report)
            if len(reports) <= fails:
                report = dataclasses.replace(report, max_row_residual=2.0 * tol)
            return report
        return feasibility

    monkeypatch.setattr(lp_module._Assembled, "feasibility", failing(1))
    sol = solve(lp, start=start)
    assert len(reports) == 2 and sol.stats.refactorizations == 1
    assert sol.status is LpStatus.OPTIMAL
    np.testing.assert_array_equal(sol.values, plain.values)
    assert sol.kept.lu is not None  # the fresh factorization of the final B

    reports.clear()
    monkeypatch.setattr(lp_module._Assembled, "feasibility", failing(2))
    with pytest.raises(ArithmeticError, match="simplex finished with residual"):
        solve(lp, start=start)
    assert len(reports) == 2
