"""Sparse linear programs and a deterministic bounded-variable simplex solver.

Every optimization in the toolkit lowers to a :class:`LinearProgram`: a list of
bounded variables, a minimize objective, and sparse constraint rows with
relations in {<=, =, >=}.  Solving, the feasibility check and the HiGHS
backend all start from one assembly of the program: its constraint matrix A
as one scipy CSR matrix, plus bounds, objective and right-hand sides.

The built-in solver is a revised simplex in bounded-variable form over the
sparse matrix [A | I], held in CSC form: column n + r is the logical
variable of row r, in [0, inf) for a "<=" row, (-inf, 0] for a ">=" row and
[0, 0] for an equality row (Maros 2003, ch. 9).  Every product and slice of
the solver goes through that one matrix: the basis B is its columns in the
basis, kept as a sparse LU factorization (SuperLU with the fixed COLAMD
column order) followed by product-form eta updates and refactorized after a
fixed number of them; reduced costs are c - [A | I]^T y with y = B^-T c_B,
and no dense tableau is ever formed.  Every solve takes one path:

1. It starts from a basis, a cold solve's crash basis or a warm one's kept
   basis (see below), in one way: each nonbasic column at a bound, a warm
   solve's at its kept one where it can, and B's LU, kept or factored.
2. If the basic values x_B = B^-1 (b - N x_N) are outside their bounds, a
   bounded dual simplex with bound flipping (Koberstein 2005; Maros 2003)
   drives them into their bounds.  It prices by the LP's costs when the
   basis is dual feasible for them, and otherwise by zero costs, under which
   every basis is (Koberstein's cost-modification dual phase 1).  A row that
   no column can bring within its bounds proves the LP infeasible.
3. The primal simplex pivots to optimality.
4. x_B is re-solved and every row and bound checked at feas_tol.  A cold
   solve re-solves it from a fresh factorization of B; a warm one (see
   below) through the factorization and etas it pivoted on, and factors B
   afresh, re-solves and checks again only if that check fails: like other
   simplex codes, it refactors on eta growth or numerical trouble rather
   than on every return (Maros 2003; Koberstein 2005).

In the primal, the column with the largest reduced-cost gain enters
(Dantzig's rule, the lowest index on ties), and among tied ratios the lowest
basic index leaves.  A fixed column that leaves never enters again.
In the dual, the largest bound violation leaves.  After BLAND_STALL
degenerate pivots in a row either loop takes the lowest eligible index
(Bland's rule) until a pivot makes progress; every zero-cost dual pivot is
degenerate, so a cold solve whose dual is longer than that enters Bland's
rule once and keeps it.

The crash basis (Bixby 1992): a row may name a column to start basic in its
position (`Row.basic`).  The solver takes it as a hint only, refusing a fixed
column and one an earlier row claimed, and dropping every hint if they make
B singular.  Every other row starts with its logical, so without hints the
start is all logicals.  The feeder rows name the columns that make B
triangular along the tree (see :mod:`gridres.constraints`).

An optimal solve returns a kept state (:class:`KeptSimplex`): the LP's rows,
assembled once per `rows` tuple, its final basis and the LU of B: the one
warm start, re-solving the same LP after its bounds, objective or rhs moved.
The solver is fully deterministic: identical inputs produce
bitwise-identical outputs.  A scipy/HiGHS backend can be selected through
:class:`SolverOptions`; the built-in simplex remains the reference
implementation and the one exercised by the oracle tests.
"""

from __future__ import annotations

import enum
import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter, methodcaller
from types import MappingProxyType

import numpy as np


class Rel(str, enum.Enum):
    LE = "<="
    EQ = "="
    GE = ">="


class LpStatus(str, enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class MalformedProblem(ValueError):
    """The LP violates a structural invariant (dangling index, NaN, bad bounds)."""


class IterationLimitExceeded(RuntimeError):
    """The simplex hit its iteration cap before proving optimality."""

    def __init__(self, iterations: int, loop: str):
        self.iterations = iterations
        self.loop = loop  # "primal" or "dual"
        super().__init__(
            f"simplex iteration limit reached after {iterations} iterations ({loop} simplex)"
        )


class DimensionMismatch(ValueError):
    pass


@dataclass(init=False)
class Row:
    """sum(coeffs[j] x_j) <rel> rhs.  An LP's assembled rows answer for the
    rows they were built from, so only `rhs` may be re-set; the other fields
    are set once, the coefficients as a read-only copy."""

    coeffs: Mapping[int, float]
    rel: Rel
    rhs: float
    tag: str = ""
    # a column to start basic in this row's position; a hint the solver may drop
    basic: int | None = None

    def __init__(self, coeffs: Mapping[int, float], rel: Rel, rhs: float, tag: str = "",
                 basic: int | None = None) -> None:
        state = self.__dict__  # set here once, past __setattr__, which re-sets only rhs
        state["coeffs"], state["rel"], state["rhs"] = MappingProxyType(dict(coeffs)), rel, rhs
        state["tag"], state["basic"] = tag, basic

    def __setattr__(self, name: str, value) -> None:
        if name != "rhs":
            raise AttributeError(f"Row.{name} is set once; a changed row is a new Row")
        self.__dict__[name] = value


BACKENDS = ("simplex", "scipy")
PIVOT_TOL = 1e-9  # smallest |pivot| the ratio test accepts
BLAND_STALL = 40  # degenerate pivots before Dantzig's rule falls back to Bland's


@dataclass(frozen=True)
class SolverOptions:
    """Solver settings; invalid values raise ValueError on construction."""

    feas_tol: float = 1e-7
    opt_tol: float = 1e-7
    max_iterations: int | None = None  # None: 50 (rows + columns of [A | I]) + 1000
    backend: str = "simplex"  # or "scipy" (HiGHS)

    def __post_init__(self) -> None:
        cap = self.max_iterations
        if cap is not None and (isinstance(cap, bool) or not isinstance(cap, int) or cap < 0):
            raise ValueError(f"max_iterations must be a non-negative integer, got {cap!r}")
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown solver backend {self.backend!r}; "
                             f"expected one of {', '.join(BACKENDS)}")
        for name in ("feas_tol", "opt_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be a positive finite number, got {value!r}")


class LinearProgram:
    """Minimize c.x subject to sparse rows and variable bounds.

    `rows` is a tuple that :meth:`add_row` rebinds.  The solver keeps the
    assembly of `rows` here, and reads the rest afresh on every :func:`solve`.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.lower: list[float] = []
        self.upper: list[float] = []
        self.objective: dict[int, float] = {}
        self.rows: tuple[Row, ...] = ()
        self._name_set: set[str] = set()
        self._assembled_rows: _Rows | None = None

    @property
    def n_variables(self) -> int:
        return len(self.names)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def add_variable(self, name: str, lower: float = -math.inf, upper: float = math.inf) -> int:
        if name in self._name_set:
            raise MalformedProblem(f"duplicate variable name {name!r}")
        if math.isnan(lower) or math.isnan(upper):
            raise MalformedProblem(f"NaN bound on variable {name!r}")
        if lower > upper:
            raise MalformedProblem(f"lower > upper on variable {name!r} ({lower} > {upper})")
        idx = len(self.names)
        self.names.append(name)
        self.lower.append(float(lower))
        self.upper.append(float(upper))
        self._name_set.add(name)
        return idx

    def set_bounds(self, idx: int, lower: float, upper: float) -> None:
        if not 0 <= idx < self.n_variables:
            raise MalformedProblem(f"bounds set on unknown variable index {idx}")
        if math.isnan(lower) or math.isnan(upper):
            raise MalformedProblem(f"NaN bound on variable {self.names[idx]!r}")
        if lower > upper:
            raise MalformedProblem(f"lower > upper on variable {self.names[idx]!r}")
        self.lower[idx] = float(lower)
        self.upper[idx] = float(upper)

    def add_objective_term(self, idx: int, coeff: float) -> None:
        self.objective[idx] = self.objective.get(idx, 0.0) + float(coeff)

    def set_objective(self, coeffs: dict[int, float]) -> None:
        self.objective = {int(k): float(v) for k, v in coeffs.items()}

    def add_row(self, coeffs: dict[int, float], rel: Rel, rhs: float, tag: str = "",
                basic: int | None = None) -> int:
        merged: dict[int, float] = {}
        for k, v in coeffs.items():
            merged[int(k)] = merged.get(int(k), 0.0) + float(v)
        self.rows += (Row(merged, Rel(rel), float(rhs), tag, basic),)
        return len(self.rows) - 1

    def to_lp_text(self, name: str = "problem") -> str:
        """Render in CPLEX-LP style text for cross-checking with external solvers."""

        def var(idx: int) -> str:
            raw = self.names[idx]
            return raw.replace("[", "(").replace("]", ")").replace(",", "_").replace(" ", "")

        def terms(coeffs: dict[int, float]) -> str:
            parts = []
            for idx in sorted(coeffs):
                v = coeffs[idx]
                sign = "-" if v < 0 else "+"
                parts.append(f"{sign} {abs(v):.17g} {var(idx)}")
            text = " ".join(parts) if parts else "0"
            return text[2:] if text.startswith("+ ") else text

        lines = [f"\\ {name}", "Minimize", f" obj: {terms(self.objective)}", "Subject To"]
        for ri, row in enumerate(self.rows):
            lines.append(f" c{ri}: {terms(row.coeffs)} {row.rel.value} {row.rhs:.17g}")
        lines.append("Bounds")
        for idx in range(self.n_variables):
            lo, hi = self.lower[idx], self.upper[idx]
            if lo == hi:
                lines.append(f" {var(idx)} = {lo:.17g}")
            elif lo == -math.inf and hi == math.inf:
                lines.append(f" {var(idx)} free")
            elif hi == math.inf:
                lines.append(f" {var(idx)} >= {lo:.17g}")
            elif lo == -math.inf:
                lines.append(f" -inf <= {var(idx)} <= {hi:.17g}")
            else:
                lines.append(f" {lo:.17g} <= {var(idx)} <= {hi:.17g}")
        lines.append("End")
        return "\n".join(lines) + "\n"


@dataclass
class SolveStats:
    """How the built-in simplex started and where it spent its iterations.

    Primal and dual pivots plus bound flips sum to
    :attr:`LpSolution.iterations`.
    """

    # "cold" (the crash basis) or "warm" (the basis of a kept state)
    start: str = "cold"
    primal_pivots: int = 0
    dual_pivots: int = 0
    bound_flips: int = 0
    # times a loop fell back to Bland's rule after a degenerate stall; once
    # on a cold solve whose zero-cost dual runs longer than BLAND_STALL pivots
    bland_entries: int = 0
    # sparse LU factorizations of the basis: a cold solve's crash basis and
    # final check factor one each; a warm solve factors the kept B only if
    # no solve has factored it yet, and its own only if its check through
    # the etas fails
    refactorizations: int = 0

    @property
    def iterations(self) -> int:
        return self.primal_pivots + self.dual_pivots + self.bound_flips


@dataclass
class KeptSimplex:
    """An optimal simplex solve's assembled rows, final basis, statuses and
    LU of B, to re-solve the same LinearProgram in place: ``solve(lp,
    start=kept)`` re-reads only its bounds, objective and right-hand sides,
    and starts from this basis the way a cold solve starts from its crash
    basis; an LP assembled from other rows raises :class:`MalformedProblem`.
    A solve that ended with etas pending keeps no LU: the first re-solve
    factors B and stores its LU here, the only write to a kept state."""

    rows: _Rows = field(repr=False)
    basic: np.ndarray  # the column of [A | I] in each row's basis position
    status: np.ndarray  # bound status of every structural and logical column
    lu: object = field(repr=False)  # SuperLU of B; None until B is factored


@dataclass
class LpSolution:
    status: LpStatus
    values: np.ndarray | None = None
    objective_value: float | None = None
    iterations: int = 0
    # an infeasibility certificate: the rows, in order, where rho = B^-T e_r
    # of the dual simplex's unsatisfiable row r is nonzero (relative to
    # max |rho|); they are infeasible together under the column bounds.  The
    # HiGHS backend gives no certificate: empty unless the LP has no columns
    infeasible_rows: list[int] = field(default_factory=list)
    # built-in simplex only; None from the HiGHS backend
    stats: SolveStats | None = None
    # built-in simplex and OPTIMAL only
    kept: KeptSimplex | None = field(default=None, repr=False)


@dataclass
class FeasibilityReport:
    max_row_residual: float
    max_bound_violation: float
    violations: list[tuple[int, float]]  # (row index, positive residual)

    def ok(self, tol: float) -> bool:
        return self.max_row_residual <= tol and self.max_bound_violation <= tol


# row relation codes: the sign that turns a row into "<=" (0 for equality)
_LE, _EQ, _GE = 1, 0, -1
_REL_CODE = {Rel.LE: _LE, Rel.EQ: _EQ, Rel.GE: _GE}


@dataclass(frozen=True)
class _Rows:
    """The rows of a validated :class:`LinearProgram`: everything of an
    assembly but bounds, objective and rhs.

    `A` is the constraint matrix in CSR form, each row's nonzeros in the
    order of its coefficient dict; it is never sorted, so every product sums
    a row in that order.
    """

    source: tuple[Row, ...]  # the `rows` tuple these were built from
    A: object  # scipy.sparse.csr_matrix, rows x columns
    rel: np.ndarray  # _LE, _EQ or _GE per row
    basic: np.ndarray  # each row's hinted starting column (Row.basic), -1 for none

    @cached_property
    def AI(self):
        """[A | I] in CSC form, rows ascending within each column: the
        simplex's columns, shared by every solve of these rows."""
        from scipy.sparse import hstack, identity

        return hstack([self.A.tocsc(), identity(len(self.rel), format="csc")], format="csc")

    @cached_property
    def AT(self):
        """The transpose of :attr:`AI`, a CSR view of its arrays for [A | I]^T y."""
        return self.AI.T

    @cached_property
    def logical_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """The bounds of each row's logical column: [0, inf) for "<=",
        (-inf, 0] for ">=" and [0, 0] for "="."""
        return (np.where(self.rel == _GE, -np.inf, 0.0),
                np.where(self.rel == _LE, np.inf, 0.0))


@dataclass(frozen=True)
class _Assembled:
    """A validated :class:`LinearProgram` as arrays: its rows, bounds,
    objective and right-hand sides.  The simplex, :func:`check_feasibility`
    and the HiGHS backend all read this one assembly.
    """

    rows: _Rows
    lower: np.ndarray
    upper: np.ndarray
    cost: np.ndarray
    rhs: np.ndarray

    def row_activity(self, x: np.ndarray) -> np.ndarray:
        """A @ x, summed in each row's coefficient order."""
        return self.rows.A @ x

    def feasibility(self, point: np.ndarray, tol: float) -> FeasibilityReport:
        diff = self.row_activity(point) - self.rhs
        rel = self.rows.rel
        resid = np.maximum(np.where(rel == _EQ, np.abs(diff), diff * rel), 0.0)
        violations = [(int(ri), float(resid[ri])) for ri in np.flatnonzero(resid > tol)]
        bound_viol = np.maximum(self.lower - point, point - self.upper)
        return FeasibilityReport(float(resid.max(initial=0.0)),
                                 float(max(bound_viol.max(initial=0.0), 0.0)), violations)


def _columns(lp: LinearProgram) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each column's bounds and cost; raises :class:`MalformedProblem` on the
    first defect (bounds first, then the objective)."""
    n = lp.n_variables
    lower = np.array(lp.lower, dtype=float)
    upper = np.array(lp.upper, dtype=float)
    nan = np.isnan(lower) | np.isnan(upper)
    bad = nan | (lower > upper) | (lower == np.inf) | (upper == -np.inf)
    if bad.any():
        i = int(np.argmax(bad))
        what = ("NaN bound" if nan[i] else "lower > upper" if lower[i] > upper[i]
                else "lower bound +inf" if lower[i] == np.inf else "upper bound -inf")
        raise MalformedProblem(f"{what} on variable {lp.names[i]!r}")

    obj_idx = np.fromiter(lp.objective.keys(), dtype=np.int64, count=len(lp.objective))
    obj_val = np.fromiter(lp.objective.values(), dtype=float, count=len(lp.objective))
    outside = (obj_idx < 0) | (obj_idx >= n)
    bad = outside | ~np.isfinite(obj_val)
    if bad.any():
        i = int(np.argmax(bad))
        if outside[i]:
            raise MalformedProblem(f"objective references unknown variable index {obj_idx[i]}")
        raise MalformedProblem(f"non-finite objective coefficient on index {obj_idx[i]}")
    cost = np.zeros(n)
    cost[obj_idx] = obj_val
    return lower, upper, cost


def _assemble(lp: LinearProgram) -> _Assembled:
    """Arrays of `lp`; raises :class:`MalformedProblem` on the first defect
    (bounds first, then the objective, then the rows in order).  The rows'
    arrays are built once per `lp.rows` tuple and column count."""
    from scipy.sparse import csr_matrix

    lower, upper, cost = _columns(lp)
    n, m = lp.n_variables, lp.n_rows
    rows, kept = lp.rows, lp._assembled_rows
    rhs = np.fromiter(map(attrgetter("rhs"), rows), dtype=float, count=m)
    if kept is not None and kept.source is rows and kept.A.shape[1] == n:
        if not np.isfinite(rhs).all():
            raise MalformedProblem(f"non-finite rhs on row {int(np.argmax(~np.isfinite(rhs)))}")
        return _Assembled(kept, lower, upper, cost, rhs)
    coeffs = list(map(attrgetter("coeffs"), rows))
    counts = np.fromiter(map(len, coeffs), dtype=np.int64, count=m)
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    nnz = int(indptr[-1])
    cols = np.fromiter(itertools.chain.from_iterable(coeffs), dtype=np.int64, count=nnz)
    vals = np.fromiter(itertools.chain.from_iterable(map(methodcaller("values"), coeffs)),
                       dtype=float, count=nnz)
    rel = np.fromiter(map(_REL_CODE.__getitem__, map(attrgetter("rel"), rows)),
                      dtype=np.int64, count=m)
    basic = np.fromiter((-1 if row.basic is None else row.basic for row in rows),
                        dtype=np.int64, count=m)

    outside = (cols < 0) | (cols >= n)
    bad_nz = outside | ~np.isfinite(vals)
    bad_row = ~np.isfinite(rhs) | (basic < -1) | (basic >= n)
    bad_row[np.searchsorted(indptr, np.flatnonzero(bad_nz), side="right") - 1] = True
    if bad_row.any():
        ri = int(np.argmax(bad_row))
        if not math.isfinite(rhs[ri]):
            raise MalformedProblem(f"non-finite rhs on row {ri}")
        if not -1 <= basic[ri] < n:
            raise MalformedProblem(f"row {ri} hints unknown variable index {basic[ri]}")
        k = int(indptr[ri] + np.argmax(bad_nz[indptr[ri]:indptr[ri + 1]]))
        if outside[k]:
            raise MalformedProblem(f"row {ri} references unknown variable index {cols[k]}")
        raise MalformedProblem(f"non-finite coefficient on row {ri}, index {cols[k]}")
    lp._assembled_rows = _Rows(rows, csr_matrix((vals, cols, indptr), shape=(m, n)), rel, basic)
    return _Assembled(lp._assembled_rows, lower, upper, cost, rhs)


def check_feasibility(lp: LinearProgram, point: np.ndarray, tol: float = 0.0) -> FeasibilityReport:
    """Evaluate every row and bound of `lp` at `point`.

    Residuals are one-sided: satisfied rows contribute 0, an equality row
    contributes its absolute mismatch.  Rows with residual > `tol` are listed
    in row order.
    """
    point = np.asarray(point, dtype=float)
    if point.shape != (lp.n_variables,):
        raise DimensionMismatch(
            f"point has shape {point.shape}, expected ({lp.n_variables},)"
        )
    return _assemble(lp).feasibility(point, tol)


def solve(lp: LinearProgram, options: SolverOptions | None = None,
          start: KeptSimplex | None = None) -> LpSolution:
    """Solve `lp` to optimality, infeasibility, or unboundedness.

    Optimal solutions satisfy all rows and bounds to `feas_tol` and are optimal
    to `opt_tol`.  Deterministic: repeated calls on equal inputs return
    bitwise-equal values.  Raises :class:`MalformedProblem` on structural
    defects and :class:`IterationLimitExceeded` rather than ever returning a
    silently suboptimal "optimal".

    `start` is an earlier optimal solve's :attr:`LpSolution.kept` state, to
    re-solve that same LP, assembled from the same rows, in place; any other
    start raises :class:`MalformedProblem`.  Its nonbasic columns keep their
    bounds while those are finite and not fixed, and are otherwise placed as
    on a cold solve.  The HiGHS backend ignores `start`."""
    options = options or SolverOptions()
    if start is not None and not isinstance(start, KeptSimplex):
        raise MalformedProblem(f"start must be a KeptSimplex, not {type(start).__name__}")
    mat = _assemble(lp)
    if start is not None and start.rows is not mat.rows:
        m, n = start.rows.A.shape
        raise MalformedProblem(f"kept start belongs to another LinearProgram or rows: solved on "
                               f"{m} rows and {n} columns; the problem has {lp.n_rows} and "
                               f"{lp.n_variables}")
    if not lp.n_variables:  # each row reads 0 <rel> rhs
        stats = SolveStats() if options.backend == "simplex" else None
        bad = [ri for ri, _ in mat.feasibility(np.zeros(0), options.feas_tol).violations]
        if bad:
            return LpSolution(LpStatus.INFEASIBLE, infeasible_rows=bad, stats=stats)
        return LpSolution(LpStatus.OPTIMAL, values=np.zeros(0), objective_value=0.0,
                          stats=stats)
    if options.backend == "scipy":
        return _solve_scipy(mat)
    return _BoundedSimplex(mat, options).run(start)


# status codes for nonbasic/basic variables
_BASIC = 0
_AT_LO = 1
_AT_HI = 2
_FREE = 3
_FIXED = 4
# per status: two factors on a reduced cost d whose maximum is the gain of
# moving the variable off its bound (-d at a lower, d at an upper, |d| free)
_GAIN_DIRS = ((0.0, 0.0), (-1.0, -1.0), (1.0, 1.0), (1.0, -1.0), (0.0, 0.0))
_GAIN_DIRS_T = np.array(_GAIN_DIRS).T.copy()  # row f holds factor f of every status
_NO_TIE = np.iinfo(np.int64).max

# Eta updates between refactorizations of the basis.  Applying the etas costs
# a few vector operations per FTRAN and BTRAN, of length growing with their
# number, and a refactorization one sparse LU of B.  Of 16 to 128, 64 was
# fastest on the 241-row advset LPs and within noise of 32 on the 3k-row
# dispatch LPs.
_REFACTOR_EVERY = 64


class _Basis:
    """The inverse of the basis matrix in product form: B^-1 = E_K ... E_1 LU^-1.

    LU is a SuperLU factorization of the basis at the last refactorization.
    The eta E_k of the k-th pivot since then is kept as the FTRAN column w of
    its entering variable with w[r_k] zeroed (row k of `etas`), its pivot row
    r_k and its pivot w[r_k].  E_k^T changes only entry r_k of a vector, and
    that entry depends on the other etas only through their pivot rows, so
    all K etas apply as one K x K triangular solve.  `tri` holds the
    pivots on its diagonal and, in column k above it, what the earlier etas
    contribute to row r_k: -1 in the row of the previous eta on r_k, if any,
    and nothing from etas before that one, whose value E_k replaces.
    """

    def __init__(self, m: int):
        from scipy.linalg.lapack import dtrtrs

        self._dtrtrs = dtrtrs
        size = _REFACTOR_EVERY
        self.lu = None
        self.count = 0
        self.etas = np.zeros((size, m))
        self.rows = np.zeros(size, dtype=np.int64)
        self.tri = np.zeros((size, size), order="F")
        # unit diagonal and the off-diagonal part of `tri`
        self.unit_tri = np.zeros((size, size))
        # later[i, k] = etas[k, rows[i]], what eta k subtracts from row r_i (i < k)
        self.later = np.zeros((size, size))
        self.first = np.zeros(size)  # 1.0 on the first eta of each row
        self.last = np.zeros(size, dtype=bool)  # the latest eta of each row
        self._latest: dict[int, int] = {}

    def factor(self, B) -> None:
        from scipy.sparse.linalg import splu

        try:
            self.lu = splu(B, permc_spec="COLAMD")
        except RuntimeError as err:  # SuperLU reports an exactly singular B
            raise ArithmeticError(f"simplex basis became singular: {err}") from err
        self.count = 0
        self._latest.clear()

    def ftran(self, v: np.ndarray) -> np.ndarray:
        """B^-1 v."""
        x = self.lu.solve(v)
        k = self.count
        if k:
            rows = self.rows[:k]
            # t[k]: entry r_k as E_k sets it, the multiple of eta k subtracted
            t = self._dtrtrs(self.tri[:k, :k], x[rows] * self.first[:k], trans=1)[0]
            x -= self.etas[:k].T @ t
            # a pivot row keeps the value its last eta set, less later etas
            last = self.last[:k]
            x[rows[last]] = (t - self.later[:k, :k] @ t)[last]
        return x

    def btran(self, v: np.ndarray) -> np.ndarray:
        """B^-T v."""
        k = self.count
        if k:
            rows = self.rows[:k]
            # u[k]: entry r_k as E_k^T sets it; the first eta on a row acts last
            rhs = self.unit_tri[:k, :k] @ v[rows] - self.etas[:k] @ v
            u = self._dtrtrs(self.tri[:k, :k], rhs)[0]
            v = v.copy()
            first = self.first[:k] > 0.0
            v[rows[first]] = u[first]
        return self.lu.solve(v, trans="T")

    def push(self, r: int, w: np.ndarray) -> bool:
        """Record the pivot on row `r` of the FTRAN column `w`; True when the
        etas are full and the basis must be refactorized."""
        k = self.count
        eta = self.etas[k]
        eta[:] = w
        eta[r] = 0.0
        above = self.etas[:k, r].copy()
        prev = self._latest.get(r)
        if prev is not None:
            above[:prev] = 0.0
            above[prev] = -1.0
            self.last[prev] = False
        self.tri[:k, k] = above
        self.tri[k, k] = w[r]
        self.unit_tri[:k, k] = above
        self.unit_tri[k, k] = 1.0
        self.later[:k, k] = eta[self.rows[:k]]
        self.first[k] = prev is None
        self.last[k] = True
        self.rows[k] = r
        self._latest[r] = k
        self.count = k + 1
        return self.count == _REFACTOR_EVERY


class _BoundedSimplex:
    """Revised simplex over variables with general bounds: a bounded dual
    simplex to feasibility, then the primal simplex to optimality.

    Columns are the structural variables followed by one logical per row
    (in [0, inf) for LE, (-inf, 0] for GE, [0, 0] for EQ).  A fixed logical
    may only leave the basis.
    """

    def __init__(self, mat: _Assembled, opt: SolverOptions):
        self.mat = mat
        self.opt = opt
        n = len(mat.lower)
        m = len(mat.rhs)
        self.n = n
        self.m = m

        self.N = N = n + m
        # [A | I], its transpose and the logicals' bounds, shared by
        # re-solves of the same rows
        self.AI, self.AT = mat.rows.AI, mat.rows.AT
        logical_lo, logical_hi = mat.rows.logical_bounds
        self.lo = np.concatenate([mat.lower, logical_lo])
        self.hi = np.concatenate([mat.upper, logical_hi])
        self.c = np.concatenate([mat.cost, np.zeros(m)])

        self.gain = np.empty((2, N))
        self.t_rows = np.empty(m)
        self.B = _Basis(m)
        self.stats = SolveStats()

    def _crash_basis(self) -> np.ndarray:
        """Each row's basis position takes the row's hinted column unless that
        column is fixed or an earlier row claimed it, else the row's logical."""
        basis = self.n + np.arange(self.m)
        hint = self.mat.rows.basic
        rows = np.flatnonzero(hint >= 0)
        rows = rows[self.lo[hint[rows]] != self.hi[hint[rows]]]
        _, first = np.unique(hint[rows], return_index=True)  # the first row's claim
        rows = rows[first]
        basis[rows] = hint[rows]
        return basis

    def _start(self, basis: np.ndarray, kept: KeptSimplex | None) -> None:
        """Take `basis`, with each nonbasic column at its bound in `kept` while
        that bound is finite and not fixed, else at its finite bound nearer
        zero (0 if it has none), then B's LU, the kept one or B factored here
        and stored in `kept`, and x_B."""
        lo, hi = self.lo, self.hi
        flo, fhi = np.isfinite(lo), np.isfinite(hi)
        st = np.where(flo, _AT_LO, np.where(fhi, _AT_HI, _FREE)).astype(np.int8)
        st[flo & fhi & (np.abs(lo) > np.abs(hi))] = _AT_HI
        if kept is not None:
            keep = ((kept.status == _AT_LO) & flo) | ((kept.status == _AT_HI) & fhi)
            st[keep] = kept.status[keep]
        st[lo == hi] = _FIXED
        self.xval = np.where(st == _AT_HI, hi, np.where(st == _FREE, 0.0, lo))
        st[basis] = _BASIC
        self.status, self.basis = st, basis.copy()  # pivots rewrite it; a kept one stays
        self.dirs = np.take(_GAIN_DIRS_T, st, axis=1)
        if kept is not None and kept.lu is not None:
            self.B.lu = kept.lu
        else:
            self._refactor()
            if kept is not None:
                kept.lu = self.B.lu
        self.x_B = self._basic_values()

    def _outside(self) -> np.ndarray:
        """The basis positions whose x_B is outside the bounds of their
        column by more than feas_tol."""
        self._price_basis(self.c)
        tol = self.opt.feas_tol
        return (self.x_B < self.lo_B - tol) | (self.x_B > self.hi_B + tol)

    def _refactor(self) -> None:
        self.B.factor(self.AI[:, self.basis])
        self.stats.refactorizations += 1

    # -- entering column ---------------------------------------------------------

    def _set_status(self, j: int, st: int) -> None:
        self.status[j] = st
        self.dirs[0, j], self.dirs[1, j] = _GAIN_DIRS[st]

    def _reduced_costs(self, cost: np.ndarray, c_B: np.ndarray) -> np.ndarray:
        """d = cost - [A | I]^T y with y = B^-T c_B, which is 0 when c_B is."""
        if not c_B.any():
            return cost.copy()
        return cost - self.AT @ self.B.btran(c_B)

    def _entering(self, d: np.ndarray, bland: bool) -> tuple[int, int] | None:
        tol = self.opt.opt_tol
        gain = np.multiply(self.dirs, d, out=self.gain)
        gain = np.maximum(gain[0], gain[1], out=gain[0])
        j = int((gain > tol).argmax() if bland else gain.argmax())
        if gain[j] <= tol:
            return None
        # an eligible column at its lower bound has d < 0, at its upper d > 0
        return j, (-1 if d[j] > 0.0 else +1)

    # -- core loop ---------------------------------------------------------------

    def run(self, start: KeptSimplex | None = None) -> LpSolution:
        warm = start is not None
        if warm:
            self._start(start.basic, start)
        else:
            try:
                self._start(self._crash_basis(), None)
            except ArithmeticError:  # the hints make B singular: drop them all
                self._start(self.n + np.arange(self.m), None)
        self.stats.start = "warm" if warm else "cold"
        max_iter = self.opt.max_iterations
        if max_iter is None:
            max_iter = 50 * (self.m + self.N) + 1000

        if self._outside().any():
            # the LP's costs if the basis is dual feasible for them, else zero
            d = self._reduced_costs(self.c, self.c_B)
            dual_cost = self.c if self._entering(d, bland=False) is None else np.zeros(self.N)
            bad = self._dual(dual_cost, max_iter)
            if bad is not None:
                return LpSolution(LpStatus.INFEASIBLE, iterations=self.stats.iterations,
                                  infeasible_rows=bad, stats=self.stats)
        if self._iterate(max_iter) == "unbounded":
            return LpSolution(LpStatus.UNBOUNDED, iterations=self.stats.iterations,
                              stats=self.stats)
        return self._finish(warm)

    def _price_basis(self, cost: np.ndarray) -> None:
        """Price the columns at `cost`, and take the bounds and cost of the
        variable in each basis position."""
        self.cost = cost
        self.lo_B = self.lo[self.basis]
        self.hi_B = self.hi[self.basis]
        self.c_B = cost[self.basis]

    def _column(self, j: int) -> np.ndarray:
        """B^-1 a_j for column j of [A | I]."""
        AI = self.AI
        nz = slice(AI.indptr[j], AI.indptr[j + 1])
        a = np.zeros(self.m)
        a.put(AI.indices[nz], AI.data[nz])
        return self.B.ftran(a)

    def _flip(self, j: int) -> None:
        """Move nonbasic column j to its other bound; the caller moves x_B."""
        to_hi = self.status[j] == _AT_LO
        self._set_status(j, _AT_HI if to_hi else _AT_LO)
        self.xval[j] = self.hi[j] if to_hi else self.lo[j]
        self.stats.bound_flips += 1

    def _pivot(self, r: int, q: int, col: np.ndarray, theta: float, to_lo: bool) -> None:
        """Column q, with FTRAN column `col`, enters basis position r as it
        moves by `theta`; the leaving column stays at the bound it reached,
        its lower one if `to_lo`, and a fixed one never enters again."""
        enter_val = self.xval[q] + theta
        self.x_B -= col * theta
        leave = self.basis[r]
        fixed = self.lo_B[r] == self.hi_B[r]
        self._set_status(leave, _FIXED if fixed else _AT_LO if to_lo else _AT_HI)
        self.xval[leave] = self.lo_B[r] if to_lo else self.hi_B[r]
        self.basis[r] = q
        self._set_status(q, _BASIC)
        self.x_B[r] = enter_val
        self.lo_B[r], self.hi_B[r], self.c_B[r] = self.lo[q], self.hi[q], self.cost[q]
        if self.B.push(r, col):
            self._refactor()

    def _iterate(self, max_iter: int) -> str | None:
        """Primal simplex from a basis whose x_B is within its bounds to the
        optimum of the LP's objective; "unbounded" if there is none."""
        m = self.m
        stats = self.stats
        self._price_basis(self.c)
        lo_B, hi_B, c_B = self.lo_B, self.hi_B, self.c_B
        t_rows = self.t_rows
        stall = 0
        fallback = False
        d = None

        while True:
            if d is None:  # the basis changed; a bound flip leaves d as it is
                d = self._reduced_costs(self.cost, c_B)
            if not fallback and stall > BLAND_STALL:
                stats.bland_entries += 1
            fallback = stall > BLAND_STALL
            pick = self._entering(d, fallback)
            if pick is None:
                return None
            j, sigma = pick
            if stats.iterations >= max_iter:
                raise IterationLimitExceeded(stats.iterations + 1, "primal")

            col = self._column(j)
            w = col if sigma > 0 else -col

            # ratio test: the step at which each basic variable reaches the
            # bound it moves towards
            t_rows.fill(np.inf)
            np.divide(self.x_B - np.where(w > 0.0, lo_B, hi_B), w,
                      out=t_rows, where=np.abs(w) > PIVOT_TOL)
            np.maximum(t_rows, 0.0, out=t_rows)
            t_min = float(t_rows.min()) if m else np.inf

            lo_j, hi_j = self.lo[j], self.hi[j]
            t_bound = hi_j - lo_j if (math.isfinite(lo_j) and math.isfinite(hi_j)) else np.inf

            if t_bound <= t_min:
                if not math.isfinite(t_bound):
                    return "unbounded"
                self.x_B -= w * t_bound
                self._flip(j)
                stall = stall + 1 if t_bound <= 1e-11 else 0
                continue
            if not math.isfinite(t_min):
                return "unbounded"

            # leaving row: the lowest basic index among tied ratios
            tie = t_rows <= t_min + 1e-10 * (1.0 + t_min)
            r = int(np.where(tie, self.basis, _NO_TIE).argmin())
            self._pivot(r, j, col, sigma * t_min, w[r] > 0.0)
            d = None
            stats.primal_pivots += 1
            stall = stall + 1 if t_min <= 1e-11 else 0

    def _dual(self, cost: np.ndarray, max_iter: int) -> list[int] | None:
        """Bounded dual simplex under `cost`, for which the basis is dual
        feasible, until x_B is within its bounds (Koberstein 2005; Maros
        2003, the dual chapters).

        Each pivot takes a basic variable outside its bounds, the largest
        violation first, and drives it to the bound it violates.  Its
        row of B^-1 [A | I] comes from a BTRAN of e_r.  The ratio test with
        bound flipping passes the columns in order of their dual ratio: a
        boxed column whose flip to its other bound still leaves the row short
        of that bound flips, and the first one that would overshoot enters.
        After BLAND_STALL pivots without a dual step, the violating variable
        of lowest index leaves and ties go to the lowest column index.
        Returns None once x_B is within its bounds, or, when no column can
        bring row r within them, the rows that rho = B^-T e_r combines into
        that unsatisfiable row: an infeasibility certificate."""
        opt = self.opt
        stats = self.stats
        self._price_basis(cost)
        lo_B, hi_B, c_B = self.lo_B, self.hi_B, self.c_B
        span = self.hi - self.lo  # inf for a column without two finite bounds
        movable = span > 0.0
        e_r = np.zeros(self.m)
        stall = 0
        fallback = False
        d = None

        while True:
            below = lo_B - self.x_B
            gap = np.maximum(below, self.x_B - hi_B)
            bad = gap > opt.feas_tol
            if not bad.any():
                return None
            if not fallback and stall > BLAND_STALL:
                stats.bland_entries += 1
            fallback = stall > BLAND_STALL
            # leaving row: the largest violation, or the lowest basic index
            r = int(np.where(bad, self.basis, _NO_TIE).argmin() if fallback else gap.argmax())
            if stats.iterations >= max_iter:
                raise IterationLimitExceeded(stats.iterations + 1, "dual")
            if d is None:  # the basis changed; a bound flip leaves d as it is
                d = self._reduced_costs(cost, c_B)

            e_r[r] = 1.0
            rho = self.B.btran(e_r)
            e_r[r] = 0.0
            # row r of B^-1 [A | I], signed so that g[j] > 0 where column j
            # rising moves x_B[r] away from the bound it violates
            rises = below[r] > opt.feas_tol
            g = self.AT @ rho
            if not rises:
                g = -g
            # how fast x_B[r] nears that bound as each column leaves its own
            rate = np.multiply(self.dirs, g, out=self.gain)
            rate = np.maximum(rate[0], rate[1], out=rate[0])
            cand = np.flatnonzero((rate > PIVOT_TOL) & movable)
            ratio = np.maximum(-d[cand] / g[cand], 0.0)
            order = np.lexsort((cand if fallback else -rate[cand], ratio))
            cand, ratio = cand[order], ratio[order]
            # the cumulative move of x_B[r] as the candidates flip in turn
            reach = np.cumsum(rate[cand] * span[cand])
            k = int(np.searchsorted(reach, gap[r], side="right"))
            if k == len(cand) and gap[r] - (reach[-1] if k else 0.0) > opt.feas_tol:
                # even every column at its best bound leaves row r short
                weight = np.abs(rho)
                return np.flatnonzero(weight > PIVOT_TOL * weight.max()).tolist()

            if k:  # bound flips: the basis stays, x_B moves
                for j in cand[:k]:
                    self._flip(j)
                self.x_B = self._basic_values()
            if k == len(cand):
                continue
            q = int(cand[k])
            col = self._column(q)
            target = lo_B[r] if rises else hi_B[r]
            self._pivot(r, q, col, (self.x_B[r] - target) / col[r], rises)
            d = None
            stats.dual_pivots += 1
            stall = stall + 1 if ratio[k] <= 1e-11 else 0

    # -- wrap-up ---------------------------------------------------------------

    def _basic_values(self) -> np.ndarray:
        """x_B = B^-1 (b - N x_N)."""
        n = self.n
        x = self.xval.copy()
        x[self.basis] = 0.0
        return self.B.ftran(self.mat.rhs - self.mat.row_activity(x[:n]) - x[n:])

    def _checked_values(self) -> tuple[np.ndarray, FeasibilityReport]:
        """The structural values with x_B re-solved through the current
        factorization, and their check against every row and bound."""
        self.x_B = self._basic_values()
        x = self.xval.copy()
        x[self.basis] = self.x_B
        values = x[:self.n]
        return values, self.mat.feasibility(values, self.opt.feas_tol)

    def _finish(self, warm: bool) -> LpSolution:
        # a cold solve re-solves the basic values from a fresh factorization;
        # a warm one through the factorization it pivoted on, refactoring
        # only when that answer fails the check
        tol = self.opt.feas_tol
        if not warm:
            self._refactor()
        values, report = self._checked_values()
        if warm and not report.ok(tol):
            self._refactor()
            values, report = self._checked_values()
        if not report.ok(tol):
            raise ArithmeticError(
                "simplex finished with residual "
                f"{max(report.max_row_residual, report.max_bound_violation):.3e} > feas_tol"
            )
        obj = float(np.dot(self.c[:self.n], values))
        # the LU is B's own only with no eta pending
        kept = KeptSimplex(self.mat.rows, self.basis, self.status,
                           self.B.lu if self.B.count == 0 else None)
        return LpSolution(LpStatus.OPTIMAL, values=values, objective_value=obj,
                          iterations=self.stats.iterations, stats=self.stats, kept=kept)


def _solve_scipy(mat: _Assembled) -> LpSolution:
    from scipy.optimize import linprog

    rows = mat.rows
    sign = np.where(rows.rel == _GE, -1.0, 1.0)  # GE rows enter A_ub negated
    A = rows.A.copy()
    A.data *= np.repeat(sign, np.diff(A.indptr))
    A.eliminate_zeros()
    b = mat.rhs * sign
    ub = np.concatenate([np.flatnonzero(rows.rel == _LE), np.flatnonzero(rows.rel == _GE)])
    eq = np.flatnonzero(rows.rel == _EQ)
    res = linprog(mat.cost,
                  A_ub=A[ub] if len(ub) else None, b_ub=b[ub] if len(ub) else None,
                  A_eq=A[eq] if len(eq) else None, b_eq=b[eq] if len(eq) else None,
                  bounds=np.column_stack([mat.lower, mat.upper]), method="highs")
    if res.status == 0:
        return LpSolution(LpStatus.OPTIMAL, values=np.asarray(res.x),
                          objective_value=float(res.fun), iterations=int(res.nit))
    if res.status == 2:
        return LpSolution(LpStatus.INFEASIBLE)
    if res.status == 3:
        return LpSolution(LpStatus.UNBOUNDED)
    raise ArithmeticError(f"scipy backend failed: {res.message}")
