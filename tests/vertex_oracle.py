"""Brute-force vertex enumeration for small bounded LPs.

Independent oracle used to cross-check the simplex solver: every vertex of a
bounded polyhedron is the intersection of n linearly independent active
constraints drawn from the rows and the variable bounds.  We enumerate all
such intersections, keep the feasible ones, and take the best objective.
Completely separate code path from gridres.lp on purpose.
"""

from __future__ import annotations

import itertools

import numpy as np

from gridres.lp import LinearProgram, Rel


def enumerate_vertices(lp: LinearProgram, tol: float = 1e-9) -> np.ndarray:
    """All vertices of the feasible region (requires every variable bounded)."""
    n = lp.n_variables
    lo = np.array(lp.lower)
    hi = np.array(lp.upper)
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError("vertex enumeration needs fully bounded variables")

    # candidate hyperplanes: (normal, offset, forced)
    planes: list[tuple[np.ndarray, float, bool]] = []
    for row in lp.rows:
        a = np.zeros(n)
        for idx, coeff in row.coeffs.items():
            a[idx] = coeff
        planes.append((a, row.rhs, row.rel is Rel.EQ))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        planes.append((e, lo[j], False))
        if hi[j] != lo[j]:
            planes.append((e, hi[j], False))

    forced = [i for i, p in enumerate(planes) if p[2]]
    optional = [i for i, p in enumerate(planes) if not p[2]]
    need = n - len(forced)
    if need < 0:
        combos = [tuple(forced[:n])]
    else:
        combos = [tuple(forced) + extra for extra in itertools.combinations(optional, need)]
    if not combos:
        return np.empty((0, n))

    chosen = np.array(combos)
    A = np.stack([p[0] for p in planes])[chosen]
    b = np.array([p[1] for p in planes])[chosen]
    dets = np.abs(np.linalg.det(A))
    good = dets > tol
    if not good.any():
        return np.empty((0, n))
    pts = np.linalg.solve(A[good], b[good][..., None])[..., 0]

    # the same per-vertex checks, evaluated for all candidates at once; each
    # row activity is summed in the row's coefficient order
    keep = ((pts >= lo - tol) & (pts <= hi + tol)).all(axis=1)
    for row in lp.rows:
        ax = sum(pts[:, idx] * coeff for idx, coeff in row.coeffs.items())
        if row.rel is Rel.LE:
            keep &= ax <= row.rhs + tol
        elif row.rel is Rel.GE:
            keep &= ax >= row.rhs - tol
        else:
            keep &= np.abs(ax - row.rhs) <= tol
    return pts[keep]


def objective_vector(lp: LinearProgram) -> np.ndarray:
    c = np.zeros(lp.n_variables)
    for idx, coeff in lp.objective.items():
        c[idx] = coeff
    return c


def brute_force_min(lp: LinearProgram, tol: float = 1e-9) -> float | None:
    """Minimum objective over enumerated vertices; None when no vertex is feasible."""
    verts = enumerate_vertices(lp, tol)
    if verts.shape[0] == 0:
        return None
    c = objective_vector(lp)
    return float(np.min(verts @ c))


def random_bounded_lp(rng: np.random.Generator) -> LinearProgram:
    """A small random LP with every variable boxed; occasionally infeasible."""
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, 11))
    lp = LinearProgram()
    for j in range(n):
        lo = float(rng.uniform(-3.0, 0.0))
        hi = float(rng.uniform(0.5, 4.0))
        lp.add_variable(f"x{j}", lo, hi)
    lp.set_objective({j: float(rng.uniform(-2.0, 2.0)) for j in range(n)})
    for _ in range(m):
        coeffs = {}
        for j in range(n):
            if rng.random() < 0.7:
                coeffs[j] = float(rng.uniform(-2.0, 2.0))
        if not coeffs:
            coeffs[int(rng.integers(0, n))] = 1.0
        rel = (Rel.LE, Rel.GE, Rel.EQ)[int(rng.choice([0, 0, 1, 1, 2]))]
        lp.add_row(coeffs, rel, float(rng.uniform(-3.0, 3.0)))
    return lp
