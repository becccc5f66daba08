#!/usr/bin/env bash
# Compare the simplex's solve statistics of two checkouts of gridres.
#
#   tools/compare_solve_counts.sh PARENT CHANGE
#
# PARENT and CHANGE are the roots of two source trees (each with src/gridres
# and scenarios/).  In each, from its own sources and at seeds 2026 and 7, one
# line is printed per solve: its name, status, repr(objective), how it
# started, its primal and dual pivots, bound flips, Bland entries and
# refactorizations, and its LP's row count, nonzero count and row hash (the
# first 16 hex digits of a sha256 over the rows in order: each row's
# coefficient indices and values in dict order, relation, rhs, tag and basic
# hint), so a moved or changed row shows directly.  The solves are the
# baseline LPs of lshl, hsll, cyber_event and a 123-bus copy of cyber_event
# ("buses": 123), the robust LPs of hsll, cyber_event and that copy, one
# `characterize_steps` walk over cyber_event's advset_steps, as `gridres
# advset` runs it, and one per-step `advset.characterize` call at each of
# those steps, as the benchmark's `advset` workload times them (each of the
# two lines with its solves summed and hashed in order, plus repr(alpha)).
# Pivot counts are deterministic, so the two sides must match exactly.  Exits
# 0 when every line is identical, 1 on any difference, and 2 when a run fails.
set -euo pipefail

if [ "$#" -ne 2 ]; then
    echo "usage: $0 PARENT CHANGE" >&2
    exit 2
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

count_solves() {
    local root
    root=$(cd "$1" && pwd)
    (cd "$root" && PYTHONPATH="$root/src" OMP_NUM_THREADS=1 python - "$2" "$work/big.json" <<'EOF'
import hashlib
import json
import sys
from pathlib import Path

import gridres.advset as advset
from gridres.dispatch import build_baseline_lp, solve_baseline
from gridres.lp import solve
from gridres.robust import ReserveSchedule, build_robust_lp
from gridres.scenario import load_scenario

COUNTS = ("primal", "dual", "flips", "bland", "refactor")


def counts(stats) -> tuple[int, ...]:
    return (stats.primal_pivots, stats.dual_pivots, stats.bound_flips, stats.bland_entries,
            stats.refactorizations)


def hash_rows(digest, lp) -> tuple[int, int]:
    """Feed `lp`'s rows to `digest` in order; return its row and nonzero counts."""
    nnz = 0
    for row in lp.rows:
        nnz += len(row.coeffs)
        digest.update(repr((list(row.coeffs.items()), row.rel.value, row.rhs, row.tag,
                            row.basic)).encode())
    return len(lp.rows), nnz


def row_stats(rows: int, nnz: int, digest) -> str:
    return f"rows={rows} nnz={nnz} rowhash={digest.hexdigest()[:16]}"


def line(name: str, lp, sol) -> str:
    parts = " ".join(f"{k}={v}" for k, v in zip(COUNTS, counts(sol.stats)))
    digest = hashlib.sha256()
    return (f"{name}: {sol.status.value} objective={sol.objective_value!r} "
            f"start={sol.stats.start} {parts} {row_stats(*hash_rows(digest, lp), digest)}")


seed = int(sys.argv[1])
paths = {name: f"scenarios/{name}.json" for name in ("lshl", "hsll", "cyber_event")}
# the size at which pricing weighs most in a simplex solve
doc = json.loads(Path(paths["cyber_event"]).read_text())
doc["network"]["synth"]["buses"] = 123
paths["cyber_event_123"] = sys.argv[2]
Path(paths["cyber_event_123"]).write_text(json.dumps(doc))
scenarios = {name: load_scenario(path, seed_override=seed) for name, path in paths.items()}
for name, sc in scenarios.items():
    lp, _ = build_baseline_lp(sc.model, sc.costs, sc.build)
    print(line(f"seed {seed} baseline {name}", lp, solve(lp, sc.solver)))
for name in ("hsll", "cyber_event", "cyber_event_123"):
    sc = scenarios[name]
    lp, _, _ = build_robust_lp(sc.model, sc.costs, sc.reserve_costs, sc.box, sc.build)
    print(line(f"seed {seed} robust {name}", lp, solve(lp, sc.solver)))

sc = scenarios["cyber_event"]
base = solve_baseline(sc.model, sc.costs, sc.build, sc.solver)
reserves = ReserveSchedule.from_headroom(sc.model, base)


def advset_line(name: str, characterize) -> str:
    """The summed statistics of every recourse solve `characterize()` makes,
    its solves' rows hashed in order as each read them, and its alphas."""
    solved, digest, shape = [], hashlib.sha256(), [0, 0]

    def counting_solve(lp, *args, **kwargs):
        for i, n in enumerate(hash_rows(digest, lp)):
            shape[i] += n
        sol = solve(lp, *args, **kwargs)
        solved.append(sol)
        return sol

    advset.solve = counting_solve  # the recourse LPs call solve by this name
    polys = characterize()
    alphas = [polys[k].alpha_w.tolist() for k in sc.advset_steps]
    sums = [sum(c) for c in zip(*(counts(sol.stats) for sol in solved))]
    return (f"seed {seed} {name} cyber_event steps {sc.advset_steps}: solves={len(solved)} "
            f"iterations={sum(sol.iterations for sol in solved)} "
            + " ".join(f"{k}={v}" for k, v in zip(COUNTS, sums))
            + f" {row_stats(*shape, digest)} alpha={alphas!r}")


args = (sc.model, base, reserves, sc.axes)
print(advset_line("advset", lambda: advset.characterize_steps(*args, sc.advset_steps, sc.build,
                                                              sc.solver)))
print(advset_line("advset per-step characterize", lambda: {
    k: advset.characterize(*args, k, sc.build, sc.solver) for k in sc.advset_steps}))
EOF
    )
}

for side in parent change; do
    root=$1
    [ "$side" = change ] && root=$2
    for seed in 2026 7; do
        count_solves "$root" "$seed" >>"$work/$side" 2>"$work/stderr.log" \
            || { echo "error: solve counts failed in $root at seed $seed:" >&2
                 cat "$work/stderr.log" >&2; exit 2; }
    done
done

if diff "$work/parent" "$work/change"; then
    echo "identical: $(wc -l <"$work/change") solves"
    cat "$work/change"
else
    exit 1
fi
