#!/usr/bin/env bash
# Compare the CLI outputs of two checkouts of gridres.
#
#   tools/compare_outputs.sh PARENT CHANGE
#
# PARENT and CHANGE are the roots of two source trees (each with src/gridres
# and scenarios/).  The same command matrix runs in each, from its own
# sources, into a temporary directory (`validate` prints its report, which is
# kept as a file); the two result trees are then compared
# with `diff -r`, manifest.json aside (it records timings and paths), and of
# each manifest.json its `command`, `seed` and `outputs`.  On a
# difference it then prints the objective_value of both sides of every
# differing dispatch.json and robust.json, so one run shows whether a changed
# schedule is only another vertex of the same optimum.  Exits 0 when every
# output is byte-identical, 1 on any difference, and 2 when a command of the
# matrix fails.
set -euo pipefail

if [ "$#" -ne 2 ]; then
    echo "usage: $0 PARENT CHANGE" >&2
    exit 2
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
log=$work/stderr.log

run_matrix() {
    local root out
    root=$(cd "$1" && pwd)
    out=$2
    gr() {
        (cd "$root" && PYTHONPATH="$root/src" OMP_NUM_THREADS=1 python -m gridres.cli "$@") 2>"$log" \
            || { echo "error: gridres $* failed in $root:" >&2; cat "$log" >&2; exit 2; }
    }
    mkdir -p "$out/validate"
    for sc in scenarios/lshl.json scenarios/cyber_event.json docs/examples/sixbus_scenario.json; do
        gr validate "$sc" > "$out/validate/$(basename "$sc" .json).json"
    done
    gr synth scenarios/cyber_event.json --out "$out/synth_cyber_event"
    gr synth docs/examples/sixbus_scenario.json --out "$out/synth_sixbus"
    for sc in lshl hsll cyber_event; do
        gr baseline "scenarios/$sc.json" --out "$out/baseline_$sc" --dump-lp
    done
    for sc in hsll cyber_event; do
        gr robust "scenarios/$sc.json" --out "$out/robust_$sc" --dump-lp
    done
    gr robust docs/examples/sixbus_scenario.json --out "$out/robust_sixbus" --dump-lp
    gr advset scenarios/cyber_event.json --out "$out/advset_cyber_event" --project 1 2 6
    gr advset scenarios/cyber_event.json --out "$out/advset_cyber_event_seed7" --seed 7
    gr advset docs/examples/sixbus_scenario.json --out "$out/advset_sixbus"
    gr simulate scenarios/cyber_event.json --out "$out/simulate_cyber_event"
    gr simulate scenarios/cyber_event.json --out "$out/simulate_robust_cyber_event" \
        --robust "$out/robust_cyber_event/robust.json"
    for seed in 2026 7; do
        gr simulate scenarios/cyber_event.json --out "$out/sample_cyber_event_$seed" \
            --robust "$out/advset_cyber_event/robust.json" \
            --polytope "$out/advset_cyber_event/polytope.json" --sample 200 --sample-seed "$seed"
        gr simulate docs/examples/sixbus_scenario.json --out "$out/sample_sixbus_$seed" \
            --robust "$out/advset_sixbus/robust.json" \
            --polytope "$out/advset_sixbus/polytope.json" --sample 200 --sample-seed "$seed"
    done
}

for side in parent change; do
    root=$1
    [ "$side" = change ] && root=$2
    run_matrix "$root" "$work/$side"
done

# Of every manifest.json, the fields that record neither a time nor a path.
compare_manifests() {
    python - "$work/parent" "$work/change" <<'EOF'
import json, sys
from pathlib import Path

def fields(root):
    return {str(p.relative_to(root)): {key: json.loads(p.read_text())[key]
                                       for key in ("command", "outputs", "seed")}
            for p in sorted(root.rglob("manifest.json"))}

parent, change = (fields(Path(root)) for root in sys.argv[1:])
differ = sorted(name for name in parent.keys() | change.keys()
                if parent.get(name) != change.get(name))
for name in differ:
    print(f"manifest {name}: parent {parent.get(name)} change {change.get(name)}")
sys.exit(1 if differ else 0)
EOF
}

same=1
diff -r -x manifest.json "$work/parent" "$work/change" || same=0
compare_manifests || same=0
if [ "$same" = 1 ]; then
    echo "identical: $(find "$work/change" -type f ! -name manifest.json | wc -l) files"
else
    (cd "$work/parent" && find . -name dispatch.json -o -name robust.json) | sort |
        while read -r file; do
            if [ -f "$work/change/$file" ] && ! cmp -s "$work/parent/$file" "$work/change/$file"; then
                python -c '
import json, sys
path, parent, change = sys.argv[1:]
a, b = (json.load(open(side))["objective_value"] for side in (parent, change))
print(f"objective_value {path}: parent {a!r} change {b!r} "
      f"(relative difference {abs(a - b) / max(abs(a), abs(b), 1e-300):.3g})")
' "${file#./}" "$work/parent/$file" "$work/change/$file"
            fi
        done
    exit 1
fi
