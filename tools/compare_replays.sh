#!/usr/bin/env bash
# Compare the replay trajectories of two checkouts of gridres, bit for bit.
#
#   tools/compare_replays.sh PARENT CHANGE
#
# PARENT and CHANGE are the roots of two source trees (each with src/gridres
# and scenarios/).  In each, from its own sources, `gridres advset` runs on
# cyber_event, on the six-bus example and on an hourly copy of cyber_event
# (`"dt_hours": 1.0`), and one line is printed per replay: its name, then a
# sha256 (first 16 hex digits) of every array of its `Trajectory`,
# dictionary entries by key, over the array's dtype, shape and raw bytes.
# Each replay runs against its scenario's own advset robust.json:
#   - 200 runs sampled at seeds 2026 and 7 from cyber_event's and the
#     six-bus example's polytopes, which replay clean;
#   - 200 runs at seed 2026 from cyber_event's polytopes with every alpha
#     scaled by 10, which break voltage, line and shortfall limits;
#   - 200 runs at seed 2026 from the hourly copy's polytopes, whose
#     batteries leave their energy limits;
#   - cyber_event's timeline against its robust schedule;
#   - a second cyber_event timeline against the same schedule, with the
#     events that neither the scenario's timeline nor a sampled run has: a
#     pv_loss with no magnitude_w (all of the unit's output), a partial
#     pv_loss, and a load_mask_start whose negative magnitude_w is deeper
#     than the load's schedule, so the draw floors at zero and the
#     imbalance turns negative.
# `samples.csv` keeps only violation counts, so this is what shows a sampled
# trajectory, or a violation flag or magnitude, that moved.  Exits 0 when
# every line is identical, 1 on any difference, and 2 when a run fails.
set -euo pipefail

if [ "$#" -ne 2 ]; then
    echo "usage: $0 PARENT CHANGE" >&2
    exit 2
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
log=$work/stderr.log
hourly=$work/cyber_hourly.json
python - "$1/scenarios/cyber_event.json" "$hourly" <<'EOF'
import json
import sys
from pathlib import Path

doc = json.loads(Path(sys.argv[1]).read_text())
doc["network"]["synth"]["dt_hours"] = 1.0
Path(sys.argv[2]).write_text(json.dumps(doc, indent=2))
EOF

hash_replays() {
    local root out
    root=$(cd "$1" && pwd)
    out=$2
    mkdir -p "$out"
    for sc in scenarios/cyber_event.json docs/examples/sixbus_scenario.json "$hourly"; do
        (cd "$root" && PYTHONPATH="$root/src" OMP_NUM_THREADS=1 \
            python -m gridres.cli advset "$sc" --out "$out/$(basename "$sc" .json)") \
            2>"$work/advset.log" \
            || { echo "gridres advset $sc failed:"; cat "$work/advset.log"; return 2; } >&2
    done
    (cd "$root" && PYTHONPATH="$root/src" OMP_NUM_THREADS=1 python - "$out" "$hourly" <<'EOF'
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import gridres.sim as sim
from gridres.advset import polytopes_from_json
from gridres.robust import RobustResult, solve_robust
from gridres.scenario import load_scenario

SAMPLES = 200


def digest(arr) -> str:
    h = hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(arr.tobytes())
    return h.hexdigest()[:16]


def line(name: str, traj) -> str:
    parts = []
    for f in dataclasses.fields(traj):
        value = getattr(traj, f.name)
        if isinstance(value, dict):
            for key, arr in value.items():
                label = ":".join(key) if isinstance(key, tuple) else key
                parts.append(f"{f.name}[{label}]={digest(arr)}")
        else:
            parts.append(f"{f.name}={digest(value)}")
    return f"{name}: " + " ".join(parts)


out = Path(sys.argv[1])
# (name, scenario, alpha scale, seeds)
SAMPLED = (
    ("cyber_event", "scenarios/cyber_event.json", 1.0, (2026, 7)),
    ("sixbus", "docs/examples/sixbus_scenario.json", 1.0, (2026, 7)),
    ("cyber_event x10", "scenarios/cyber_event.json", 10.0, (2026,)),
    ("cyber_hourly", sys.argv[2], 1.0, (2026,)),
)
for name, path, scale, seeds in SAMPLED:
    sc = load_scenario(path)
    robust = RobustResult.from_json_dict(json.loads((out / Path(path).stem / "robust.json")
                                                    .read_text()))
    polys = polytopes_from_json(json.loads((out / Path(path).stem / "polytope.json")
                                           .read_text()), sc.model)
    polys = {k: dataclasses.replace(p, alpha_w=p.alpha_w * scale) for k, p in polys.items()}
    replay = sim.compile_replay(sc.model, robust)
    for seed in seeds:
        for r, events in enumerate(sim.events_from_polytopes(polys, seed=seed, count=SAMPLES)):
            print(line(f"{name} seed {seed} run {r}", sim.run_simulation(replay, events)))

sc = load_scenario("scenarios/cyber_event.json")
robust = solve_robust(sc.model, sc.costs, sc.reserve_costs, sc.box, sc.build, sc.solver)
replay = sim.compile_replay(sc.model, robust)
print(line("cyber_event timeline", sim.run_simulation(replay, sc.events)))
pv02, load03 = sc.model.pv_units[1], sc.model.loads[2]
timeline = [
    sim.Event(5.0, "pv_loss", "pv01"),
    sim.Event(15.0, "pv_restore", "pv01"),
    sim.Event(15.0, "pv_loss", "pv02", float(pv02.forecast_w[3]) / 2),
    sim.Event(25.0, "pv_restore", "pv02"),
    sim.Event(30.0, "load_mask_start", "load03", -10.0 * float(load03.desired_w.max())),
    sim.Event(45.0, "load_mask_end", "load03"),
]
print(line("cyber_event pv loss and deep mask timeline",
           sim.run_simulation(replay, sim.compile_timeline(sc.model, timeline))))
EOF
    )
}

for side in parent change; do
    root=$1
    [ "$side" = change ] && root=$2
    hash_replays "$root" "$work/$side.out" >"$work/$side" 2>"$log" \
        || { echo "error: replays failed in $root:" >&2; cat "$log" >&2; exit 2; }
done

if cmp -s "$work/parent" "$work/change"; then
    echo "identical: $(wc -l <"$work/change") replays"
    exit 0
fi
differ=$(diff "$work/parent" "$work/change" | grep -c '^>' || true)
diff "$work/parent" "$work/change" | head -n 20 || true
echo "different: $differ of $(wc -l <"$work/change") replays"
exit 1
