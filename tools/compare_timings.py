#!/usr/bin/env python3
"""Time two checkouts of gridres side by side, in one process.

    tools/compare_timings.py PARENT CHANGE [--rounds 40] [--seed 2026]

PARENT and CHANGE are the roots of two source trees (each with src/gridres
and scenarios/).  Each tree's src/gridres is loaded as a package of its own,
so both run in this one process on single-threaded BLAS, and the rounds
alternate between them, the side that goes first flipping every round.  A
slow phase of the machine then falls on both sides alike, which separate
benchmark runs a few at a time cannot promise: their medians can move by
20-30 % on code that did not change.

Four cases are timed per round and side:

* `characterize`: `advset.characterize` once per step of cyber_event's
  advset_steps, as the benchmark's `advset` workload calls it, against
  cyber_event's headroom dispatch (the dispatch and reserves of `gridres
  advset` run once, with the HiGHS backend, from PARENT's sources, as the
  benchmark prepares that workload);
* `advset pass`: one `advset.characterize_steps` pass over the same steps
  and dispatch, as `gridres advset` walks them;
* `dispatch LPs`: `dispatch.solve_baseline` on lshl plus
  `robust.solve_robust` on cyber_event, each the build, solve and read of
  its dispatch LP;
* `replay`: what `gridres simulate --sample 100` does between reading its
  inputs and writing its outputs: one `sim.compile_replay` of that headroom
  schedule, then `sim.run_simulation` and `sim.violation_report` over 100
  runs that `sim.events_from_polytopes` samples from the polytopes the same
  `gridres advset` run wrote next to its robust.json.

For each case it prints each side's median seconds and the median of the
per-round ratio CHANGE / PARENT, with its quartiles.  It times only: it
compares no output (see compare_outputs.sh and compare_solve_counts.sh).
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

LSHL = "scenarios/lshl.json"
CYBER = "scenarios/cyber_event.json"
REPLAY_RUNS = 100


def load_tree(root: Path, name: str):
    """The gridres package of the tree at `root`, imported as `name`."""
    pkg = root / "src" / "gridres"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    importlib.import_module(f"{name}.cli")
    return module


def headroom(gr, root: Path, seed: int, work: Path) -> Path:
    """The output directory of `gridres advset` on cyber_event under the HiGHS
    backend, with its robust.json and polytope.json."""
    doc = json.loads((root / CYBER).read_text())
    doc.setdefault("solver", {})["backend"] = "scipy"
    scenario = work / "cyber_event_highs.json"
    scenario.write_text(json.dumps(doc))
    out = work / "prep-advset"
    code = gr.cli.main(["advset", str(scenario), "--out", str(out), "--seed", str(seed)])
    if code != 0:
        raise SystemExit(f"preparation `gridres advset` exited {code}")
    return out


class Side:
    """One tree's inputs and the four timed cases."""

    def __init__(self, gr, root: Path, seed: int, prepared: Path):
        self.gr = gr
        self.seed = seed
        self.lshl = gr.scenario.load_scenario(root / LSHL, seed_override=seed)
        self.cyber = gr.scenario.load_scenario(root / CYBER, seed_override=seed)
        self.prepared = gr.robust.RobustResult.from_json_dict(
            json.loads((prepared / "robust.json").read_text()))
        self.dispatch, self.reserves = self.prepared.dispatch, self.prepared.reserves
        self.polys = gr.advset.polytopes_from_json(
            json.loads((prepared / "polytope.json").read_text()), self.cyber.model)

    def characterize(self) -> None:
        sc = self.cyber
        for k in sc.advset_steps:
            self.gr.advset.characterize(sc.model, self.dispatch, self.reserves, sc.axes, k,
                                        sc.build, sc.solver)

    def advset_pass(self) -> None:
        sc = self.cyber
        self.gr.advset.characterize_steps(sc.model, self.dispatch, self.reserves, sc.axes,
                                          sc.advset_steps, sc.build, sc.solver)

    def dispatch_lps(self) -> None:
        gr, base, event = self.gr, self.lshl, self.cyber
        gr.dispatch.solve_baseline(base.model, base.costs, base.build, base.solver)
        gr.robust.solve_robust(event.model, event.costs, event.reserve_costs, event.box,
                               event.build, event.solver)

    def replay(self) -> None:
        sim = self.gr.sim
        replay = sim.compile_replay(self.cyber.model, self.prepared)
        for events in sim.events_from_polytopes(self.polys, seed=self.seed, count=REPLAY_RUNS):
            sim.violation_report(sim.run_simulation(replay, events))


def timed(fn, side: Side) -> float:
    t0 = time.perf_counter()
    fn(side)
    return time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--rounds", type=int, default=40)
    parser.add_argument("--seed", type=int, default=2026)
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    packages = {side: load_tree(root, f"gridres_{side}") for side, root in roots.items()}
    with tempfile.TemporaryDirectory() as work:
        prepared = headroom(packages["parent"], roots["parent"], args.seed, Path(work))
        sides = {side: Side(packages[side], roots[side], args.seed, prepared)
                 for side in roots}
        cases = {"characterize": Side.characterize, "advset pass": Side.advset_pass,
                 "dispatch LPs": Side.dispatch_lps, "replay": Side.replay}
        for side in sides.values():  # warm-up: imports, caches, first allocations
            for fn in cases.values():
                fn(side)
        times = {(case, side): [] for case in cases for side in sides}
        for r in range(args.rounds):
            order = ["parent", "change"] if r % 2 == 0 else ["change", "parent"]
            for case, fn in cases.items():
                for side in order:
                    times[case, side].append(timed(fn, sides[side]))
    print(f"{args.rounds} alternating rounds, seed {args.seed}, OMP_NUM_THREADS=1")
    for case in cases:
        parent, change = times[case, "parent"], times[case, "change"]
        q1, ratio, q3 = statistics.quantiles([c / p for p, c in zip(parent, change)], n=4)
        faster = sum(c < p for p, c in zip(parent, change))
        print(f"{case}: parent {statistics.median(parent):.4f} s, "
              f"change {statistics.median(change):.4f} s, "
              f"change/parent median {ratio:.3f} [q1 {q1:.3f}, q3 {q3:.3f}], "
              f"change faster in {faster} of {args.rounds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
