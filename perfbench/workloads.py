"""The three workloads: what one pass does and how its outputs are checked.

Each workload is a closed loop with one client: the next operation starts
only when the previous one has finished.  The workload seed reaches the
program only as the scenario seed (``--seed`` / ``seed_override``) and, for
``replay``, as the replay seed (``--sample-seed``).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

LSHL = "scenarios/lshl.json"
CYBER = "scenarios/cyber_event.json"

OBJECTIVE_RTOL = 1e-6  # built-in simplex against the HiGHS reference (objectives, α)
BOUNDARY_SKIP = 1e-6  # contains: points this close to the boundary are skipped
CONTAINS_PER_STEP = 4  # membership tests per step and pass, half pushed outside
OUTWARD_SCALE = 1.25  # an outside point sits at this multiple of the boundary
REPLAY_SAMPLES = 100  # N of `gridres simulate --sample N`


@dataclass
class PassResult:
    seconds: float = 0.0
    latencies: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)

    def timed(self, kind: str, seconds: float) -> None:
        self.latencies.setdefault(kind, []).append(seconds)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)


class Context:
    """What every workload shares: the checkout, a scratch directory, the
    seed, the imported program, and the tracer of a traced pass (or None)."""

    def __init__(self, root: Path, scratch: Path, seed: int, gridres):
        self.root = root
        self.scratch = scratch
        self.seed = seed
        self.gr = gridres
        self.tracer = None

    def op(self, kind: str, pass_index: int):
        return self.tracer.op(kind, pass_index) if self.tracer else nullcontext()

    def run_cli_subprocess(self, argv: list[str]) -> None:
        """Run the CLI in a child process (preparation; not timed)."""
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        proc = subprocess.run([sys.executable, "-m", "gridres.cli", *argv], cwd=self.root,
                              env=env, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"preparation `gridres {' '.join(argv)}` exited "
                               f"{proc.returncode}: {proc.stderr.strip()}")


def _read_outputs(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())
            if p.name != "manifest.json"}


def _compare_outputs(result: PassResult, label: str, first: dict[str, bytes],
                     now: dict[str, bytes]) -> bool:
    if first.keys() != now.keys():
        result.problems.append(f"{label}: output files differ: {sorted(first)} vs {sorted(now)}")
        return False
    changed = [name for name in first if first[name] != now[name]]
    if changed:
        result.problems.append(f"{label}: not byte-identical to the first pass: {changed}")
        return False
    return True


class Dispatch:
    """`gridres baseline` on lshl, then `gridres robust` on cyber_event."""

    name = "dispatch"
    scenarios = (LSHL, CYBER)
    min_passes = 2  # the second pass is checked byte for byte against the first

    def prepare(self, ctx: Context) -> None:
        gr = ctx.gr
        highs = gr.lp.SolverOptions(backend="scipy")
        base = gr.scenario.load_scenario(ctx.root / LSHL, seed_override=ctx.seed)
        event = gr.scenario.load_scenario(ctx.root / CYBER, seed_override=ctx.seed)
        self.reference = {
            "baseline": gr.dispatch.solve_baseline(
                base.model, base.costs, base.build, highs).objective_value,
            "robust": gr.robust.solve_robust(
                event.model, event.costs, event.reserve_costs, event.box, event.build,
                highs).objective_value,
        }
        self.first: dict[str, dict[str, bytes]] = {}

    def run_pass(self, ctx: Context, index: int) -> PassResult:
        result = PassResult()
        iterations = 0
        t_pass = time.perf_counter()
        for command, scenario, doc_name in (("baseline", LSHL, "dispatch.json"),
                                            ("robust", CYBER, "robust.json")):
            out = ctx.scratch / f"pass{index}-{command}"
            argv = [command, str(ctx.root / scenario), "--out", str(out),
                    "--seed", str(ctx.seed)]
            result.attempted += 1
            t0 = time.perf_counter()
            try:
                with ctx.op(command, index):
                    code = ctx.gr.cli.main(argv)
            except Exception as err:  # an escaped exception is a failed operation
                result.timed(command, time.perf_counter() - t0)
                result.fail(f"{command}: {type(err).__name__}: {err}")
                continue
            result.timed(command, time.perf_counter() - t0)
            if code != 0:
                result.fail(f"{command}: exit code {code}")
                continue
            outputs = _read_outputs(out)
            shutil.rmtree(out)
            doc = json.loads(outputs[doc_name])
            objective = doc["objective_value"]
            ref = self.reference[command]
            ok = abs(objective - ref) <= OBJECTIVE_RTOL * max(1.0, abs(ref))
            if not ok:
                result.problems.append(
                    f"{command}: objective {objective!r} differs from HiGHS {ref!r}")
            first = self.first.setdefault(command, outputs)
            ok = _compare_outputs(result, command, first, outputs) and ok
            if not ok:
                result.failed += 1
            dispatch_doc = doc if command == "baseline" else doc["dispatch"]
            iterations += int(dispatch_doc["iterations"])
        result.seconds = time.perf_counter() - t_pass
        result.counts["lp.iterations"] = iterations
        return result


def _prepare_advset(ctx: Context) -> Path:
    """One `gridres advset` run on cyber_event: the baseline dispatch with
    headroom reserves (robust.json) and the tolerable-event polytopes.

    The run selects the HiGHS backend through the scenario's `solver` block:
    the built-in simplex would spend about 10 s on the baseline solve, which
    is `dispatch`'s business, and preparation is not what is measured.
    """
    doc = json.loads((ctx.root / CYBER).read_text())
    doc.setdefault("solver", {})["backend"] = "scipy"
    scenario = ctx.scratch / "cyber_event_highs.json"
    scenario.write_text(json.dumps(doc))
    out = ctx.scratch / "prep-advset"
    ctx.run_cli_subprocess(["advset", str(scenario), "--out", str(out),
                            "--seed", str(ctx.seed)])
    return out


class Advset:
    """Per-step `advset.characterize`, then a batch of `advset.contains`."""

    name = "advset"
    scenarios = (CYBER,)
    min_passes = 1

    def prepare(self, ctx: Context) -> None:
        gr = ctx.gr
        prep = _prepare_advset(ctx)
        self.scenario = gr.scenario.load_scenario(ctx.root / CYBER, seed_override=ctx.seed)
        headroom = gr.robust.RobustResult.from_json_dict(
            json.loads((prep / "robust.json").read_text()))
        self.dispatch = headroom.dispatch
        self.reserves = headroom.reserves
        polys = json.loads((prep / "polytope.json").read_text())["steps"]
        self.reference = {int(k): np.asarray(p["alpha_w"], dtype=float)
                          for k, p in polys.items()}
        self.first: dict[int, np.ndarray] = {}

    def run_pass(self, ctx: Context, index: int) -> PassResult:
        gr = ctx.gr
        sc = self.scenario
        result = PassResult()
        polys = {}
        t_pass = time.perf_counter()
        for k in sc.advset_steps:
            result.attempted += 1
            t0 = time.perf_counter()
            try:
                with ctx.op("characterize", index):
                    poly = gr.advset.characterize(sc.model, self.dispatch, self.reserves,
                                                  sc.axes, k, sc.build, sc.solver)
            except Exception as err:
                result.timed("characterize", time.perf_counter() - t0)
                result.fail(f"characterize step {k}: {type(err).__name__}: {err}")
                continue
            result.timed("characterize", time.perf_counter() - t0)
            alpha = poly.alpha_w
            first = self.first.setdefault(k, alpha)
            ref = self.reference[k]
            if alpha.tobytes() != first.tobytes():
                result.fail(f"step {k}: alpha {alpha.tolist()} differs from the first pass "
                            f"{first.tolist()}")
            elif (alpha < 0).any():
                result.fail(f"step {k}: negative alpha {alpha.tolist()}")
            elif (np.abs(alpha - ref) > OBJECTIVE_RTOL * np.maximum(1.0, np.abs(ref))).any():
                result.fail(f"step {k}: alpha {alpha.tolist()} differs from HiGHS {ref.tolist()}")
            else:
                polys[k] = poly

        for k, poly in sorted(polys.items()):
            # the same points every pass, so that passes do equal work
            points = gr.advset.sample(poly, seed=ctx.seed * 1000 + k, count=CONTAINS_PER_STEP)
            for j, point in enumerate(points):
                point, expected = _closed_form_case(poly.alpha_w, point, outward=j % 2 == 1)
                if expected is None:
                    continue
                result.attempted += 1
                t0 = time.perf_counter()
                try:
                    with ctx.op("contains", index):
                        got = gr.advset.contains(poly, point)
                except Exception as err:
                    result.timed("contains", time.perf_counter() - t0)
                    result.fail(f"contains step {k}: {type(err).__name__}: {err}")
                    continue
                result.timed("contains", time.perf_counter() - t0)
                if got != expected:
                    result.fail(f"contains step {k} point {point.tolist()}: got {got}, "
                                f"closed form says {expected}")
        result.seconds = time.perf_counter() - t_pass
        return result


def _closed_form_case(alpha: np.ndarray, point: np.ndarray, outward: bool):
    """The test point and the closed-form answer: x >= 0, x_i = 0 where
    alpha_i = 0, and sum x_i / alpha_i <= 1.  The answer is None for a point
    within BOUNDARY_SKIP of the boundary, which is skipped."""
    live = alpha > 0
    level = float(np.sum(point[live] / alpha[live]))
    if outward and level > 0:
        point = point * (OUTWARD_SCALE / level)
        level = OUTWARD_SCALE
    if abs(level - 1.0) <= BOUNDARY_SKIP:
        return point, None
    inside = bool((point >= 0).all() and (point[~live] == 0).all() and level <= 1.0)
    return point, inside


class Replay:
    """`gridres simulate --sample N` against one `gridres advset` output."""

    name = "replay"
    scenarios = (CYBER,)
    min_passes = 1

    def prepare(self, ctx: Context) -> None:
        prep = _prepare_advset(ctx)
        self.robust = prep / "robust.json"
        self.polytope = prep / "polytope.json"
        self.first: dict[str, bytes] | None = None

    def run_pass(self, ctx: Context, index: int) -> PassResult:
        result = PassResult(attempted=1)
        out = ctx.scratch / f"pass{index}-simulate"
        argv = ["simulate", str(ctx.root / CYBER), "--out", str(out), "--seed", str(ctx.seed),
                "--robust", str(self.robust), "--polytope", str(self.polytope),
                "--sample", str(REPLAY_SAMPLES), "--sample-seed", str(ctx.seed)]
        t0 = time.perf_counter()
        try:
            with ctx.op("simulate", index):
                code = ctx.gr.cli.main(argv)
        except Exception as err:
            result.seconds = time.perf_counter() - t0
            result.timed("simulate", result.seconds)
            result.fail(f"simulate: {type(err).__name__}: {err}")
            return result
        result.seconds = time.perf_counter() - t0
        result.timed("simulate", result.seconds)
        if code != 0:
            result.fail(f"simulate: exit code {code}")
            return result
        outputs = _read_outputs(out)
        shutil.rmtree(out)
        report = json.loads(outputs["violations.json"])
        result.counts["sim.runs"] = report["runs"]
        result.counts["replay.violations"] = report["total"]
        ok = report["total"] == 0
        if not ok:
            result.problems.append(f"simulate: {report['total']} violations {report['counts']}")
        if self.first is None:
            self.first = outputs
        ok = _compare_outputs(result, "simulate", self.first, outputs) and ok
        if not ok:
            result.failed += 1
        return result


WORKLOADS = {w.name: w for w in (Dispatch, Advset, Replay)}
