"""The measuring process of one benchmark run; started by ``run.py``.

    worker.py probe   --workload W --seed S
    worker.py measure --workload W --seed S --seconds T --trace 0|1 --result PATH

``probe`` imports gridres, loads the workload's scenarios, prints ``ready``
and exits; ``run.py`` times it from spawn to that line.  ``measure`` prepares
the workload, runs passes for T seconds (at least the workload's minimum),
checks every output, and writes its result as JSON to PATH.  With ``--trace 1``
untraced and traced passes alternate, and the result carries the per-layer
metrics as well.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (the benchmark's own directory is on sys.path)
from tracing import Tracer, median_metrics, SELF_SUM_TOL  # noqa: E402

OUT = ROOT / ".bench_out"
SETUP_ROUNDS = 3  # traced loads of the workload's scenarios
# Counts that must repeat exactly at equal seeds.
EXACT_COUNTS = ("lp.iterations", "lp.rows", "lp.nnz", "advset.lp_count",
                "constraints.flow_calls", "sim.runs", "replay.violations")


def import_program():
    import gridres
    import gridres.cli  # noqa: F401  (loads every module the wrappers patch)

    where = Path(gridres.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"gridres was imported from {where}, not from this checkout")
    return gridres


def probe(args) -> int:
    gr = import_program()
    for path in workloads.WORKLOADS[args.workload].scenarios:
        gr.scenario.load_scenario(ROOT / path, seed_override=args.seed)
    print("ready", flush=True)
    return 0


def code_digest() -> str:
    """Digest of the program, its scenarios and this benchmark."""
    digest = hashlib.sha256()
    for pattern in ("src/gridres/*.py", "scenarios/*.json", "perfbench/*.py"):
        for path in sorted(ROOT.glob(pattern)):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    def blas(config) -> str:
        deps = config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
        return f"{deps.get('name', '?')} {deps.get('version', '?')}"

    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config),
        "scipy_blas": blas(scipy.show_config),
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "git_commit": commit,
        "code_sha256": code_digest(),
    }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def run_passes(workload, ctx, budget_s: float):
    passes = []
    t0 = time.perf_counter()
    while len(passes) < workload.min_passes or time.perf_counter() - t0 < budget_s:
        passes.append(workload.run_pass(ctx, len(passes)))
    return passes


@contextmanager
def tracing(ctx, tracer: Tracer):
    tracer.install()
    ctx.tracer = tracer
    try:
        yield
    finally:
        tracer.uninstall()
        ctx.tracer = None


def run_traced(workload, ctx, tracer: Tracer, budget_s: float, seed: int):
    """Alternate untraced (even index) and traced (odd index) passes, so that
    a drift in machine speed weighs on both alike."""
    with tracing(ctx, tracer):
        for r in range(SETUP_ROUNDS):
            for path in workload.scenarios:
                with tracer.op("setup", r):
                    ctx.gr.scenario.load_scenario(ROOT / path, seed_override=seed)
    untraced, traced = [], []
    t0 = time.perf_counter()
    while not traced or time.perf_counter() - t0 < budget_s:
        untraced.append(workload.run_pass(ctx, 2 * len(traced)))
        with tracing(ctx, tracer):
            traced.append(workload.run_pass(ctx, 2 * len(traced) + 1))
    return untraced, traced


def check_counts(name: str, seed: int, passes, extra: list[dict]) -> tuple[dict, list[str]]:
    """Exact counts agree across the passes of this run and with earlier runs
    of the same code at the same seed; a mismatch means nondeterminism."""
    seen: dict[str, float] = {}
    problems = []
    for counts in [p.counts for p in passes] + extra:
        for key in EXACT_COUNTS:
            if key not in counts:
                continue
            if key in seen and seen[key] != counts[key]:
                problems.append(f"nondeterminism: {key} is {counts[key]} after {seen[key]}")
            seen.setdefault(key, counts[key])
    store = OUT / "counts" / f"{name}-seed{seed}-{code_digest()[:16]}.json"
    earlier = json.loads(store.read_text()) if store.is_file() else {}
    for key, value in seen.items():
        if key in earlier and earlier[key] != value:
            problems.append(f"nondeterminism: {key} is {value}, an earlier run at this "
                            f"seed had {earlier[key]}")
    store.parent.mkdir(parents=True, exist_ok=True)
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps({**seen, **earlier}, sort_keys=True) + "\n")
    os.replace(tmp, store)
    return seen, problems


def end_to_end(name: str, passes) -> tuple[dict, dict]:
    """The workload's own named metrics (value, unit) and their sample counts."""
    lat = {}
    for p in passes:
        for kind, values in p.latencies.items():
            lat.setdefault(kind, []).extend(values)
    metrics = {"pass_s": (statistics.median(p.seconds for p in passes), "s")}
    samples = {"pass_s": len(passes)}
    if name == "dispatch":
        metrics["baseline_s"] = (statistics.median(lat["baseline"]), "s")
        metrics["robust_s"] = (statistics.median(lat["robust"]), "s")
        samples.update(baseline_s=len(lat["baseline"]), robust_s=len(lat["robust"]))
    elif name == "advset":
        steps = lat["characterize"]
        metrics["characterize_s"] = (statistics.median(
            sum(p.latencies["characterize"]) for p in passes), "s")
        metrics["advset_step_ms_p50"] = (1e3 * statistics.median(steps), "ms")
        metrics["advset_step_ms_p90"] = (1e3 * percentile(steps, 90), "ms")
        metrics["contains_ms_p50"] = (1e3 * statistics.median(lat["contains"]), "ms")
        samples.update(characterize_s=len(passes), advset_step_ms_p50=len(steps),
                       advset_step_ms_p90=len(steps), contains_ms_p50=len(lat["contains"]))
    else:
        runs = workloads.REPLAY_SAMPLES
        metrics["replay_runs_per_s"] = (runs / statistics.median(lat["simulate"]), "runs/s")
        samples["replay_runs_per_s"] = len(lat["simulate"])
    return metrics, samples


def measure(args) -> int:
    gr = import_program()
    workload = workloads.WORKLOADS[args.workload]()
    scratch = OUT / "tmp" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    ctx = workloads.Context(ROOT, scratch, args.seed, gr)
    tracer = Tracer() if args.trace else None
    traced = []
    try:
        workload.prepare(ctx)
        if tracer is None:
            passes = run_passes(workload, ctx, args.seconds)
        else:
            passes, traced = run_traced(workload, ctx, tracer, args.seconds, args.seed)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    problems = [msg for p in passes + traced for msg in p.problems]
    per_pass = []
    layer = {}
    notes = {}
    if tracer is not None:
        per_pass = [tracer.layer_metrics(2 * i + 1) for i in range(len(traced))]
        layer = median_metrics(per_pass)
        layer.update(median_metrics([tracer.layer_metrics(r, setup=True)
                                     for r in range(SETUP_ROUNDS)]))
        untraced_s = statistics.median(p.seconds for p in passes)
        traced_s = statistics.median(p.seconds for p in traced)
        layer["trace.overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)
        error = tracer.self_sum_error()
        notes["lp.solve_s share of a traced pass, %"] = 100.0 * layer["lp.solve_s"] / traced_s
        notes["largest self-time sum error, %"] = 100.0 * error
        if error > SELF_SUM_TOL:
            problems.append(f"trace: self times miss their operation's duration by "
                            f"{100 * error:.3f}% > {100 * SELF_SUM_TOL:.1f}%")
        tracer.dump(OUT / "trace" / f"{args.workload}-seed{args.seed}.json")
    counts, nondeterminism = check_counts(args.workload, args.seed, passes + traced, per_pass)
    metrics, samples = end_to_end(args.workload, passes)
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "traced_passes": len(traced),
        "attempted": sum(p.attempted for p in passes + traced),
        "failed": sum(p.failed for p in passes + traced),
        "problems": problems + nondeterminism,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": samples,
        "layer": layer,
        "notes": notes,
        "counts": counts,
        "environment": environment(),
    }
    Path(args.result).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("probe", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result")
    args = parser.parse_args(argv)
    return probe(args) if args.mode == "probe" else measure(args)


if __name__ == "__main__":
    sys.exit(main())
