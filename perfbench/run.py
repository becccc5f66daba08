"""gridres benchmark: one run of one workload, or of all three.

    python3 perfbench/run.py --workload dispatch|advset|replay|all \
        [--seed 2026] [--seconds 20] [--trace 0|1]

Run it from the root of a checkout; it imports gridres from ``src/`` there
and writes only under ``.bench_out/``.  Each run measures in a fresh worker
process with single-threaded BLAS.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics named in
BENCHMARK.json; with ``--trace 1``, with its per-layer metrics.  The lines
before it give every metric of the workload by name with its unit, and the
full result (environment included) is kept in ``.bench_out/results/``.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("dispatch", "advset", "replay")
DEFAULT_SEED = 2026  # the seed the shipped scenarios carry
SETUP_PROBES = 3
RUN_LIMIT_S = 175.0
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def worker_env() -> dict[str, str]:
    return {**os.environ, **THREAD_ENV, "PYTHONPATH": str(ROOT / "src")}


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Spawn-to-ready time of fresh processes that import gridres and load the
    workload's scenarios."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(WORKER), "probe", "--workload", workload,
                               "--seed", str(seed)], cwd=ROOT, env=worker_env(),
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe exited {code}")
        times.append(elapsed)
    return times


def run_one(workload: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    t_start = time.perf_counter()
    setup = [] if trace else setup_seconds(workload, seed)
    results = ROOT / ".bench_out" / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{workload}-seed{seed}-trace{trace}.json"
    path.unlink(missing_ok=True)
    subprocess.run([sys.executable, str(WORKER), "measure", "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                    "--result", str(path)],
                   cwd=ROOT, env=worker_env(), check=True,
                   timeout=RUN_LIMIT_S - (time.perf_counter() - t_start))
    result = json.loads(path.read_text())
    if setup:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        result["samples"]["setup_s"] = len(setup)
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    report(result, {m["name"]: m["unit"] for m in spec["per_layer"]})

    if trace:
        wanted = spec["per_layer"]
        values = result["layer"]
    else:
        wanted = spec["end_to_end"]
        values = {k: m["value"] for k, m in result["metrics"].items()}
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"the worker did not measure {missing}")
    return {
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def report(result: dict, layer_units: dict[str, str]) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"passes {result['passes']} untraced + {result['traced_passes']} traced")
    for name, m in sorted(result["metrics"].items()):
        n = result["samples"].get(name)
        note = "" if name == "peak_rss_mb" else f"  (n={n})"
        print(f"  {name:<22} {m['value']:>14.6g} {m['unit']}{note}")
    for name, value in sorted(result["layer"].items()):
        print(f"  {name:<22} {value:>14.6g} {layer_units[name]}")
    for name, value in sorted(result["notes"].items()):
        print(f"  {name}: {value:.4g}")
    ratio = result["failed"] / result["attempted"]
    print(f"  fail_ratio {ratio:.4g} ({result['failed']} of {result['attempted']} operations)")
    print(f"  exact counts {json.dumps(result['counts'], sort_keys=True)}")
    for problem in result["problems"]:
        print(f"  PROBLEM {problem}")
    env = result["environment"]
    print(f"  env nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} blas=[{env['numpy_blas']}; {env['scipy_blas']}] "
          f"threads={env['threads']} commit={env['git_commit']} "
          f"code_sha256={env['code_sha256'][:16]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    missing = [p for p in ("src/gridres/__init__.py", "scenarios/cyber_event.json",
                           "BENCHMARK.json") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a gridres checkout, missing {missing}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            line = run_one(name, args.seed, args.seconds, args.trace, spec)
        except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as err:
            print(f"error: workload {name}: {err}", file=sys.stderr)
            return 1
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
