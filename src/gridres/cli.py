"""Command-line front end tying the pipeline together.

Subcommands: baseline, robust, advset, simulate, synth, validate.  Every run
reads one scenario JSON, writes plot-ready CSV/JSON files plus a manifest into
--out through its ManifestWriter, and exits with: 0 success, 1 input error (a
malformed scenario or command line, or an --out that cannot be written), 2
optimization infeasible, 3 downstream infeasibility (e.g. an adversarial axis
with no feasible recourse), 4 solver failure (the simplex hit its iteration
cap or lost numerical soundness).  Given equal inputs and seed, output files
are byte-identical across runs (the manifest records wall-clock timing and is
exempt).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .advset import (AxisInfeasible, characterize_steps, polytopes_from_json, polytopes_to_json,
                     project_2d)
from .dispatch import (DispatchResult, InfeasibleDispatch, build_baseline_lp, solve_baseline,
                       summarize)
from .lp import IterationLimitExceeded
from .network import input_error, save_model
from .robust import ReserveSchedule, RobustResult, build_robust_lp, solve_robust
from .scenario import (
    ManifestWriter,
    Scenario,
    ScenarioError,
    load_scenario,
    write_csv,
    write_json,
)
from .sim import (VIOLATION_CLASSES, compile_replay, events_from_polytopes, run_simulation,
                  violation_report)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2
EXIT_DOWNSTREAM = 3
EXIT_SOLVER = 4

MW = 1.0e6


def _emit_dispatch_files(scenario: Scenario, result: DispatchResult,
                         manifest: ManifestWriter) -> None:
    model = scenario.model
    agg = summarize(result)
    rows = []
    for k in range(model.steps):
        rows.append([
            k, float(k * model.dt_hours * 60.0),
            float(agg.pv_w[k] / MW), float(agg.dg_w[k] / MW), float(agg.es_w[k] / MW),
            float(agg.load_w[k] / MW),
            float(agg.pv_curtail_w[k] / MW), float(agg.load_curtail_w[k] / MW),
            float(agg.v_min_pu[k]), float(agg.v_max_pu[k]),
        ])
    write_csv(manifest.output("aggregate.csv"),
              ["step", "time_min", "pv_mw", "dg_mw", "es_mw", "load_mw",
               "pv_curtail_mw", "load_curtail_mw", "v_min_pu", "v_max_pu"], rows)

    rows = []
    for (bus, phase) in sorted(result.voltage_sq_pu):
        series = result.voltage_sq_pu[(bus, phase)]
        for k in range(model.steps):
            rows.append([k, bus, phase, float(np.sqrt(series[k]))])
    write_csv(manifest.output("voltage.csv"), ["step", "bus", "phase", "v_pu"], rows)

    rows = []
    for uid in sorted(result.soc_wh):
        for k, val in enumerate(result.soc_wh[uid]):
            rows.append([k, uid, float(val / MW)])
    write_csv(manifest.output("soc.csv"), ["step", "unit", "soc_mwh"], rows)


def cmd_baseline(scenario: Scenario, manifest: ManifestWriter, dump_lp: bool = False) -> int:
    if dump_lp:
        ns = build_baseline_lp(scenario.model, scenario.costs, scenario.build)
        manifest.output("problem.lp").write_text(ns.lp.to_lp_text(f"{scenario.name}-baseline"))
    result = solve_baseline(scenario.model, scenario.costs, scenario.build, scenario.solver)
    write_json(manifest.output("dispatch.json"), result.to_json_dict())
    _emit_dispatch_files(scenario, result, manifest)
    return EXIT_OK


def _solve_robust_for(scenario: Scenario) -> RobustResult:
    if not scenario.has_box:
        raise ScenarioError("scenario has no uncertainty box; nothing to robustify")
    return solve_robust(
        scenario.model, scenario.costs, scenario.reserve_costs, scenario.box,
        scenario.build, scenario.solver,
    )


def _emit_robust_files(scenario: Scenario, robust: RobustResult,
                       manifest: ManifestWriter) -> None:
    model = scenario.model
    write_json(manifest.output("robust.json"), robust.to_json_dict())
    _emit_dispatch_files(scenario, robust.dispatch, manifest)

    rows = []
    for (cls_name, uid) in sorted(robust.reserves.up):
        for k in range(model.steps):
            rows.append([
                k, cls_name, uid,
                float(robust.reserves.up[(cls_name, uid)][k] / MW),
                float(robust.reserves.down[(cls_name, uid)][k] / MW),
            ])
    write_csv(manifest.output("reserves.csv"),
              ["step", "device_class", "device", "up_mw", "down_mw"], rows)

    rows = []
    for k in range(model.steps):
        rows.append([
            k, float(robust.reserves.total_up(k) / MW), float(robust.reserves.total_down(k) / MW),
            float(robust.worst_up_w[k] / MW), float(robust.worst_down_w[k] / MW),
        ])
    write_csv(manifest.output("margins.csv"),
              ["step", "up_total_mw", "down_total_mw", "worst_up_mw", "worst_down_mw"],
              rows)


def cmd_robust(scenario: Scenario, manifest: ManifestWriter, dump_lp: bool = False) -> int:
    if dump_lp and scenario.has_box:  # without a box the solve below fails, writing nothing
        ns, _worst = build_robust_lp(scenario.model, scenario.costs, scenario.reserve_costs,
                                     scenario.box, scenario.build)
        manifest.output("problem.lp").write_text(ns.lp.to_lp_text(f"{scenario.name}-robust"))
    robust = _solve_robust_for(scenario)
    _emit_robust_files(scenario, robust, manifest)
    return EXIT_OK


def cmd_advset(scenario: Scenario, manifest: ManifestWriter,
               projections: list[tuple[int, int, int]] = ()) -> int:
    """Tolerable-event set around the economic dispatch and its headroom.

    The characterization quantifies what the feeder's *available* flexibility
    can absorb: the baseline setpoints with reserve bands equal to each
    device's distance to its limits.  The paired dispatch/reserve file is
    emitted so `simulate --sample` can replay sampled events against exactly
    the flexibility that was assumed.
    """
    if not scenario.axes:
        raise ScenarioError("scenario declares no adversarial axes")
    if not scenario.advset_steps:
        raise ScenarioError("advset_steps is empty; no step to characterize")
    for (i, j, k) in projections:  # before any solve, so a bad triple writes nothing
        if projections.count((i, j, k)) > 1:
            raise ScenarioError(f"--project {i} {j} {k} is given twice")
        if k not in scenario.advset_steps:
            raise ScenarioError(f"--project step {k} was not characterized")
        if not (0 <= i < len(scenario.axes) and 0 <= j < len(scenario.axes)):
            raise ScenarioError(f"--project axes ({i}, {j}) out of range")
        if i == j:
            raise ScenarioError(f"--project axes ({i}, {j}) must differ")
    base = solve_baseline(scenario.model, scenario.costs, scenario.build, scenario.solver)
    reserves = ReserveSchedule.from_headroom(scenario.model, base)
    robust = RobustResult(
        dispatch=base,
        reserves=reserves,
        objective_value=base.objective_value,
        reserve_cost=0.0,
        worst_up_w=np.zeros(scenario.model.steps),
        worst_down_w=np.zeros(scenario.model.steps),
    )
    _emit_robust_files(scenario, robust, manifest)
    polys = characterize_steps(
        scenario.model, robust.dispatch, robust.reserves, scenario.axes,
        scenario.advset_steps, scenario.build, scenario.solver,
    )

    write_json(manifest.output("polytope.json"), polytopes_to_json(polys))

    rows = []
    for k in sorted(polys):
        poly = polys[k]
        for i, axis in enumerate(poly.axes):
            rows.append([k, i, axis.kind, axis.entity, float(poly.alpha_w[i] / MW)])
    write_csv(manifest.output("alpha.csv"),
              ["step", "axis_index", "kind", "entity", "alpha_mw"], rows)

    for (i, j, k) in projections:
        poly = polys[k]
        hull, degenerate = project_2d(poly, i, j)
        rows = [[float(x / MW), float(y / MW)] for x, y in hull]
        header = [f"axis{i}_{poly.axes[i].entity}_mw", f"axis{j}_{poly.axes[j].entity}_mw"]
        write_csv(manifest.output(f"polygon_{i}_{j}_{k}.csv"), header, rows)
        if degenerate:
            print(f"note: projection ({i},{j}) at step {k} is degenerate", file=sys.stderr)
    return EXIT_OK


def _trajectory_rows(model, traj) -> list[list]:
    rows = []
    series = [
        ("pv_mw", traj.pv_w / MW), ("dg_mw", traj.dg_w / MW), ("es_mw", traj.es_w / MW),
        ("served_load_mw", traj.served_load_w / MW),
        ("true_demand_mw", traj.true_demand_w / MW),
        ("shed_mw", traj.shed_w / MW),
        ("imbalance_mw", traj.imbalance_w / MW),
        ("deployed_up_mw", traj.deployed_up_w / MW),
        ("deployed_down_mw", traj.deployed_down_w / MW),
        ("shortfall_mw", traj.shortfall_w / MW),
        ("v_min_pu", traj.voltage_min_pu), ("v_max_pu", traj.voltage_max_pu),
    ]
    for k in range(model.steps):
        t = float(traj.time_min[k])
        for name, arr in series:
            rows.append([k, t, name, "", float(arr[k])])
        for uid in sorted(traj.soc_wh):
            rows.append([k, t, "soc_mwh", uid, float(traj.soc_wh[uid][k + 1] / MW)])
        for (cls_name, uid) in sorted(traj.deployment_w):
            rows.append([
                k, t, "deployment_mw", f"{cls_name}:{uid}",
                float(traj.deployment_w[(cls_name, uid)][k] / MW),
            ])
    return rows


def cmd_simulate(scenario: Scenario, manifest: ManifestWriter,
                 robust_path: Path | None = None, polytope_path: Path | None = None,
                 sample: int | None = None, sample_seed: int | None = None) -> int:
    # the flags first, before any read or solve, so a bad one writes nothing
    if sample is None:
        for flag, value in (("--polytope", polytope_path), ("--sample-seed", sample_seed)):
            if value is not None:
                raise ScenarioError(f"{flag} needs --sample")
    elif sample < 1:
        raise ScenarioError("--sample must be at least 1")
    elif sample_seed is not None and sample_seed < 0:
        raise ScenarioError(f"--sample-seed: expected a non-negative integer, got {sample_seed}")
    elif polytope_path is None:
        raise ScenarioError("--sample needs --polytope pointing at an advset output")
    if robust_path is not None:
        with input_error(f"--robust {robust_path}"):
            robust = RobustResult.from_json_dict(json.loads(Path(robust_path).read_text()))
            robust.check_schedule(scenario.model)
        manifest.add_input(robust_path)
    else:
        robust = _solve_robust_for(scenario)
    replay = compile_replay(scenario.model, robust)

    if sample is None:
        traj = run_simulation(replay, scenario.events)
        write_csv(manifest.output("trajectory.csv"),
                  ["step", "time_min", "series", "entity", "value"],
                  _trajectory_rows(scenario.model, traj))
        report = violation_report(traj)
        write_json(manifest.output("violations.json"),
                   {"counts": report.counts, "max_magnitude": report.max_magnitude,
                    "total": report.total})
        return EXIT_OK

    with input_error(f"--polytope {polytope_path}"):
        polys = polytopes_from_json(json.loads(Path(polytope_path).read_text()), scenario.model)
    manifest.add_input(polytope_path)

    seed = scenario.seed if sample_seed is None else sample_seed
    runs = events_from_polytopes(polys, seed=seed, count=sample)
    totals = dict.fromkeys(VIOLATION_CLASSES, 0)
    rows = []
    for r, per_step in enumerate(runs):
        traj = run_simulation(replay, per_step)
        report = violation_report(traj)
        rows.append([r, report.total, *(report.counts[c] for c in VIOLATION_CLASSES)])
        for c in totals:
            totals[c] += report.counts[c]
    write_csv(manifest.output("samples.csv"), ["run", "violations", *VIOLATION_CLASSES], rows)
    write_json(manifest.output("violations.json"),
               {"runs": sample, "counts": totals, "total": sum(totals.values())})
    return EXIT_OK


def cmd_synth(scenario: Scenario, manifest: ManifestWriter) -> int:
    save_model(scenario.model, manifest.output("network.json"), manifest.output("profiles.csv"))
    return EXIT_OK


def cmd_validate(scenario: Scenario) -> int:
    """Report a scenario that loaded: `load_scenario` has already rejected a
    network that fails validation, so the report is always clean."""
    doc = {"ok": True, "problems": [],
           "buses": len(scenario.model.buses), "steps": scenario.model.steps}
    print(json.dumps(doc, indent=2, sort_keys=True))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        """A malformed command line is an input error like any other: one
        line and exit 1, not argparse's usage block and exit 2."""
        raise ScenarioError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gridres",
        description="Microgrid reserve dispatch and resilience analysis",
    )
    parser.add_argument("--version", action="version", version=f"gridres {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("scenario", help="path to the scenario JSON")
        p.add_argument("--out", default="out", help="output directory (default: ./out)")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        p.add_argument("--poly-sides", type=int, default=None,
                       help="override the polygon side count for circle limits")
        p.add_argument("--feas-tol", type=float, default=None,
                       help="override the solver feasibility tolerance")

    p = sub.add_parser("baseline", help="solve the economic dispatch")
    common(p)
    p.add_argument("--dump-lp", action="store_true", help="also write the LP in text form")

    p = sub.add_parser("robust", help="solve the reserve-allocating dispatch")
    common(p)
    p.add_argument("--dump-lp", action="store_true")

    p = sub.add_parser("advset", help="characterize the tolerable adversarial set")
    common(p)
    p.add_argument("--project", nargs=3, type=int, action="append", default=[],
                   metavar=("I", "J", "K"),
                   help="emit the 2-D projection of axes I,J at step K")

    p = sub.add_parser("simulate", help="replay events against the robust schedule")
    common(p)
    p.add_argument("--robust", default=None, help="reuse a robust.json instead of solving")
    p.add_argument("--polytope", default=None, help="polytope.json from a prior advset run")
    p.add_argument("--sample", type=int, default=None,
                   help="draw N event sets from the polytope instead of the timeline")
    p.add_argument("--sample-seed", type=int, default=None,
                   help="seed for --sample draws (default: scenario seed)")

    p = sub.add_parser("synth", help="write the synthetic network and profiles to files")
    common(p)

    p = sub.add_parser("validate", help="check a scenario and its network")
    common(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        scenario = load_scenario(
            args.scenario, seed_override=args.seed,
            poly_sides=args.poly_sides, feas_tol=args.feas_tol,
        )
        if args.command == "validate":
            return cmd_validate(scenario)
        manifest = ManifestWriter(args.command, scenario.seed, args.out)
        manifest.add_input(Path(args.scenario))
        if args.command == "baseline":
            code = cmd_baseline(scenario, manifest, dump_lp=args.dump_lp)
        elif args.command == "robust":
            code = cmd_robust(scenario, manifest, dump_lp=args.dump_lp)
        elif args.command == "advset":
            code = cmd_advset(scenario, manifest, projections=[tuple(p) for p in args.project])
        elif args.command == "simulate":
            code = cmd_simulate(
                scenario, manifest,
                robust_path=Path(args.robust) if args.robust else None,
                polytope_path=Path(args.polytope) if args.polytope else None,
                sample=args.sample, sample_seed=args.sample_seed,
            )
        else:
            code = cmd_synth(scenario, manifest)
        manifest.write()
        return code
    except ScenarioError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as err:  # every input is read under input_error, so this is an output
        print(f"error: --out {args.out}: {err}", file=sys.stderr)
        return EXIT_INPUT
    except InfeasibleDispatch as err:
        print(f"infeasible: {err}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except AxisInfeasible as err:
        print(f"downstream infeasibility: {err}", file=sys.stderr)
        return EXIT_DOWNSTREAM
    except (IterationLimitExceeded, ArithmeticError) as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return EXIT_SOLVER


def entrypoint() -> None:  # console-script shim
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
