"""Command line front end: run trials, sweeps, config checks, and oracles.

Exit codes: 0 success, 1 usage or configuration error, 2 runtime trial
abort, 3 oracle failure. The default output directory comes from the
``SAFE_IBVS_OUT`` environment variable (falling back to ``./out``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import scenario as scenario_mod, sim
from .errors import SafeIbvsError, ScenarioError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ABORT = 2
EXIT_ORACLE = 3


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with the config code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _out_dir(out: str | None) -> Path:
    """``--out``, else ``SAFE_IBVS_OUT``, else ``./out``; made now, so that an unusable one fails before any trial."""
    out_dir = Path(out or os.environ.get("SAFE_IBVS_OUT", "out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="safe-ibvs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_run = sub.add_parser("run", help="run a single closed-loop trial")
    p_run.add_argument("--scenario", required=True, help="scenario YAML file")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.add_argument("--mode", choices=scenario_mod.MODES, default=None, help="override the filter mode")
    p_run.add_argument("--out", default=None, help="output directory")

    p_sweep = sub.add_parser("sweep", help="run seeded trials from several obstacle starts")
    p_sweep.add_argument("--scenario", required=True, help="scenario YAML template")
    p_sweep.add_argument("--locations", required=True, help="YAML file with a list of [x, y, z] starts")
    p_sweep.add_argument("--trials", type=int, default=10, help="trials per location")
    p_sweep.add_argument("--sigma", type=float, default=None, help="override the confidence level")
    p_sweep.add_argument("--seed", type=int, default=None, help="override the base seed")
    p_sweep.add_argument("--jobs", type=int, default=1, help="worker processes")
    p_sweep.add_argument("--out", default=None, help="output directory")

    p_check = sub.add_parser("check", help="validate a scenario file")
    p_check.add_argument("--scenario", required=True)

    p_oracle = sub.add_parser("oracle", help="run an independent verification suite")
    p_oracle.add_argument("--suite", required=True, choices=["jacobians", "chance", "solvers"])
    p_oracle.add_argument("--seed", type=int, default=0)
    return parser


def _validated(sc: scenario_mod.Scenario) -> scenario_mod.Scenario:
    problems = scenario_mod.validate_scenario(sc)
    if problems:
        raise ScenarioError("; ".join(problems))
    return sc


def _cmd_run(args) -> int:
    try:
        sc = scenario_mod.load(args.scenario)
        if args.mode is not None:
            sc = sc.with_mode(args.mode)
        if args.seed is not None:
            sc = sc.with_seed(args.seed)
        sc = _validated(sc)
        out_dir = _out_dir(args.out)
    except (ScenarioError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    log = sim.run(sc)
    log.write(out_dir)
    s = log.summary
    print(
        f"{sc.name}: steps={s.steps} converged={s.converged} final_e={s.final_e_norm:.6g} "
        f"min_h={s.min_h:.6g} min_dis_px={s.min_dis_px:.6g} occlusion_steps={s.occlusion_steps}"
    )
    print(f"wrote {out_dir / 'trajectory.csv'} and {out_dir / 'trajectory_summary.json'}")
    if s.aborted:
        print(f"trial aborted: {s.abort_reason}", file=sys.stderr)
        return EXIT_ABORT
    return EXIT_OK


def _format_stat(x) -> str:
    return "undefined" if x is None else f"{x:.4g}"


def _cmd_sweep(args) -> int:
    try:
        if args.trials < 1:
            raise ScenarioError(f"--trials must be >= 1, got {args.trials}")
        if args.jobs < 1:
            raise ScenarioError(f"--jobs must be >= 1, got {args.jobs}")
        sc = scenario_mod.load(args.scenario)
        if args.seed is not None:
            sc = sc.with_seed(args.seed)
        if args.sigma is not None:
            sc = sc.with_sigma(args.sigma)
        sc = _validated(sc)
        locations = scenario_mod.load_locations(args.locations)
        for i, start in enumerate(locations):
            try:
                occluded = scenario_mod.occlusions_at_start(sc.with_obstacle_start(start))
            except SafeIbvsError:  # an obstacle the camera cannot project aborts each of its trials, typed
                continue
            if occluded:
                raise ScenarioError(f"locations file {args.locations}: start {i} {start.tolist()}: {'; '.join(occluded)}")
        last_seed = sc.seed + len(locations) * args.trials - 1
        if last_seed >= scenario_mod.SEED_LIMIT:
            raise ScenarioError(f"seed: the last trial seed, {last_seed}, is not below 2**64")
        out_dir = _out_dir(args.out)
    except (ScenarioError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    result = sim.sweep(sc, locations, trials_per_location=args.trials, jobs=args.jobs)
    (out_dir / "aggregate.csv").write_text(result.aggregate_csv())
    summary = {
        "locations": locations.tolist(),
        "trials_per_location": args.trials,
        "rows": result.aggregate_rows(),
        # a trial with no step never measured a clearance; its dis is inf
        "trials_dis_positive": int(np.sum(np.isfinite(result.dis) & (result.dis > 0.0))),
        "trials_total": int(result.dis.size),
        "violation_trials": int(result.violations.sum()),
        "aborted_trials": int(result.aborted.sum()),
    }
    (out_dir / "sweep_summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    for idx, log in enumerate(result.logs):
        i, j = divmod(idx, args.trials)
        (out_dir / f"trial_{i:02d}_{j:02d}.csv").write_text(log.csv_text())
    for row in result.aggregate_rows():
        print(
            f"location {row['location_index']} ({row['loc_x']:.3g}, {row['loc_y']:.3g}, {row['loc_z']:.3g}): "
            f"mean_dis={_format_stat(row['mean_dis'])} var_dis={_format_stat(row['var_dis'])} "
            f"violations={row['violations']} aborted={row['aborted']}"
        )
    print(f"wrote {out_dir / 'aggregate.csv'} plus {len(result.logs)} trial logs")
    if int(result.aborted.sum()) > 0:
        return EXIT_ABORT
    return EXIT_OK


def _cmd_check(args) -> int:
    try:
        sc = scenario_mod.load(args.scenario)
    except ScenarioError as exc:
        print(f"FAIL: {exc}")
        return EXIT_CONFIG
    problems = scenario_mod.validate_scenario(sc)
    if problems:
        for p in problems:
            print(f"FAIL: {p}")
        return EXIT_CONFIG
    print(f"PASS: scenario '{sc.name}' valid ({sc.m} features, mode={sc.mode}, digest={sc.digest()[:12]})")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    if not 0 <= args.seed < scenario_mod.SEED_LIMIT:  # the seed keys a Philox generator; checked before scipy is needed
        print(f"configuration error: --seed must lie in [0, 2**64), got {args.seed}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        from . import oracles  # imported here: only this command needs the oracles' dependencies (scipy)
    except ModuleNotFoundError as exc:
        print(f"configuration error: the {args.suite} oracle needs a package that is not installed: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.suite == "jacobians":
        report = oracles.jacobian_suite(seed=args.seed)
    elif args.suite == "chance":
        report = oracles.chance_suite(seed=args.seed)
    else:
        report = oracles.solver_suite(seed=args.seed)
    for line in report.lines:
        print(f"  {line}")
    print(f"{'PASS' if report.passed else 'FAIL'}: {report.name} suite")
    return EXIT_OK if report.passed else EXIT_ORACLE


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {"run": _cmd_run, "sweep": _cmd_sweep, "check": _cmd_check, "oracle": _cmd_oracle}
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
