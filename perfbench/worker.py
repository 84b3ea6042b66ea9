"""Measure one workload in this (fresh) interpreter and print a JSON result.

Started by ``run.py`` with BLAS threads pinned to 1. Two forms:

    python3 perfbench/worker.py --workload NAME --setup-only
    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

Both first time ``import safe_ibvs`` plus loading and validating the
workload's scenario file, which is what a CLI user pays on every call.
Only the standard library is imported before that, so the timed import
includes numpy and scipy. The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Scenario file each workload loads (and times) during set-up.
WORKLOAD_SCENARIOS = {
    "sweep_prcbc": "scenarios/reference_noise.yaml",
    "cbc_shipped": "scenarios/reference_cbc.yaml",
    "cbc_exact": "scenarios/reference_cbc.yaml",
    "unfiltered_noise": "scenarios/reference_noise.yaml",
}


def _timed_setup(scenario_file: Path):
    """Import the package from this checkout and load its scenario; return timings."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import safe_ibvs
    from safe_ibvs import scenario

    t1 = time.perf_counter()
    sc = scenario.load(scenario_file)
    problems = scenario.validate_scenario(sc)
    t2 = time.perf_counter()
    if not Path(safe_ibvs.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"safe_ibvs imported from {safe_ibvs.__file__}, not from {src}")
    if problems:
        raise SystemExit(f"{scenario_file} does not validate: {problems}")
    return sc, {"import_s": t1 - t0, "load_s": t2 - t1}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_SCENARIOS))
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    scenario_file = ROOT / WORKLOAD_SCENARIOS[args.workload]
    sc, setup = _timed_setup(scenario_file)
    if args.setup_only:
        print(json.dumps(setup))
        return 0
    import measure

    result = measure.run_workload(args.workload, sc, scenario_file, args.seed, args.seconds, bool(args.trace))
    result["setup"] = setup
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
