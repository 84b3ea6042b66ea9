"""Closed-loop control-step benchmark for safe_ibvs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each call first starts ``SETUP_PROBES``
fresh interpreters that only time ``import safe_ibvs`` plus loading and
validating the workload's scenario, then one more fresh interpreter
(``worker.py``) that times set-up again, runs one untimed warm-up trial
and measures the workload. All of them run on one BLAS thread.

With ``--trace 0`` the worker times seeded trials for ``--seconds`` (at
most ``MAX_SECONDS``) and reports the end-to-end metrics as host wall
time, and the throughputs also scaled to a reference host speed
(``*_per_ref_s``) by a fixed probe timed between the trials. With
``--trace 1`` it runs a fixed, seed-derived set of trials untraced and
twice traced, and reports the per-layer split.
Human-readable lines come first; the last line of stdout is one JSON
object holding the metrics that ``BENCHMARK.json`` declares. The full
result, and the spans of a traced run, are written under
``perfbench/out/``.

``python3 perfbench/selftest.py`` checks the tracer itself.
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

from worker import WORKLOAD_SCENARIOS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_PROBES = 4
# A run's set-up interpreters, warm-up and last unit take up to about 40 s beyond --seconds,
# and the whole run must end within TIME_LIMIT_S.
MAX_SECONDS = 120.0
TIME_LIMIT_S = 175.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Every end-to-end metric the worker reports, with its unit.
END_TO_END = {
    "setup_s": "s",
    "step_ms_p50": "ms",
    "step_ms_p99": "ms",
    "steps_per_s": "1/s",
    "trials_per_s": "1/s",
    "steps_per_ref_s": "1/s",
    "trials_per_ref_s": "1/s",
    "peak_rss_mb": "MB",
    "failed_trial_frac": "ratio",
    "occlusion_free_frac": "ratio",
    "hold_step_frac": "ratio",
}


def _worker(args: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh interpreter with one BLAS thread; return its JSON result."""
    env = dict(os.environ, **{k: "1" for k in THREAD_VARS})
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker {' '.join(args)} did not finish within the run's {TIME_LIMIT_S:.0f} s limit")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _declared_metrics() -> tuple[list[str], list[str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]]


def _print_end_to_end(result: dict, metrics: dict) -> None:
    print(f"{result['attempted']} trials, {result['steps']} steps timed in {result['wall_s']:.3f} s")
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "setup_s":
            note = f"median of {result['setup_samples']} fresh interpreters"
        elif name.startswith("step_ms"):
            note = f"{result['step_samples']} steps"
        elif name == "failed_trial_frac":
            note = f"{result['failed']} of {result['attempted']} trials"
        print(f"  {name:<22} {value:>14.6g} {unit:<6} {note}")
    if "step_ms_p99" not in result:
        print("  step_ms_p99 not reported: fewer than 1000 steps timed")
    if "probe_us" in result:
        low, high = result["probe_us_range"]
        print(
            f"  host probe {result['probe_us']:.1f} us median ({low:.1f}-{high:.1f}) between the trials; "
            f"*_per_ref_s are the rates scaled to a probe time of {result['probe_ref_us']:.0f} us"
        )


def _print_digests(result: dict) -> None:
    for trial_id, digest in result["trial_digests"].items():
        print(f"  sha256 {digest} {trial_id}")
    print(f"  combined sha256 {result['combined_digest']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_SCENARIOS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be in (0, {MAX_SECONDS:.0f}]: a run must end within {TIME_LIMIT_S:.0f} s")

    deadline = time.monotonic() + TIME_LIMIT_S
    declared_e2e, declared_layers = _declared_metrics()
    probes = [_worker(["--workload", args.workload, "--setup-only"], deadline) for _ in range(SETUP_PROBES)]
    result = _worker(
        ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
        deadline,
    )
    setups = probes + [result.pop("setup")]
    result["setup_samples"] = len(setups)
    result["setup_s"] = statistics.median(s["import_s"] + s["load_s"] for s in setups)
    result["setup_import_s"] = [s["import_s"] for s in setups]
    result["setup_load_s"] = [s["load_s"] for s in setups]

    env = result["env"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"  why: {result['why']}")
    print(
        f"  python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
        f"BLAS {env['blas']}, nproc {env['nproc']}, threads {env['threads_env']}"
    )
    if args.trace:
        layers = result["layers"]
        layers["setup.import_ms"] = {"value": 1e3 * statistics.median(result["setup_import_s"]), "unit": "ms"}
        layers["setup.load_ms"] = {"value": 1e3 * statistics.median(result["setup_load_s"]), "unit": "ms"}
        print(f"{result['attempted']} trials, {result['steps']} steps traced")
        for name, m in layers.items():
            print(f"  {name:<46} {m['value']:>14.6g} {m['unit']}")
        for boundary in result["absent"]:
            print(f"  {boundary}: absent (no such attribute)")
        for problem in result["trace_problems"]:
            print(f"  TRACE CHECK FAILED: {problem}")
        _print_digests(result)
        print(f"  untraced combined sha256 {result['untraced_combined_digest']}")
        final = {k: layers[k] for k in declared_layers if k in layers}
    else:
        metrics = {name: (result[name], unit) for name, unit in END_TO_END.items() if name in result}
        _print_end_to_end(result, metrics)
        _print_digests(result)
        final = {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in declared_e2e if k in metrics}
    for trial_id, problems in result["problems"].items():
        print(f"  FAILED {trial_id}: {'; '.join(problems)}")

    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out_file.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": bool(result["correct"]),
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": final,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
