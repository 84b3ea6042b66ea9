"""Self-test of the benchmark's tracer: ``python3 perfbench/selftest.py`` from a checkout root.

Checks, on a few seeded ``unfiltered_noise`` and ``cbc_shipped`` trials:
self times are nonnegative, and those under ``sim.run`` sum to a time
between the ``sim.step`` time and the call time taken outside the tracer; per-layer counts repeat exactly across two traced
runs at one seed; tracing leaves trajectory digests unchanged and
restores every patched attribute; a boundary that no longer exists is
reported absent, without a crash or a zero; the host-speed probe
between trials leaves trajectories unchanged; and ``BENCHMARK.json``
declares only metrics the benchmark produces, with matching units.
Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from safe_ibvs import scenario, sim  # noqa: E402

import measure  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import WORKLOAD_SCENARIOS  # noqa: E402

SEED = 5
UNITS = {"unfiltered_noise": 3, "cbc_shipped": 1}  # cbc_shipped units hold five trials

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {what}")
    if not ok:
        failures.append(what)


def one_pass(name: str, work_dir: Path, tracer=None) -> measure.Pass:
    scenario_file = ROOT / WORKLOAD_SCENARIOS[name]
    cls = workloads.WORKLOADS[name]
    return measure.fixed_pass(cls, scenario.load(scenario_file), scenario_file, SEED, work_dir, UNITS[name], tracer)


def check_tracer(name: str, work_dir: Path) -> None:
    originals = {"sim.step": sim.step, "sim.run": sim.run, "csv_text": vars(sim.TrajectoryLog)["csv_text"]}
    base = one_pass(name, work_dir)
    tracers = [tracing.Tracer(), tracing.Tracer()]
    passes = [one_pass(name, work_dir, t) for t in tracers]
    restored = (
        sim.step is originals["sim.step"]
        and sim.run is originals["sim.run"]
        and vars(sim.TrajectoryLog)["csv_text"] is originals["csv_text"]
    )
    expect(restored, f"{name}: patched attributes are restored after tracing")
    expect(all(p.summary()["failed"] == 0 for p in [base, *passes]), f"{name}: every trial passes its output checks")
    digests = {p.combined_digest for p in [base, *passes]}
    expect(len(digests) == 1, f"{name}: traced and untraced trajectory digests are equal")
    for i, t in enumerate(tracers):
        selfs = tracing.self_times(t.spans)
        expect(bool(selfs) and min(selfs) >= 0, f"{name}: traced run {i}: all {len(selfs)} self times are nonnegative")
        problems = tracing.check_spans(t.spans, passes[i].wall_ns, passes[i].step_ns)
        expect(not problems, f"{name}: traced run {i}: self times under sim.run agree with the outside clocks {problems}")
        runs = sum(1 for s in t.spans if s[0] == "sim.run")
        expect(runs == len(passes[i].outcomes), f"{name}: traced run {i}: one sim.run span per trial")
    expect(tracers[0].call_counts() == tracers[1].call_counts(), f"{name}: per-layer call counts repeat exactly")
    expect(tracers[0].counters == tracers[1].counters, f"{name}: per-layer outcome counters repeat exactly")
    steps = tracers[0].call_counts()["sim.step"]
    expect(steps == passes[0].steps > 0, f"{name}: sim.step spans ({steps}) equal the steps timed ({passes[0].steps})")


def check_span_checker() -> None:
    child_outlives_parent = [["sim.run", 0, 10, -1], ["sim.step", 0, 15, 0]]
    expect(bool(tracing.check_spans(child_outlives_parent, 20, 0)), "check_spans flags a negative self time")
    spans = [["sim.run", 0, 10, -1], ["sim.step", 2, 8, 0]]
    expect(not tracing.check_spans(spans, 10, 6), "check_spans accepts spans within the outside clocks")
    expect(bool(tracing.check_spans(spans, 9, 6)), "check_spans flags spans longer than the call time")
    expect(bool(tracing.check_spans(spans, 10, 11)), "check_spans flags spans shorter than the sim.step time")


def check_absent(work_dir: Path) -> None:
    missing = ("qcqp.no_such_function", "no_such_module.solve", "sim.NoSuchClass.method")
    saved = tracing.BOUNDARIES
    tracing.BOUNDARIES = saved + missing
    try:
        tracer = tracing.Tracer()
        p = one_pass("unfiltered_noise", work_dir, tracer)
        report = tracing.layer_report(tracer, p.steps)
    finally:
        tracing.BOUNDARIES = saved
    expect(tracer.absent == list(missing), f"missing boundaries are reported absent: {tracer.absent}")
    leaked = [k for k in report if k.startswith(missing)]
    expect(not leaked, "absent boundaries get no metric (no zero)")
    expect(report["sim.step.calls_per_step"][0] == 1.0, "present boundaries are still traced next to absent ones")


def check_probe(work_dir: Path) -> None:
    original = sim.run
    base = one_pass("unfiltered_noise", work_dir)
    with tracing.StepTimer(probe=measure.probe_ns) as timer:
        probed = one_pass("unfiltered_noise", work_dir)
    expect(sim.run is original, "the probing sim.run wrapper is restored")
    expect(probed.combined_digest == base.combined_digest, "probing between trials leaves trajectory digests unchanged")
    n = len(probed.outcomes) + 1  # the warm-up trial is probed too
    expect(len(timer.probes) == n and timer.probe_ns > 0, f"one probe before each of the {n} trials: {len(timer.probes)}")


def check_declared(work_dir: Path) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for m in spec["end_to_end"]:
        expect(run.END_TO_END.get(m["name"]) == m["unit"], f"end-to-end {m['name']} [{m['unit']}] is reported")
    tracer = tracing.Tracer()
    p = one_pass("cbc_shipped", work_dir, tracer)
    report = tracing.layer_report(tracer, p.steps)
    report["trace.overhead_frac"] = (0.0, "ratio")
    report["setup.import_ms"] = report["setup.load_ms"] = (0.0, "ms")
    wrong = [m["name"] for m in spec["per_layer"] if report.get(m["name"], (None, None))[1] != m["unit"]]
    expect(not wrong, f"every declared per-layer metric is reported with its unit {wrong or ''}")


def main() -> int:
    measure.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=measure.OUT_DIR) as tmp:
        work_dir = Path(tmp)
        check_span_checker()
        for name in ("unfiltered_noise", "cbc_shipped"):
            check_tracer(name, work_dir)
        check_absent(work_dir)
        check_probe(work_dir)
        check_declared(work_dir)
    print(f"{'FAILED' if failures else 'OK'}: {len(failures)} failing checks")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
