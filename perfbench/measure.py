"""Run one workload's units, check every output, and compute its metrics.

Untraced mode times units for ``seconds`` (and at least ``MIN_P99_STEPS``
steps) with only ``sim.step`` timed and a host-speed probe run before
each ``sim.run``. Traced mode runs a fixed,
seed-derived set of units three times: once untraced, then twice under
the tracer. It checks that all three give the same trajectory digests
and that the two traced passes give the same per-layer counts.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import tracing
import workloads

# p99 is reported only when >= 10 samples lie beyond it
MIN_P99_STEPS = 1000
# Fixed pure-Python work timed before every trial, outside every step and taken out of the
# timed calls. Its median over a run gives the host's speed during that run.
PROBE_LOOP = 3000
PROBE_REPEATS = 11
# Median probe time on an idle core of the 2-vCPU host the benchmark was tuned on. The
# *_per_ref_s metrics scale a run's rates to this probe time; only their ratios between runs matter.
PROBE_REF_NS = 200_000.0
# Units in a traced run: fixed, so per-layer counts repeat exactly at one seed.
TRACE_UNITS = {"sweep_prcbc": 1, "cbc_shipped": 1, "cbc_exact": 1, "unfiltered_noise": 40}

OUT_DIR = Path(__file__).resolve().parent / "out"


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class Pass:
    """Outcomes and timings of a sequence of units."""

    def __init__(self):
        self.outcomes: list[workloads.TrialOutcome] = []
        self.units: list[tuple[int, int]] = []  # (wall ns, steps) per unit
        self.step_ns = 0  # StepTimer total of the sim.step calls inside the units

    @property
    def steps(self) -> int:
        return sum(n for _, n in self.units)

    @property
    def wall_ns(self) -> int:
        return sum(w for w, _ in self.units)

    def run_unit(self, unit, timer: tracing.StepTimer) -> None:
        mark, probe_mark = len(timer.durations_ns), timer.probe_ns
        t0 = time.perf_counter_ns()
        raw, error = None, ""
        try:
            raw = unit.call()
        except Exception as exc:  # a raising trial is counted as failed, the run goes on
            traceback.print_exc(file=sys.stderr)
            error = f"raised {type(exc).__name__}: {exc}"
        wall = time.perf_counter_ns() - t0 - (timer.probe_ns - probe_mark)
        steps = len(timer.durations_ns) - mark
        self.units.append((wall, steps))
        self.step_ns += sum(timer.durations_ns[mark:])
        try:
            self.outcomes.extend(unit.failed(error) if error else unit.check(raw, steps))
        finally:
            unit.cleanup()

    @property
    def combined_digest(self) -> str:
        h = hashlib.sha256()
        for o in self.outcomes:
            h.update(f"{o.trial_id} {o.digest}\n".encode())
        return h.hexdigest()

    def summary(self) -> dict:
        attempted = len(self.outcomes)
        failed = sum(1 for o in self.outcomes if o.problems)
        wall_s = self.wall_ns * 1e-9
        return {
            "attempted": attempted,
            "failed": failed,
            "steps": self.steps,
            "wall_s": wall_s,
            "steps_per_s": self.steps / wall_s if wall_s else 0.0,
            "trials_per_s": sum(o.completed for o in self.outcomes) / wall_s if wall_s else 0.0,
            "failed_trial_frac": failed / attempted if attempted else 1.0,
            "occlusion_free_frac": sum(o.occlusion_free for o in self.outcomes) / max(attempted, 1),
            "hold_step_frac": sum(o.hold_steps for o in self.outcomes) / max(self.steps, 1),
            "combined_digest": self.combined_digest,
            "trial_digests": {o.trial_id: o.digest for o in self.outcomes},
            "problems": {o.trial_id: o.problems for o in self.outcomes if o.problems},
        }


def speed_probe() -> int:
    """Fixed interpreter-bound work; most of a control step's time is spent in the interpreter."""
    total = 0
    for i in range(PROBE_LOOP):
        total += i * i
    return total


def probe_ns() -> float:
    """Median host time of ``speed_probe`` right now, in nanoseconds."""
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter_ns()
        speed_probe()
        times.append(time.perf_counter_ns() - t0)
    return float(np.median(times))


def _latency(ms: np.ndarray) -> dict:
    out = {"step_ms_p50": float(np.median(ms))} if ms.size else {}
    if ms.size >= MIN_P99_STEPS:
        out["step_ms_p99"] = float(np.percentile(ms, 99))
    return out


def _measure(workload, seconds: float) -> dict:
    """Time units until the next one would end past ``seconds``, and at least ``MIN_P99_STEPS`` steps.

    ``speed_probe`` is timed before every trial, between trials and outside
    every step, and its time is taken out of the unit times. The host's speed
    drifts by more than half within minutes and the probe slows with it, so
    rates scaled by the run's median probe time (the ``*_per_ref_s`` metrics)
    stay comparable between runs.
    """
    p = Pass()
    with tracing.StepTimer(probe=probe_ns) as timer:
        workload.warmup()
        mark, probe_mark = len(timer.durations_ns), len(timer.probes)
        start = time.perf_counter()
        while True:
            p.run_unit(workload.next_unit(), timer)
            elapsed = time.perf_counter() - start
            n = len(p.units)
            if elapsed * (n + 1) / n > seconds and p.steps >= MIN_P99_STEPS:
                break
    result = p.summary()
    result["step_samples"] = p.steps
    result.update(_latency(np.asarray(timer.durations_ns[mark:], dtype=float) * 1e-6))
    probes = timer.probes[probe_mark:]
    if probes:  # none when every unit failed before its first sim.run
        result["probe_us"] = float(np.median(probes)) * 1e-3
        result["probe_us_range"] = [min(probes) * 1e-3, max(probes) * 1e-3]
        host_factor = float(np.median(probes)) / PROBE_REF_NS
        result["steps_per_ref_s"] = result["steps_per_s"] * host_factor
        result["trials_per_ref_s"] = result["trials_per_s"] * host_factor
    result["probe_ref_us"] = PROBE_REF_NS * 1e-3
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["correct"] = result["failed"] == 0 and "step_ms_p99" in result and bool(probes)
    return result


def _write_spans(path: Path, spans) -> None:
    with open(path, "w") as fh:
        fh.write("index,name,start_ns,end_ns,parent\n")
        for i, (name, start, end, parent) in enumerate(spans):
            fh.write(f"{i},{name},{start},{end},{parent}\n")


def run_workload(name: str, sc, scenario_file: Path, seed: int, seconds: float, trace: bool) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = OUT_DIR / f"work_{name}_{seed}_{os.getpid()}"
    work_dir.mkdir()
    try:
        cls = workloads.WORKLOADS[name]
        result = {"workload": name, "why": cls.why, "seed": seed, "trace": trace, "env": environment()}
        if trace:
            result.update(_traced(cls, sc, scenario_file, seed, work_dir))
        else:
            result.update(_measure(cls(sc, scenario_file, seed, work_dir), seconds))
        return result
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def fixed_pass(cls, sc, scenario_file: Path, seed: int, work_dir: Path, n_units: int, tracer=None) -> Pass:
    """Warm up, then run the first ``n_units`` units of the seed, under ``tracer`` if given.

    A fresh workload per pass, so every pass draws the same warm-up and units.
    """
    workload = cls(sc, scenario_file, seed, work_dir)
    p = Pass()
    with tracing.StepTimer() as timer:
        workload.warmup()
        with tracer or contextlib.nullcontext():
            for _ in range(n_units):
                p.run_unit(workload.next_unit(), timer)
    return p


def _traced(cls, sc, scenario_file: Path, seed: int, work_dir: Path) -> dict:
    def one_pass(tracer):
        return fixed_pass(cls, sc, scenario_file, seed, work_dir, TRACE_UNITS[cls.name], tracer)

    base = one_pass(None)
    tracers = [tracing.Tracer(), tracing.Tracer()]
    passes = [one_pass(t) for t in tracers]

    problems = []
    digests = [base.combined_digest] + [p.combined_digest for p in passes]
    if len(set(digests)) != 1:
        problems.append(f"trajectory digests differ between untraced and traced passes: {digests}")
    counts = [(t.call_counts(), t.counters) for t in tracers]
    if counts[0] != counts[1]:
        problems.append("per-layer counts differ between two traced passes at one seed")
    for t, p in zip(tracers, passes):
        problems.extend(tracing.check_spans(t.spans, p.wall_ns, p.step_ns))

    tracer, traced = tracers[-1], passes[-1]
    spans_path = OUT_DIR / f"spans_{cls.name}_seed{seed}.csv"
    _write_spans(spans_path, tracer.spans)
    layers = tracing.layer_report(tracer, traced.steps)
    base_sps = base.steps / (base.wall_ns * 1e-9)
    traced_sps = traced.steps / (traced.wall_ns * 1e-9)
    # extra host time per step under tracing, as a share of the untraced time per step
    layers["trace.overhead_frac"] = (base_sps / traced_sps - 1.0, "ratio")

    result = traced.summary()
    result["untraced_combined_digest"] = base.combined_digest
    result["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    result["absent"] = tracer.absent
    result["trace_problems"] = problems
    result["spans_file"] = str(spans_path)
    result["correct"] = result["failed"] == 0 and base.summary()["failed"] == 0 and not problems
    return result
