"""Timing wrappers installed from outside the package, and restored afterwards.

``StepTimer`` times every ``sim.step`` call (the control period) and is
the only wrapper present in untraced runs. ``Tracer`` records a span
(name, start, end, parent) at each layer boundary in ``BOUNDARIES``:
it replaces the function in every ``safe_ibvs`` module namespace that
binds it, so both ``mod.fn`` and ``from .mod import fn`` call sites are
seen. Spans stay in memory; ``layer_report`` turns them into per-step
counts and self times.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np
from safe_ibvs.solvers import STATUS_FALLBACK

PACKAGE = "safe_ibvs"

# Layer boundaries as ``<module>.<function>`` or ``<module>.<Class>.<method>``.
BOUNDARIES = (
    "sim.run",
    "sim.step",
    "sim.observe",
    "sim.sweep",
    "sim.TrajectoryLog.csv_text",
    "scenario.load",
    "scenario.validate_scenario",
    "geometry.project_point",
    "geometry.obstacle_image_state",
    "geometry.integrate_twist",
    "jacobians.feature_interaction",
    "mpc.plan",
    "ibvs.gradient_controller",
    "barrier.cbc_halfspaces",
    "barrier.prcbc_quadratics",
    "barrier.barrier_rate_row",
    "solvers.solve_filter_qp",
    "solvers.solve_filter_qcqp",
    "solvers.certify",
    "qcqp.solve",
    "qcqp.phase_one",
)
FILTERS = ("solvers.solve_filter_qp", "solvers.solve_filter_qcqp")
SATURATION_RTOL = 1e-9  # a plan block counts as saturated at ||u_k|| >= v_max (1 - rtol)


class _Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, name, value):
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def restore(self):
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


def _resolve(boundary: str):
    """(owner, attribute name, function) for a boundary, or None when it no longer exists."""
    module_name, *path, fn_name = boundary.split(".")
    try:
        owner = importlib.import_module(f"{PACKAGE}.{module_name}")
    except ImportError:
        return None
    for part in path:
        owner = vars(owner).get(part)
        if owner is None:
            return None
    func = vars(owner).get(fn_name)
    if not callable(func):
        return None
    return owner, fn_name, func


def _call_sites(owner, name, func):
    """Every namespace that binds ``func``: the owner, plus modules that imported it by name."""
    if isinstance(owner, type):
        return [(owner, name)]
    sites = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        sites.extend((module, attr) for attr, value in list(vars(module).items()) if value is func)
    return sites


class StepTimer:
    """Records the host time of every ``sim.step`` call while installed.

    Given a ``probe``, it also calls it before every ``sim.run`` (between
    trials, never inside a step) and keeps what it returns in ``probes``;
    ``probe_ns`` is the host time the probe calls took, for callers to
    subtract from the time of the calls around them.
    """

    def __init__(self, probe=None):
        self.durations_ns: list[int] = []
        self.probes: list[float] = []
        self.probe_ns = 0
        self._probe = probe
        self._patches = _Patches()

    def __enter__(self):
        sim = importlib.import_module(f"{PACKAGE}.sim")
        step = sim.step
        durations, clock = self.durations_ns, time.perf_counter_ns

        @functools.wraps(step)
        def timed_step(*args, **kwargs):
            t0 = clock()
            try:
                return step(*args, **kwargs)
            finally:
                durations.append(clock() - t0)

        self._patches.set(sim, "step", timed_step)
        if self._probe is not None:
            run = sim.run

            @functools.wraps(run)
            def probed_run(*args, **kwargs):
                t0 = clock()
                self.probes.append(self._probe())
                self.probe_ns += clock() - t0
                return run(*args, **kwargs)

            self._patches.set(sim, "run", probed_run)
        return self

    def __exit__(self, *exc):
        self._patches.restore()


class Tracer:
    """Span recorder over ``BOUNDARIES``, plus outcome counters at a few of them."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.absent: list[str] = []
        self.counters = {
            "filter_calls": 0,
            "filter_passthrough": 0,
            "filter_hold": 0,
            "filter_active_total": 0,
            "certify_fail": 0,
            "plan_calls": 0,
            "plan_saturated": 0,
        }
        self._stack: list[int] = []
        self._patches = _Patches()

    def __enter__(self):
        from safe_ibvs.errors import CertificationFailed

        self._certification_failed = CertificationFailed
        observers = {name: self._observe_filter for name in FILTERS}
        observers["solvers.certify"] = self._observe_certify
        observers["mpc.plan"] = self._observe_plan
        for boundary in BOUNDARIES:
            found = _resolve(boundary)
            if found is None:
                self.absent.append(boundary)
                continue
            wrapper = self._wrap(boundary, found[2], observers.get(boundary))
            for owner, attr in _call_sites(*found):
                self._patches.set(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        self._patches.restore()

    def _wrap(self, name, func, observe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1])
            stack.append(idx)
            result, error = None, None
            try:
                result = func(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                spans[idx][2] = clock()
                stack.pop()
                if observe is not None:
                    observe(args, kwargs, result, error)

        return traced

    def _observe_filter(self, args, kwargs, solution, error):
        if error is not None:
            return
        problem = args[0] if args else kwargs["problem"]
        c = self.counters
        c["filter_calls"] += 1
        c["filter_active_total"] += len(solution.active_set)
        if solution.status.startswith(STATUS_FALLBACK):
            c["filter_hold"] += 1
        elif np.array_equal(solution.twist, problem.v_ref):
            c["filter_passthrough"] += 1

    def _observe_certify(self, args, kwargs, report, error):
        if isinstance(error, self._certification_failed):
            self.counters["certify_fail"] += 1

    def _observe_plan(self, args, kwargs, controls, error):
        if error is not None:
            return
        cfg = args[2] if len(args) > 2 else kwargs["cfg"]
        norms = np.linalg.norm(np.asarray(controls).reshape(-1, 6), axis=1)
        self.counters["plan_calls"] += 1
        self.counters["plan_saturated"] += int(np.any(norms >= cfg.v_max * (1.0 - SATURATION_RTOL)))

    def call_counts(self) -> dict[str, int]:
        counts = {b: 0 for b in BOUNDARIES if b not in self.absent}
        for span in self.spans:
            counts[span[0]] += 1
        return counts


def self_times(spans) -> list[int]:
    """Each span's duration minus the time its child spans cover (children never overlap)."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def check_spans(spans, outer_ns: int, inner_ns: int) -> list[str]:
    """Self times are nonnegative, and those under ``sim.run`` sum to a time within clocks taken outside the tracer.

    ``outer_ns`` is the host time of the calls that ran every ``sim.run``;
    ``inner_ns`` is the ``StepTimer`` total of the ``sim.step`` calls inside them.
    """
    selfs = self_times(spans)
    negative = sum(1 for s in selfs if s < 0)
    problems = [f"{negative} negative self times"] if negative else []
    inside = [False] * len(spans)
    total = 0
    for i, (name, _, _, parent) in enumerate(spans):
        inside[i] = name == "sim.run" or (parent >= 0 and inside[parent])
        if inside[i]:
            total += selfs[i]
    if not inner_ns <= total <= outer_ns:
        problems.append(
            f"self times under sim.run sum to {total} ns, outside [{inner_ns}, {outer_ns}] ns "
            "(sim.step time timed inside, call time timed outside)"
        )
    return problems


def layer_report(tracer: Tracer, steps: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics by name: (value, unit). Boundaries in ``tracer.absent`` are left out."""
    per_step = 1.0 / max(steps, 1)
    calls = tracer.call_counts()
    self_ns = dict.fromkeys(calls, 0)
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        self_ns[span[0]] += own
    out: dict[str, tuple[float, str]] = {"trace.steps": (steps, "count")}
    for b in calls:
        out[f"{b}.calls_per_step"] = (calls[b] * per_step, "calls/step")
        out[f"{b}.self_us_per_step"] = (self_ns[b] * 1e-3 * per_step, "us/step")

    def frac(num, den):
        return num / den if den else 0.0

    c = tracer.counters
    if any(f in calls for f in FILTERS):
        out["solvers.filter.calls"] = (c["filter_calls"], "count")
        out["solvers.filter.passthrough_frac"] = (frac(c["filter_passthrough"], c["filter_calls"]), "ratio")
        out["solvers.filter.hold_frac"] = (frac(c["filter_hold"], c["filter_calls"]), "ratio")
        out["solvers.filter.active_set_mean"] = (frac(c["filter_active_total"], c["filter_calls"]), "count")
    if "solvers.certify" in calls:
        out["solvers.certify.fail_count"] = (c["certify_fail"], "count")
    if "mpc.plan" in calls:
        out["mpc.plan.calls"] = (c["plan_calls"], "count")
        out["mpc.plan.saturated_frac"] = (frac(c["plan_saturated"], c["plan_calls"]), "ratio")
    if "qcqp.solve" in calls and "qcqp.phase_one" in calls:
        out["qcqp.solve.calls"] = (calls["qcqp.solve"], "count")
        out["qcqp.phase_one.per_solve_frac"] = (frac(calls["qcqp.phase_one"], calls["qcqp.solve"]), "ratio")
    return out
