"""The benchmark's traced run must find every layer boundary it declares.

``perfbench/run.py --trace 1`` reports metrics only for the boundaries in
``perfbench/tracing.py`` that still resolve, so renaming or deleting one
of those functions silently drops declared metrics from the result line.
"""

import importlib.util
import json
from dataclasses import replace
from pathlib import Path

import pytest

from safe_ibvs import scenario, sim

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
# per-layer names that perfbench/measure.py and perfbench/run.py add outside the tracer's report
ADDED_OUTSIDE_REPORT = {"trace.overhead_frac", "setup.import_ms", "setup.load_ms"}


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_boundary_resolves():
    with _tracing().Tracer() as tracer:
        absent = list(tracer.absent)
    assert absent == []


@pytest.mark.parametrize("scenario_file", ["reference_cbc.yaml", "reference_noise.yaml"])
def test_traced_run_reports_every_declared_metric(scenario_file):
    # the tracer's observers read FilterSolution and plan outputs; a missing field raises here
    tracing = _tracing()
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    sc = replace(scenario.load(ROOT / "scenarios" / scenario_file), max_steps=15)
    with tracing.Tracer() as tracer:
        log = sim.run(sc)
    report = tracing.layer_report(tracer, log.summary.steps)
    assert declared - ADDED_OUTSIDE_REPORT - set(report) == set()
