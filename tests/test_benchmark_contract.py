"""The benchmark's traced run must find every layer boundary it declares.

``perfbench/run.py --trace 1`` reports metrics only for the boundaries in
``perfbench/tracing.py`` that still resolve, so renaming or deleting one
of those functions silently drops declared metrics from the result line.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_boundary_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    with tracing.Tracer() as tracer:
        absent = list(tracer.absent)
    assert absent == []
