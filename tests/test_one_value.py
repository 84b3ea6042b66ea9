"""One bad value at a time: every malformed scene ends typed, never in a traceback.

Each case takes a shipped scenario YAML and replaces the value at one
path (a section, a key, a list or one of its items) with one of a fixed
set of bad values. The document must then do one of two things:
``from_dict`` raises ``ScenarioError``, as it does for every problem
``validate_scenario`` finds; or ``run``, capped at 3 steps, ends by
convergence, the step cap or a typed abort without raising. Where the
value replaced is a number, a boolean or a string must end in
``from_dict``: it is not read as 1.0 or parsed. The retired keys ``camera.px`` and
``camera.py`` are set the same way, as a scene written for the old
schema would set them, and each such document must end in ``from_dict``.
"""

import builtins
import copy
import functools
from dataclasses import replace
from pathlib import Path

import pytest
import yaml

from safe_ibvs import errors, scenario, sim
from safe_ibvs.errors import ScenarioError

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
DOCUMENTS = {name: yaml.safe_load((SCENARIOS / f"{name}.yaml").read_text()) for name in ("reference_cbc", "reference_noise")}
RETIRED = [("camera", "px"), ("camera", "py")]
VALUES = [None, 5, -1, 0, 2**64, 1e308, float("nan"), float("inf"), "x", True, [], [1.0], [[1.0, 2.0]], {}, {"x": 1}]
# a typed abort names a package error, a LinAlgError or an ArithmeticError such as an overflow
ABORT_TYPES = {
    cls.__name__
    for cls in [*vars(errors).values(), *vars(builtins).values()]
    if isinstance(cls, type) and issubclass(cls, (errors.SafeIbvsError, ArithmeticError))
} | {"LinAlgError"}
# the values are absurd on purpose: a float overflow on the way to a typed end is expected
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def _paths(node, prefix=()):
    """Every path below ``node``: a mapping key or a list index, down to the leaves."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _is_number(node) -> bool:
    return isinstance(node, (int, float)) and not isinstance(node, bool)


CASES = [
    pytest.param(name, path, value, id=f"{name}-{'.'.join(map(str, path))}-{value!r}")
    for name, doc in DOCUMENTS.items()
    for path in [*_paths(doc), *RETIRED]
    for value in VALUES
]


@pytest.mark.parametrize("name, path, value", CASES)
def test_one_bad_value_ends_typed(name, path, value):
    data = copy.deepcopy(DOCUMENTS[name])
    number = path not in RETIRED and _is_number(functools.reduce(lambda node, key: node[key], path, data))
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = copy.deepcopy(value)
    try:
        sc = scenario.from_dict(data)
    except ScenarioError:
        return
    assert path not in RETIRED, f"{'.'.join(path)} was accepted"
    assert not (number and isinstance(value, (bool, str))), f"{value!r} was read as a number"
    sc = replace(sc, max_steps=min(sc.max_steps, 3))
    s = sim.run(sc).summary
    assert s.converged or s.aborted or s.steps == sc.max_steps
    if s.aborted:
        assert s.abort_reason.split(":")[0] in ABORT_TYPES, s.abort_reason
