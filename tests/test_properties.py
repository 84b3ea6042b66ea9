"""Properties: every scenario that ``safe-ibvs check`` accepts runs to a typed end,
and the filter answers every finite factor-form problem with a certified
twist or a typed hold.

Scenarios are drawn around the shipped noisy reference scene: camera
pose offsets, obstacle starts, isotropic, diagonal, correlated, singular
and near-singular covariances, confidence levels, horizons, and scalar
weights, in every mode. Each one that loads and passes
``validate_scenario`` must ``run`` to convergence, to its step cap, or
to a typed abort, without raising, and log only the fixed step statuses.
Filter problems stack up to five constraints whose factors have 0, 1, 2
or 6 rows and entries up to 1.5e3, the size of PrCBC's factors for a
small gamma and a close obstacle. Examples are derandomized, so the
suite draws the same cases on every run.
"""

import copy
import json
import math
from pathlib import Path

import numpy as np
import yaml
from hypothesis import HealthCheck, assume, event, given, settings, strategies as st

from safe_ibvs import errors, scenario, sim, solvers
from safe_ibvs.errors import ScenarioError

BASE = yaml.safe_load((Path(__file__).parents[1] / "scenarios" / "reference_noise.yaml").read_text())
STATUSES = {
    solvers.STATUS_OPTIMAL,
    "unfiltered",
    solvers.HOLD_INFEASIBLE,
    solvers.HOLD_NO_CONVERGENCE,
    solvers.HOLD_CERTIFICATION,
}
ABORT_TYPES = {cls.__name__ for cls in vars(errors).values() if isinstance(cls, type) and issubclass(cls, Exception)}
ABORT_TYPES.add("LinAlgError")


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def covariances(draw):
    v1, v2 = draw(_floats(0.0, 40.0)), draw(_floats(0.0, 40.0))
    kind = draw(st.sampled_from(["isotropic", "diagonal", "correlated", "singular", "near_singular"]))
    if kind == "isotropic":
        return [[v1, 0.0], [0.0, v1]]
    if kind == "diagonal":
        rho = 0.0
    elif kind == "correlated":
        rho = draw(_floats(-0.99, 0.99))
    elif kind == "singular":
        rho = draw(st.sampled_from([-1.0, 1.0]))
    else:
        rho = draw(st.sampled_from([-1.0, 1.0])) * (1.0 - 10.0 ** -draw(st.integers(6, 12)))
    off = rho * math.sqrt(v1 * v2)
    return [[v1, off], [off, v2]]


@st.composite
def scenario_documents(draw):
    data = copy.deepcopy(BASE)
    pose = data["initial_pose"]
    pose["xyz"] = [x + draw(_floats(-0.3, 0.3)) for x in pose["xyz"]]
    pose["rpy"] = [a + draw(_floats(-0.3, 0.3)) for a in pose["rpy"]]
    start = [draw(_floats(-0.6, 0.6)), draw(_floats(-0.6, 0.6)), draw(_floats(-0.2, 0.9))]
    shift = np.subtract(start, data["obstacle"]["waypoints"][0]["center"])
    for wp in data["obstacle"]["waypoints"]:
        wp["center"] = (np.asarray(wp["center"]) + shift).tolist()
    data["noise"] = {
        "feature_cov": draw(covariances()),
        "obstacle_cov": draw(covariances()),
        "sigma": draw(_floats(0.5, 0.99)),
    }
    data["mode"] = draw(st.sampled_from(scenario.MODES))
    data["gamma"] = draw(_floats(0.5, 8.0))
    data["mpc"] = {
        "horizon": draw(st.integers(1, 6)),
        "q": draw(_floats(0.0, 5.0)),
        "r": draw(_floats(1e-3, 5.0)),
        "f": draw(_floats(0.0, 5.0)),
        "v_max": 0.5,
        "dt": 0.05,
    }
    data["max_steps"] = draw(st.integers(1, 10))
    data["seed"] = draw(st.integers(0, 2**31 - 1))
    return data


@settings(
    max_examples=300,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(scenario_documents())
def test_checked_scenario_runs_to_a_typed_end(data):
    try:
        sc = scenario.from_dict(data)
    except ScenarioError:
        assume(False)
    assume(scenario.validate_scenario(sc) == [])
    log = sim.run(sc)
    s = log.summary
    assert s.steps == len(log.table) == len(log.status) <= sc.max_steps
    assert s.converged or s.aborted or s.steps == sc.max_steps
    if s.aborted:
        assert s.abort_reason.split(":")[0] in ABORT_TYPES, s.abort_reason
    assert set(log.status) <= STATUSES
    json.dumps(log.summary_dict(), allow_nan=False)
    log.csv_text()
    # shown by pytest --hypothesis-show-statistics
    event(f"{sc.mode}: " + ("aborted " + s.abort_reason.split(":")[0] if s.aborted else "converged" if s.converged else "step cap"))
    event(f"holds: {s.fallback_steps > 0}")


HOLDS = {solvers.HOLD_INFEASIBLE, solvers.HOLD_NO_CONVERGENCE, solvers.HOLD_CERTIFICATION}


@st.composite
def factor_problems(draw):
    k = draw(st.integers(0, 5))
    r = draw(st.sampled_from([0, 1, 2, 6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f = rng.normal(size=(k, r, 6)) * draw(_floats(0.0, 1.5e3))
    b = rng.normal(size=(k, 6)) * draw(_floats(0.0, 1.5e3))
    c = rng.uniform(-1.0, 1.0, k) * draw(_floats(0.0, 10.0))
    v_ref = rng.normal(size=6) * draw(_floats(0.0, 5.0))
    return solvers.FilterProblem(v_ref, draw(_floats(0.01, 2.0)), f, b, c)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(factor_problems())
def test_filter_returns_a_certified_twist_or_a_typed_hold(problem):
    sol = solvers.solve_filter_qcqp(problem)
    if sol.status == solvers.STATUS_OPTIMAL:
        solvers.certify(sol, problem)
    else:
        assert sol.status in HOLDS and sol.message
        assert np.array_equal(sol.twist, np.zeros(6))
    event(sol.status)


@st.composite
def one_row_problems(draw):
    """One occlusion row that v_ref violates and V = 0 satisfies, with a speed ball the projection stays inside,
    or the speed ball alone: the free set is one quadratic row throughout."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v_ref = rng.normal(size=6) * draw(_floats(0.1, 5.0))
    speed = float(np.linalg.norm(v_ref))
    if draw(st.booleans()):
        return solvers.FilterProblem(v_ref, draw(_floats(0.01, 0.99)) * speed, np.zeros((0, 0, 6)), np.zeros((0, 6)), [])
    scale = 10.0 ** draw(_floats(0.0, 4.0))
    f = rng.normal(size=(1, draw(st.sampled_from([2, 6])), 6)) * scale
    b = rng.normal(size=(1, 6)) * scale
    c = [-draw(_floats(0.01, 10.0))]
    assume(float(np.sum((f[0] @ v_ref) ** 2) + b[0] @ v_ref + c[0]) > 0.0)
    # the projection is no farther from v_ref than V = 0, so it lies within 2 ||v_ref|| of 0
    return solvers.FilterProblem(v_ref, 2.0 * speed + 1.0, f, b, c)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(one_row_problems())
def test_one_active_row_is_projected_by_its_exact_step(problem):
    sol = solvers.solve_filter_qcqp(problem)
    assert sol.status == solvers.STATUS_OPTIMAL, sol.message
    solvers.certify(sol, problem)
    assert np.count_nonzero(sol.duals) == 1
    event(f"rank {problem.f.shape[1]}" if problem.f.shape[0] else "ball only")
