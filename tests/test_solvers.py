import numpy as np
import pytest

from safe_ibvs import solvers
from safe_ibvs.barrier import HalfspaceConstraint, QuadraticConstraint
from safe_ibvs.errors import CertificationFailed
from safe_ibvs.oracles import (
    enumerate_projection_qp,
    multistart_qcqp,
    random_qcqp_problem,
    random_qp_problem,
)
from safe_ibvs.sim import make_rng


def test_feasible_reference_returned_exactly():
    prob = solvers.FilterProblem(
        v_ref=np.array([0.1, -0.05, 0.02, 0.0, 0.01, -0.02]),
        v_max=0.5,
        halfspaces=[HalfspaceConstraint(np.array([1.0, 0, 0, 0, 0, 0]), -1.0)],
    )
    sol = solvers.solve_filter_qp(prob)
    assert sol.status == solvers.STATUS_OPTIMAL
    assert np.array_equal(sol.twist, prob.v_ref)
    assert sol.kkt_residual == 0.0


def test_single_halfspace_projection():
    prob = solvers.FilterProblem(
        v_ref=np.array([-1.0, 0, 0, 0, 0, 0]),
        v_max=10.0,
        halfspaces=[HalfspaceConstraint(np.array([1.0, 0, 0, 0, 0, 0]), 0.0)],
    )
    sol = solvers.solve_filter_qp(prob)
    assert sol.status == solvers.STATUS_OPTIMAL
    assert np.abs(sol.twist).max() < 1e-8
    assert 0 in sol.active_set


def test_qp_matches_enumeration_on_random_instances():
    rng = make_rng(17)
    for _ in range(200):
        prob = random_qp_problem(rng)
        sol = solvers.solve_filter_qp(prob)
        ref, _ = enumerate_projection_qp(prob.v_ref, prob.halfspaces, prob.v_max)
        if ref is None:
            assert sol.status == solvers.STATUS_FALLBACK
            assert np.array_equal(sol.twist, np.zeros(6))
            continue
        assert sol.status == solvers.STATUS_OPTIMAL
        assert np.abs(sol.twist - ref).max() < 1e-6


E = np.eye(6)


def _disk(center, radius):
    """||V - center||^2 <= radius^2 as a quadratic constraint."""
    return QuadraticConstraint(np.eye(6), -2.0 * center, float(center @ center) - radius**2)


def _filter(prob):
    return solvers.solve_filter_qcqp(prob) if prob.quadratics else solvers.solve_filter_qp(prob)


@pytest.mark.parametrize(
    "prob, message",
    [
        pytest.param(
            # needs v_x >= 2 inside a 0.5 ball
            solvers.FilterProblem(v_ref=np.zeros(6), v_max=0.5, halfspaces=[HalfspaceConstraint(E[0], 2.0)]),
            "dual value",
            id="halfspace_outside_ball",
        ),
        pytest.param(
            solvers.FilterProblem(v_ref=np.zeros(6), v_max=0.5, quadratics=[_disk(E[0], 0.2)]),
            "dual value",
            id="disk_outside_ball",
        ),
        pytest.param(
            # the disks meet only at V = 0: a set with no interior, whose multipliers diverge
            solvers.FilterProblem(v_ref=0.3 * E[1], v_max=0.5, quadratics=[_disk(0.2 * E[0], 0.2), _disk(-0.2 * E[0], 0.2)]),
            "no convergence",
            id="touching_disks",
        ),
    ],
)
def test_engineered_infeasible_holds(prob, message):
    sol = _filter(prob)
    assert sol.status == solvers.STATUS_FALLBACK
    assert np.array_equal(sol.twist, np.zeros(6))
    assert message in sol.message


@pytest.mark.parametrize(
    "prob, expected",
    [
        pytest.param(
            # V = 0 violates v_x >= 0.2, but the set is not empty
            solvers.FilterProblem(v_ref=np.zeros(6), v_max=0.5, halfspaces=[HalfspaceConstraint(E[0], 0.2)]),
            0.2 * E[0],
            id="zero_reference_infeasible",
        ),
        pytest.param(
            # two identical active rows make the dual Newton system singular
            solvers.FilterProblem(
                v_ref=-0.3 * E[0] + 0.1 * E[1],
                v_max=0.5,
                halfspaces=[HalfspaceConstraint(E[0], 0.1), HalfspaceConstraint(E[0], 0.1)],
            ),
            0.1 * E[0] + 0.1 * E[1],
            id="duplicated_active_halfspace",
        ),
    ],
)
def test_engineered_edge_cases_certify(prob, expected):
    sol = _filter(prob)
    assert sol.status == solvers.STATUS_OPTIMAL
    assert np.abs(sol.twist - expected).max() < 1e-9
    solvers.certify(sol, prob)


def test_qcqp_vacuous_constraints_clip_to_ball():
    quads = [QuadraticConstraint(a=np.zeros((6, 6)), b=np.zeros(6), c=-0.5)]
    v_ref = np.array([2.0, 0, 0, 0, 0, 0])
    prob = solvers.FilterProblem(v_ref=v_ref, v_max=1.0, quadratics=quads)
    sol = solvers.solve_filter_qcqp(prob)
    assert sol.status == solvers.STATUS_OPTIMAL
    assert np.abs(sol.twist - np.array([1.0, 0, 0, 0, 0, 0])).max() < 1e-7


def test_qcqp_zero_reference_fixed_point():
    rng = make_rng(3)
    prob = random_qcqp_problem(rng)
    # make 0 feasible by forcing all offsets negative
    quads = [QuadraticConstraint(q.a, q.b, -abs(q.c) - 0.1) for q in prob.quadratics]
    prob0 = solvers.FilterProblem(v_ref=np.zeros(6), v_max=prob.v_max, quadratics=quads)
    sol = solvers.solve_filter_qcqp(prob0)
    assert sol.status == solvers.STATUS_OPTIMAL
    assert np.abs(sol.twist).max() < 1e-9


def test_qcqp_matches_multistart_on_random_instances():
    rng = make_rng(23)
    for _ in range(50):
        prob = random_qcqp_problem(rng)
        sol = solvers.solve_filter_qcqp(prob)
        ref, ref_obj = multistart_qcqp(prob, rng)
        if sol.status != solvers.STATUS_OPTIMAL:
            assert ref is None
            continue
        if ref is None:
            continue
        obj = float((sol.twist - prob.v_ref) @ (sol.twist - prob.v_ref))
        assert abs(obj - ref_obj) < 1e-4


def test_mode_preconditions():
    hs = [HalfspaceConstraint(np.ones(6), 0.0)]
    qc = [QuadraticConstraint(np.eye(6), np.zeros(6), -1.0)]
    with pytest.raises(ValueError):
        solvers.solve_filter_qp(solvers.FilterProblem(v_ref=np.zeros(6), v_max=1.0, quadratics=qc))
    with pytest.raises(ValueError):
        solvers.solve_filter_qcqp(solvers.FilterProblem(v_ref=np.zeros(6), v_max=1.0, halfspaces=hs))
    bad = [QuadraticConstraint(-np.eye(6), np.zeros(6), -1.0)]
    with pytest.raises(ValueError, match="PSD"):
        solvers.solve_filter_qcqp(solvers.FilterProblem(v_ref=np.zeros(6), v_max=1.0, quadratics=bad))


def test_certify_accepts_solver_output():
    rng = make_rng(29)
    checked = 0
    for _ in range(100):
        prob = random_qp_problem(rng)
        sol = solvers.solve_filter_qp(prob)
        if sol.status == solvers.STATUS_OPTIMAL:
            report = solvers.certify(sol, prob)
            assert report.max_violation <= 1e-7
            checked += 1
    assert checked > 50


def test_certify_rejects_tampered_solution():
    prob = solvers.FilterProblem(
        v_ref=np.array([-1.0, 0, 0, 0, 0, 0]),
        v_max=10.0,
        halfspaces=[HalfspaceConstraint(np.array([1.0, 0, 0, 0, 0, 0]), 0.0)],
    )
    sol = solvers.solve_filter_qp(prob)
    tampered = solvers.FilterSolution(
        twist=sol.twist - 0.1 * np.array([1.0, 0, 0, 0, 0, 0]),  # step through the violated normal
        status=solvers.STATUS_OPTIMAL,
        kkt_residual=sol.kkt_residual,
    )
    with pytest.raises(CertificationFailed):
        solvers.certify(tampered, prob)


def test_certify_rejects_fallback_input():
    prob = solvers.FilterProblem(v_ref=np.zeros(6), v_max=1.0)
    held = solvers.FilterSolution(twist=np.zeros(6), status=solvers.STATUS_FALLBACK)
    with pytest.raises(ValueError):
        solvers.certify(held, prob)


def test_determinism_bit_identical():
    rng = make_rng(31)
    prob = random_qcqp_problem(rng)
    a = solvers.solve_filter_qcqp(prob)
    b = solvers.solve_filter_qcqp(prob)
    assert np.array_equal(a.twist, b.twist)
    assert a.kkt_residual == b.kkt_residual


def test_qp_scaling_sanity():
    rng = make_rng(37)
    for _ in range(20):
        prob = random_qp_problem(rng)
        sol = solvers.solve_filter_qp(prob)
        if sol.status != solvers.STATUS_OPTIMAL:
            continue
        c = 2.5
        scaled = solvers.FilterProblem(
            v_ref=c * prob.v_ref,
            v_max=c * prob.v_max,
            halfspaces=[HalfspaceConstraint(h.row, c * h.rhs) for h in prob.halfspaces],
        )
        sol_c = solvers.solve_filter_qp(scaled)
        assert sol_c.status == solvers.STATUS_OPTIMAL
        assert np.abs(sol_c.twist - c * sol.twist).max() < 1e-8


def test_minimal_deviation_against_sampled_feasible_points():
    rng = make_rng(41)
    prob = random_qp_problem(rng)
    sol = solvers.solve_filter_qp(prob)
    while sol.status != solvers.STATUS_OPTIMAL:
        prob = random_qp_problem(rng)
        sol = solvers.solve_filter_qp(prob)
    rows = np.array([h.row for h in prob.halfspaces])
    rhs = np.array([h.rhs for h in prob.halfspaces])
    best = np.linalg.norm(sol.twist - prob.v_ref)
    found = 0
    while found < 1000:
        w = rng.uniform(-prob.v_max, prob.v_max, 6)
        if np.linalg.norm(w) <= prob.v_max and np.all(rows @ w >= rhs):
            found += 1
            assert best <= np.linalg.norm(w - prob.v_ref) + 1e-9
