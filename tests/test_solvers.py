import numpy as np
import pytest

from safe_ibvs import solvers
from safe_ibvs.errors import CertificationFailed
from safe_ibvs.oracles import (
    enumerate_projection_qp,
    multistart_qcqp,
    random_qcqp_problem,
    random_qp_problem,
)
from safe_ibvs.sim import make_rng

E = np.eye(6)


def halfspaces(*pairs):
    """Stacked (a, b, c) of half-spaces ``row @ V >= rhs``, given as (row, rhs) pairs."""
    rows = np.array([row for row, _ in pairs], dtype=float).reshape(-1, 6)
    return np.zeros((len(pairs), 6, 6)), -rows, np.array([rhs for _, rhs in pairs], dtype=float)


def quadratics(*triples):
    """Stacked (a, b, c) of quadratics ``V'a V + b'V + c <= 0``, given as (a, b, c) triples."""
    a, b, c = zip(*triples)
    return np.array(a, dtype=float), np.array(b, dtype=float), np.array(c, dtype=float)


NONE = halfspaces()


def test_feasible_reference_returned_exactly():
    prob = solvers.FilterProblem(np.array([0.1, -0.05, 0.02, 0.0, 0.01, -0.02]), 0.5, *halfspaces((E[0], -1.0)))
    sol = solvers.solve_filter_qp(prob)
    assert sol.status == solvers.STATUS_OPTIMAL
    assert np.array_equal(sol.twist, prob.v_ref)
    assert sol.kkt_residual == 0.0


def test_single_halfspace_projection():
    prob = solvers.FilterProblem(-E[0], 10.0, *halfspaces((E[0], 0.0)))
    sol = solvers.solve_filter_qp(prob)
    assert sol.status == solvers.STATUS_OPTIMAL
    assert np.abs(sol.twist).max() < 1e-8
    assert 0 in sol.active_set


def test_qp_matches_enumeration_on_random_instances():
    rng = make_rng(17)
    for _ in range(200):
        prob = random_qp_problem(rng)
        sol = solvers.solve_filter_qp(prob)
        ref, _ = enumerate_projection_qp(prob)
        if ref is None:
            assert sol.status == solvers.STATUS_FALLBACK
            assert np.array_equal(sol.twist, np.zeros(6))
            continue
        assert sol.status == solvers.STATUS_OPTIMAL
        assert np.abs(sol.twist - ref).max() < 1e-6


def _disk(center, radius):
    """||V - center||^2 <= radius^2 as an (a, b, c) triple."""
    return np.eye(6), -2.0 * center, float(center @ center) - radius**2


def _filter(prob):
    return solvers.solve_filter_qcqp(prob) if prob.a[:-1].any() else solvers.solve_filter_qp(prob)


@pytest.mark.parametrize(
    "prob, message",
    [
        pytest.param(
            # needs v_x >= 2 inside a 0.5 ball
            solvers.FilterProblem(np.zeros(6), 0.5, *halfspaces((E[0], 2.0))),
            "dual value",
            id="halfspace_outside_ball",
        ),
        pytest.param(
            solvers.FilterProblem(np.zeros(6), 0.5, *quadratics(_disk(E[0], 0.2))),
            "dual value",
            id="disk_outside_ball",
        ),
        pytest.param(
            # the disks meet only at V = 0: a set with no interior, whose multipliers diverge
            solvers.FilterProblem(0.3 * E[1], 0.5, *quadratics(_disk(0.2 * E[0], 0.2), _disk(-0.2 * E[0], 0.2))),
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
            solvers.FilterProblem(np.zeros(6), 0.5, *halfspaces((E[0], 0.2))),
            0.2 * E[0],
            id="zero_reference_infeasible",
        ),
        pytest.param(
            # two identical active rows make the dual Newton system singular
            solvers.FilterProblem(-0.3 * E[0] + 0.1 * E[1], 0.5, *halfspaces((E[0], 0.1), (E[0], 0.1))),
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
    prob = solvers.FilterProblem(2.0 * E[0], 1.0, *quadratics((np.zeros((6, 6)), np.zeros(6), -0.5)))
    sol = solvers.solve_filter_qcqp(prob)
    assert sol.status == solvers.STATUS_OPTIMAL
    assert np.abs(sol.twist - np.array([1.0, 0, 0, 0, 0, 0])).max() < 1e-7


def test_qcqp_zero_reference_fixed_point():
    rng = make_rng(3)
    prob = random_qcqp_problem(rng)
    # make 0 feasible by forcing all offsets negative
    prob0 = solvers.FilterProblem(np.zeros(6), prob.v_max, prob.a[:-1], prob.b[:-1], -np.abs(prob.c[:-1]) - 0.1)
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
    qc = quadratics((np.eye(6), np.zeros(6), -1.0))
    with pytest.raises(ValueError, match="half-space"):
        solvers.solve_filter_qp(solvers.FilterProblem(np.zeros(6), 1.0, *qc))
    # a half-space is a quadratic with a = 0, so the QCQP filter accepts it
    hs = solvers.FilterProblem(-E[0], 1.0, *halfspaces((np.ones(6), 0.0)))
    assert solvers.solve_filter_qcqp(hs).status == solvers.STATUS_OPTIMAL
    # one batched PSD check names the first indefinite row of the stack
    bad = quadratics((np.eye(6), np.zeros(6), -1.0), (-np.eye(6), np.zeros(6), -1.0))
    with pytest.raises(ValueError, match="constraint 1 is not PSD"):
        solvers.solve_filter_qcqp(solvers.FilterProblem(np.zeros(6), 1.0, *bad))


def test_psd_check_allows_rounding_of_large_gram_matrices():
    # a rank-2 Gram matrix with entries near 1e7, as PrCBC builds for a small gamma and a close obstacle:
    # eigvalsh puts its zero eigenvalues at about -3e-10, which is rounding, not indefiniteness
    g = np.random.default_rng(0).normal(size=(2, 6)) * 1.5e3
    assert np.linalg.eigvalsh(g.T @ g)[0] < -1e-10
    prob = solvers.FilterProblem(np.zeros(6), 1.0, *quadratics((g.T @ g, np.zeros(6), -1.0)))
    assert solvers.solve_filter_qcqp(prob).status == solvers.STATUS_OPTIMAL


def test_problem_appends_the_speed_ball():
    prob = solvers.FilterProblem(np.zeros(6), 0.7, *halfspaces((E[0], 0.1), (E[1], -0.2)))
    assert prob.a.shape == (3, 6, 6) and prob.b.shape == (3, 6) and prob.c.shape == (3,)
    assert np.array_equal(prob.a[-1], np.eye(6)) and not prob.b[-1].any() and prob.c[-1] == -0.7**2
    assert np.array_equal(prob.b[:-1], -E[:2]) and np.array_equal(prob.c[:-1], [0.1, -0.2])
    empty = solvers.FilterProblem(np.zeros(6), 1.0, *NONE)
    assert empty.a.shape == (1, 6, 6)


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
    prob = solvers.FilterProblem(-E[0], 10.0, *halfspaces((E[0], 0.0)))
    sol = solvers.solve_filter_qp(prob)
    tampered = solvers.FilterSolution(
        twist=sol.twist - 0.1 * np.array([1.0, 0, 0, 0, 0, 0]),  # step through the violated normal
        status=solvers.STATUS_OPTIMAL,
        kkt_residual=sol.kkt_residual,
    )
    with pytest.raises(CertificationFailed):
        solvers.certify(tampered, prob)


def test_certify_rejects_fallback_input():
    prob = solvers.FilterProblem(np.zeros(6), 1.0, *NONE)
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
        scaled = solvers.FilterProblem(c * prob.v_ref, c * prob.v_max, prob.a[:-1], prob.b[:-1], c * prob.c[:-1])
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
    rows, rhs = -prob.b[:-1], prob.c[:-1]
    best = np.linalg.norm(sol.twist - prob.v_ref)
    found = 0
    while found < 1000:
        w = rng.uniform(-prob.v_max, prob.v_max, 6)
        if np.linalg.norm(w) <= prob.v_max and np.all(rows @ w >= rhs):
            found += 1
            assert best <= np.linalg.norm(w - prob.v_ref) + 1e-9


def test_nnls_matches_scipy_residual():
    from scipy.optimize import nnls as scipy_nnls

    rng = np.random.default_rng(3)
    for i in range(10_000):
        k = int(rng.integers(1, 7))
        a = rng.normal(size=(6, k))
        kind = i % 4
        if kind == 0:
            b = rng.normal(size=6)
        elif kind == 1:  # a pass-through step: nothing to fit, every multiplier is exactly zero
            b = np.zeros(6)
        elif kind == 2:  # an exact fit whose zero coefficients carry exactly zero correlation
            x_true = np.abs(rng.normal(size=k)) * (rng.random(k) < 0.5)
            b = a @ x_true
        else:  # a vanishing gradient column next to a repeated one
            a[:, 0] = 0.0
            a[:, -1] = a[:, k // 2]
            b = rng.normal(size=6)
        x, residual = solvers.nnls(a, b)
        assert np.all(x >= 0.0)
        assert residual == pytest.approx(float(np.linalg.norm(a @ x - b)), abs=1e-15)
        assert abs(residual - scipy_nnls(a, b)[1]) <= 1e-12
