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
    """Stacked (f, b, c) of half-spaces ``row @ V >= rhs``, given as (row, rhs) pairs: factors with no rows."""
    rows = np.array([row for row, _ in pairs], dtype=float).reshape(-1, 6)
    return np.zeros((len(pairs), 0, 6)), -rows, np.array([rhs for _, rhs in pairs], dtype=float)


def quadratics(*triples):
    """Stacked (f, b, c) of quadratics ``||f V||^2 + b'V + c <= 0``, given as (f, b, c) triples."""
    f, b, c = zip(*triples)
    return np.array(f, dtype=float), np.array(b, dtype=float), np.array(c, dtype=float)


NONE = halfspaces()
HOLDS = {solvers.HOLD_INFEASIBLE, solvers.HOLD_NO_CONVERGENCE, solvers.HOLD_CERTIFICATION}


def test_feasible_reference_returned_exactly():
    prob = solvers.FilterProblem(np.array([0.1, -0.05, 0.02, 0.0, 0.01, -0.02]), 0.5, *halfspaces((E[0], -1.0)))
    sol = solvers.solve_filter_qp(prob)
    assert sol.status == solvers.STATUS_OPTIMAL
    assert np.array_equal(sol.twist, prob.v_ref)
    assert sol.active_set == ()


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
            assert sol.status in HOLDS
            assert np.array_equal(sol.twist, np.zeros(6))
            continue
        assert sol.status == solvers.STATUS_OPTIMAL
        assert np.abs(sol.twist - ref).max() < 1e-6


def _disk(center, radius):
    """||V - center||^2 <= radius^2 as an (f, b, c) triple."""
    return np.eye(6), -2.0 * center, float(center @ center) - radius**2


def _filter(prob):
    return solvers.solve_filter_qcqp(prob) if prob.a[:-1].any() else solvers.solve_filter_qp(prob)


@pytest.mark.parametrize(
    "prob, status, message",
    [
        pytest.param(
            # needs v_x >= 2 inside a 0.5 ball
            solvers.FilterProblem(np.zeros(6), 0.5, *halfspaces((E[0], 2.0))),
            solvers.HOLD_INFEASIBLE,
            "dual value",
            id="halfspace_outside_ball",
        ),
        pytest.param(
            solvers.FilterProblem(np.zeros(6), 0.5, *quadratics(_disk(E[0], 0.2))),
            solvers.HOLD_INFEASIBLE,
            "dual value",
            id="disk_outside_ball",
        ),
        pytest.param(
            # the disks meet only at V = 0: a set with no interior, whose multipliers diverge
            solvers.FilterProblem(0.3 * E[1], 0.5, *quadratics(_disk(0.2 * E[0], 0.2), _disk(-0.2 * E[0], 0.2))),
            solvers.HOLD_NO_CONVERGENCE,
            "no convergence",
            id="touching_disks",
        ),
    ],
)
def test_engineered_infeasible_holds(prob, status, message):
    sol = _filter(prob)
    assert sol.status == status
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
    prob0 = solvers.FilterProblem(np.zeros(6), prob.v_max, prob.f, prob.b[:-1], -np.abs(prob.c[:-1]) - 0.1)
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


def test_problem_appends_the_speed_ball():
    prob = solvers.FilterProblem(np.zeros(6), 0.7, *halfspaces((E[0], 0.1), (E[1], -0.2)))
    assert prob.f.shape == (2, 0, 6)
    assert prob.a.shape == (3, 6, 6) and prob.b.shape == (3, 6) and prob.c.shape == (3,)
    assert np.array_equal(prob.a[-1], np.eye(6)) and not prob.b[-1].any() and prob.c[-1] == -0.7**2
    assert np.array_equal(prob.b[:-1], -E[:2]) and np.array_equal(prob.c[:-1], [0.1, -0.2])
    empty = solvers.FilterProblem(np.zeros(6), 1.0, *NONE)
    assert empty.a.shape == (1, 6, 6)


def test_problem_derives_the_gram_matrices_from_the_factors():
    f = np.random.default_rng(4).normal(size=(3, 2, 6))
    prob = solvers.FilterProblem(np.zeros(6), 1.0, f, np.zeros((3, 6)), -np.ones(3))
    for i in range(3):
        assert np.array_equal(prob.a[i], f[i].T @ f[i])
    with pytest.raises(ValueError, match="shape"):
        solvers.FilterProblem(np.zeros(6), 1.0, np.zeros((3, 6, 5)), np.zeros((3, 6)), -np.ones(3))


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
    )
    with pytest.raises(CertificationFailed):
        solvers.certify(tampered, prob)


def test_certify_rejects_fallback_input():
    prob = solvers.FilterProblem(np.zeros(6), 1.0, *NONE)
    held = solvers.FilterSolution(twist=np.zeros(6), status=solvers.HOLD_INFEASIBLE)
    with pytest.raises(ValueError):
        solvers.certify(held, prob)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_certify_rejects_a_non_finite_twist(bad):
    prob = solvers.FilterProblem(np.zeros(6), 1.0, *halfspaces((E[0], -1.0)))
    with pytest.raises(CertificationFailed):
        solvers.certify(solvers.FilterSolution(twist=np.full(6, bad), status=solvers.STATUS_OPTIMAL), prob)


def test_filter_holds_with_the_certification_text(monkeypatch):
    def reject(solution, problem):
        raise CertificationFailed("stationarity residual 1e-3 > 1e-6")

    monkeypatch.setattr(solvers, "certify", reject)
    sol = solvers.solve_filter_qp(solvers.FilterProblem(-E[0], 10.0, *halfspaces((E[0], 0.0))))
    assert sol.status == solvers.HOLD_CERTIFICATION
    assert np.array_equal(sol.twist, np.zeros(6)) and sol.active_set == ()
    assert sol.message == "stationarity residual 1e-3 > 1e-6"


@pytest.mark.parametrize("v_ref", [[0.3, 0.8, 0.3, -1.3, 0.9, 0.4], [2.0, -2.6, 0.4, -0.6, -0.5, -0.2]])
def test_thin_slab_is_projected(v_ref):
    # |V_x| <= 1e-6: two opposed half-spaces whose gradients cancel, so the dual Hessian is singular
    # once both carry a multiplier; the dual is linear along its null space
    prob = solvers.FilterProblem(v_ref, 1.0, *halfspaces((E[0], -1e-6), (-E[0], -1e-6)))
    sol = solvers.solve_filter_qcqp(prob)
    assert sol.status == solvers.STATUS_OPTIMAL
    # the slab contains the ball's center, so the projection clips V_x, then scales the rest onto the ball
    expected = np.array(v_ref)
    expected[0] = np.clip(expected[0], -1e-6, 1e-6)
    expected[1:] *= min(1.0, np.sqrt(1.0 - expected[0] ** 2) / np.linalg.norm(expected[1:]))
    assert np.abs(sol.twist - expected).max() < 1e-9


@pytest.mark.parametrize("seed", range(3))
def test_sliver_of_a_steep_cylinder_is_projected(seed):
    # ||s (V - p)_xy|| <= s rho with s = 1e3 overlaps the unit ball in a lens 1e-6 deep: the dual
    # Hessian's diagonal spans 1e11, beyond lstsq's rank cutoff, and g's rounding outgrows FEAS_RTOL
    s, rho, delta = 1e3, 0.5, -1e-6
    f = s * E[:2]
    fp = f @ ((1.0 + rho + delta) * E[0])
    v_ref = np.random.default_rng(seed).normal(size=6)
    prob = solvers.FilterProblem(v_ref, 1.0, f[None], -2.0 * (f.T @ fp)[None], np.array([fp @ fp - (s * rho) ** 2]))
    sol = solvers.solve_filter_qcqp(prob)
    assert sol.status == solvers.STATUS_OPTIMAL
    assert np.abs(sol.twist - E[0]).max() < 2e-3


@pytest.mark.parametrize("seed", range(3))
def test_active_steep_cylinder_is_projected(seed):
    # factor scale 3e3 puts Gram entries near 1e7, and g's rounding on the active row (eps |c| = 2.4e-9)
    # above 1e-9; the solve's absolute gate on g is certify's own, so no such answer is held
    s, rho = 3e3, 0.5
    f = s * E[:2]
    fp = f @ (1.2 * E[0])
    v_ref = 0.3 * np.random.default_rng(seed).normal(size=6)
    prob = solvers.FilterProblem(v_ref, 1.0, f[None], -2.0 * (f.T @ fp)[None], np.array([fp @ fp - (s * rho) ** 2]))
    sol = solvers.solve_filter_qcqp(prob)
    assert sol.status == solvers.STATUS_OPTIMAL
    assert 0 in sol.active_set
    assert abs(np.hypot(sol.twist[0] - 1.2, sol.twist[1]) - rho) < 1e-9


def test_determinism_bit_identical():
    rng = make_rng(31)
    prob = random_qcqp_problem(rng)
    a = solvers.solve_filter_qcqp(prob)
    b = solvers.solve_filter_qcqp(prob)
    assert np.array_equal(a.twist, b.twist)
    assert a.status == b.status and a.active_set == b.active_set


def test_qp_scaling_sanity():
    rng = make_rng(37)
    for _ in range(20):
        prob = random_qp_problem(rng)
        sol = solvers.solve_filter_qp(prob)
        if sol.status != solvers.STATUS_OPTIMAL:
            continue
        c = 2.5
        scaled = solvers.FilterProblem(c * prob.v_ref, c * prob.v_max, prob.f, prob.b[:-1], c * prob.c[:-1])
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
