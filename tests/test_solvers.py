import numpy as np
import pytest
from hypothesis import given, settings
from test_properties import factor_problems

from safe_ibvs import qcqp, solvers
from safe_ibvs.errors import CertificationFailed
from safe_ibvs.oracles import (
    enumerate_projection_qp,
    min_max_value,
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
    v_ref = np.array([0.1, -0.05, 0.02, 0.0, 0.01, -0.02])
    qp = solvers.FilterProblem(v_ref, 0.5, *halfspaces((E[0], -1.0)))
    qcqp_prob = solvers.FilterProblem(v_ref, 0.5, *quadratics(_disk(0.1 * E[0], 0.3)))
    for prob, solve in [(qp, solvers.solve_filter_qp), (qcqp_prob, solvers.solve_filter_qcqp)]:
        sol = solve(prob)
        assert sol.status == solvers.STATUS_OPTIMAL
        assert np.array_equal(sol.twist, prob.v_ref) and sol.twist is not prob.v_ref
        assert sol.active_set == () and np.array_equal(sol.duals, np.zeros(2))
        assert solvers.certify(sol, prob).stationarity_residual == 0.0


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


@pytest.mark.parametrize(
    "b, c",
    [
        pytest.param(np.zeros((3, 6)), np.zeros(3), id="b_and_c_have_extra_rows"),
        pytest.param(np.zeros((2, 6)), np.zeros(3), id="c_has_an_extra_row"),
        pytest.param(np.zeros((1, 6)), np.zeros(2), id="b_is_short"),
    ],
)
def test_problem_rejects_row_counts_that_disagree(b, c):
    with pytest.raises(ValueError, match=r"\(2, 0, 6\).*\(\d, 6\).*\(\d,\)"):
        solvers.FilterProblem(np.zeros(6), 1.0, np.zeros((2, 0, 6)), b, c)


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "twist, duals",
    [
        pytest.param(np.full(6, np.nan), None, id="nan"),
        pytest.param(np.full(6, np.inf), None, id="inf"),
        # the pass-through V = 0 with a non-finite multiplier on its inactive half-space
        pytest.param(np.zeros(6), np.array([np.nan, 0.0]), id="nan_duals"),
        pytest.param(np.zeros(6), np.array([np.inf, 0.0]), id="inf_duals"),
    ],
)
def test_certify_rejects_a_non_finite_twist(twist, duals):
    prob = solvers.FilterProblem(np.zeros(6), 1.0, *halfspaces((E[0], -1.0)))
    with pytest.raises(CertificationFailed):
        solvers.certify(solvers.FilterSolution(twist=twist, status=solvers.STATUS_OPTIMAL, duals=duals), prob)


@pytest.mark.parametrize("length", [1, 3])
def test_multipliers_of_the_wrong_length_are_a_certification_hold(length, monkeypatch):
    prob = solvers.FilterProblem(-E[0], 10.0, *halfspaces((E[0], 0.0)))
    sol = solvers.solve_filter_qp(prob)
    wrong = solvers.FilterSolution(twist=sol.twist, status=solvers.STATUS_OPTIMAL, duals=np.ones(length))
    with pytest.raises(CertificationFailed, match=rf"\({length},\).*\(2,\)"):
        solvers.certify(wrong, prob)
    # a solve that returned them holds with the reason instead of raising
    solve = qcqp.solve
    monkeypatch.setattr(qcqp, "solve", lambda *args: (solve(*args)[0], np.ones(length), ""))
    held = solvers.solve_filter_qp(prob)
    assert held.status == solvers.HOLD_CERTIFICATION and not held.twist.any()
    assert f"({length},)" in held.message and "(2,)" in held.message


@pytest.mark.parametrize("tamper", ["moved", "negative", "doubled"])
def test_certify_rejects_tampered_certificates(tamper):
    # certified answers with an active row, then V moved 1e-4 off the projection, the largest multiplier
    # negated, or that multiplier doubled; a moved V leaves stationarity residual 2 ||M dV|| >= 2e-4
    rng = make_rng(43)
    checked = 0
    while checked < 200:
        prob = random_qcqp_problem(rng)
        sol = solvers.solve_filter_qcqp(prob)
        if sol.status != solvers.STATUS_OPTIMAL or not sol.active_set:
            continue
        j = int(np.argmax(sol.duals))
        assert j in sol.active_set and sol.duals[j] > 0.0
        twist, duals = sol.twist, sol.duals.copy()
        if tamper == "moved":
            direction = np.random.default_rng(checked).normal(size=6)
            twist = twist + 1e-4 * direction / np.linalg.norm(direction)
        else:
            duals[j] *= -1.0 if tamper == "negative" else 2.0
        with pytest.raises(CertificationFailed):
            solvers.certify(solvers.FilterSolution(twist=twist, status=solvers.STATUS_OPTIMAL, duals=duals), prob)
        checked += 1


def test_filter_holds_with_the_certification_text(monkeypatch):
    def reject(solution, problem):
        raise CertificationFailed("stationarity residual 1e-3 > 1e-6")

    monkeypatch.setattr(solvers, "certify", reject)
    sol = solvers.solve_filter_qp(solvers.FilterProblem(-E[0], 10.0, *halfspaces((E[0], 0.0))))
    assert sol.status == solvers.HOLD_CERTIFICATION
    assert np.array_equal(sol.twist, np.zeros(6)) and sol.active_set == ()
    assert sol.message == "stationarity residual 1e-3 > 1e-6"


def slab(v_ref):
    """|V_x| <= 1e-6 in the unit ball: two opposed half-spaces whose gradients cancel."""
    return solvers.FilterProblem(v_ref, 1.0, *halfspaces((E[0], -1e-6), (-E[0], -1e-6)))


SLAB_REFS = [[0.3, 0.8, 0.3, -1.3, 0.9, 0.4], [2.0, -2.6, 0.4, -0.6, -0.5, -0.2]]


def cylinder(s, center, rho, v_ref):
    """``||s (V - center)_xy|| <= s rho`` in the unit ball: a rank-2 factor of scale s."""
    f = s * E[:2]
    fp = f @ center
    return solvers.FilterProblem(v_ref, 1.0, f[None], -2.0 * (f.T @ fp)[None], np.array([fp @ fp - (s * rho) ** 2]))


@pytest.mark.parametrize("v_ref", SLAB_REFS)
def test_thin_slab_is_projected(v_ref):
    # the dual Hessian is singular once both half-spaces carry a multiplier; the dual is linear along
    # its null space
    sol = solvers.solve_filter_qcqp(slab(v_ref))
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
    prob = cylinder(1e3, (1.5 - 1e-6) * E[0], 0.5, np.random.default_rng(seed).normal(size=6))
    sol = solvers.solve_filter_qcqp(prob)
    assert sol.status == solvers.STATUS_OPTIMAL
    assert np.abs(sol.twist - E[0]).max() < 2e-3


@pytest.mark.parametrize("seed", range(3))
def test_active_steep_cylinder_is_projected(seed):
    # factor scale 3e3 puts Gram entries near 1e7, and g's rounding on the active row (eps |c| = 2.4e-9)
    # above 1e-9; the solve's absolute gate on g is certify's own, so no such answer is held
    prob = cylinder(3e3, 1.2 * E[0], 0.5, 0.3 * np.random.default_rng(seed).normal(size=6))
    sol = solvers.solve_filter_qcqp(prob)
    assert sol.status == solvers.STATUS_OPTIMAL
    assert 0 in sol.active_set
    assert abs(np.hypot(sol.twist[0] - 1.2, sol.twist[1]) - 0.5) < 1e-9


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


def reference_solve(v_ref, a, b, c, v_max):
    """The dual Newton loop of ``qcqp.solve`` in its plain form, the reference that solve must match.

    It solves with M twice per iterate, calls ``lstsq`` on every Newton
    system and stops only at the tight test or at ``MAX_ITER``. Returns V,
    the first word of the reason, and the last M.
    """

    def minimiser(lam):
        if lam.any():
            m_mat = np.eye(v_ref.shape[0]) + np.tensordot(lam, a, 1)
            x = np.linalg.solve(m_mat, v_ref - 0.5 * (lam @ b))
        else:
            m_mat, x = None, v_ref.copy()
        g, grads = qcqp.evaluate(a, b, c, x)
        ax = np.abs(x)
        sizes = (np.abs(a) @ ax) @ ax + np.abs(b) @ ax + np.abs(c)
        dist = float((x - v_ref) @ (x - v_ref))
        return m_mat, x, g, grads, sizes, dist + float(lam @ g), dist + float(lam @ sizes)

    lam = np.zeros(c.shape[0])
    m_mat, x, g, grads, sizes, dual, dual_size = minimiser(lam)
    m_last = np.eye(v_ref.shape[0])
    try:
        for it in range(qcqp.MAX_ITER + 1):
            residual = np.where(lam > 0.0, np.abs(g), g)
            if np.all(residual <= qcqp.FEAS_RTOL * sizes) and np.all(g <= qcqp.FEAS_ATOL):
                return x, "", m_last
            if it == qcqp.MAX_ITER:
                break
            free = np.flatnonzero((lam > 0.0) | (g > 0.0))
            g_free = grads[free]
            if m_mat is None:
                hess = 0.5 * (g_free @ g_free.T)
            else:
                hess = 0.5 * (g_free @ np.linalg.solve(m_mat, g_free.T))
            step, _, rank, _ = np.linalg.lstsq(hess, g[free], rcond=None)
            if rank < free.size:
                scale = np.sqrt(np.diag(hess))
                scale[scale == 0.0] = 1.0
                scaled = hess / np.outer(scale, scale)
                step, _, rank, _ = np.linalg.lstsq(scaled, g[free] / scale, rcond=None)
                drift = (g[free] / scale - scaled @ step) / scale
                step = step / scale
                falling = (drift * scale < -qcqp.FEAS_RTOL * sizes[free]) & (lam[free] > 0.0)
                if rank < free.size and falling.any():
                    step = step + drift * np.min(lam[free][falling] / -drift[falling])
            t = 1.0
            for _ in range(qcqp.MAX_HALVINGS):
                trial = lam.copy()
                trial[free] = np.maximum(lam[free] + t * step, 0.0)
                point = minimiser(trial)
                trial_dual, trial_size = point[5:]
                bar = dual + qcqp.ARMIJO * float(g @ (trial - lam)) - qcqp.ROUNDING * max(dual_size, trial_size)
                if trial_dual >= bar:
                    break
                t *= 0.5
            else:
                break
            lam = trial
            m_mat, x, g, grads, sizes, dual, dual_size = point
            m_last = m_mat if m_mat is not None else m_last
            if dual > (float(np.linalg.norm(v_ref)) + v_max) ** 2:
                return np.zeros_like(x), qcqp.INFEASIBLE, m_last
    except np.linalg.LinAlgError:
        return np.zeros_like(x), qcqp.NO_CONVERGENCE, m_last
    rounding = sizes + np.linalg.norm(grads, axis=1) * np.linalg.norm(x)
    if np.all(residual <= qcqp.FEAS_RTOL * rounding) and np.all(g <= qcqp.FEAS_ATOL):
        return x, "", m_last
    return np.zeros_like(x), qcqp.NO_CONVERGENCE, m_last


def assert_matches_reference(prob):
    args = (prob.v_ref, prob.a, prob.b, prob.c, prob.v_max)
    v, lam, reason = qcqp.solve(*args)
    ref, ref_reason, m_mat = reference_solve(*args)
    if ref_reason == qcqp.NO_CONVERGENCE and not reason:
        # the exact step along a lone quadratic row's multiplier reaches optima that the reference's damped Newton
        # steps stall short of; such an optimum must pass the certification with its own multipliers
        solvers.certify(solvers.FilterSolution(twist=v, status=solvers.STATUS_OPTIMAL, duals=lam), prob)
        return
    # which hold a divergent solve reports (the bound, or M singular at multipliers near 1e60) is rounding
    assert bool(reason) == bool(ref_reason)
    # plus the rounding that solving with M carries into V, which no order of operations avoids
    rounding = np.finfo(float).eps * np.linalg.cond(m_mat) * np.linalg.norm(ref)
    assert np.abs(v - ref).max() <= 1e-10 * (1.0 + np.linalg.norm(prob.v_ref)) + rounding


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(factor_problems())
def test_solve_matches_the_reference_on_factor_problems(problem):
    assert_matches_reference(problem)


@pytest.mark.parametrize(
    "prob",
    [slab(v_ref) for v_ref in SLAB_REFS]
    + [cylinder(1e3, (1.5 - 1e-6) * E[0], 0.5, np.random.default_rng(seed).normal(size=6)) for seed in range(3)]
    + [cylinder(3e3, 1.2 * E[0], 0.5, 0.3 * np.random.default_rng(seed).normal(size=6)) for seed in range(3)],
)
def test_solve_matches_the_reference_on_slab_and_cylinders(prob):
    assert_matches_reference(prob)


@pytest.mark.parametrize("v_ref", SLAB_REFS)
def test_stalled_slab_solve_stops_early(v_ref, monkeypatch):
    # near the optimum the slab's multipliers only move in their last bits; without the stall exit the
    # solve runs on to MAX_ITER (30 steps)
    steps = []
    phase_one = qcqp.phase_one
    monkeypatch.setattr(qcqp, "phase_one", lambda *args: steps.append(args) or phase_one(*args))
    sol = solvers.solve_filter_qcqp(slab(v_ref))
    assert sol.status == solvers.STATUS_OPTIMAL
    assert 0 < len(steps) <= 10


def test_one_factorisation_per_trial_point(monkeypatch):
    # one rank-2 PrCBC-like row that v_ref violates: the step along its multiplier goes to the dual's maximiser
    # on that coordinate, found from one eigendecomposition of the row, so the solve evaluates v_ref and one
    # trial point, and factorises M once, at that point
    counts = {"eigh": 0, "inv": 0, "other": 0, "points": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("inv", "solve", "lstsq", "cholesky", "qr", "svd", "eig", "eigh", "pinv", "det"):
        key = name if name in counts else "other"
        monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name), key))
    monkeypatch.setattr(qcqp, "evaluate", counted(qcqp.evaluate, "points"))
    prob = cylinder(40.0, 0.6 * E[0], 0.1, np.array([0.1, 0.3, -0.2, 0.05, 0.1, 0.0]))
    v, _, reason = qcqp.solve(prob.v_ref, prob.a, prob.b, prob.c, prob.v_max)
    assert reason == "" and np.hypot(v[0] - 0.6, v[1]) == pytest.approx(0.1, abs=1e-9)
    assert counts == {"eigh": 1, "inv": 1, "other": 0, "points": 2}


@pytest.mark.parametrize(
    "prob",
    [
        pytest.param(solvers.FilterProblem(-0.3 * E[0] + 0.1 * E[1], 1.0, *halfspaces((E[0], 0.1))), id="cbc"),
        pytest.param(
            # a quadratic row that v_ref and the projection satisfy: its multiplier stays 0, so M stays I
            solvers.FilterProblem(
                -0.3 * E[0] + 0.1 * E[1],
                1.0,
                np.concatenate([np.zeros((1, 6, 6)), E[None]]),
                np.stack([-E[0], np.zeros(6)]),
                np.array([0.1, -0.9]),
            ),
            id="idle_quadratic",
        ),
    ],
)
def test_halfspace_multipliers_need_no_linear_algebra(prob, monkeypatch):
    # every multiplier on a half-space leaves M = I: V is v_ref - 0.5 sum lambda_i b_i and the Hessian
    # 0.5 G G', with no call into np.linalg
    args = (prob.v_ref, prob.a, prob.b, prob.c, prob.v_max)
    ref, ref_reason, _ = reference_solve(*args)
    calls = []
    for name in ("inv", "solve", "lstsq", "cholesky", "qr", "svd", "eig", "eigh", "pinv", "det", "norm"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *args, _fn=fn, _name=name, **kw: calls.append(_name) or _fn(*args, **kw))
    v, _, reason = qcqp.solve(*args)
    assert calls == []
    assert reason == ref_reason == ""
    assert np.abs(v - ref).max() <= 1e-15 and np.abs(v - 0.1 * (E[0] + E[1])).max() <= 1e-15


def test_certify_is_independent_of_row_scale():
    # V_x <= 0.1 scaled by 2.4e-38: the solve's multiplier, 0.8 / s = 3.3e37, is the exact one for this
    # row, as V = v_ref - 0.5 lambda b is its Lagrangian minimiser, so lambda b cancels 2 (V - v_ref)
    # whatever the row's scale
    s = 2.4e-38
    prob = solvers.FilterProblem(np.array([0.5, 0.1, 0, 0, 0, 0]), 1.0, np.zeros((1, 0, 6)), (s * E[0])[None], [-0.1 * s])
    sol = solvers.solve_filter_qcqp(prob)
    assert sol.status == solvers.STATUS_OPTIMAL
    assert np.abs(sol.twist - np.array([0.1, 0.1, 0, 0, 0, 0])).max() < 1e-12
    report = solvers.certify(sol, prob)
    assert report.stationarity_residual == 0.0
    assert sol.duals[0] * s == pytest.approx(0.8)


@pytest.mark.filterwarnings("error")
def test_jacobi_rescale_of_an_indefinite_rounded_hessian(capfd):
    # a Newton system whose dual Hessian rounds to a negative diagonal entry: its Jacobi scale once took
    # sqrt of it, warned, and handed NaN to LAPACK, which printed DLASCL errors
    rng = np.random.default_rng(446)
    s = 10 ** rng.uniform(1, np.log10(3e3))
    f = rng.normal(size=(5, 1, 6)) * s
    b = rng.normal(size=(5, 6)) * s * rng.choice([1e-3, 1.0, s])
    c = rng.uniform(-1, 1, 5) * rng.choice([1.0, 10.0, s, s * s])
    prob = solvers.FilterProblem(rng.normal(size=6) * rng.uniform(0, 5), rng.uniform(0.01, 2.0), f, b, c)
    sol = solvers.solve_filter_qcqp(prob)
    printed = capfd.readouterr()
    assert "DLASCL" not in printed.out + printed.err
    # the admissible set is empty, so the hold is right
    assert sol.status in HOLDS and not sol.twist.any()
    assert min_max_value(prob, make_rng(0)) > 0.0
