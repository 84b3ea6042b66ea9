"""Independent numerical checks for the core machinery.

Each suite validates one subsystem against a method that shares no code
with the implementation under test: central finite differences for the
interaction matrices, Monte-Carlo sampling for the chance constraints,
brute-force enumeration / multi-start local search for the filter
solvers, and an epigraph search of the least constraint value for the
filter's holds. The suites are deterministic given their seed and are
used by both the test suite and the command-line ``oracle`` command.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.optimize import minimize

from . import solvers
from .barrier import noise_box_halfwidth
from .geometry import (
    CameraPose,
    Obstacle3,
    integrate_twist,
    obstacle_image_state,
    project_point,
    se3_exp,
)
from .jacobians import feature_interaction, obstacle_radius_interaction
from .sim import make_rng

FD_DT = 1e-5
FD_RTOL = 1e-3
FD_ATOL = 1e-6


@dataclass
class SuiteReport:
    name: str
    passed: bool
    lines: list[str] = field(default_factory=list)


def _random_downward_pose(rng: np.random.Generator) -> CameraPose:
    """Camera above the z=0 plane, looking roughly down."""
    down = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]])
    wiggle, _ = se3_exp(np.concatenate([np.zeros(3), rng.uniform(-0.25, 0.25, 3)]))
    trans = np.array([rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3), rng.uniform(0.9, 1.6)])
    return CameraPose(down @ wiggle, trans)


def _fd_columns(value_fn, pose: CameraPose, dt: float) -> np.ndarray:
    """Central finite difference of an image quantity per twist axis."""
    cols = []
    for j in range(6):
        v = np.zeros(6)
        v[j] = 1.0
        plus = value_fn(integrate_twist(pose, v, dt))
        minus = value_fn(integrate_twist(pose, -v, dt))
        cols.append((np.atleast_1d(plus) - np.atleast_1d(minus)) / (2.0 * dt))
    return np.column_stack(cols)


def jacobian_suite(seed: int = 0, n_states: int = 100) -> SuiteReport:
    """Interaction matrices vs central finite differences of the projection."""
    rng = make_rng(seed)
    worst = {"feature": 0.0, "obstacle_center": 0.0, "obstacle_radius": 0.0}
    for _ in range(n_states):
        pose = _random_downward_pose(rng)
        p_world = np.array([rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4), rng.uniform(-0.1, 0.3)])
        obstacle = Obstacle3.static(
            np.array([rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3), rng.uniform(0.0, 0.6)]),
            rng.uniform(0.02, 0.12),
        )

        s, z = project_point(pose, p_world)
        fd = _fd_columns(lambda ps: project_point(ps, p_world)[0], pose, FD_DT)
        err = np.abs(fd - feature_interaction(s, z)) - FD_RTOL * np.abs(feature_interaction(s, z))
        worst["feature"] = max(worst["feature"], float(err.max()))

        st = obstacle_image_state(obstacle, pose, 0.0)
        fd_c = _fd_columns(lambda ps: obstacle_image_state(obstacle, ps, 0.0).center, pose, FD_DT)
        l_o = feature_interaction(st.center, st.depth)
        err = np.abs(fd_c - l_o) - FD_RTOL * np.abs(l_o)
        worst["obstacle_center"] = max(worst["obstacle_center"], float(err.max()))

        fd_r = _fd_columns(lambda ps: obstacle_image_state(obstacle, ps, 0.0).rn, pose, FD_DT)
        l_r = obstacle_radius_interaction(st.center, st.depth, obstacle.radius)
        err = np.abs(fd_r.ravel() - l_r) - FD_RTOL * np.abs(l_r)
        worst["obstacle_radius"] = max(worst["obstacle_radius"], float(err.max()))

    passed = all(v <= FD_ATOL for v in worst.values())
    lines = [
        f"{name}: worst residual beyond {FD_RTOL:.0e} relative = {v:.3e} (allowed {FD_ATOL:.0e})"
        for name, v in worst.items()
    ]
    return SuiteReport(name="jacobians", passed=passed, lines=lines)


def chance_suite(
    sigma_levels=(0.8, 0.9),
    n_states: int = 50,
    n_draws: int = 10000,
    seed: int = 7,
    pixel_variance: float = 10.0,
    focal: float = 500.0,
    gamma: float = 2.0,
    v_max: float = 0.5,
    slack: float = 0.02,
) -> SuiteReport:
    """Noisy-case quadratics imply the exact-case condition often enough.

    For random true states and noise draws, build the quadratic
    constraint from the noisy observation, select an admissible twist on
    its boundary along a random direction (clipped to the speed ball),
    and check the exact barrier-rate condition at the true state. The
    empirical satisfaction frequency must reach the confidence level
    minus sampling slack at every state.
    """
    rng = make_rng(seed)
    nu = np.sqrt(pixel_variance) / focal
    cov_sum = (2.0 * pixel_variance / focal**2) * np.eye(2)
    lines = []
    passed = True
    for sigma in sigma_levels:
        halfwidth = noise_box_halfwidth(sigma, cov_sum)
        freqs = []
        selected_total = 0
        for _ in range(n_states):
            while True:
                s_i = rng.uniform(-0.4, 0.4, 2)
                s_o = rng.uniform(-0.4, 0.4, 2)
                z_i = rng.uniform(0.5, 2.0)
                z_o = rng.uniform(0.5, 2.0)
                radius = rng.uniform(0.02, 0.10)
                rn = radius / z_o
                if float((s_i - s_o) @ (s_i - s_o)) - rn * rn > 1e-4:
                    break
            l_i, l_o = feature_interaction(s_i, z_i), feature_interaction(s_o, z_o)
            row_true = 2.0 * (s_i - s_o) @ (l_i - l_o) - 2.0 * rn * obstacle_radius_interaction(s_o, z_o, radius)
            h_true = float((s_i - s_o) @ (s_i - s_o)) - rn * rn

            si_hat = s_i + nu * rng.standard_normal((n_draws, 2))
            so_hat = s_o + nu * rng.standard_normal((n_draws, 2))
            ds = si_hat - so_hat
            dl = feature_interaction(si_hat, z_i) - feature_interaction(so_hat, z_o)
            l_r = np.zeros((n_draws, 6))
            l_r[:, 2] = radius / z_o**2
            l_r[:, 3] = radius * so_hat[:, 1] / z_o
            l_r[:, 4] = -radius * so_hat[:, 0] / z_o
            b_lin = -2.0 * np.einsum("ni,nij->nj", ds, dl) / gamma + 8.0 * rn * l_r / gamma
            c = 2.0 * rn * rn + 4.0 * halfwidth**2 - np.einsum("ni,ni->n", ds, ds)

            d = rng.standard_normal((n_draws, 6))
            d /= np.linalg.norm(d, axis=1, keepdims=True)
            dl_d = np.einsum("nij,nj->ni", dl, d)
            alpha = np.einsum("ni,ni->n", dl_d, dl_d) / gamma**2
            beta = np.einsum("ni,ni->n", b_lin, d)

            t_sel = np.full(n_draws, np.nan)
            quad = alpha > 1e-14
            disc = beta**2 - 4.0 * alpha * c
            solvable = quad & (disc >= 0.0)
            sq = np.sqrt(np.where(solvable, disc, 0.0))
            den = np.where(quad, 2.0 * alpha, 1.0)
            lo = np.maximum((-beta - sq) / den, -v_max)
            hi = np.minimum((-beta + sq) / den, v_max)
            ok_q = solvable & (lo <= hi)
            t_sel[ok_q] = hi[ok_q]
            lin = ~quad & (np.abs(beta) > 1e-14)
            t_edge = -c / np.where(lin, beta, 1.0)
            up = lin & (beta > 0.0) & (t_edge >= -v_max)
            t_sel[up] = np.minimum(t_edge[up], v_max)
            dn = lin & (beta < 0.0) & (t_edge <= v_max)
            t_sel[dn] = np.maximum(t_edge[dn], -v_max)
            flat = ~quad & (np.abs(beta) <= 1e-14) & (c <= 0.0)
            t_sel[flat] = v_max

            chosen = ~np.isnan(t_sel)
            selected_total += int(chosen.sum())
            v = t_sel[chosen, None] * d[chosen]
            ok = (v @ row_true) + gamma * h_true >= 0.0
            freqs.append(float(ok.mean()) if chosen.any() else 1.0)
        min_freq = min(freqs)
        ok_level = min_freq >= sigma - slack
        passed = passed and ok_level
        lines.append(
            f"sigma={sigma}: min frequency {min_freq:.4f} over {n_states} states "
            f"(need >= {sigma - slack:.2f}), mean {np.mean(freqs):.4f}, "
            f"{selected_total} admissible draws"
        )
    return SuiteReport(name="chance", passed=passed, lines=lines)


def enumerate_projection_qp(problem: solvers.FilterProblem) -> tuple[np.ndarray | None, float]:
    """Brute-force projection onto half-spaces plus a ball.

    Reads the problem's half-space rows ``b_i'V + c_i <= 0`` (every row
    but the last, the ball, whose radius is ``v_max``), tries every
    subset of them held at equality (closed-form projection onto the
    affine set, or onto its intersection with the sphere) and returns
    the feasible candidate of least distance. Independent of the
    filter's solver by construction.
    """
    v_ref, v_max = problem.v_ref, problem.v_max
    if problem.a[:-1].any():
        raise ValueError("enumeration handles half-spaces only (a = 0)")
    rows, rhs = -problem.b[:-1], problem.c[:-1]  # rows @ V >= rhs
    n = rhs.shape[0]
    best, best_obj = None, np.inf

    def feasible(x):
        if np.linalg.norm(x) > v_max + 1e-9:
            return False
        return bool(np.all(rows @ x >= rhs - 1e-9)) if n else True

    def consider(x):
        nonlocal best, best_obj
        if x is not None and feasible(x):
            obj = float((x - v_ref) @ (x - v_ref))
            if obj < best_obj:
                best, best_obj = x, obj

    for r in range(n + 1):
        for subset in itertools.combinations(range(n), r):
            a = rows[list(subset)]
            b = rhs[list(subset)]
            if r == 0:
                x_eq = v_ref.copy()
            else:
                gram = a @ a.T
                try:
                    lam = np.linalg.solve(gram, b - a @ v_ref)
                except np.linalg.LinAlgError:
                    x_eq = None
                    lam = None
                if lam is not None:
                    x_eq = v_ref + a.T @ lam
                else:
                    x_eq = None
            consider(x_eq)

            # same subset with the speed sphere active
            if r == 0:
                nrm = float(np.linalg.norm(v_ref))
                consider(v_ref * (v_max / nrm) if nrm > 1e-14 else None)
                continue
            x0, *_ = np.linalg.lstsq(a, b, rcond=None)
            null = scipy.linalg.null_space(a)
            if null.size == 0:
                consider(x0 if abs(np.linalg.norm(x0) - v_max) <= 1e-9 else None)
                continue
            rho2 = v_max**2 - float(x0 @ x0)
            if rho2 < 0.0:
                continue
            w = null.T @ (v_ref - x0)
            nw = float(np.linalg.norm(w))
            if nw < 1e-14:
                continue
            consider(x0 + null @ (np.sqrt(rho2) * w / nw))
    return best, best_obj


def multistart_qcqp(
    problem: solvers.FilterProblem, rng: np.random.Generator, starts: int = 12
) -> tuple[np.ndarray | None, float]:
    """Best feasible point from multi-start SLSQP on the projection problem.

    The quadratics are every stacked row but the last; the last row is
    the speed ball, posed here on its own as ``v_max^2 - V'V >= 0``.
    """
    quads = list(zip(problem.a[:-1], problem.b[:-1], problem.c[:-1]))
    cons = []
    for qa, qb, qc in quads:
        cons.append(
            {
                "type": "ineq",
                "fun": lambda v, qa=qa, qb=qb, qc=qc: -(v @ qa @ v + qb @ v + qc),
                "jac": lambda v, qa=qa, qb=qb: -(2.0 * qa @ v + qb),
            }
        )
    cons.append({"type": "ineq", "fun": lambda v: problem.v_max**2 - v @ v, "jac": lambda v: -2.0 * v})

    def violation(x):
        worst = float(x @ x - problem.v_max**2)
        for qa, qb, qc in quads:
            worst = max(worst, float(x @ qa @ x + qb @ x + qc))
        return worst

    best, best_obj = None, np.inf
    x0s = [np.zeros(6)] + [rng.normal(size=6) * 0.4 for _ in range(starts - 1)]
    for x0 in x0s:
        res = minimize(
            lambda v: float((v - problem.v_ref) @ (v - problem.v_ref)),
            x0,
            jac=lambda v: 2.0 * (v - problem.v_ref),
            method="SLSQP",
            constraints=cons,
            options={"maxiter": 300, "ftol": 1e-14},
        )
        if res.x is not None and violation(res.x) <= 1e-7:
            obj = float((res.x - problem.v_ref) @ (res.x - problem.v_ref))
            if obj < best_obj:
                best, best_obj = res.x, obj
    return best, best_obj


def random_qp_problem(rng: np.random.Generator) -> solvers.FilterProblem:
    """Four random half-spaces ``row @ V >= rhs``, stacked as ``b = -row``, ``c = rhs``."""
    rows, rhs = [], []
    for _ in range(4):
        rows.append(rng.normal(size=6))
        rhs.append(float(rng.normal() * 0.3))
    v_ref = rng.normal(size=6)
    v_max = 1.0 + float(rng.uniform())
    return solvers.FilterProblem(v_ref, v_max, np.zeros((4, 0, 6)), -np.array(rows), np.array(rhs))


def random_qcqp_problem(rng: np.random.Generator) -> solvers.FilterProblem:
    """Three random convex quadratics, each passed as a random ``(2, 6)`` factor (a rank-2 Gram matrix)."""
    f, b, c = [], [], []
    for _ in range(3):
        f.append(rng.normal(size=(2, 6)))
        b.append(rng.normal(size=6) * 0.5)
        c.append(float(rng.uniform(-1.5, 0.3)))
    v_ref = rng.normal(size=6)
    v_max = 1.0 + float(rng.uniform())
    return solvers.FilterProblem(v_ref, v_max, np.array(f), np.array(b), np.array(c))


def min_max_value(problem: solvers.FilterProblem, rng: np.random.Generator) -> float:
    """Least value over V of ``max_i g_i(V)``, every stacked row and the speed ball included.

    SLSQP on the epigraph form ``min t`` subject to ``t - g_i(V) >= 0``,
    started from 0, ``v_ref`` and two random twists. The value is read as ``max_i g_i`` at the best
    point found, so it bounds the true least value from above, up to
    rounding; every g_i is convex, so a converged search attains it. The
    admissible set is empty exactly when this value is positive, and has
    an interior exactly when it is negative.
    """
    a, b, c = problem.a, problem.b, problem.c

    def g(v):
        return np.einsum("i,kij,j->k", v, a, v) + b @ v + c

    cons = {
        "type": "ineq",
        "fun": lambda x: x[6] - g(x[:6]),
        "jac": lambda x: np.hstack([-(2.0 * a @ x[:6] + b), np.ones((c.shape[0], 1))]),
    }
    best = np.inf
    for v0 in [np.zeros(6), problem.v_ref] + [rng.normal(size=6) * problem.v_max for _ in range(2)]:
        x0 = np.append(v0, g(v0).max())
        res = minimize(
            lambda x: x[6], x0, jac=lambda x: np.eye(7)[6], method="SLSQP", constraints=[cons],
            options={"maxiter": 500, "ftol": 1e-16},
        )
        best = min(best, float(x0[6]), float(g(res.x[:6]).max()))
    return best


def near_empty_problems(rng: np.random.Generator):
    """Problems at the edge of emptiness, in factor form, then random ones.

    Engineered families, each at a gap ``delta`` in (1e-3, 1e-6, 0,
    -1e-6, -1e-3) along three random unit directions u (empty for delta > 0,
    a point or a hyperplane at 0, a sliver with interior below 0):

    * ``ball``: a ball of radius rho centred at ``(v_max + rho + delta) u``;
    * ``halfspace``: ``u'V >= v_max + delta``;
    * ``slab``: ``u'V >= delta`` and ``-u'V >= delta``;
    * ``cylinder``: ``||s G (V - p)|| <= s rho`` with orthonormal rank-2 G,
      u in G's row space, ``p = (v_max + rho + delta) u`` and s up to 1.5e3.

    The 100 random problems stack 1-5 rows with factors of 0, 1, 2 or 6 rows.
    """
    for delta in (1e-3, 1e-6, 0.0, -1e-6, -1e-3):
        for _ in range(3):
            u = rng.normal(size=6)
            u /= np.linalg.norm(u)
            v_ref, v_max, rho = rng.normal(size=6), 1.0 + float(rng.uniform()), float(rng.uniform(0.1, 1.0))
            p = (v_max + rho + delta) * u
            yield solvers.FilterProblem(v_ref, v_max, np.eye(6)[None], -2.0 * p[None], np.array([p @ p - rho**2]))
            yield solvers.FilterProblem(v_ref, v_max, np.zeros((1, 0, 6)), -u[None], np.array([v_max + delta]))
            yield solvers.FilterProblem(v_ref, v_max, np.zeros((2, 0, 6)), np.stack([-u, u]), np.array([delta, delta]))
            s = float(rng.uniform(1.0, 1.5e3))
            f = s * np.linalg.qr(np.column_stack([u, rng.normal(size=6)]))[0].T
            fp = f @ p
            yield solvers.FilterProblem(v_ref, v_max, f[None], -2.0 * (f.T @ fp)[None], np.array([fp @ fp - (s * rho) ** 2]))
    for _ in range(100):
        k = int(rng.integers(1, 6))
        r = int(rng.choice([0, 1, 2, 6]))
        f = rng.normal(size=(k, r, 6)) * float(rng.uniform(0.1, 3.0))
        yield solvers.FilterProblem(
            rng.normal(size=6), 1.0 + float(rng.uniform()), f, rng.normal(size=(k, 6)), rng.uniform(-1.5, 0.5, k)
        )


def solver_suite(
    seed: int = 0, n_qp: int = 1000, n_qcqp: int = 200, qp_tol: float = 1e-6, qcqp_tol: float = 1e-4
) -> SuiteReport:
    """Filter solvers vs enumeration (QP), multi-start search (QCQP) and the least constraint value (holds).

    Every ``fallback_hold:infeasible`` must have a least value (see
    :func:`min_max_value`) above 0, every ``no_convergence`` hold one of at
    least -1e-9, and no hold of any kind one below -1e-6, over the
    problems of :func:`near_empty_problems`. The filters certify their
    own optima, so the certification failures counted are the
    ``fallback_hold:certification`` holds of the QP and QCQP instances.
    """
    rng = make_rng(seed)
    lines = []
    passed = True

    worst_qp = 0.0
    qp_holds = qp_infeasible_agree = 0
    cert_failures = 0
    for _ in range(n_qp):
        problem = random_qp_problem(rng)
        sol = solvers.solve_filter_qp(problem)
        ref, _ = enumerate_projection_qp(problem)
        if sol.status != solvers.STATUS_OPTIMAL:
            qp_holds += 1
            cert_failures += sol.status == solvers.HOLD_CERTIFICATION
            if ref is None:
                qp_infeasible_agree += 1
            continue
        if ref is None:
            worst_qp = np.inf
            continue
        worst_qp = max(worst_qp, float(np.abs(sol.twist - ref).max()))
    qp_ok = worst_qp <= qp_tol and qp_holds == qp_infeasible_agree
    passed = passed and qp_ok
    lines.append(
        f"qp: worst twist deviation {worst_qp:.3e} vs enumeration over {n_qp} instances "
        f"(allowed {qp_tol:.0e}); holds {qp_holds}, enumeration agrees on {qp_infeasible_agree}"
    )

    worst_qcqp = 0.0
    qcqp_holds = 0
    for _ in range(n_qcqp):
        problem = random_qcqp_problem(rng)
        sol = solvers.solve_filter_qcqp(problem)
        ref, ref_obj = multistart_qcqp(problem, rng)
        if sol.status != solvers.STATUS_OPTIMAL:
            qcqp_holds += 1
            cert_failures += sol.status == solvers.HOLD_CERTIFICATION
            if ref is not None:
                worst_qcqp = np.inf
            continue
        if ref is None:
            continue
        obj = float((sol.twist - problem.v_ref) @ (sol.twist - problem.v_ref))
        worst_qcqp = max(worst_qcqp, abs(obj - ref_obj))
    qcqp_ok = worst_qcqp <= qcqp_tol
    passed = passed and qcqp_ok and cert_failures == 0
    lines.append(
        f"qcqp: worst objective gap {worst_qcqp:.3e} vs multi-start over {n_qcqp} instances "
        f"(allowed {qcqp_tol:.0e}); holds {qcqp_holds}"
    )
    lines.append(f"certification failures: {cert_failures}")

    holds = {solvers.HOLD_INFEASIBLE: [], solvers.HOLD_NO_CONVERGENCE: [], solvers.HOLD_CERTIFICATION: []}
    problems = list(near_empty_problems(rng))
    for problem in problems:
        sol = solvers.solve_filter_qcqp(problem)
        if sol.status != solvers.STATUS_OPTIMAL:
            holds[sol.status].append(min_max_value(problem, rng))
    infeasible, stalled = holds[solvers.HOLD_INFEASIBLE], holds[solvers.HOLD_NO_CONVERGENCE]
    wrong_holds = sum(value < -1e-6 for values in holds.values() for value in values)
    holds_ok = all(v > 0.0 for v in infeasible) and all(v >= -1e-9 for v in stalled) and wrong_holds == 0
    passed = passed and holds_ok
    lines.append(
        f"holds: {len(infeasible)} infeasible (least value {min(infeasible, default=np.inf):.3e}, need > 0), "
        f"{len(stalled)} no convergence (least value {min(stalled, default=np.inf):.3e}, need >= -1e-9), "
        f"{len(holds[solvers.HOLD_CERTIFICATION])} certification; {wrong_holds} held with value < -1e-6 "
        f"over {len(problems)} near-empty and random problems"
    )
    return SuiteReport(name="solvers", passed=passed, lines=lines)
