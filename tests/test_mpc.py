import numpy as np
import pytest
from scipy.optimize import minimize

from safe_ibvs import mpc
from safe_ibvs.errors import DimensionMismatch
from safe_ibvs.ibvs import clip_twist, gradient_controller, pseudo_inverse
from safe_ibvs.jacobians import feature_interaction


def random_stack(rng, m=4):
    pts = rng.normal(size=(m, 2)) * 0.3
    depths = rng.uniform(0.5, 2.0, m)
    return feature_interaction(pts, depths).reshape(-1, 6)


def scalar_config(horizon=5, q=1.0, r=0.05, f=2.0, v_max=0.5, dt=0.05):
    """Planner config with stage weight q, input weight r and terminal weight f."""
    return mpc.MpcConfig(horizon=horizon, q=q, r=r, f=f, v_max=v_max, dt=dt)


def predict_errors(e0, L, controls, dt):
    """Reference rollout of the frozen-interaction error model; returns N+1 rows incl. e0."""
    e0 = np.asarray(e0, dtype=float).reshape(-1)
    controls = np.atleast_2d(np.asarray(controls, dtype=float))
    if L.shape[0] != e0.shape[0] or L.shape[1] != controls.shape[1]:
        raise DimensionMismatch(f"L {L.shape} vs e0 {e0.shape} and controls {controls.shape}")
    errors = np.empty((controls.shape[0] + 1, e0.shape[0]))
    errors[0] = e0
    for k in range(controls.shape[0]):
        errors[k + 1] = errors[k] + dt * (L @ controls[k])
    return errors


def rollout_cost(e0, L, controls, cfg):
    """Exact cost of a control sequence under the prediction model."""
    errors = predict_errors(e0, L, controls, cfg.dt)
    cost = 0.0
    for k in range(controls.shape[0]):
        cost += cfg.q * float(errors[k] @ errors[k]) + cfg.r * float(controls[k] @ controls[k])
    cost += cfg.f * float(errors[-1] @ errors[-1])
    return cost


def projected_stationarity(h_mat, g, u_flat, v_max):
    """Worst KKT residual of the block-ball constrained QP at u."""
    grad = h_mat @ u_flat + g
    worst = 0.0
    for k in range(u_flat.shape[0] // 6):
        gk = grad[6 * k : 6 * k + 6]
        vk = u_flat[6 * k : 6 * k + 6]
        nv = np.linalg.norm(vk)
        if nv < v_max - 1e-9:
            worst = max(worst, float(np.linalg.norm(gk)))
        else:
            unit = vk / nv
            radial = float(gk @ unit)
            tangential = gk - radial * unit
            worst = max(worst, float(np.linalg.norm(tangential)), max(radial, 0.0))
    return worst


def test_config_validation():
    with pytest.raises(ValueError, match="horizon"):
        scalar_config(horizon=0)
    with pytest.raises(ValueError, match="r must be positive"):
        scalar_config(r=0.0)
    for name in ("q", "f"):
        with pytest.raises(ValueError, match=f"{name} must be finite and >= 0"):
            scalar_config(**{name: -1.0})


def test_predict_errors_zero_controls():
    rng = np.random.default_rng(0)
    L = random_stack(rng)
    e0 = rng.normal(size=8)
    errors = predict_errors(e0, L, np.zeros((5, 6)), 0.05)
    assert errors.shape == (6, 8)
    assert np.allclose(errors, e0)


def test_predict_errors_single_step():
    rng = np.random.default_rng(1)
    L = random_stack(rng)
    e0 = rng.normal(size=8)
    v = rng.normal(size=(1, 6))
    errors = predict_errors(e0, L, v, 0.05)
    assert np.allclose(errors[1], e0 + 0.05 * L @ v[0])


def test_predict_errors_matches_manual_recursion():
    rng = np.random.default_rng(2)
    L = random_stack(rng)
    e0 = rng.normal(size=8)
    controls = rng.normal(size=(7, 6))
    errors = predict_errors(e0, L, controls, 0.1)
    e = e0.copy()
    for k in range(7):
        e = e + 0.1 * L @ controls[k]
        assert np.abs(errors[k + 1] - e).max() < 1e-12


def test_predict_errors_dimension_check():
    with pytest.raises(DimensionMismatch):
        predict_errors(np.zeros(8), np.zeros((6, 6)), np.zeros((2, 6)), 0.05)


def condense_loop(e0, L, cfg):
    """Hessian H and gradient g of the planner's QP, 0.5 U'HU + g'U plus a constant, built block by block."""
    n, dt = cfg.horizon, cfg.dt
    s_q, s_f = cfg.q * (L.T @ L), cfg.f * (L.T @ L)
    lq_e, lf_e = cfg.q * (L.T @ e0), cfg.f * (L.T @ e0)
    h_mat = np.zeros((6 * n, 6 * n))
    g = np.zeros(6 * n)
    for a in range(n):
        for b in range(n):
            count = max(n - 1 - max(a, b), 0)
            h_mat[6 * a : 6 * a + 6, 6 * b : 6 * b + 6] = 2.0 * (dt * dt * (count * s_q + s_f))
        g[6 * a : 6 * a + 6] = 2.0 * dt * ((n - 1 - a) * lq_e + lf_e)
        h_mat[6 * a : 6 * a + 6, 6 * a : 6 * a + 6] += 2.0 * cfg.r * np.eye(6)
    return h_mat, g


def dense_plan(e0, L, cfg):
    """Reference: projected dual Newton over the one 6N x 6N condensed system, dense solves throughout."""
    h_mat, g = condense_loop(e0, L, cfg)
    n, v_max = cfg.horizon, cfg.v_max

    def minimiser(lam):
        shifted = h_mat + np.diag(np.repeat(2.0 * lam, 6))
        u = np.linalg.solve(shifted, -g).reshape(-1, 6)
        return shifted, u, np.linalg.norm(u, axis=1)

    lam = np.zeros(n)
    shifted, u, norms = minimiser(lam)
    for _ in range(mpc.NEWTON_MAX_ITER):
        free = np.flatnonzero((lam > 0.0) | (norms > v_max))
        if np.all(np.abs(norms[free] - v_max) <= mpc.NEWTON_TOL * v_max):
            break
        # d(1/||U_k||)/d lam_j = 2 U_k' (K^-1)_kj U_j / ||U_k||^3, K the shifted Hessian
        spread = np.zeros((n, 6, free.size))
        spread[free, :, np.arange(free.size)] = u[free]
        solved = np.linalg.solve(shifted, spread.reshape(6 * n, -1)).reshape(n, 6, -1)
        jac = 2.0 * np.einsum("ki,kic->kc", u[free], solved[free]) / norms[free, None] ** 3
        lam[free] = np.maximum(lam[free] - np.linalg.solve(jac, 1.0 / norms[free] - 1.0 / v_max), 0.0)
        shifted, u, norms = minimiser(lam)
    over = norms > v_max
    u[over] *= (v_max / norms[over])[:, None]
    return u


def saturated(controls, cfg):
    return bool(np.any(np.linalg.norm(controls, axis=1) >= cfg.v_max * (1.0 - 1e-9)))


@pytest.mark.parametrize("horizon", range(1, 8))
def test_plan_matches_dense_newton_reference(horizon):
    rng = np.random.default_rng(100 + horizon)
    hits = 0
    for trial in range(16):
        L = random_stack(rng)
        if trial % 4 == 1:
            L[:, 3:] = 0.0  # L'L has three zero eigenvalues
        elif trial % 4 == 2:
            L = rng.normal(size=(8, 2)) @ rng.normal(size=(2, 6))  # rank 2
        q = 0.0 if trial % 4 == 3 else rng.uniform(0.1, 3.0)
        cfg = scalar_config(horizon=horizon, q=q, r=rng.uniform(0.005, 0.5), f=rng.uniform(0.5, 3.0), v_max=0.3)
        e0 = rng.normal(size=8) * (0.05 if trial % 2 else 2.0)
        ref = dense_plan(e0, L, cfg)
        assert np.abs(mpc.plan(e0, L, cfg) - ref).max() <= 1e-12
        hits += saturated(ref, cfg)
    assert 4 <= hits <= 12  # both interior and saturated cases are covered


def test_plan_zero_error_gives_zero_controls():
    rng = np.random.default_rng(3)
    L = random_stack(rng)
    cfg = scalar_config()
    controls = mpc.plan(np.zeros(8), L, cfg)
    assert controls.shape == (5, 6)
    assert np.abs(controls).max() < 1e-9


def test_plan_matches_least_squares_with_tiny_input_weight():
    rng = np.random.default_rng(4)
    for _ in range(10):
        L = random_stack(rng)
        e0 = rng.normal(size=8) * 0.02
        cfg = scalar_config(horizon=1, q=1.0, r=1e-10, f=1.0, v_max=1e6)
        v = mpc.plan(e0, L, cfg)[0]
        v_ls = -(1.0 / 0.05) * (pseudo_inverse(L) @ e0)
        assert np.abs(v - v_ls).max() < 1e-4


def test_plan_beats_zero_and_clipped_gradient_rollout():
    rng = np.random.default_rng(5)
    cfg = scalar_config()
    for _ in range(20):
        L = random_stack(rng)
        e0 = rng.normal(size=8) * 0.5
        controls = mpc.plan(e0, L, cfg)
        cost = rollout_cost(e0, L, controls, cfg)
        assert cost <= rollout_cost(e0, L, np.zeros((cfg.horizon, 6)), cfg) + 1e-9

        grad_seq = np.zeros((cfg.horizon, 6))
        e = e0.copy()
        for k in range(cfg.horizon):
            grad_seq[k] = clip_twist(gradient_controller(e, L, 0.5), cfg.v_max)
            e = e + cfg.dt * L @ grad_seq[k]
        assert cost <= rollout_cost(e0, L, grad_seq, cfg) + 1e-9


def test_plan_respects_speed_bound():
    rng = np.random.default_rng(6)
    cfg = scalar_config(v_max=0.3)
    for _ in range(20):
        L = random_stack(rng)
        e0 = rng.normal(size=8)  # large error saturates the bound
        controls = mpc.plan(e0, L, cfg)
        assert np.linalg.norm(controls, axis=1).max() <= cfg.v_max + 1e-9


def test_smallest_speed_bound_plans_finite_and_a_smaller_one_is_refused():
    # below v_max = 1e-107 the Newton Jacobian's ||U_k||^3 underflowed to 0 and every plan came out NaN
    rng = np.random.default_rng(8)
    cfg = scalar_config(v_max=mpc.V_MAX_MIN)
    for _ in range(10):
        with np.errstate(all="raise"):
            controls = mpc.plan(rng.normal(size=8), random_stack(rng), cfg)
        norms = np.linalg.norm(controls, axis=1)
        assert np.isfinite(controls).all() and np.all(norms <= cfg.v_max * (1.0 + 1e-9)) and norms.max() > 0.0
    for v_max in (mpc.V_MAX_MIN / 2.0, 1e-108, 1e-300, 0.0):
        with pytest.raises(ValueError, match="v_max"):
            scalar_config(v_max=v_max)


def test_plan_kkt_stationarity():
    rng = np.random.default_rng(7)
    cfg = scalar_config()
    for _ in range(20):
        L = random_stack(rng)
        e0 = rng.normal(size=8) * rng.choice([0.05, 2.0])  # interior and saturated cases
        controls = mpc.plan(e0, L, cfg)
        h_mat, g = condense_loop(e0, L, cfg)
        res = projected_stationarity(h_mat, g, controls.reshape(-1), cfg.v_max)
        grad_norm = float(np.linalg.norm(h_mat @ controls.reshape(-1) + g))
        assert res <= 1e-6 * (1.0 + grad_norm)


def test_receding_horizon_consistency():
    rng = np.random.default_rng(8)
    cfg = scalar_config()
    for _ in range(10):
        L = random_stack(rng)
        e0 = rng.normal(size=8) * 0.4
        controls = mpc.plan(e0, L, cfg)
        errors = predict_errors(e0, L, controls, cfg.dt)
        # cost of the old plan's tail, from the predicted next state
        tail = controls[1:]
        cfg_tail = mpc.MpcConfig(
            horizon=cfg.horizon - 1, q=cfg.q, r=cfg.r, f=cfg.f, v_max=cfg.v_max, dt=cfg.dt
        )
        tail_cost = rollout_cost(errors[1], L, tail, cfg_tail)
        replanned = mpc.plan(errors[1], L, cfg_tail)
        assert rollout_cost(errors[1], L, replanned, cfg_tail) <= tail_cost + 1e-6


def test_plan_dimension_check():
    cfg = scalar_config()
    with pytest.raises(DimensionMismatch):
        mpc.plan(np.zeros(8), np.zeros((6, 6)), cfg)


def slsqp_plan(h_mat, g, v_max):
    """Independent reference: SLSQP on 0.5 U'HU + g'U subject to every ||U_k||^2 <= v_max^2."""

    def ball(k):
        block = slice(6 * k, 6 * k + 6)

        def jac(u):
            out = np.zeros_like(u)
            out[block] = -2.0 * u[block]
            return out

        return {"type": "ineq", "fun": lambda u: v_max**2 - u[block] @ u[block], "jac": jac}

    result = minimize(
        lambda u: 0.5 * u @ h_mat @ u + g @ u,
        np.zeros_like(g),
        jac=lambda u: h_mat @ u + g,
        method="SLSQP",
        constraints=[ball(k) for k in range(g.shape[0] // 6)],
        options={"ftol": 1e-15, "maxiter": 1000},
    )
    return result.x


def test_plan_matches_slsqp_reference():
    rng = np.random.default_rng(9)
    saturated = 0
    for horizon in range(1, 6):
        for scale in (0.05, 2.0):
            L = random_stack(rng)
            e0 = rng.normal(size=8) * scale
            cfg = scalar_config(horizon=horizon, v_max=0.3)
            h_mat, g = condense_loop(e0, L, cfg)
            u = mpc.plan(e0, L, cfg).reshape(-1)
            ref = slsqp_plan(h_mat, g, cfg.v_max)
            cost = lambda x: 0.5 * x @ h_mat @ x + g @ x
            assert abs(cost(u) - cost(ref)) < 1e-6
            at_bound = np.linalg.norm(u.reshape(-1, 6), axis=1) >= cfg.v_max * (1.0 - 1e-9)
            saturated += bool(at_bound.any())
    assert 5 <= saturated <= 9  # all five scale-2 errors saturate, and a scale-0.05 one stays interior (7 of 10)


def test_plan_every_block_saturated():
    rng = np.random.default_rng(10)
    L = random_stack(rng)
    e0 = rng.normal(size=8) * 50.0
    cfg = scalar_config(v_max=0.1)
    controls = mpc.plan(e0, L, cfg)
    assert np.allclose(np.linalg.norm(controls, axis=1), cfg.v_max, rtol=1e-9, atol=0.0)
    h_mat, g = condense_loop(e0, L, cfg)
    res = projected_stationarity(h_mat, g, controls.reshape(-1), cfg.v_max)
    assert res <= 1e-6 * (1.0 + float(np.linalg.norm(h_mat @ controls.reshape(-1) + g)))


def test_plan_scales_onto_bound_at_iteration_cap(monkeypatch):
    monkeypatch.setattr(mpc, "NEWTON_MAX_ITER", 1)
    rng = np.random.default_rng(13)
    cfg = scalar_config(v_max=0.1)
    for _ in range(10):
        controls = mpc.plan(rng.normal(size=8) * 5.0, random_stack(rng), cfg)
        assert np.linalg.norm(controls, axis=1).max() <= cfg.v_max * (1.0 + 1e-15)


def test_plan_no_block_saturated_is_unconstrained_optimum():
    rng = np.random.default_rng(11)
    L = random_stack(rng)
    e0 = rng.normal(size=8) * 0.01
    cfg = scalar_config()
    controls = mpc.plan(e0, L, cfg)
    h_mat, g = condense_loop(e0, L, cfg)
    assert np.linalg.norm(controls, axis=1).max() < cfg.v_max
    assert np.abs(controls.reshape(-1) - np.linalg.solve(h_mat, -g)).max() < 1e-12


def test_unsaturated_plan_is_the_lambda_zero_solve(monkeypatch):
    calls = []
    for name in ("inv", "solve"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    rng = np.random.default_rng(16)
    cfg = scalar_config()
    nu, basis = cfg.coupling_eig
    for _ in range(5):
        L = random_stack(rng)
        e0 = rng.normal(size=8) * 0.01
        controls = mpc.plan(e0, L, cfg)
        # lambda = 0 written out: system j is basis diag(eigvals[j]) basis' z_j = coef_j w, so z_j is
        # basis (coef_j basis'w / eigvals[j]), then the rotation back
        mu, rotation = np.linalg.eigh(L.T @ L)
        eigvals = np.multiply.outer((2.0 * cfg.dt * cfg.dt) * mu, nu) + 2.0 * cfg.r
        coef = (-2.0 * cfg.dt) * (e0 @ L @ rotation)
        reference = ((coef[:, None] * (basis.T @ cfg.grad_weights) / eigvals) @ basis.T).T @ rotation.T
        assert np.linalg.norm(reference, axis=1).max() < cfg.v_max
        assert np.array_equal(controls, reference)
    assert calls == []
    mpc.plan(rng.normal(size=8) * 50.0, random_stack(rng), cfg)  # a saturated plan does reach Newton
    assert "inv" in calls and "solve" in calls
