import warnings

import numpy as np
import pytest
from scipy.integrate import dblquad

from safe_ibvs import barrier, geometry as geo
from safe_ibvs.errors import UnsupportedCovariance
from safe_ibvs.jacobians import feature_interaction, obstacle_radius_interaction
from safe_ibvs.observation import FeatureObservation
from safe_ibvs.oracles import chance_suite

from conftest import downward_pose


def make_observation(features, depths, obs_center, z_o, radius):
    features = np.atleast_2d(np.asarray(features, dtype=float))
    depths = np.atleast_1d(np.asarray(depths, dtype=float))
    obs_center = np.asarray(obs_center, dtype=float)
    state = geo.ObstacleImageState(center=obs_center, rn=radius / z_o, depth=z_o)
    return FeatureObservation(
        features=features,
        obstacle=state,
        l_features=feature_interaction(features, depths),
        l_obstacle=feature_interaction(obs_center, z_o),
        l_radius=obstacle_radius_interaction(obs_center, z_o, radius),
    )


def test_barrier_value_cases():
    assert barrier.barrier_value([0.1, 0.2], [0.1, 0.2], 0.3) == pytest.approx(-0.09)
    assert barrier.barrier_value([0.1, 0.0], [0.0, 0.0], 0.1) == pytest.approx(0.0)
    assert barrier.barrier_value([0.3, 0.0], [0.0, 0.0], 0.1) == pytest.approx(0.08)


def test_rate_row_coincident_centers():
    obs = make_observation([[0.1, -0.2]], [1.0], [0.1, -0.2], 0.8, 0.05)
    row = barrier.barrier_rate_row(
        obs.features[0], obs.obstacle.center, obs.l_features[0], obs.l_obstacle, obs.l_radius, obs.obstacle.rn
    )
    assert np.allclose(row, -2.0 * obs.obstacle.rn * obs.l_radius)
    # the depth-rate entry survives, so the row cannot vanish
    assert abs(row[2]) > 0.0


def test_rate_row_offset_linearity():
    z_i, z_o, radius = 1.2, 0.7, 0.06
    s_o = np.array([0.05, 0.0])
    l_o = feature_interaction(s_o, z_o)
    l_r = obstacle_radius_interaction(s_o, z_o, radius)
    rn = radius / z_o

    s1 = s_o + np.array([0.1, -0.05])
    s2 = s_o + 2.0 * np.array([0.1, -0.05])
    l_f = feature_interaction(s1, z_i)
    row1 = barrier.barrier_rate_row(s1, s_o, l_f, l_o, l_r, rn)
    row2 = barrier.barrier_rate_row(s2, s_o, l_f, l_o, l_r, rn)
    base = -2.0 * rn * l_r
    assert np.allclose(row2 - base, 2.0 * (row1 - base))


def test_rate_row_matches_finite_difference():
    # static obstacle: the rate row captures the whole margin derivative
    rng = np.random.default_rng(4)
    pose = downward_pose([0.05, -0.1, 1.3], wiggle=[0.04, -0.06, 0.1])
    feat_world = np.array([0.3, 0.2, 0.0])
    obstacle = geo.Obstacle3.static([0.05, 0.1, 0.5], 0.07)

    def margin(p):
        s_i, _ = geo.project_point(p, feat_world)
        st = geo.obstacle_image_state(obstacle, p, 0.0)
        return barrier.barrier_value(s_i, st.center, st.rn)

    s_i, z_i = geo.project_point(pose, feat_world)
    st = geo.obstacle_image_state(obstacle, pose, 0.0)
    row = barrier.barrier_rate_row(
        s_i,
        st.center,
        feature_interaction(s_i, z_i),
        feature_interaction(st.center, st.depth),
        obstacle_radius_interaction(st.center, st.depth, obstacle.radius),
        st.rn,
    )
    for _ in range(10):
        v = rng.normal(size=6)
        dt = 1e-5
        fd = (margin(geo.integrate_twist(pose, v, dt)) - margin(geo.integrate_twist(pose, -v, dt))) / (2 * dt)
        analytic = float(row @ v)
        assert abs(fd - analytic) <= 1e-3 * max(1.0, abs(analytic))


def test_cbc_halfspaces_zero_twist_iff_nonnegative_margin():
    obs = make_observation(
        [[0.3, 0.0], [0.0, 0.35], [-0.3, 0.0], [0.02, 0.0]],
        [1.0, 1.1, 0.9, 1.0],
        [0.0, 0.0],
        0.8,
        0.08,
    )
    f, b, c = barrier.cbc_halfspaces(obs, gamma=2.0)
    assert f.shape == (4, 0, 6) and b.shape == (4, 6) and c.shape == (4,)
    margins = barrier.barrier_value(obs.features, obs.obstacle.center, obs.obstacle.rn)
    for c_i, h in zip(c, margins):
        # V = 0 gives rate 0, admissible exactly when c = -gamma*h <= 0
        assert (c_i <= 0.0) == (h >= 0.0)
    assert margins[3] < 0.0 and c[3] > 0.0


def test_cbc_one_step_decay_bound():
    # an admissible twist keeps h(t+dt) >= h(t)(1 - gamma dt) up to O(dt^2)
    pose = downward_pose([0.0, 0.0, 1.1])
    feat_world = np.array([0.18, 0.1, 0.0])
    obstacle = geo.Obstacle3.static([0.08, 0.04, 0.45], 0.05)
    gamma, dt = 2.0, 1e-3

    s_i, z_i = geo.project_point(pose, feat_world)
    st = geo.obstacle_image_state(obstacle, pose, 0.0)
    obs = make_observation([s_i], [z_i], st.center, st.depth, obstacle.radius)
    _, b, c = barrier.cbc_halfspaces(obs, gamma)
    row, rhs = -b[0], c[0]  # row @ V >= rhs
    h0 = barrier.barrier_value(s_i, st.center, st.rn)

    rng = np.random.default_rng(0)
    for _ in range(20):
        v = rng.normal(size=6) * 0.4
        if float(row @ v) < rhs:  # make it admissible by pushing along the row
            v = v + (rhs - float(row @ v)) * row / float(row @ row)
        pose1 = geo.integrate_twist(pose, v, dt)
        s1, _ = geo.project_point(pose1, feat_world)
        st1 = geo.obstacle_image_state(obstacle, pose1, dt)
        h1 = barrier.barrier_value(s1, st1.center, st1.rn)
        assert h1 >= h0 * (1.0 - gamma * dt) - 50.0 * dt**2


def cbc_loop(obs, gamma):
    """Per-feature reference for cbc_halfspaces: one rate row and margin per feature, then stacked."""
    m, s_o, rn = obs.m, obs.obstacle.center, obs.obstacle.rn
    f, b, c = np.zeros((m, 0, 6)), np.zeros((m, 6)), np.zeros(m)
    for i in range(m):
        d = obs.features[i] - s_o
        row = 2.0 * d @ (obs.l_features[i] - obs.l_obstacle) - 2.0 * rn * obs.l_radius
        b[i], c[i] = -row, -gamma * (float(d @ d) - rn * rn)
    return f, b, c


def prcbc_loop(obs, gamma, halfwidth):
    """Per-feature reference for prcbc_quadratics."""
    m, rn = obs.m, obs.obstacle.rn
    f, b, c = np.zeros((m, 2, 6)), np.zeros((m, 6)), np.zeros(m)
    for i in range(m):
        ds = obs.features[i] - obs.obstacle.center
        dl = obs.l_features[i] - obs.l_obstacle
        f[i] = dl / gamma
        b[i] = -2.0 * (ds @ dl) / gamma + 8.0 * rn * obs.l_radius / gamma
        c[i] = 2.0 * rn * rn + 4.0 * halfwidth * halfwidth - float(ds @ ds)
    return f, b, c


def random_observations(seed, count=60, m=4):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield make_observation(
            rng.uniform(-0.5, 0.5, (m, 2)),
            rng.uniform(0.5, 2.0, m),
            rng.uniform(-0.4, 0.4, 2),
            rng.uniform(0.4, 1.5),
            rng.uniform(0.02, 0.12),
        )


def test_batched_margins_and_rows_equal_per_feature_calls():
    for obs in random_observations(21):
        s_o, rn = obs.obstacle.center, obs.obstacle.rn
        h = barrier.barrier_value(obs.features, s_o, rn)
        rows = barrier.barrier_rate_row(obs.features, s_o, obs.l_features, obs.l_obstacle, obs.l_radius, rn)
        assert h.shape == (obs.m,) and rows.shape == (obs.m, 6)
        for i in range(obs.m):
            assert h[i] == barrier.barrier_value(obs.features[i], s_o, rn)
            row_i = barrier.barrier_rate_row(obs.features[i], s_o, obs.l_features[i], obs.l_obstacle, obs.l_radius, rn)
            assert np.array_equal(rows[i], row_i)


def test_constraint_arrays_equal_per_feature_reference_loops():
    for obs in random_observations(22):
        for got, ref in zip(barrier.cbc_halfspaces(obs, 2.5), cbc_loop(obs, 2.5)):
            assert np.array_equal(got, ref)
        for got, ref in zip(barrier.prcbc_quadratics(obs, 4.0, 0.013), prcbc_loop(obs, 4.0, 0.013)):
            assert np.array_equal(got, ref)


def box_probability_quadrature(e, cov):
    inv = np.linalg.inv(cov)
    det = np.linalg.det(cov)

    def density(y, x):
        w = np.array([x, y])
        return np.exp(-0.5 * w @ inv @ w) / (2.0 * np.pi * np.sqrt(det))

    val, _ = dblquad(density, -e, e, -e, e, epsabs=1e-10, epsrel=1e-10)
    return val


def test_halfwidth_isotropic_matches_quadrature():
    cov = np.eye(2)
    e = barrier.noise_box_halfwidth(0.8, cov)
    assert abs(box_probability_quadrature(e, cov) - 0.8) < 1e-6


def test_halfwidth_unequal_diagonal_matches_quadrature():
    cov = np.diag([0.5, 2.0])
    e = barrier.noise_box_halfwidth(0.7, cov)
    assert abs(box_probability_quadrature(e, cov) - 0.7) < 1e-6


def test_halfwidth_monotone_in_sigma_and_scale():
    cov = np.eye(2)
    es = [barrier.noise_box_halfwidth(s, cov) for s in (0.1, 0.5, 0.8, 0.95, 0.999)]
    assert all(a < b for a, b in zip(es, es[1:]))
    assert barrier.noise_box_halfwidth(0.8, 4.0 * np.eye(2)) > barrier.noise_box_halfwidth(0.8, np.eye(2))


def test_halfwidth_vanishing_noise():
    assert barrier.noise_box_halfwidth(0.8, np.zeros((2, 2))) == 0.0
    assert barrier.noise_box_halfwidth(0.8, 1e-20 * np.eye(2)) < 1e-9
    # PSD within round-off but no positive variance: nothing for a bisection to bracket
    for cov in ([[0.0, 0.0], [0.0, -1e-13]], [[0.0, 1e-13], [1e-13, 0.0]]):
        assert barrier.noise_box_halfwidth(0.8, np.array(cov)) == 0.0


def test_halfwidth_rejects_indefinite_covariance():
    # the diagonal ones once took a closed form that read only the diagonal's magnitudes: diag(-1, 1) gave 1.2816
    for cov in (
        [[1.0, 1.5], [1.5, 1.0]],
        [[-1.0, 0.0], [0.0, 1.0]],
        [[-1.0, 1e-300], [1e-300, 1.0]],
        [[np.inf, 0.0], [0.0, 1.0]],
    ):
        with pytest.raises(UnsupportedCovariance):
            barrier.noise_box_halfwidth(0.8, np.array(cov))


def test_halfwidth_numeric_handles_correlation():
    cov = np.array([[1.0, 0.6], [0.6, 1.5]])
    e = barrier.noise_box_halfwidth(0.8, cov)
    assert abs(box_probability_quadrature(e, cov) - 0.8) < 1e-6


def _product_of_erf_root(sigma, v1, v2):
    """Half-width for diag(v1^2, v2^2): the axes are independent, so erf(e / (v1 sqrt 2)) erf(e / (v2 sqrt 2)) = sigma."""
    from scipy.optimize import brentq
    from scipy.special import erf

    def excess(e):
        return erf(e / (np.sqrt(2.0) * v1)) * erf(e / (np.sqrt(2.0) * v2)) - sigma

    return brentq(excess, 0.0, 20.0 * max(v1, v2), xtol=1e-300, rtol=4.0 * np.finfo(float).eps)


def test_halfwidth_numeric_agrees_with_closed_form(monkeypatch):
    # only an exactly isotropic covariance, or one without variance, skips the bisection on box_probability
    calls = []
    box_probability = barrier.box_probability
    monkeypatch.setattr(barrier, "box_probability", lambda e, cov: calls.append(e) or box_probability(e, cov))
    for cov, isotropic in [
        (np.diag([1.3, 0.4]), False),
        (np.array([[1.3, 1e-300], [1e-300, 0.4]]), False),
        (np.diag([1.0, 1.0 + 1e-15]), False),
        (np.diag([1.3, 1.3]), True),
        (np.zeros((2, 2)), True),
    ]:
        calls.clear()
        e = barrier.noise_box_halfwidth(0.85, cov)
        assert bool(calls) is not isotropic
        reference = _product_of_erf_root(0.85, *np.sqrt(cov.diagonal())) if cov.any() else 0.0
        assert e == pytest.approx(reference, rel=1e-12)


def test_halfwidth_subnormal_off_diagonal_matches_diagonal():
    # the edge crossing e / |slope| overflows to inf; grading panels towards it once made the quadrature NaN
    cov = np.array([[1.6e-4, 5e-320], [5e-320, 4e-5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        e = barrier.noise_box_halfwidth(0.8, cov)
    assert e == pytest.approx(barrier.noise_box_halfwidth(0.8, np.diag([1.6e-4, 4e-5])), rel=1e-12)
    assert e == pytest.approx(0.016480839497191424, rel=1e-12)


def test_halfwidth_degenerate_axis():
    # one noiseless axis reduces to the 1-D inversion
    cov = np.diag([1.0, 0.0])
    e = barrier.noise_box_halfwidth(0.8, cov)
    from scipy.special import erf

    assert abs(erf(e / np.sqrt(2.0)) - 0.8) < 1e-12


def test_prcbc_zero_twist_inflated_boundary():
    # at V = 0 the constraint reads ||ds||^2 >= 2 Rn^2 + 4 e^2
    z_o, radius = 0.8, 0.06
    rn = radius / z_o
    for halfwidth in (0.0, 0.02):
        for dist, expect_ok in ((np.sqrt(2.0) * rn * 1.05, None), (rn * 1.05, False)):
            obs = make_observation([[dist, 0.0]], [1.0], [0.0, 0.0], z_o, radius)
            _, _, (value,) = barrier.prcbc_quadratics(obs, 2.0, halfwidth)  # the value at V = 0
            boundary = 2.0 * rn * rn + 4.0 * halfwidth**2 - dist * dist
            assert np.isclose(value, boundary)
            if expect_ok is False:
                assert value > 0.0  # CBC-admissible distance rejected by the noisy constraint


def test_prcbc_quadratic_structure():
    rng = np.random.default_rng(1)
    obs = make_observation(
        rng.normal(size=(4, 2)) * 0.3, rng.uniform(0.5, 2.0, 4), [0.02, -0.03], 0.9, 0.07
    )
    f, b, c = barrier.prcbc_quadratics(obs, 2.0, 0.015)
    assert f.shape == (4, 2, 6) and b.shape == (4, 6) and c.shape == (4,)
    # the quadratic term is the factor's Gram matrix dl'dl / gamma^2: PSD of rank <= 2 by construction
    dl = obs.l_features - obs.l_obstacle
    assert np.array_equal(f, dl / 2.0)
    for f_i in f:
        assert np.linalg.matrix_rank(f_i.T @ f_i, tol=1e-12) <= 2


def test_chance_suite_small():
    report = chance_suite(sigma_levels=(0.8,), n_states=8, n_draws=4000, seed=11)
    assert report.passed, report.lines


def test_erfinv_within_8_ulp_of_scipy():
    from scipy.special import erfinv

    grid = np.concatenate([np.linspace(0.0, 1.0, 20001)[1:-1], [1e-300, 1e-12, 0.5, 1.0 - 1e-12, 1.0 - 2.0**-53]])
    ours = np.array([barrier._erfinv(float(y)) for y in grid])
    ref = erfinv(grid)
    assert np.all(np.abs(ours - ref) <= 8.0 * np.spacing(ref))


def _bivariate_cdf(h, k, r):
    """P(X <= h, Y <= k) for standard normals with correlation r, h and k nonzero, via Owen's T."""
    from scipy.special import ndtr, owens_t

    s = np.sqrt(1.0 - r * r)
    outer = 0.0 if h * k > 0.0 else 0.5
    return 0.5 * (ndtr(h) + ndtr(k)) - owens_t(h, (k - r * h) / (h * s)) - owens_t(k, (h - r * k) / (k * s)) - outer


def _box_probability_reference(e, cov):
    s1, s2 = np.sqrt(cov[0][0]), np.sqrt(cov[1][1])
    r, h, k = cov[0][1] / (s1 * s2), e / s1, e / s2
    return _bivariate_cdf(h, k, r) - _bivariate_cdf(-h, k, r) - _bivariate_cdf(h, -k, r) + _bivariate_cdf(-h, -k, r)


def _correlated(var1, var2, rho):
    off = rho * np.sqrt(var1 * var2)
    return np.array([[var1, off], [off, var2]])


@pytest.mark.parametrize(
    "cov",
    [
        _correlated(1.0, 1.0, 0.95),
        _correlated(1.0, 1.0, -0.95),
        _correlated(1.0, 1.0, 0.9999),
        _correlated(2.0, 0.5, -0.9999),
        np.array([[1e-6, 9e-4], [9e-4, 1.0]]),
        _correlated(1.0, 1e-6, 0.3),
        _correlated(1e-4, 1.0, -0.95),
    ],
    ids=["rho.95", "rho-.95", "rho.9999", "unequal_rho-.9999", "narrow_axis", "unequal_diagonal", "unequal_rho-.95"],
)
def test_box_probability_matches_owens_t_reference(cov):
    # Owen's T gives the rectangle probability in closed form, sharing nothing with the quadrature
    scale = np.sqrt(cov.diagonal().max())
    for e in np.geomspace(1e-3, 10.0, 25) * scale:
        assert abs(barrier.box_probability(e, cov) - _box_probability_reference(e, cov)) < 1e-9


def test_box_probability_perfectly_correlated_closed_form():
    cov = np.array([[1.0, 2.0], [2.0, 4.0]])  # y = 2x
    from scipy.special import erf

    assert barrier.box_probability(1.0, cov) == pytest.approx(erf(0.5 / np.sqrt(2.0)), abs=1e-15)
