import numpy as np
import pytest

from safe_ibvs import ibvs
from safe_ibvs.errors import DimensionMismatch, RankDeficient
from safe_ibvs.jacobians import feature_interaction


def random_stack(rng, m=4):
    pts = rng.normal(size=(m, 2)) * 0.3
    depths = rng.uniform(0.5, 2.0, m)
    return feature_interaction(pts, depths).reshape(-1, 6)


def test_feature_error_zero():
    s = np.array([[0.1, 0.2], [0.3, -0.1], [0.0, 0.0]])
    assert np.allclose(ibvs.feature_error(s, s), 0.0)


def test_feature_error_single_point():
    e = ibvs.feature_error([[0.2, 0.1]], [[0.1, 0.1]])
    assert np.allclose(e, [0.1, 0.0])


def test_feature_error_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        ibvs.feature_error(np.zeros((3, 2)), np.zeros((4, 2)))


def test_pseudo_inverse_orthonormal_columns():
    # build a 8x6 matrix with orthonormal columns via QR
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.normal(size=(8, 6)))
    assert np.abs(ibvs.pseudo_inverse(q) - q.T).max() < 1e-12


def test_pseudo_inverse_left_inverse():
    rng = np.random.default_rng(1)
    for _ in range(20):
        L = random_stack(rng)
        P = ibvs.pseudo_inverse(L)
        assert np.abs(P @ L - np.eye(6)).max() < 1e-8


def test_pseudo_inverse_normal_equation_residual():
    rng = np.random.default_rng(2)
    for _ in range(20):
        L = random_stack(rng)
        P = ibvs.pseudo_inverse(L)
        gram = L.T @ L
        assert np.abs(gram @ P - L.T).max() < 1e-8


def test_pseudo_inverse_two_points_rank_deficient():
    rng = np.random.default_rng(3)
    L = random_stack(rng, m=2)  # 4 rows cannot span 6 columns
    with pytest.raises(RankDeficient):
        ibvs.pseudo_inverse(L)


def test_gradient_controller_zero_error():
    rng = np.random.default_rng(4)
    L = random_stack(rng)
    assert np.allclose(ibvs.gradient_controller(np.zeros(8), L, 0.5), 0.0)


def test_gradient_controller_linearity():
    rng = np.random.default_rng(5)
    L = random_stack(rng)
    e = rng.normal(size=8)
    v1 = ibvs.gradient_controller(e, L, 0.5)
    v3 = ibvs.gradient_controller(3.0 * e, L, 0.5)
    assert np.allclose(v3, 3.0 * v1)


def test_gradient_controller_requires_positive_gain():
    rng = np.random.default_rng(6)
    with pytest.raises(ValueError):
        ibvs.gradient_controller(np.zeros(8), random_stack(rng), 0.0)


def test_descent_direction_property():
    # d/dt ||e||^2 = 2 e'L V = -2a e'L pinv(L) e must be nonpositive
    rng = np.random.default_rng(7)
    for _ in range(100):
        L = random_stack(rng)
        e = rng.normal(size=8)
        v = ibvs.gradient_controller(e, L, 0.5)
        assert 2.0 * float(e @ (L @ v)) <= 1e-12


def test_one_euler_step_decreases_error():
    rng = np.random.default_rng(8)
    for _ in range(100):
        L = random_stack(rng)
        e = rng.normal(size=8) * 0.3
        v = ibvs.gradient_controller(e, L, 0.5)
        e_next = e + 0.01 * (L @ v)
        assert np.linalg.norm(e_next) < np.linalg.norm(e)


def test_clip_twist():
    v = np.array([3.0, 4.0, 0.0, 0.0, 0.0, 0.0])
    clipped = ibvs.clip_twist(v, 1.0)
    assert np.isclose(np.linalg.norm(clipped), 1.0)
    assert np.allclose(ibvs.clip_twist(v, 10.0), v)
    assert np.allclose(ibvs.clip_twist(np.zeros(6), 1.0), 0.0)
