import numpy as np
import pytest

from safe_ibvs import jacobians as jac
from safe_ibvs.errors import NonPositiveDepth
from safe_ibvs.oracles import jacobian_suite


def test_feature_interaction_at_origin():
    L = jac.feature_interaction([0.0, 0.0], 1.0)
    expected = np.array([[-1, 0, 0, 0, -1, 0], [0, -1, 0, 1, 0, 0]], dtype=float)
    assert np.allclose(L, expected)


def test_feature_interaction_direct_substitution():
    L = jac.feature_interaction([1.0, 1.0], 2.0)
    expected = np.array([[-0.5, 0, 0.5, 1, -2, 1], [0, -0.5, 0.5, 2, -1, -1]])
    assert np.allclose(L, expected)


def test_feature_interaction_rejects_bad_depth():
    with pytest.raises(NonPositiveDepth):
        jac.feature_interaction([0.1, 0.1], 0.0)


def test_depth_scaling_of_columns():
    rng = np.random.default_rng(2)
    p = rng.normal(size=2) * 0.3
    z = 0.8
    c = 3.0
    L1 = jac.feature_interaction(p, z)
    L2 = jac.feature_interaction(p, c * z)
    assert np.allclose(L2[:, :3], L1[:, :3] / c)
    assert np.allclose(L2[:, 3:], L1[:, 3:])


def test_radius_interaction_axis_case():
    row = jac.obstacle_radius_interaction([0.0, 0.0], 1.0, 0.1)
    assert np.allclose(row, [0.0, 0.0, 0.1, 0.0, 0.0, 0.0])


def test_radius_interaction_depth_scaling():
    p = np.array([0.25, -0.15])
    r1 = jac.obstacle_radius_interaction(p, 1.0, 0.1)
    r2 = jac.obstacle_radius_interaction(p, 2.0, 0.1)
    assert np.isclose(r2[2], r1[2] / 4.0)
    assert np.allclose(r2[3:5], r1[3:5] / 2.0)


def test_radius_interaction_rejects_bad_args():
    with pytest.raises(NonPositiveDepth):
        jac.obstacle_radius_interaction([0.0, 0.0], -1.0, 0.1)
    with pytest.raises(ValueError):
        jac.obstacle_radius_interaction([0.0, 0.0], 1.0, 0.0)


def test_radius_rate_under_pure_approach():
    # moving straight in shrinks the depth, so Rn grows at R/Zo^2 * vz
    p, z, radius = np.array([0.0, 0.0]), 1.25, 0.06
    row = jac.obstacle_radius_interaction(p, z, radius)
    vz = 0.2
    dt = 1e-6
    # depth change under a forward twist: Zo(t+dt) = Zo - vz*dt for an axis point
    rn_plus = radius / (z - vz * dt)
    rn_minus = radius / (z + vz * dt)
    fd = (rn_plus - rn_minus) / (2 * dt)
    assert abs(fd - row[2] * vz) < 1e-5


def test_stack_single_feature_equals_block():
    p, z = np.array([0.1, 0.2]), 0.9
    assert np.array_equal(jac.feature_interaction([p], [z])[0], jac.feature_interaction(p, z))


def test_stack_shape_for_four_features():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(4, 2)) * 0.3
    depths = rng.uniform(0.5, 2.0, 4)
    assert jac.feature_interaction(pts, depths).shape == (4, 2, 6)
    assert jac.feature_interaction(pts, depths).reshape(-1, 6).shape == (8, 6)


def test_stack_permutation_permutes_blocks():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(4, 2)) * 0.3
    depths = rng.uniform(0.5, 2.0, 4)
    perm = [2, 0, 3, 1]
    L = jac.feature_interaction(pts, depths)
    Lp = jac.feature_interaction(pts[perm], depths[perm])
    for new_i, old_i in enumerate(perm):
        assert np.array_equal(Lp[new_i], L[old_i])


def test_stack_validates_lengths():
    with pytest.raises(ValueError):
        jac.feature_interaction(np.zeros((2, 2)), np.ones(3))


def test_batched_interaction_equals_per_point_calls():
    rng = np.random.default_rng(6)
    for _ in range(100):
        pts = rng.normal(size=(5, 2)) * 0.4
        depths = rng.uniform(0.3, 2.5, 5)
        L = jac.feature_interaction(pts, depths)
        for i in range(5):
            assert np.array_equal(L[i], jac.feature_interaction(pts[i], float(depths[i])))


def test_batched_interaction_rejects_any_bad_depth():
    with pytest.raises(NonPositiveDepth, match="-0.5"):
        jac.feature_interaction(np.zeros((3, 2)), [1.0, -0.5, 0.0])


def test_finite_difference_oracle_suite():
    report = jacobian_suite(seed=123, n_states=25)
    assert report.passed, report.lines
