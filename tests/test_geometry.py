import numpy as np
import pytest

from safe_ibvs import geometry as geo
from safe_ibvs.errors import NonPositiveDepth
from safe_ibvs.jacobians import feature_interaction

from conftest import downward_pose


def test_world_to_camera_identity():
    pose = geo.CameraPose(np.eye(3), np.zeros(3))
    assert np.allclose(geo.world_to_camera(pose, [1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])


def test_world_to_camera_translation():
    pose = geo.CameraPose(np.eye(3), [1.0, 0.0, 0.0])
    assert np.allclose(geo.world_to_camera(pose, [1.0, 0.0, 0.0]), [0.0, 0.0, 0.0])


def test_world_camera_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(20):
        rot, _ = geo.se3_exp(np.concatenate([np.zeros(3), rng.normal(size=3)]))
        pose = geo.CameraPose(rot, rng.normal(size=3))
        p = rng.normal(size=3)
        back = pose.rotation @ geo.world_to_camera(pose, p) + pose.translation
        assert np.abs(back - p).max() < 1e-12


def test_pose_validation_rejects_non_orthonormal():
    bad = np.eye(3)
    bad[0, 1] = 1e-6
    with pytest.raises(ValueError, match="orthonormal"):
        geo.CameraPose(bad, np.zeros(3))
    with pytest.raises(ValueError, match="determinant"):
        geo.CameraPose(np.diag([1.0, 1.0, -1.0]), np.zeros(3))


def test_project_optical_axis():
    s, depth = geo.project_point(geo.CameraPose(np.eye(3), np.zeros(3)), [0.0, 0.0, 2.0])
    assert np.array_equal(s, [0.0, 0.0]) and depth == 2.0


def test_project_unit_depth():
    s, depth = geo.project_point(geo.CameraPose(np.eye(3), np.zeros(3)), [1.0, 1.0, 1.0])
    assert np.array_equal(s, [1.0, 1.0]) and depth == 1.0


def test_project_rejects_nonpositive_depth():
    pose = geo.CameraPose(np.eye(3), np.zeros(3))
    with pytest.raises(NonPositiveDepth):
        geo.project_point(pose, [0.0, 0.0, 0.0])
    with pytest.raises(NonPositiveDepth, match="-5.000e-01"):
        # every row is checked, and the first one behind the camera is named
        geo.project_point(pose, [[0.0, 0.0, 1.0], [0.1, 0.1, -0.5], [0.0, 0.0, -2.0]])


def test_project_point_depth_matches_pixel_projection(pose_above):
    p_world = np.array([0.2, 0.1, 0.0])
    s, z = geo.project_point(pose_above, p_world)
    p_cam = geo.world_to_camera(pose_above, p_world)
    assert z == p_cam[2]
    assert np.array_equal(s, p_cam[:2] / p_cam[2])
    # the depth fed to the interaction matrix is the same quantity
    L = feature_interaction(s, z)
    assert np.isclose(L[0, 0], -1.0 / z)


def test_batched_projection_equals_per_point_calls():
    rng = np.random.default_rng(8)
    for _ in range(50):
        pose = downward_pose(rng.uniform(-0.3, 0.3, 3) + [0.0, 0.0, 1.2], wiggle=rng.uniform(-0.2, 0.2, 3))
        points = np.column_stack([rng.uniform(-0.5, 0.5, (6, 2)), rng.uniform(-0.1, 0.3, 6)])
        s, z = geo.project_point(pose, points)
        assert s.shape == (6, 2) and z.shape == (6,)
        for i, p in enumerate(points):
            s_i, z_i = geo.project_point(pose, p)
            assert np.array_equal(s[i], s_i) and z[i] == z_i


def test_integrate_zero_twist(pose_above):
    out = geo.integrate_twist(pose_above, np.zeros(6), 0.05)
    assert np.allclose(out.rotation, pose_above.rotation)
    assert np.allclose(out.translation, pose_above.translation)


def test_integrate_pure_translation():
    pose = geo.CameraPose(np.eye(3), np.zeros(3))
    out = geo.integrate_twist(pose, [0.0, 0.0, 0.1, 0.0, 0.0, 0.0], 1.0)
    assert np.allclose(out.translation, [0.0, 0.0, 0.1])
    assert np.allclose(out.rotation, np.eye(3))


def test_integrate_rejects_bad_dt(pose_above):
    with pytest.raises(ValueError):
        geo.integrate_twist(pose_above, np.zeros(6), 0.0)


def test_rotation_stays_orthonormal_over_many_steps():
    rng = np.random.default_rng(11)
    pose = geo.CameraPose(np.eye(3), np.zeros(3))
    for _ in range(10_000):
        pose = geo.integrate_twist(pose, rng.normal(size=6) * 0.2, 0.01)
    err = np.abs(pose.rotation.T @ pose.rotation - np.eye(3)).max()
    assert err < 1e-9


def test_feature_drift_matches_interaction_first_order(pose_above):
    p_world = np.array([0.25, -0.1, 0.05])
    v = np.array([0.2, -0.1, 0.15, 0.3, -0.2, 0.25])
    s0, z0 = geo.project_point(pose_above, p_world)
    predicted = feature_interaction(s0, z0) @ v

    errs = []
    for dt in (1e-2, 1e-3, 1e-4):
        s1, _ = geo.project_point(geo.integrate_twist(pose_above, v, dt), p_world)
        errs.append(np.linalg.norm((s1 - s0) / dt - predicted))
    # first order in dt: each decade of dt drops the error about tenfold
    assert 4.0 < errs[0] / errs[1] < 25.0
    assert 4.0 < errs[1] / errs[2] < 25.0


def test_obstacle_image_state_axis_case():
    pose = downward_pose([0.0, 0.0, 1.0])
    obs = geo.Obstacle3.static([0.0, 0.0, 0.0], 0.1)
    st = geo.obstacle_image_state(obs, pose, 0.0)
    assert np.allclose(st.center, [0.0, 0.0])
    assert np.isclose(st.rn, 0.1) and np.isclose(st.depth, 1.0)


def test_obstacle_rn_scales_inversely_with_depth():
    obs = geo.Obstacle3.static([0.05, 0.02, 0.0], 0.08)
    st1 = geo.obstacle_image_state(obs, downward_pose([0.0, 0.0, 1.0]), 0.0)
    st2 = geo.obstacle_image_state(obs, downward_pose([0.0, 0.0, 2.0]), 0.0)
    assert np.isclose(st2.rn, st1.rn / 2.0)


def test_obstacle_schedule_interpolation():
    obs = geo.Obstacle3(0.05, np.array([0.0, 2.0]), np.array([[0.0, 0.0, 0.0], [2.0, 4.0, 0.0]]))
    assert np.allclose(obs.center_at(1.0), [1.0, 2.0, 0.0])
    assert np.allclose(obs.center_at(-1.0), [0.0, 0.0, 0.0])  # clamped
    assert np.allclose(obs.center_at(5.0), [2.0, 4.0, 0.0])


def test_obstacle_validation():
    with pytest.raises(ValueError, match="radius"):
        geo.Obstacle3.static([0.0, 0.0, 0.0], 0.0)
    with pytest.raises(ValueError, match="increasing"):
        geo.Obstacle3(0.1, np.array([0.0, 0.0]), np.zeros((2, 3)))


def test_intrinsics_validation():
    with pytest.raises(ValueError):
        geo.CameraIntrinsics(0.0, 320.0, 240.0)
