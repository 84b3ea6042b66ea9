"""Pinhole camera model, rigid camera poses, and scene projection.

Conventions used throughout the package:

* World frame: fixed, right handed.
* Camera frame: right handed, origin at the optical center, z axis along
  the optical axis pointing into the scene, x right, y down.
* ``CameraPose.rotation`` maps camera coordinates to world coordinates
  (its columns are the camera axes expressed in the world frame);
  ``translation`` is the optical center in world coordinates.
* A twist is the 6-vector ``[vx, vy, vz, wx, wy, wz]`` (linear then
  angular velocity) expressed in the current camera frame.
* Normalized image coordinates ``(a, b) = (x / z, y / z)`` of a
  camera-frame point. Every image quantity is computed in these
  coordinates. A scene's camera is its focal length f alone: it scales
  the pixel noise and the logged pixel clearance. A principal point would
  cancel from every difference of two points, so scenes have none.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonPositiveDepth

ORTHONORMAL_TOL = 1e-9
MIN_DEPTH = 1e-9
_EYE3 = np.eye(3)  # read only: every use below makes a new array


def skew(w: np.ndarray) -> np.ndarray:
    """Cross-product matrix of a 3-vector."""
    x, y, z = np.asarray(w, dtype=float).tolist()
    return np.array(
        [
            [0.0, -z, y],
            [z, 0.0, -x],
            [-y, x, 0.0],
        ]
    )


def se3_exp(xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exponential map of a body twist ``[v, w]``.

    Returns the incremental rotation and translation of the moving frame
    expressed in that frame, i.e. ``T_new = T_old @ [R, t; 0, 1]``.
    """
    v = np.asarray(xi[:3], dtype=float)
    w = np.asarray(xi[3:], dtype=float)
    theta = math.sqrt(w @ w)  # what np.linalg.norm computes for a vector
    wx = skew(w)
    wx2 = wx @ wx
    if theta < 1e-12:
        # series truncation error is below machine precision here
        rot = _EYE3 + wx + 0.5 * wx2
        jac = _EYE3 + 0.5 * wx + wx2 / 6.0
    else:
        s, c = np.sin(theta), np.cos(theta)
        rot = _EYE3 + (s / theta) * wx + ((1.0 - c) / theta**2) * wx2
        jac = _EYE3 + ((1.0 - c) / theta**2) * wx + ((theta - s) / theta**3) * wx2
    return rot, jac @ v


@dataclass(frozen=True, eq=False)
class CameraPose:
    """Rigid camera pose: camera-to-world rotation and camera origin."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        rot = np.asarray(self.rotation, dtype=float)
        trans = np.asarray(self.translation, dtype=float).reshape(3)
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", trans)
        if rot.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {rot.shape}")
        err = np.abs(rot.T @ rot - _EYE3).max()
        if err > ORTHONORMAL_TOL:
            raise ValueError(f"rotation not orthonormal (max deviation {err:.3e})")
        (a, b, c), (d, e, f), (g, h, i) = rot.tolist()
        det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)  # scalar triple product
        if abs(det - 1.0) > ORTHONORMAL_TOL:
            raise ValueError(f"rotation determinant {det:.12f} != +1")

    @staticmethod
    def from_rpy(rpy: np.ndarray, translation: np.ndarray) -> "CameraPose":
        """Pose from intrinsic roll-pitch-yaw angles (radians), R = Rz@Ry@Rx."""
        r, p, y = float(rpy[0]), float(rpy[1]), float(rpy[2])
        cr, sr = np.cos(r), np.sin(r)
        cp, sp = np.cos(p), np.sin(p)
        cy, sy = np.cos(y), np.sin(y)
        rz = np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]])
        ry = np.array([[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]])
        rx = np.array([[1.0, 0.0, 0.0], [0.0, cr, -sr], [0.0, sr, cr]])
        return CameraPose(rz @ ry @ rx, np.asarray(translation, dtype=float))


def world_to_camera(pose: CameraPose, p: np.ndarray) -> np.ndarray:
    """Express a ``(3,)`` world point, or each row of ``(n, 3)`` points, in the camera frame."""
    return (np.asarray(p, dtype=float) - pose.translation) @ pose.rotation


def project_point(pose: CameraPose, p_world: np.ndarray) -> tuple[np.ndarray, float | np.ndarray]:
    """World point(s) to normalized coordinates and depth in one go.

    A ``(3,)`` point gives ``((2,), depth)``; ``(n, 3)`` points give
    ``((n, 2), (n,))``. Raises :class:`NonPositiveDepth` when any point
    is on or behind the camera plane (depth <= 1e-9); callers treat this
    as a fatal trial condition.
    """
    p_cam = world_to_camera(pose, p_world)
    z = p_cam[..., 2]
    behind = z <= MIN_DEPTH
    if behind.any():
        raise NonPositiveDepth(f"point depth {z[behind][0]:.3e} <= {MIN_DEPTH:.0e}")
    return p_cam[..., :2] / z[..., None], z if z.ndim else float(z)


def integrate_twist(pose: CameraPose, twist: np.ndarray, dt: float) -> CameraPose:
    """Advance the pose by the exponential of ``dt * twist``.

    The twist is a body twist (expressed in the current camera frame), so
    the increment right-multiplies the pose.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    rot_inc, t_inc = se3_exp(np.asarray(twist, dtype=float) * dt)
    return CameraPose(pose.rotation @ rot_inc, pose.translation + pose.rotation @ t_inc)


@dataclass(frozen=True, eq=False)
class Obstacle3:
    """Spherical obstacle on a piecewise-linear waypoint schedule.

    ``times`` must be strictly increasing; the center is held constant
    before the first and after the last waypoint.
    """

    radius: float
    times: np.ndarray
    points: np.ndarray
    _knots: list = field(init=False, repr=False)  # times as floats, for bisect

    def __post_init__(self):
        times = np.atleast_1d(np.asarray(self.times, dtype=float))
        points = np.atleast_2d(np.asarray(self.points, dtype=float))
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "_knots", times.tolist())
        if not self.radius > 0.0:
            raise ValueError(f"obstacle radius must be positive, got {self.radius}")
        if points.shape != (times.shape[0], 3):
            raise ValueError(f"waypoints shape {points.shape} does not match {times.shape[0]} times")
        if times.shape[0] > 1 and not np.all(np.diff(times) > 0.0):
            raise ValueError("waypoint times must be strictly increasing")

    @staticmethod
    def static(center: np.ndarray, radius: float) -> "Obstacle3":
        return Obstacle3(radius, np.array([0.0]), np.asarray(center, dtype=float).reshape(1, 3))

    @staticmethod
    def constant_velocity(center: np.ndarray, velocity: np.ndarray, radius: float) -> "Obstacle3":
        """Straight-line motion for 1e6 s, far beyond any trial, then held at the last point."""
        center = np.asarray(center, dtype=float)
        velocity = np.asarray(velocity, dtype=float)
        return Obstacle3(radius, np.array([0.0, 1e6]), np.vstack([center, center + 1e6 * velocity]))

    def center_at(self, t: float) -> np.ndarray:
        """The center at time ``t``, by ``np.interp``'s arithmetic: a knot's own point, held past either end."""
        j = bisect.bisect_right(self._knots, t) - 1  # times[j] <= t < times[j + 1]
        if j < 0:
            return self.points[0].copy()
        if j == len(self._knots) - 1 or self._knots[j] == t:
            return self.points[j].copy()
        slope = (self.points[j + 1] - self.points[j]) / (self._knots[j + 1] - self._knots[j])
        return slope * (t - self._knots[j]) + self.points[j]


@dataclass(frozen=True, eq=False)
class ObstacleImageState:
    """Projected obstacle: normalized center, normalized radius and center depth."""

    center: np.ndarray
    rn: float
    depth: float


def obstacle_image_state(obs: Obstacle3, pose: CameraPose, t: float) -> ObstacleImageState:
    """Project the obstacle center at time ``t``; its normalized radius is the metric radius over the center depth."""
    center, z = project_point(pose, obs.center_at(t))
    return ObstacleImageState(center=center, rn=obs.radius / z, depth=z)
