"""Interaction matrices: camera twist to image-plane velocity maps.

All rows follow the twist convention ``[vx, vy, vz, wx, wy, wz]`` in the
camera frame. Points are normalized image coordinates, depths are metric
and must be positive. The projected obstacle center moves like a point
feature at its own depth, so :func:`feature_interaction` serves it too.
"""

from __future__ import annotations

import numpy as np

from .errors import NonPositiveDepth


def feature_interaction(p: np.ndarray, z: float | np.ndarray) -> np.ndarray:
    """Interaction matrix of point features at normalized ``p`` and depth ``z``.

    A ``(2,)`` point with a scalar depth gives the 2x6 matrix; ``(n, 2)``
    points with ``(n,)`` depths give the ``(n, 2, 6)`` stack.
    """
    p = np.asarray(p, dtype=float)
    z = np.asarray(z, dtype=float)
    bad = np.flatnonzero(~(z > 0.0))
    if bad.size:
        raise NonPositiveDepth(f"feature depth {np.ravel(z)[bad[0]]} <= 0")
    a, b = p[..., 0], p[..., 1]
    out = np.zeros(p.shape[:-1] + (2, 6))
    out[..., 0, 0] = -1.0 / z
    out[..., 0, 2] = a / z
    out[..., 0, 3] = a * b
    out[..., 0, 4] = -(1.0 + a * a)
    out[..., 0, 5] = b
    out[..., 1, 1] = -1.0 / z
    out[..., 1, 2] = b / z
    out[..., 1, 3] = 1.0 + b * b
    out[..., 1, 4] = -a * b
    out[..., 1, 5] = -a
    return out


def obstacle_radius_interaction(p_o: np.ndarray, z_o: float, radius: float) -> np.ndarray:
    """1x6 interaction row of the normalized obstacle radius."""
    if not z_o > 0.0:
        raise NonPositiveDepth(f"obstacle depth {z_o} <= 0")
    if not radius > 0.0:
        raise ValueError(f"obstacle radius must be positive, got {radius}")
    a, b = float(p_o[0]), float(p_o[1])
    return np.array([0.0, 0.0, radius / z_o**2, radius * b / z_o, -radius * a / z_o, 0.0])
