"""Feature-error bookkeeping and the classical gradient IBVS controller."""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, RankDeficient

# smallest eigenvalue of L'L accepted as "positive definite"
RANK_EIG_TOL = 1e-10


def feature_error(points: np.ndarray, target_points: np.ndarray) -> np.ndarray:
    """Stacked feature error ``s - s*`` as a flat 2m-vector."""
    points = np.asarray(points, dtype=float)
    target_points = np.asarray(target_points, dtype=float)
    if points.shape != target_points.shape and np.atleast_2d(points).shape != np.atleast_2d(target_points).shape:
        raise DimensionMismatch(f"feature sets {points.shape} vs {target_points.shape}")
    return (points - target_points).reshape(-1)


def pseudo_inverse(L: np.ndarray) -> np.ndarray:
    """Left pseudo-inverse ``(L'L)^-1 L'`` of a full-column-rank stack.

    Solved through the 6x6 normal equations. Raises
    :class:`RankDeficient` when the smallest eigenvalue of ``L'L`` is at
    or below 1e-10, which is the stability condition failing (fewer than
    three well-placed features).
    """
    L = np.asarray(L, dtype=float)
    gram = L.T @ L
    eig_min = float(np.linalg.eigvalsh(gram)[0])
    if eig_min <= RANK_EIG_TOL:
        raise RankDeficient(f"min eigenvalue of L'L is {eig_min:.3e}")
    return np.linalg.solve(gram, L.T)


def gradient_controller(error: np.ndarray, L: np.ndarray, gain: float) -> np.ndarray:
    """Unconstrained descent controller ``V = -gain * pinv(L) @ error``."""
    if not gain > 0.0:
        raise ValueError(f"gain must be positive, got {gain}")
    return -gain * (pseudo_inverse(L) @ np.asarray(error, dtype=float))


def clip_twist(twist: np.ndarray, v_max: float) -> np.ndarray:
    """Scale a twist down to the Euclidean ball of radius ``v_max``."""
    twist = np.asarray(twist, dtype=float)
    norm = math.sqrt(twist @ twist)  # what np.linalg.norm computes for a vector
    if norm <= v_max or norm == 0.0:
        return twist.copy()
    return twist * (v_max / norm)
