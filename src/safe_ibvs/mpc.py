"""Finite-horizon planner for the feature-error regulation task.

The prediction model holds the interaction matrix fixed at its current
value over the horizon, which condenses the problem into a strictly
convex QP in the stacked control vector U = [V_0; ...; V_{N-1}]:

    min sum_k e_k' Q e_k + V_k' R V_k  +  e_N' F e_N
    s.t. e_{k+1} = e_k + dt * L @ V_k,   ||V_k|| <= v_max

It is solved exactly through its dual over the N ball multipliers
lambda >= 0. For fixed lambda the Lagrangian's minimiser solves

    (H + 2 diag(lambda) (x) I_6) U = -g

with one dense linear solve (``numpy.linalg.solve``). lambda = 0 gives
the unconstrained optimum, which is the answer whenever no block exceeds
v_max. Otherwise projected Newton over the blocks that exceed the bound
or carry a positive multiplier drives 1/||U_k|| - 1/v_max to zero; this
secular equation is nearly linear in lambda, as in trust-region methods
(More & Sorensen, SIAM J. Sci. Stat. Comput. 4, 1983).

The solve cannot fail. H is positive definite because R is (MpcConfig
checks it), so every system above is nonsingular, and U = 0 is
feasible, so the dual optimum exists. After NEWTON_MAX_ITER steps any
block still over the bound is scaled onto it, so the result is always
feasible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch

NEWTON_MAX_ITER = 30
NEWTON_TOL = 1e-10  # relative gap of ||U_k|| to v_max at which a bound counts as met


@dataclass(frozen=True, eq=False)
class MpcConfig:
    """Horizon, weights, speed bound, and step size of the planner."""

    horizon: int
    q: np.ndarray  # (2m, 2m) PSD stage weight
    r: np.ndarray  # (6, 6) PD input weight
    f: np.ndarray  # (2m, 2m) PSD terminal weight
    v_max: float
    dt: float

    def __post_init__(self):
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        object.__setattr__(self, "r", np.asarray(self.r, dtype=float))
        object.__setattr__(self, "f", np.asarray(self.f, dtype=float))
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if not self.v_max > 0.0:
            raise ValueError(f"v_max must be positive, got {self.v_max}")
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        for name, mat, strict in (("q", self.q, False), ("r", self.r, True), ("f", self.f, False)):
            if np.abs(mat - mat.T).max() > 1e-9:
                raise ValueError(f"{name} must be symmetric")
            eig_min = float(np.linalg.eigvalsh(mat)[0])
            if strict and eig_min <= 0.0:
                raise ValueError(f"{name} must be positive definite, min eigenvalue {eig_min:.3e}")
            if not strict and eig_min < -1e-9:
                raise ValueError(f"{name} must be PSD, min eigenvalue {eig_min:.3e}")

    @staticmethod
    def from_weights(
        m: int,
        horizon: int = 5,
        q: float = 1.0,
        r: float = 0.05,
        f: float = 2.0,
        v_max: float = 0.5,
        dt: float = 0.05,
    ) -> "MpcConfig":
        """Scalar weights times identity, for m feature points."""
        return MpcConfig(
            horizon=horizon,
            q=q * np.eye(2 * m),
            r=r * np.eye(6),
            f=f * np.eye(2 * m),
            v_max=v_max,
            dt=dt,
        )


def predict_errors(e0: np.ndarray, L: np.ndarray, controls: np.ndarray, dt: float) -> np.ndarray:
    """Roll the frozen-interaction error model; returns N+1 rows incl. e0."""
    e0 = np.asarray(e0, dtype=float).reshape(-1)
    controls = np.atleast_2d(np.asarray(controls, dtype=float))
    if L.shape[0] != e0.shape[0] or L.shape[1] != controls.shape[1]:
        raise DimensionMismatch(f"L {L.shape} vs e0 {e0.shape} and controls {controls.shape}")
    errors = np.empty((controls.shape[0] + 1, e0.shape[0]))
    errors[0] = e0
    for k in range(controls.shape[0]):
        errors[k + 1] = errors[k] + dt * (L @ controls[k])
    return errors


def rollout_cost(e0: np.ndarray, L: np.ndarray, controls: np.ndarray, cfg: MpcConfig) -> float:
    """Exact cost of a control sequence under the prediction model."""
    errors = predict_errors(e0, L, controls, cfg.dt)
    cost = 0.0
    for k in range(controls.shape[0]):
        cost += float(errors[k] @ cfg.q @ errors[k]) + float(controls[k] @ cfg.r @ controls[k])
    cost += float(errors[-1] @ cfg.f @ errors[-1])
    return cost


def condense(e0: np.ndarray, L: np.ndarray, cfg: MpcConfig) -> tuple[np.ndarray, np.ndarray]:
    """Condensed Hessian and gradient over the stacked controls.

    The cost is 0.5 U'HU + g'U plus a constant, U = [V_0; ...; V_{N-1}].
    """
    n = cfg.horizon
    dt = cfg.dt
    steps = np.arange(n)
    # e_k sums V_0..V_{k-1}: V_a and V_b meet in the stage costs after max(a, b) and in the terminal one
    counts = np.maximum(n - 1 - np.maximum.outer(steps, steps), 0)
    s_q = L.T @ cfg.q @ L
    s_f = L.T @ cfg.f @ L
    h_mat = 2.0 * (dt * dt * (np.kron(counts, s_q) + np.kron(np.ones((n, n)), s_f)))
    h_mat += np.kron(np.eye(n), 2.0 * cfg.r)
    g = 2.0 * dt * (np.kron(n - 1 - steps, L.T @ (cfg.q @ e0)) + np.kron(np.ones(n), L.T @ (cfg.f @ e0)))
    return h_mat, g


def _minimiser(h_mat: np.ndarray, g: np.ndarray, lam: np.ndarray):
    """The shifted Hessian, the Lagrangian's minimiser (N, 6), and its block norms."""
    shifted = h_mat + np.diag(np.repeat(2.0 * lam, 6))
    u = np.linalg.solve(shifted, -g).reshape(-1, 6)
    return shifted, u, np.linalg.norm(u, axis=1)


def plan(e0: np.ndarray, L: np.ndarray, cfg: MpcConfig) -> np.ndarray:
    """Optimal control sequence, shape (N, 6); first row is the nominal twist."""
    e0 = np.asarray(e0, dtype=float).reshape(-1)
    L = np.asarray(L, dtype=float)
    if L.shape != (e0.shape[0], 6) or cfg.q.shape[0] != e0.shape[0]:
        raise DimensionMismatch(f"L {L.shape}, e0 {e0.shape}, q {cfg.q.shape}")
    h_mat, g = condense(e0, L, cfg)
    n, v_max = cfg.horizon, cfg.v_max
    lam = np.zeros(n)
    shifted, u, norms = _minimiser(h_mat, g, lam)
    for _ in range(NEWTON_MAX_ITER):
        free = np.flatnonzero((lam > 0.0) | (norms > v_max))
        if np.all(np.abs(norms[free] - v_max) <= NEWTON_TOL * v_max):
            break
        # d(1/||U_k||)/d lam_j = 2 U_k' (K^-1)_kj U_j / ||U_k||^3, K the shifted Hessian
        spread = np.zeros((n, 6, free.size))
        spread[free, :, np.arange(free.size)] = u[free]
        solved = np.linalg.solve(shifted, spread.reshape(6 * n, -1)).reshape(n, 6, -1)
        jac = 2.0 * np.einsum("ki,kic->kc", u[free], solved[free]) / norms[free, None] ** 3
        lam[free] = np.maximum(lam[free] - np.linalg.solve(jac, 1.0 / norms[free] - 1.0 / v_max), 0.0)
        shifted, u, norms = _minimiser(h_mat, g, lam)
    over = norms > v_max
    u[over] *= (v_max / norms[over])[:, None]
    return u
