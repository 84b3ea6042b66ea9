"""Finite-horizon planner for the feature-error regulation task.

The prediction model holds the interaction matrix fixed at its current
value over the horizon, which condenses the problem into a strictly
convex QP in the stacked control vector U = [V_0; ...; V_{N-1}]:

    min sum_k e_k' Q e_k + V_k' R V_k  +  e_N' F e_N
    s.t. e_{k+1} = e_k + dt * L @ V_k,   ||V_k|| <= v_max

With Q = q I, F = f I and R = r I, as in every shipped scenario, the
condensed Hessian is 2 dt^2 (M (x) L'L) + 2 r I with the N x N coupling
M = q C + f 11' (C_ab = max(N - 1 - max(a, b), 0)), and the gradient is
2 dt (w (x) L'e0) with w_k = q (N - 1 - k) + f. Rotating every V_k by
the eigenvectors of L'L = Qv diag(mu) Qv' leaves each ||V_k|| unchanged
and splits the problem into six independent N x N systems
(2 dt^2 mu_j M + 2 r I) z_j = -2 dt (Qv'L'e0)_j w, one per eigenvalue
(Van Loan, J. Comput. Appl. Math. 123, 2000); then U = (Qv z)'. Other
weights keep the one 6N x 6N system of :func:`condense`.

Either batch is solved exactly through its dual over the N ball
multipliers lambda >= 0, by one routine. The unknowns of every system
form N blocks of g coordinates (g = 1 for the six N x N systems, g = 6
for the 6N x 6N one), and ball k bounds the norm of block k over the
whole batch. For fixed lambda the Lagrangian's minimiser solves
(A_b + 2 diag(lambda) (x) I_g) z_b = rhs_b for every system b. lambda = 0
gives the unconstrained optimum in closed form from the eigenbasis of the
A_b (for the six systems, that of M, computed once per MpcConfig), and it
is the answer whenever no ball is exceeded. Otherwise projected Newton
over the balls that exceed the bound or carry a positive multiplier
drives 1/||U_k|| - 1/v_max to zero; its Jacobian sums
2 z' K^-1 z / ||U_k||^3 over the batch. This secular equation is nearly
linear in lambda, as in trust-region methods (More & Sorensen, SIAM J.
Sci. Stat. Comput. 4, 1983).

The solve cannot fail. Every system is positive definite because R is
(MpcConfig checks it), and U = 0 is feasible, so the dual optimum
exists. After NEWTON_MAX_ITER steps any block still over the bound is
scaled onto it, so the result is always feasible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    # set in __post_init__ when q, f and r are multiples of the identity, else None (see module docstring)
    coupling_eig: tuple | None = field(init=False, repr=False)  # eigh of the (N, N) M = q C + f 11'
    grad_weights: np.ndarray | None = field(init=False, repr=False)  # (N,) w_k = q (N - 1 - k) + f

    def __post_init__(self):
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        object.__setattr__(self, "r", np.asarray(self.r, dtype=float))
        object.__setattr__(self, "f", np.asarray(self.f, dtype=float))
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if not (np.isfinite(self.v_max) and self.v_max > 0.0):
            raise ValueError(f"v_max must be finite and positive, got {self.v_max}")
        if not (np.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be finite and positive, got {self.dt}")
        for name, mat, strict in (("q", self.q, False), ("r", self.r, True), ("f", self.f, False)):
            if not np.isfinite(mat).all():
                raise ValueError(f"{name} holds a non-finite number")
            if np.abs(mat - mat.T).max() > 1e-9:
                raise ValueError(f"{name} must be symmetric")
            eig_min = float(np.linalg.eigvalsh(mat)[0])
            if strict and eig_min <= 0.0:
                raise ValueError(f"{name} must be positive definite, min eigenvalue {eig_min:.3e}")
            if not strict and eig_min < -1e-9:
                raise ValueError(f"{name} must be PSD, min eigenvalue {eig_min:.3e}")
        q, f, r = (_identity_multiple(mat) for mat in (self.q, self.f, self.r))
        coupling_eig = grad_weights = None
        if None not in (q, f, r):
            steps = np.arange(self.horizon)
            counts = np.maximum(self.horizon - 1 - np.maximum.outer(steps, steps), 0)
            coupling_eig = np.linalg.eigh(q * counts + f)
            grad_weights = q * (self.horizon - 1 - steps) + f
        object.__setattr__(self, "coupling_eig", coupling_eig)
        object.__setattr__(self, "grad_weights", grad_weights)


def _identity_multiple(mat: np.ndarray) -> float | None:
    """s when mat is exactly s times the identity, else None."""
    s = float(mat[0, 0])
    return s if np.array_equal(mat, s * np.eye(mat.shape[0])) else None


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


def _dual_newton(basis: np.ndarray, eigvals: np.ndarray, rhs: np.ndarray, v_max: float) -> np.ndarray:
    """Minimiser z (B, N, g) of sum_b 0.5 z_b' A_b z_b - rhs_b' z_b subject to every ||z[:, k]|| <= v_max.

    The batch holds B systems A_b = basis diag(eigvals[b]) basis' over the
    flattened z_b. Ball k bounds the g coordinates z[b, k, :] of all B
    systems together.
    """
    shape = rhs.shape
    rhs = rhs.reshape(shape[0], -1)
    a = (basis * eigvals[:, None, :]) @ basis.T
    inverse = (basis / eigvals[:, None, :]) @ basis.T  # of the lambda = 0 systems
    lam = np.zeros(shape[1])
    for it in range(NEWTON_MAX_ITER + 1):
        z = np.einsum("bij,bj->bi", inverse, rhs).reshape(shape)
        norms = np.sqrt(np.einsum("bki,bki->k", z, z))
        free = (lam > 0.0) | (norms > v_max)
        if it == NEWTON_MAX_ITER or (np.abs(norms[free] - v_max) <= NEWTON_TOL * v_max).all():
            return z
        # d(1/||u_k||)/d lam_l = 2 sum_b z[b, k]' (K_b^-1)[k, l] z[b, l] / ||u_k||^3, (K_b^-1)[k, l] a g x g block
        curv = np.einsum("bki,bkilj,blj->kl", z, inverse.reshape(shape + shape[1:]), z)
        jac = 2.0 * curv[free][:, free] / norms[free, None] ** 3
        lam[free] = np.maximum(lam[free] - np.linalg.solve(jac, 1.0 / norms[free] - 1.0 / v_max), 0.0)
        inverse = np.linalg.inv(a + np.diag(np.repeat(2.0 * lam, shape[2])))


def plan(e0: np.ndarray, L: np.ndarray, cfg: MpcConfig) -> np.ndarray:
    """Optimal control sequence, shape (N, 6); first row is the nominal twist."""
    e0 = np.asarray(e0, dtype=float).reshape(-1)
    L = np.asarray(L, dtype=float)
    if L.shape != (e0.shape[0], 6) or cfg.q.shape[0] != e0.shape[0]:
        raise DimensionMismatch(f"L {L.shape}, e0 {e0.shape}, q {cfg.q.shape}")
    n, dt = cfg.horizon, cfg.dt
    if cfg.coupling_eig is not None:
        # rotating every V_k by the eigenvectors of L'L splits H into six N x N systems, one per eigenvalue
        mu, rotation = np.linalg.eigh(L.T @ L)
        nu, basis = cfg.coupling_eig
        eigvals = np.multiply.outer((2.0 * dt * dt) * mu, nu) + 2.0 * cfg.r[0, 0]
        rhs = np.multiply.outer((-2.0 * dt) * (e0 @ L @ rotation), cfg.grad_weights)
        u = _dual_newton(basis, eigvals, rhs[:, :, None], cfg.v_max)[:, :, 0].T @ rotation.T
    else:
        h_mat, g = condense(e0, L, cfg)
        eigvals, basis = np.linalg.eigh(h_mat)
        u = _dual_newton(basis, eigvals[None], -g.reshape(1, n, 6), cfg.v_max)[0]
    norms = np.sqrt((u * u).sum(axis=1))
    u *= (cfg.v_max / np.maximum(norms, cfg.v_max))[:, None]  # any block still over the bound goes onto it
    return u
