"""Finite-horizon planner for the feature-error regulation task.

The prediction model holds the interaction matrix fixed at its current
value over the horizon, which makes the problem a strictly convex QP in
the stacked control vector U = [V_0; ...; V_{N-1}]:

    min sum_k q ||e_k||^2 + r ||V_k||^2  +  f ||e_N||^2
    s.t. e_{k+1} = e_k + dt * L @ V_k,   ||V_k|| <= v_max

with scalar weights q, f >= 0 and r > 0. The Hessian in U is
2 dt^2 (M (x) L'L) + 2 r I with the N x N coupling M = q C + f 11'
(C_ab = max(N - 1 - max(a, b), 0)), and the gradient is 2 dt (w (x) L'e0)
with w_k = q (N - 1 - k) + f. Rotating every V_k by the eigenvectors of
L'L = Qv diag(mu) Qv' leaves each ||V_k|| unchanged and splits the
problem into six independent N x N systems
(2 dt^2 mu_j M + 2 r I) z_j = -2 dt (Qv'L'e0)_j w, one per eigenvalue
(Van Loan, J. Comput. Appl. Math. 123, 2000); then U = (Qv z)'.

The six systems are solved exactly through their dual over the N ball
multipliers lambda >= 0, ball k bounding ||V_k|| = ||(z_1k, ..., z_6k)||.
For fixed lambda the minimiser solves (A_j + 2 diag(lambda)) z_j = rhs_j.
lambda = 0 gives the unconstrained optimum in closed form from the
eigenbasis of M, computed once per MpcConfig, and it is the answer
whenever no ball is exceeded. Otherwise projected Newton over the balls
that exceed the bound or carry a positive multiplier drives
1/||V_k|| - 1/v_max to zero; its Jacobian sums 2 z' K^-1 z / ||V_k||^3
over the six systems. This secular equation is nearly linear in lambda,
as in trust-region methods (More & Sorensen, SIAM J. Sci. Stat.
Comput. 4, 1983).

The solve cannot fail. C (a sum of 1_k 1_k' over prefix indicators)
and 11' are PSD, so M is PSD for q, f >= 0; L'L is PSD; so with r > 0
every system 2 dt^2 mu_j M + 2 r I is positive definite (in exact
arithmetic: eigh can round a zero mu_j of a rank-deficient L a little
below 0, which an r near 1e-300 does not outweigh), and U = 0 is
feasible, so the dual optimum exists. MpcConfig checks these signs
exactly, and that 2 r, M and M's eigenvalues are finite. It keeps
v_max >= V_MAX_MIN, so that ||V_k||^3 near the bound stays a normal
float (below v_max = 1e-107 the Jacobian would be inf). After
NEWTON_MAX_ITER steps any block still over the bound is scaled onto
it, so the result is always feasible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch

NEWTON_MAX_ITER = 30
NEWTON_TOL = 1e-10  # relative gap of ||U_k|| to v_max at which a bound counts as met
V_MAX_MIN = 1e-100  # smallest speed bound; its cube, 1e-300, is a normal float


@dataclass(frozen=True, eq=False)
class MpcConfig:
    """Horizon, scalar weights, speed bound, and step size of the planner."""

    horizon: int
    q: float  # stage weight, >= 0
    r: float  # input weight, > 0
    f: float  # terminal weight, >= 0
    v_max: float
    dt: float
    coupling_eig: tuple = field(init=False, repr=False)  # eigh of the (N, N) M = q C + f 11'
    grad_weights: np.ndarray = field(init=False, repr=False)  # (N,) w_k = q (N - 1 - k) + f

    def __post_init__(self):
        for name in ("q", "r", "f"):  # Python floats, whose overflow gives inf without a warning
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if not (np.isfinite(self.v_max) and self.v_max >= V_MAX_MIN):
            raise ValueError(f"v_max must be finite and at least {V_MAX_MIN:g}, got {self.v_max}")
        if not (np.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be finite and positive, got {self.dt}")
        for name, weight in (("q", self.q), ("f", self.f)):
            if not (math.isfinite(weight) and weight >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {weight}")
        if not (math.isfinite(2.0 * self.r) and self.r > 0.0):
            raise ValueError(f"r must be positive with 2 r finite, got {self.r}")
        steps = np.arange(self.horizon)
        counts = np.maximum(self.horizon - 1 - np.maximum.outer(steps, steps), 0)
        largest = self.q * (self.horizon - 1) + self.f  # M's largest entry: when it is finite, M builds without overflow
        coupling_eig = np.linalg.eigh(self.q * counts + self.f) if math.isfinite(largest) else None
        if coupling_eig is None or not np.isfinite(coupling_eig[0]).all():
            raise ValueError(f"q = {self.q:g} and f = {self.f:g} make M = q C + f 11' or its eigenvalues non-finite")
        object.__setattr__(self, "coupling_eig", coupling_eig)
        object.__setattr__(self, "grad_weights", self.q * (self.horizon - 1 - steps) + self.f)


def _dual_newton(basis: np.ndarray, eigvals: np.ndarray, rhs: np.ndarray, v_max: float) -> np.ndarray:
    """Minimiser z (B, N) of sum_b 0.5 z_b' A_b z_b - rhs_b' z_b subject to every ||z[:, k]|| <= v_max.

    The batch holds B systems A_b = basis diag(eigvals[b]) basis', and
    ball k bounds the entries z[b, k] of all B systems together.
    """
    n = rhs.shape[1]
    inverse = (basis / eigvals[:, None, :]) @ basis.T  # of the lambda = 0 systems
    lam = np.zeros(n)
    for it in range(NEWTON_MAX_ITER + 1):
        z = np.einsum("bij,bj->bi", inverse, rhs)
        norms = np.sqrt(np.einsum("bk,bk->k", z, z))
        free = (lam > 0.0) | (norms > v_max)
        if it == NEWTON_MAX_ITER or (np.abs(norms[free] - v_max) <= NEWTON_TOL * v_max).all():
            return z  # an unsaturated plan returns here, at it = 0
        # d(1/||u_k||)/d lam_l = 2 sum_b z[b, k] (K_b^-1)[k, l] z[b, l] / ||u_k||^3
        curv = np.einsum("bk,bkl,bl->kl", z, inverse, z)
        jac = 2.0 * curv[free][:, free] / norms[free, None] ** 3
        lam[free] = np.maximum(lam[free] - np.linalg.solve(jac, 1.0 / norms[free] - 1.0 / v_max), 0.0)
        if it == 0:  # K_b = A_b + 2 diag(lam): A_b is built once, and each iterate rewrites its diagonal
            k_mat = (basis * eigvals[:, None, :]) @ basis.T
            diagonal = k_mat.reshape(len(rhs), -1)[:, :: n + 1]
            a_diagonal = diagonal.copy()
        diagonal[...] = a_diagonal + 2.0 * lam
        inverse = np.linalg.inv(k_mat)


def plan(e0: np.ndarray, L: np.ndarray, cfg: MpcConfig) -> np.ndarray:
    """Optimal control sequence, shape (N, 6); first row is the nominal twist."""
    e0 = np.asarray(e0, dtype=float).reshape(-1)
    L = np.asarray(L, dtype=float)
    if L.shape != (e0.shape[0], 6):
        raise DimensionMismatch(f"L {L.shape}, e0 {e0.shape}")
    dt = cfg.dt
    # rotating every V_k by the eigenvectors of L'L splits H into six N x N systems, one per eigenvalue
    mu, rotation = np.linalg.eigh(L.T @ L)
    nu, basis = cfg.coupling_eig
    eigvals = np.multiply.outer((2.0 * dt * dt) * mu, nu) + 2.0 * cfg.r
    rhs = np.multiply.outer((-2.0 * dt) * (e0 @ L @ rotation), cfg.grad_weights)
    u = _dual_newton(basis, eigvals, rhs, cfg.v_max).T @ rotation.T
    norms = np.sqrt((u * u).sum(axis=1))
    u *= (cfg.v_max / np.maximum(norms, cfg.v_max))[:, None]  # any block still over the bound goes onto it
    return u
