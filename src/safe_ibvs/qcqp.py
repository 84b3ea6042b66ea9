"""Exact projection of a twist onto a few convex quadratic sets, through its dual.

Solves

    min ||V - v_ref||^2   s.t.   g_i(V) = V'A_i V + b_i'V + c_i <= 0,   i < k,

for k <= m + 1 stacked constraints with every A_i PSD. Half-spaces have
A_i = 0, and one constraint is the speed ball ``||V||^2 <= v_max^2``
(A_i = I). For multipliers lambda >= 0 the Lagrangian's minimiser solves

    (I + sum_i lambda_i A_i) V = v_ref - 0.5 sum_i lambda_i b_i.

That matrix M is at least I, so the solve cannot fail to factor and
needs no regularisation. lambda = 0 gives V = v_ref, which is returned
as is when it is already admissible. Otherwise projected Newton ascends
the concave dual d(lambda) = L(V(lambda), lambda), whose gradient is g(V)
and whose Hessian is -0.5 G M^-1 G' for the stacked constraint gradients
G, over the multipliers that are positive or whose constraint is violated
(the dual approach of Goldfarb & Idnani, Math. Prog. 27, 1983). Each step
is cut back until the dual value rises (Armijo). At the dual optimum V is
the exact projection. Every call starts from lambda = 0 and keeps no
state between calls.

The solve holds, returning a reason instead of a twist, in two cases:

* the dual value exceeds ``(||v_ref|| + v_max)^2``, which by weak duality
  proves the feasible set empty (:func:`phase_one`);
* the multipliers do not converge within ``MAX_ITER`` steps, as when the
  feasible set has no interior and the multipliers grow without bound.
"""

from __future__ import annotations

import numpy as np

MAX_ITER = 30
# g_i <= 0, and g_i = 0 where lambda_i > 0, must hold to this tolerance relative to the size of
# g_i's terms. On a set with no interior the multipliers grow without bound and this relative
# residual decays only like 1/lambda, so such a set reaches MAX_ITER and holds.
FEAS_RTOL = 1e-12
ARMIJO = 1e-4
MAX_HALVINGS = 40
# relative rounding error allowed in the dual value, so that steps near the optimum are not
# refused for a loss that is only the rounding of the terms summed into d
ROUNDING = 64.0 * np.finfo(float).eps


def evaluate(a: np.ndarray, b: np.ndarray, c: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values ``x'a_i x + b_i'x + c_i``, shape (k,), and their gradients, shape (k, n)."""
    ax = a @ x
    return ax @ x + b @ x + c, 2.0 * ax + b


def phase_one(dual_value: float, v_ref: np.ndarray, v_max: float) -> str:
    """Weak-duality infeasibility test: a reason to hold once ``dual_value`` proves the set empty, else "".

    Every admissible twist lies in the speed ball, so its squared distance
    to ``v_ref`` is at most ``(||v_ref|| + v_max)^2``, and by weak duality
    every dual value is at most the squared distance of the projection. A
    dual value above the bound therefore leaves no admissible twist. This
    is the infeasibility stage of the solve, the role a phase-I search
    plays in interior-point methods; it keeps that name because the
    benchmark's traced run times ``qcqp.phase_one`` by name.
    """
    bound = (float(np.linalg.norm(v_ref)) + v_max) ** 2
    if dual_value > bound:
        return f"infeasible: dual value {dual_value:.3e} exceeds the bound (||v_ref|| + v_max)^2 = {bound:.3e}"
    return ""


def _minimiser(v_ref, a, b, c, lam):
    """M, the Lagrangian's minimiser V, g(V), g's gradients, the size of each g_i's terms, d(lambda) and d's size."""
    if lam.any():
        m_mat = np.eye(v_ref.shape[0]) + np.tensordot(lam, a, 1)
        x = np.linalg.solve(m_mat, v_ref - 0.5 * (lam @ b))
    else:
        m_mat, x = None, v_ref.copy()
    g, grads = evaluate(a, b, c, x)
    ax = np.abs(x)
    sizes = (np.abs(a) @ ax) @ ax + np.abs(b) @ ax + np.abs(c)
    dist = float((x - v_ref) @ (x - v_ref))
    return m_mat, x, g, grads, sizes, dist + float(lam @ g), dist + float(lam @ sizes)


def solve(
    v_ref: np.ndarray, a: np.ndarray, b: np.ndarray, c: np.ndarray, v_max: float
) -> tuple[np.ndarray, np.ndarray, str]:
    """Project ``v_ref`` onto ``{V : V'a_i V + b_i'V + c_i <= 0}``; the constraints include the ``v_max`` ball.

    Returns ``(V, lambda, reason)``. ``reason`` is "" for the exact
    projection with its multipliers; otherwise it says why the solve
    holds, and V is zero.
    """
    lam = np.zeros(c.shape[0])
    m_mat, x, g, grads, sizes, dual, dual_size = _minimiser(v_ref, a, b, c, lam)
    for it in range(MAX_ITER + 1):
        residual = np.where(lam > 0.0, np.abs(g), g)
        if np.all(residual <= FEAS_RTOL * sizes):
            return x, lam, ""
        if it == MAX_ITER:
            break
        free = np.flatnonzero((lam > 0.0) | (g > 0.0))
        g_free = grads[free]
        if m_mat is None:
            hess = 0.5 * (g_free @ g_free.T)
        else:
            hess = 0.5 * (g_free @ np.linalg.solve(m_mat, g_free.T))
        step = np.linalg.lstsq(hess, g[free], rcond=None)[0]
        t = 1.0
        for _ in range(MAX_HALVINGS):
            trial = lam.copy()
            trial[free] = np.maximum(lam[free] + t * step, 0.0)
            point = _minimiser(v_ref, a, b, c, trial)
            trial_dual, trial_size = point[5:]
            if trial_dual >= dual + ARMIJO * float(g @ (trial - lam)) - ROUNDING * max(dual_size, trial_size):
                break
            t *= 0.5
        else:
            break
        lam = trial
        m_mat, x, g, grads, sizes, dual, dual_size = point
        reason = phase_one(dual, v_ref, v_max)
        if reason:
            return np.zeros_like(x), lam, reason
    return (
        np.zeros_like(x),
        lam,
        f"no convergence after {it} dual Newton steps (residual {residual.max():.3e})",
    )
