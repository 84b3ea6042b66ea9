"""Exact projection of a twist onto a few convex quadratic sets, through its dual.

Solves

    min ||V - v_ref||^2   s.t.   g_i(V) = V'A_i V + b_i'V + c_i <= 0,   i < k,

for k <= m + 1 stacked constraints with every A_i PSD: the filter passes
each A_i as the Gram matrix F_i'F_i of its factor, so convexity holds by
construction and is not checked here. Half-spaces have A_i = 0, and one
constraint is the speed ball ``||V||^2 <= v_max^2`` (A_i = I). For
multipliers lambda >= 0 the Lagrangian's minimiser solves

    (I + sum_i lambda_i A_i) V = v_ref - 0.5 sum_i lambda_i b_i.

That matrix M is at least I, so it needs no regularisation. lambda = 0
gives V = v_ref: the solve evaluates g(v_ref) first and returns a copy
of v_ref with zero multipliers when every g_i <= 0, before it sets up
anything else (the lambda = 0 optimality test accepts exactly that
point, as the size of g_i's terms is never negative; a NaN falls through
to it). Otherwise projected Newton ascends the concave dual
d(lambda) = L(V(lambda), lambda), whose gradient is g(V) and whose
Hessian is -0.5 G M^-1 G' for the stacked constraint gradients G, over
the multipliers that are positive or whose constraint is violated (the
dual approach of Goldfarb & Idnani, Math. Prog. 27, 1983). One inverse
of M per trial point gives V(lambda) and the next Hessian, unless every
positive multiplier sits on a half-space (the CBC filter's case): then
sum_i lambda_i A_i is zero, M = I, V = v_ref - 0.5 sum_i lambda_i b_i
and the Hessian is -0.5 G G', with no inverse. When that set is one
multiplier, every other one is 0 and the step is exact along its
coordinate: g/h for a half-space, whose dual is quadratic there, and for
a quadratic row the root of its secular equation, found by scalar Newton
in the row's eigenbasis from one ``eigh`` of the row per solve (:func:`_row_root`).
The PrCBC filter's closed loop almost always ends with one such row, so
its solve takes one trial point. When the Hessian is rank-deficient to
``lstsq``, the step is solved again on its Jacobi-scaled form, and the
dual, linear along what stays null, is followed there until a multiplier
reaches zero (two opposed half-spaces that both carry a multiplier need
this). Each step is cut back until the dual value rises (Armijo). At the
dual optimum V is the exact projection. Every call starts from
lambda = 0 and keeps no state between calls. It returns lambda with V:
V minimises the Lagrangian at lambda, so these are the KKT multipliers
that the filter's certification checks.

The solve holds, returning a reason instead of a twist, in two cases,
each reason starting with its own first word:

* the dual value exceeds ``(||v_ref|| + v_max)^2``, which by weak duality
  proves the feasible set empty (:func:`phase_one`);
* the multipliers do not converge within ``MAX_ITER`` steps, as when the
  feasible set has no interior and the multipliers grow without bound,
  or grow so large that M rounds to a singular matrix. At the step cap,
  or after two steps that raise the dual only within its rounding, V is
  kept when g is zero up to the rounding its own solve carries into g.
"""

from __future__ import annotations

import math

import numpy as np

MAX_ITER = 30
# g_i <= 0, and g_i = 0 where lambda_i > 0, must hold to this tolerance relative to the size of
# g_i's terms. On a set with no interior the multipliers grow without bound and this relative
# residual decays only like 1/lambda, so such a set reaches MAX_ITER and holds.
FEAS_RTOL = 1e-12
# and no g_i may exceed this, whatever its size: the violation the filter's certification allows
FEAS_ATOL = 1e-7
ARMIJO = 1e-4
MAX_HALVINGS = 40
EPS = float(np.finfo(float).eps)
SQRT_EPS = math.sqrt(EPS)
# relative rounding error allowed in the dual value, so that steps near the optimum are not
# refused for a loss that is only the rounding of the terms summed into d
ROUNDING = 64.0 * EPS
# first words of the two reasons a solve holds: the dual proves the set empty, or the cap is reached
INFEASIBLE = "infeasible"
NO_CONVERGENCE = "no convergence"


def evaluate(a: np.ndarray, b: np.ndarray, c: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values ``x'a_i x + b_i'x + c_i``, shape (k,), and their gradients, shape (k, n)."""
    ax = a @ x
    return ax @ x + b @ x + c, 2.0 * ax + b


def phase_one(dual_value: float, bound: float) -> str:
    """Weak-duality infeasibility test: a reason to hold once ``dual_value`` proves the set empty, else "".

    Every admissible twist lies in the speed ball, so its squared distance
    to ``v_ref`` is at most ``bound = (||v_ref|| + v_max)^2``, and by weak
    duality every dual value is at most the squared distance of the
    projection. A dual value above the bound therefore leaves no admissible
    twist. This is the infeasibility stage of the solve, the role a phase-I
    search plays in interior-point methods; it keeps that name because the
    benchmark's traced run times ``qcqp.phase_one`` by name.
    """
    if dual_value > bound:
        return f"{INFEASIBLE}: dual value {dual_value:.3e} exceeds the bound (||v_ref|| + v_max)^2 = {bound:.3e}"
    return ""


def _settled(x, g, grads, sizes, residual) -> bool:
    """Whether g is zero up to the rounding V's own solve carries into g: the test for a stalled or capped solve."""
    rounding = sizes + np.linalg.norm(grads, axis=1) * np.linalg.norm(x)
    return bool(np.all(residual <= FEAS_RTOL * rounding) and np.all(g <= FEAS_ATOL))


def _row_terms(a_i: np.ndarray, b_i: np.ndarray, v_ref: np.ndarray) -> tuple[list, float, float]:
    """One quadratic row in the eigenbasis ``a_i = W diag(s) W'``, as :func:`_row_root` reads it.

    Returns ``(s_j, u_j, beta_j)`` for each eigenvalue above the rounding of
    the largest, with ``u = W'v_ref`` and ``beta = W'b_i``, and the sums
    ``beta'u`` and ``beta'beta`` over the rest, on which the row is linear.
    """
    s, w_mat = np.linalg.eigh(a_i)  # ascending
    cut = float(s[-1]) * (s.size * EPS)  # a Gram matrix has no eigenvalue below 0; one at rounding level is 0
    curved, beta_u, beta_sq = [], 0.0, 0.0
    for s_j, u_j, beta_j in zip(s.tolist(), (v_ref @ w_mat).tolist(), (b_i @ w_mat).tolist()):
        if s_j > cut:
            curved.append((s_j, u_j, beta_j))
        else:
            beta_u += beta_j * u_j
            beta_sq += beta_j * beta_j
    return curved, beta_u, beta_sq


def _row_root(lam: float, g: float, curved: list, beta_u: float, beta_sq: float, c: float, bound: float) -> float:
    """The multiplier that maximises the dual along one quadratic row's coordinate, every other multiplier 0.

    With the row in its eigenbasis (:func:`_row_terms`), the Lagrangian's
    minimiser has coordinates ``alpha_j = (u_j - lambda beta_j / 2) t_j``,
    ``t_j = 1 / (1 + lambda s_j)``, and g's gradient the coordinates
    ``w_j = (2 s_j u_j + beta_j) t_j``. The dual's slope,
    g(lambda) = sum_j (s_j alpha_j + beta_j) alpha_j + c, is convex and
    decreasing, as g' = -0.5 sum_j w_j^2 t_j and g'' >= 0, so scalar Newton
    from a lambda with g > 0 rises to the root without passing it (the
    secular equation of More & Sorensen, SIAM J. Sci. Stat. Comput. 4(3),
    1983). From a lambda with g < 0, one Newton step (kept >= 0) lands left
    of the root. The first step takes ``g`` as measured at ``lam`` by the
    solve, so that a root the eigenbasis places off the measured one by
    rounding is still approached. The rise stops after a step below
    ``sqrt(EPS)`` of lambda, as the next one would fall below lambda's
    rounding; where it makes no progress in floating point; at the step
    cap; or once the dual along the coordinate,
    ``lambda^2 ||w||^2 / 4 + lambda g``, exceeds ``bound``, so that a row no
    lambda satisfies is held by the weak-duality test there.
    """
    for it in range(MAX_ITER):
        value, slope, w_sq = c + beta_u - 0.5 * lam * beta_sq, 0.5 * beta_sq, beta_sq
        for s_j, u_j, beta_j in curved:
            t = 1.0 / (1.0 + lam * s_j)
            w = (2.0 * s_j * u_j + beta_j) * t
            value += 0.5 * (w + beta_j) * (u_j - 0.5 * lam * beta_j) * t
            slope += 0.5 * w * w * t
            w_sq += w * w
        if it:
            g = value
        if not slope > 0.0 or (g <= 0.0 and it) or 0.25 * lam * lam * w_sq + lam * g > bound:
            break
        step = g / slope
        nxt = max(lam + step, 0.0)
        if g > 0.0 and not nxt > lam:
            break
        lam = nxt
        if 0.0 < step <= SQRT_EPS * lam:
            break
    return lam


def solve(
    v_ref: np.ndarray, a: np.ndarray, b: np.ndarray, c: np.ndarray, v_max: float
) -> tuple[np.ndarray, np.ndarray | None, str]:
    """Project ``v_ref`` onto ``{V : V'a_i V + b_i'V + c_i <= 0}``; the constraints include the ``v_max`` ball.

    Returns ``(V, lambda, reason)``. ``reason`` is "" for the exact
    projection, and lambda, shape (k,), holds the multipliers whose
    Lagrangian minimiser V is (zeros when v_ref is admissible). Otherwise
    ``reason`` says why the solve holds, starting with :data:`INFEASIBLE`
    or :data:`NO_CONVERGENCE`, V is zero and lambda is None.
    """
    g, grads = evaluate(a, b, c, v_ref)
    if (g <= 0.0).all():
        return v_ref.copy(), np.zeros(c.shape[0]), ""  # admissible: the lambda = 0 test below accepts it, as sizes >= 0
    k, n = a.shape[0], v_ref.shape[0]
    a_rows, eye = a.reshape(k, n * n), np.eye(n)
    abs_a, abs_b, abs_c = np.abs(a), np.abs(b), np.abs(c)
    bound = (math.sqrt(v_ref @ v_ref) + v_max) ** 2  # what np.linalg.norm computes

    def minimiser(lam, g=None, grads=None):
        """M^-1 (None when M = I), the Lagrangian's minimiser V, g(V), g's gradients, the size of each g_i's terms,
        d(lambda) and d's size. At lambda = 0, V is v_ref, whose ``g`` and ``grads`` the caller passes in."""
        m_inv = None
        if not lam.any():
            x = v_ref.copy()
        else:
            x = v_ref - 0.5 * (lam @ b)
            m_sum = lam @ a_rows
            if m_sum.any():  # else every multiplier is on a half-space: M = I, and M^-1 y is y
                m_inv = np.linalg.inv(eye + m_sum.reshape(n, n))
                x = m_inv @ x
        if g is None:
            g, grads = evaluate(a, b, c, x)
        ax = np.abs(x)
        sizes = (abs_a @ ax) @ ax + abs_b @ ax + abs_c
        d = x - v_ref
        dist = float(d @ d)
        return m_inv, x, g, grads, sizes, dist + float(lam @ g), dist + float(lam @ sizes)

    rows = {}  # row index -> its _row_terms, formed once per solve
    lam = np.zeros(k)
    m_inv, x, g, grads, sizes, dual, dual_size = minimiser(lam, g, grads)
    stalls = 0
    try:
        for it in range(MAX_ITER + 1):
            residual = np.where(lam > 0.0, np.abs(g), g)
            if (residual <= FEAS_RTOL * sizes).all() and (g <= FEAS_ATOL).all():
                return x, lam, ""
            if stalls >= 2 and _settled(x, g, grads, sizes, residual):
                return x, lam, ""
            if it == MAX_ITER:
                break
            free = ((lam > 0.0) | (g > 0.0)).nonzero()[0]
            if free.size == 1 and a_rows[free[0]].any():
                # one quadratic row: every other multiplier is 0, so M = I + lambda_i A_i, and the step goes to
                # the dual's maximiser along that coordinate
                i = free[0]
                if i not in rows:
                    rows[i] = _row_terms(a[i], b[i], v_ref)
                step = np.array([_row_root(float(lam[i]), float(g[i]), *rows[i], float(c[i]), bound) - lam[i]])
            else:
                g_free = grads[free]
                hess = 0.5 * (g_free @ (g_free.T if m_inv is None else m_inv @ g_free.T))
                if free.size == 1 and hess[0, 0] > 0.0:
                    # lstsq's own rank-1 decision for a 1x1 system, without the call: a half-space row's exact step
                    step = g[free] / hess[0, 0]
                else:
                    step, _, rank, _ = np.linalg.lstsq(hess, g[free], rcond=None)
                    if rank < free.size:
                        # rank-deficient, or rows whose scales differ beyond lstsq's cutoff: solve again with the
                        # rows scaled to a unit diagonal (Jacobi). On what stays null the dual is linear with
                        # slope `drift`: follow it until the first multiplier it lowers reaches zero.
                        scale = np.sqrt(np.maximum(np.diag(hess), 0.0))  # a diagonal that rounds below 0 is 0
                        scale[scale == 0.0] = 1.0
                        scaled = hess / np.outer(scale, scale)
                        step, _, rank, _ = np.linalg.lstsq(scaled, g[free] / scale, rcond=None)
                        drift = (g[free] / scale - scaled @ step) / scale
                        step = step / scale
                        falling = (drift * scale < -FEAS_RTOL * sizes[free]) & (lam[free] > 0.0)
                        if rank < free.size and falling.any():
                            step = step + drift * np.min(lam[free][falling] / -drift[falling])
            t = 1.0
            for _ in range(MAX_HALVINGS):
                trial = lam.copy()
                trial[free] = np.maximum(lam[free] + t * step, 0.0)
                point = minimiser(trial)
                trial_dual, trial_size = point[5:]
                if trial_dual >= dual + ARMIJO * float(g @ (trial - lam)) - ROUNDING * max(dual_size, trial_size):
                    break
                t *= 0.5
            else:
                break
            # a rise within the dual's rounding: lambda moves only in its last bits
            stalls = stalls + 1 if trial_dual - dual <= ROUNDING * max(dual_size, trial_size) else 0
            lam = trial
            m_inv, x, g, grads, sizes, dual, dual_size = point
            reason = phase_one(dual, bound)
            if reason:
                return np.zeros_like(x), None, reason
    except np.linalg.LinAlgError as exc:
        # multipliers so large that I + sum_i lambda_i A_i rounds to a singular matrix
        return np.zeros_like(x), None, f"{NO_CONVERGENCE}: the multipliers diverged ({exc})"
    if _settled(x, g, grads, sizes, residual):
        return x, lam, ""
    return np.zeros_like(x), None, f"{NO_CONVERGENCE} after {it} dual Newton steps (residual {residual.max():.3e})"
