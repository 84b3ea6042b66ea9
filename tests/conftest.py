from pathlib import Path

import numpy as np
import pytest

from safe_ibvs import qcqp, scenario, solvers
from safe_ibvs.geometry import CameraPose, se3_exp

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def shipped(name, mode=None, seed=None, sigma=None):
    """The shipped scene ``scenarios/<name>.yaml``, optionally with another mode, seed or confidence level."""
    sc = scenario.load(SCENARIOS / f"{name}.yaml")
    if mode is not None:
        sc = sc.with_mode(mode)
    if seed is not None:
        sc = sc.with_seed(seed)
    if sigma is not None:
        sc = sc.with_sigma(sigma)
    return sc


def downward_pose(translation, wiggle=(0.0, 0.0, 0.0)):
    """Camera above the z=0 plane looking down, with a small rotation offset."""
    down = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]])
    rot, _ = se3_exp(np.concatenate([np.zeros(3), np.asarray(wiggle, dtype=float)]))
    return CameraPose(down @ rot, np.asarray(translation, dtype=float))


@pytest.fixture
def pose_above():
    return downward_pose([0.1, -0.05, 1.2], wiggle=[0.05, -0.08, 0.1])


def reference_solve(v_ref, a, b, c, v_max):
    """The dual Newton loop of ``qcqp.solve`` in its plain form, the reference that solve must match.

    It solves with M twice per iterate, calls ``lstsq`` on every Newton
    system and stops only at the tight test or at ``MAX_ITER``. Returns V,
    the first word of the reason, and the last M.
    """

    def minimiser(lam):
        if lam.any():
            m_mat = np.eye(v_ref.shape[0]) + np.tensordot(lam, a, 1)
            x = np.linalg.solve(m_mat, v_ref - 0.5 * (lam @ b))
        else:
            m_mat, x = None, v_ref.copy()
        g, grads = qcqp.evaluate(a, b, c, x)
        ax = np.abs(x)
        sizes = (np.abs(a) @ ax) @ ax + np.abs(b) @ ax + np.abs(c)
        dist = float((x - v_ref) @ (x - v_ref))
        return m_mat, x, g, grads, sizes, dist + float(lam @ g), dist + float(lam @ sizes)

    lam = np.zeros(c.shape[0])
    m_mat, x, g, grads, sizes, dual, dual_size = minimiser(lam)
    m_last = np.eye(v_ref.shape[0])
    try:
        for it in range(qcqp.MAX_ITER + 1):
            residual = np.where(lam > 0.0, np.abs(g), g)
            if np.all(residual <= qcqp.FEAS_RTOL * sizes) and np.all(g <= qcqp.FEAS_ATOL):
                return x, "", m_last
            if it == qcqp.MAX_ITER:
                break
            free = np.flatnonzero((lam > 0.0) | (g > 0.0))
            g_free = grads[free]
            if m_mat is None:
                hess = 0.5 * (g_free @ g_free.T)
            else:
                hess = 0.5 * (g_free @ np.linalg.solve(m_mat, g_free.T))
            step, _, rank, _ = np.linalg.lstsq(hess, g[free], rcond=None)
            if rank < free.size:
                scale = np.sqrt(np.diag(hess))
                scale[scale == 0.0] = 1.0
                scaled = hess / np.outer(scale, scale)
                step, _, rank, _ = np.linalg.lstsq(scaled, g[free] / scale, rcond=None)
                drift = (g[free] / scale - scaled @ step) / scale
                step = step / scale
                falling = (drift * scale < -qcqp.FEAS_RTOL * sizes[free]) & (lam[free] > 0.0)
                if rank < free.size and falling.any():
                    step = step + drift * np.min(lam[free][falling] / -drift[falling])
            t = 1.0
            for _ in range(qcqp.MAX_HALVINGS):
                trial = lam.copy()
                trial[free] = np.maximum(lam[free] + t * step, 0.0)
                point = minimiser(trial)
                trial_dual, trial_size = point[5:]
                bar = dual + qcqp.ARMIJO * float(g @ (trial - lam)) - qcqp.ROUNDING * max(dual_size, trial_size)
                if trial_dual >= bar:
                    break
                t *= 0.5
            else:
                break
            lam = trial
            m_mat, x, g, grads, sizes, dual, dual_size = point
            m_last = m_mat if m_mat is not None else m_last
            if dual > (float(np.linalg.norm(v_ref)) + v_max) ** 2:
                return np.zeros_like(x), qcqp.INFEASIBLE, m_last
    except np.linalg.LinAlgError:
        return np.zeros_like(x), qcqp.NO_CONVERGENCE, m_last
    rounding = sizes + np.linalg.norm(grads, axis=1) * np.linalg.norm(x)
    if np.all(residual <= qcqp.FEAS_RTOL * rounding) and np.all(g <= qcqp.FEAS_ATOL):
        return x, "", m_last
    return np.zeros_like(x), qcqp.NO_CONVERGENCE, m_last


def assert_matches_reference(prob):
    args = (prob.v_ref, prob.a, prob.b, prob.c, prob.v_max)
    v, lam, reason = qcqp.solve(*args)
    ref, ref_reason, m_mat = reference_solve(*args)
    if ref_reason == qcqp.NO_CONVERGENCE and not reason:
        # the exact step along a lone quadratic row's multiplier reaches optima that the reference's damped Newton
        # steps stall short of; such an optimum must pass the certification with its own multipliers
        solvers.certify(solvers.FilterSolution(twist=v, status=solvers.STATUS_OPTIMAL, duals=lam), prob)
        return
    # which hold a divergent solve reports (the bound, or M singular at multipliers near 1e60) is rounding
    assert bool(reason) == bool(ref_reason)
    # plus the rounding that solving with M carries into V, which no order of operations avoids
    rounding = np.finfo(float).eps * np.linalg.cond(m_mat) * np.linalg.norm(ref)
    assert np.abs(v - ref).max() <= 1e-10 * (1.0 + np.linalg.norm(prob.v_ref)) + rounding
