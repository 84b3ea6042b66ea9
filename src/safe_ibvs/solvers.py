"""Minimal-deviation safety filters over the admissible twist sets.

Both filters project a reference twist onto the intersection of the
occlusion constraints and the speed ball ``||V|| <= v_max``:

* :func:`solve_filter_qp` for half-space constraints (exact case),
* :func:`solve_filter_qcqp` for quadratic constraints (noisy case).

A :class:`FilterProblem` holds every constraint in one stacked format,
``V'A_i V + b_i'V + c_i <= 0``. It takes each occlusion row's factor F_i,
``A_i = F_i'F_i``, as ``barrier.cbc_halfspaces`` (no rows: A_i = 0) and
``barrier.prcbc_quadratics`` return it, and appends the ball (A_i = I),
so it cannot hold a non-convex problem. One exact dual solve
(:func:`qcqp.solve`) serves both filters.

Each filter owns what its step executes. It returns either an optimum
that :func:`certify` has re-checked with the multipliers the solve
returned (``FilterSolution.duals``), or the hold-in-place twist
``V = 0``, so the platform waits until the obstacle clears, with one of
three hold statuses and its reason in ``FilterSolution.message``: the
dual value proves the admissible set empty, the multipliers do not
converge (a set without interior), or the certification rejects the
answer. The solution's active set, the rows with slack at most
``ACTIVE_SLACK_TOL``, is read off the constraint values that the
certification computed (``CertificationReport.values``), so a certified
answer costs one evaluation of the constraints besides the solve's own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import qcqp
from .errors import CertificationFailed

STATUS_OPTIMAL = "optimal"
STATUS_FALLBACK = "fallback_hold"
# Step statuses of a hold, one per reason; each starts with STATUS_FALLBACK.
HOLD_INFEASIBLE = f"{STATUS_FALLBACK}:infeasible"
HOLD_NO_CONVERGENCE = f"{STATUS_FALLBACK}:no_convergence"
HOLD_CERTIFICATION = f"{STATUS_FALLBACK}:certification"

# active-set detection and certification tolerances
ACTIVE_SLACK_TOL = 1e-6
CERT_FEAS_TOL = qcqp.FEAS_ATOL  # the solve's own bound on g, so no answer fails on violation alone
CERT_STAT_TOL = 1e-6
CERT_COMP_TOL = 1e-6

_EYE = np.eye(6)  # the speed ball's A, copied into every problem


@dataclass(frozen=True, eq=False)
class FilterProblem:
    """Reference twist plus the admissible set to project it onto.

    ``f``, ``b``, ``c`` stack the k occlusion constraints as
    ``||f_i V||^2 + b_i'V + c_i <= 0``, shapes ``(k, r, 6)``, ``(k, 6)``
    and ``(k,)``; r = 0 makes every row a half-space. Construction
    derives ``a = f'f`` and appends the speed ball ``||V||^2 <= v_max^2``
    as row k, so ``a``, ``b`` and ``c`` hold k + 1 rows of
    ``V'a_i V + b_i'V + c_i <= 0``.
    """

    v_ref: np.ndarray
    v_max: float
    f: np.ndarray
    b: np.ndarray
    c: np.ndarray
    a: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "v_ref", np.asarray(self.v_ref, dtype=float).reshape(6))
        if not self.v_max > 0.0:
            raise ValueError(f"v_max must be positive, got {self.v_max}")
        f = np.asarray(self.f, dtype=float)
        if f.ndim != 3 or f.shape[2] != 6:
            raise ValueError(f"f must have shape (k, r, 6), got {f.shape}")
        b_in = np.asarray(self.b, dtype=float).reshape(-1, 6)
        c_in = np.asarray(self.c, dtype=float).reshape(-1)
        k = f.shape[0]
        if b_in.shape[0] != k or c_in.shape[0] != k:
            raise ValueError(f"f, b and c must have k rows each, got shapes {f.shape}, {b_in.shape} and {c_in.shape}")
        a = np.empty((k + 1, 6, 6))
        np.matmul(f.transpose(0, 2, 1), f, out=a[:-1])
        a[-1] = _EYE
        b = np.zeros((k + 1, 6))
        b[:-1] = b_in
        c = np.empty(k + 1)
        c[:-1] = c_in
        c[-1] = -self.v_max**2
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)


@dataclass(frozen=True, eq=False)
class FilterSolution:
    twist: np.ndarray
    status: str  # STATUS_OPTIMAL or one of the HOLD_* statuses
    active_set: tuple[int, ...] = ()  # constraint indices; ball is the last index
    message: str = ""
    duals: np.ndarray | None = None  # the solve's multipliers, one per constraint row; None on a hold


@dataclass(frozen=True)
class CertificationReport:
    max_violation: float
    stationarity_residual: float
    max_complementarity: float
    values: np.ndarray  # g_i at the certified twist, one per constraint row


def _solve(problem: FilterProblem) -> FilterSolution:
    v, duals, reason = qcqp.solve(problem.v_ref, problem.a, problem.b, problem.c, problem.v_max)
    if reason:
        status = HOLD_INFEASIBLE if reason.startswith(qcqp.INFEASIBLE) else HOLD_NO_CONVERGENCE
        return FilterSolution(twist=np.zeros(6), status=status, message=reason)
    try:
        report = certify(FilterSolution(twist=v, status=STATUS_OPTIMAL, duals=duals), problem)
    except CertificationFailed as exc:
        return FilterSolution(twist=np.zeros(6), status=HOLD_CERTIFICATION, message=str(exc))
    active = tuple(int(i) for i in np.flatnonzero(-report.values <= ACTIVE_SLACK_TOL))
    return FilterSolution(twist=v, status=STATUS_OPTIMAL, active_set=active, duals=duals)


def solve_filter_qp(problem: FilterProblem) -> FilterSolution:
    """Project the reference twist onto half-spaces plus the speed ball: a certified optimum or a hold."""
    if problem.a[:-1].any():
        raise ValueError("QP filter expects half-space constraints only (a = 0)")
    return _solve(problem)


def solve_filter_qcqp(problem: FilterProblem) -> FilterSolution:
    """Project the reference twist onto convex quadratics plus the speed ball: a certified optimum or a hold."""
    return _solve(problem)


def certify(solution: FilterSolution, problem: FilterProblem) -> CertificationReport:
    """Re-check a filter solution's KKT conditions against its problem.

    Recomputes the constraint values g and gradients at V and, with the
    solution's multipliers (``solution.duals``; None means zero, so only
    V = v_ref can pass), checks in turn that they are finite and
    nonnegative, that V is feasible and within the speed bound,
    stationarity ``||2 (V - v_ref) + sum_i lambda_i grad g_i|| <=
    CERT_STAT_TOL (1 + ||2 (V - v_ref)||)``, and complementary slackness. For this convex problem these conditions
    prove V the projection (Boyd & Vandenberghe, *Convex Optimization*,
    sec. 5.5.3), whichever multipliers come with it.
    Raises :class:`CertificationFailed` when any tolerance is exceeded,
    any checked number is not finite or the multipliers do not have one
    entry per constraint row; hold-static solutions are rejected outright
    (nothing to certify).
    """
    if solution.status != STATUS_OPTIMAL:
        raise ValueError("only optimal solutions can be certified")
    v = solution.twist
    if not np.isfinite(v).all():
        raise CertificationFailed(f"twist is not finite: {v}")
    rows = problem.c.shape
    duals = np.zeros(rows) if solution.duals is None else np.asarray(solution.duals, dtype=float)
    if duals.shape != rows:
        raise CertificationFailed(f"multipliers of shape {duals.shape} for constraint rows of shape {rows}")
    # every gate is written "not value <= tol" or its like, so that NaN fails it
    if not ((duals >= 0.0) & (duals < math.inf)).all():
        raise CertificationFailed(f"multipliers are not finite and nonnegative: {duals}")
    values, grads = qcqp.evaluate(problem.a, problem.b, problem.c, v)

    violation = float(values.max())
    if not violation <= CERT_FEAS_TOL:
        raise CertificationFailed(f"constraint violation {violation:.3e} > {CERT_FEAS_TOL:.0e}")
    speed = math.sqrt(v @ v)  # what np.linalg.norm computes
    if not speed <= problem.v_max + 1e-9:
        raise CertificationFailed(f"speed {speed} exceeds bound {problem.v_max}")

    grad_obj = 2.0 * (v - problem.v_ref)
    stationarity = grad_obj + duals @ grads
    residual = math.sqrt(stationarity @ stationarity)
    scale = 1.0 + math.sqrt(grad_obj @ grad_obj)
    if not residual <= CERT_STAT_TOL * scale:
        raise CertificationFailed(f"stationarity residual {residual:.3e} > {CERT_STAT_TOL:.0e} * {scale:.3e}")

    comp = float((duals * np.maximum(-values, 0.0)).max())
    if not comp <= CERT_COMP_TOL:
        raise CertificationFailed(f"complementarity {comp:.3e} > {CERT_COMP_TOL:.0e}")
    return CertificationReport(
        max_violation=violation,
        stationarity_residual=residual,
        max_complementarity=comp,
        values=values,
    )
