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
that :func:`certify` has re-checked with its own multipliers (a
nonnegative least-squares fit, :func:`nnls`), or the hold-in-place twist
``V = 0``, so the platform waits until the obstacle clears, with one of
three hold statuses and its reason in ``FilterSolution.message``: the
dual value proves the admissible set empty, the multipliers do not
converge (a set without interior), or the certification rejects the
answer. The solution's active set, the rows with slack at most
``ACTIVE_SLACK_TOL``, is read off the constraint values that the
certification computed (``CertificationReport.values``), so a certified
answer costs one evaluation of the constraints besides the solve's own.
A pass-through answer (V = v_ref) has nothing to fit: its multipliers
are zero, as NNLS would return them, and the fit is skipped. Every
active set on the shipped scenarios has one row, and NNLS solves a
passive set of one column a in closed form, ``(a'b) / (a'a)``, while
``a'a`` is a normal float, and with ``lstsq`` otherwise.
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
_TINY = np.finfo(float).tiny  # the smallest positive normal float


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


@dataclass(frozen=True)
class CertificationReport:
    max_violation: float
    stationarity_residual: float
    max_complementarity: float
    duals: np.ndarray
    values: np.ndarray  # g_i at the certified twist, one per constraint row


def _solve(problem: FilterProblem) -> FilterSolution:
    v, reason = qcqp.solve(problem.v_ref, problem.a, problem.b, problem.c, problem.v_max)
    if reason:
        status = HOLD_INFEASIBLE if reason.startswith(qcqp.INFEASIBLE) else HOLD_NO_CONVERGENCE
        return FilterSolution(twist=np.zeros(6), status=status, message=reason)
    try:
        report = certify(FilterSolution(twist=v, status=STATUS_OPTIMAL), problem)
    except CertificationFailed as exc:
        return FilterSolution(twist=np.zeros(6), status=HOLD_CERTIFICATION, message=str(exc))
    active = tuple(int(i) for i in np.flatnonzero(-report.values <= ACTIVE_SLACK_TOL))
    return FilterSolution(twist=v, status=STATUS_OPTIMAL, active_set=active)


def solve_filter_qp(problem: FilterProblem) -> FilterSolution:
    """Project the reference twist onto half-spaces plus the speed ball: a certified optimum or a hold."""
    if problem.a[:-1].any():
        raise ValueError("QP filter expects half-space constraints only (a = 0)")
    return _solve(problem)


def solve_filter_qcqp(problem: FilterProblem) -> FilterSolution:
    """Project the reference twist onto convex quadratics plus the speed ball: a certified optimum or a hold."""
    return _solve(problem)


def nnls(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """``argmin ||a x - b||`` over ``x >= 0``, and that least residual norm.

    The active-set method of Lawson & Hanson (*Solving Least Squares
    Problems*, 1974, ch. 23): move the column whose residual correlation
    ``a'(b - a x)`` is largest into the passive set, solve least squares
    on the passive columns, and step back along the segment to the first
    coefficient that would turn negative, dropping it, until no zero
    coefficient's correlation is positive. The cutoff on that correlation
    scales with the columns, so scaling every column by a positive factor
    scales x by its inverse.
    """
    n = a.shape[1]
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    tol = 10.0 * np.finfo(float).eps * max(a.shape) * float(np.abs(a).sum(axis=0).max(initial=0.0))
    for _ in range(3 * n):
        w = a.T @ (b - a @ x)
        w[passive] = -np.inf
        j = int(np.argmax(w))
        if not w[j] > tol:
            break
        passive[j] = True
        for _ in range(n):
            z = np.zeros(n)
            z[passive] = _least_squares(a[:, passive], b)
            if np.all(z[passive] > 0.0):
                x = z
                break
            blocking = np.flatnonzero(passive & (z <= 0.0))
            ratios = x[blocking] / (x[blocking] - z[blocking])
            x = x + ratios.min() * (z - x)
            x[blocking[np.argmin(ratios)]] = 0.0
            passive &= x > 0.0
            x[~passive] = 0.0
    return x, float(np.linalg.norm(a @ x - b))


def _least_squares(cols: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``argmin ||cols z - b||``; one column a is ``(a'b) / (a'a)`` in closed form while ``a'a`` is a normal float."""
    if cols.shape[1] == 1:
        col = cols[:, 0]
        norm = math.hypot(*col)  # a'a as norm * norm, which leaves the normal range without numpy's overflow warning
        sq = norm * norm
        if _TINY <= sq < math.inf:
            return np.array([float(col @ b) / sq])
    return np.linalg.lstsq(cols, b, rcond=None)[0]


def certify(solution: FilterSolution, problem: FilterProblem) -> CertificationReport:
    """Independently re-check a filter solution against its problem.

    Recomputes constraint slacks, finds best nonnegative multipliers by
    least squares (:func:`nnls` on the unit-norm constraint gradients,
    independent of the solver's duals; zero without a fit when V = v_ref,
    as then there is nothing to fit), and checks stationarity and
    complementary slackness.
    Raises :class:`CertificationFailed` when any tolerance is exceeded
    or any checked number is not finite; hold-static solutions are
    rejected outright (nothing to certify).
    """
    if solution.status != STATUS_OPTIMAL:
        raise ValueError("only optimal solutions can be certified")
    v = solution.twist
    if not np.isfinite(v).all():
        raise CertificationFailed(f"twist is not finite: {v}")
    values, grads = qcqp.evaluate(problem.a, problem.b, problem.c, v)

    # every gate is written "not value <= tol", so that NaN fails it
    violation = float(values.max())
    if not violation <= CERT_FEAS_TOL:
        raise CertificationFailed(f"constraint violation {violation:.3e} > {CERT_FEAS_TOL:.0e}")
    speed = math.sqrt(v @ v)  # what np.linalg.norm computes
    if not speed <= problem.v_max + 1e-9:
        raise CertificationFailed(f"speed {speed} exceeds bound {problem.v_max}")

    grad_obj = 2.0 * (v - problem.v_ref)
    if grad_obj.any():
        # fit on unit columns, so no row's scale keeps it out of NNLS (x >= 0 is invariant under positive
        # column scaling); a zero gradient stays zero, so its dual stays 0
        norms = np.hypot.reduce(grads, axis=1)  # no underflow to 0 for tiny rows
        norms[norms == 0.0] = 1.0
        duals, residual = nnls(grads.T / norms, -grad_obj)
        duals /= norms
    else:
        duals, residual = np.zeros(values.shape[0]), 0.0  # what NNLS returns with nothing to fit
    scale = 1.0 + math.sqrt(grad_obj @ grad_obj)
    if not residual <= CERT_STAT_TOL * scale:
        raise CertificationFailed(f"stationarity residual {residual:.3e} > {CERT_STAT_TOL:.0e} * {scale:.3e}")

    comp = float((duals * np.maximum(-values, 0.0)).max())
    if not comp <= CERT_COMP_TOL:
        raise CertificationFailed(f"complementarity {comp:.3e} > {CERT_COMP_TOL:.0e}")
    return CertificationReport(
        max_violation=violation,
        stationarity_residual=float(residual),
        max_complementarity=comp,
        duals=duals,
        values=values,
    )
