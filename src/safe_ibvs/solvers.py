"""Minimal-deviation safety filters over the admissible twist sets.

Both filters project a reference twist onto the intersection of the
occlusion constraints and the speed ball ``||V|| <= v_max``:

* :func:`solve_filter_qp` for half-space constraints (exact case),
* :func:`solve_filter_qcqp` for quadratic constraints (noisy case).

Every constraint, the ball included, is stacked once per problem as
``V'A_i V + b_i'V + c_i <= 0`` (A_i = 0 for a half-space, A_i = I for the
ball). One exact dual solve (:func:`qcqp.solve`) serves both filters; its
only linear systems have matrices at least I, so it cannot fail to
factor. It holds, returning the hold-in-place twist ``V = 0`` so the
platform waits until the obstacle clears, for one of two reasons, kept
in ``FilterSolution.message``: the dual value proves the admissible set
empty, or the multipliers do not converge (a set without interior).
:func:`certify` re-checks each answer with its own multipliers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import nnls

from . import qcqp
from .barrier import HalfspaceConstraint, QuadraticConstraint
from .errors import CertificationFailed

STATUS_OPTIMAL = "optimal"
STATUS_FALLBACK = "fallback_hold"

# active-set detection and certification tolerances
ACTIVE_SLACK_TOL = 1e-6
CERT_FEAS_TOL = 1e-7
CERT_STAT_TOL = 1e-6
CERT_COMP_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class FilterProblem:
    """Reference twist plus the admissible set to project it onto.

    Exactly one of ``halfspaces`` / ``quadratics`` should be non-empty
    per solve; the speed ball applies in both modes. ``a``, ``b``, ``c``
    stack every constraint as ``V'a_i V + b_i'V + c_i <= 0``: half-spaces
    first, then quadratics, then the ball.
    """

    v_ref: np.ndarray
    v_max: float
    halfspaces: list[HalfspaceConstraint] = field(default_factory=list)
    quadratics: list[QuadraticConstraint] = field(default_factory=list)
    a: np.ndarray = field(init=False, repr=False)  # (k, 6, 6)
    b: np.ndarray = field(init=False, repr=False)  # (k, 6)
    c: np.ndarray = field(init=False, repr=False)  # (k,)

    def __post_init__(self):
        object.__setattr__(self, "v_ref", np.asarray(self.v_ref, dtype=float).reshape(6))
        if not self.v_max > 0.0:
            raise ValueError(f"v_max must be positive, got {self.v_max}")
        n_hs = len(self.halfspaces)
        k = n_hs + len(self.quadratics) + 1
        a, b, c = np.zeros((k, 6, 6)), np.zeros((k, 6)), np.zeros(k)
        for i, hs in enumerate(self.halfspaces):
            # row @ V >= rhs  <=>  rhs - row @ V <= 0
            b[i], c[i] = -np.asarray(hs.row, dtype=float), hs.rhs
        for i, qc in enumerate(self.quadratics, start=n_hs):
            a[i], b[i], c[i] = qc.a, qc.b, qc.c
        a[-1], c[-1] = np.eye(6), -self.v_max**2
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)


@dataclass(frozen=True, eq=False)
class FilterSolution:
    twist: np.ndarray
    status: str  # STATUS_OPTIMAL or STATUS_FALLBACK
    kkt_residual: float = np.inf
    active_set: tuple[int, ...] = ()  # constraint indices; ball is the last index
    message: str = ""


@dataclass(frozen=True)
class CertificationReport:
    max_violation: float
    stationarity_residual: float
    max_complementarity: float
    duals: np.ndarray


def _solve(problem: FilterProblem) -> FilterSolution:
    v, duals, reason = qcqp.solve(problem.v_ref, problem.a, problem.b, problem.c, problem.v_max)
    if reason:
        return FilterSolution(twist=np.zeros(6), status=STATUS_FALLBACK, message=reason)
    values, grads = qcqp.evaluate(problem.a, problem.b, problem.c, v)
    stationarity = float(np.abs(2.0 * (v - problem.v_ref) + grads.T @ duals).max())
    comp = float((duals * np.maximum(-values, 0.0)).max())
    kkt = max(stationarity, max(float(values.max()), 0.0), comp)
    active = tuple(int(i) for i in np.flatnonzero(-values <= ACTIVE_SLACK_TOL))
    return FilterSolution(twist=v, status=STATUS_OPTIMAL, kkt_residual=kkt, active_set=active)


def solve_filter_qp(problem: FilterProblem) -> FilterSolution:
    """Project the reference twist onto half-spaces plus the speed ball."""
    if problem.quadratics:
        raise ValueError("QP filter expects half-space constraints only")
    return _solve(problem)


def solve_filter_qcqp(problem: FilterProblem) -> FilterSolution:
    """Project the reference twist onto convex quadratics plus the speed ball."""
    if problem.halfspaces:
        raise ValueError("QCQP filter expects quadratic constraints only")
    for i, qc in enumerate(problem.quadratics):
        if np.linalg.eigvalsh(0.5 * (qc.a + qc.a.T))[0] < -1e-10:
            raise ValueError(f"quadratic constraint {i} is not PSD")
    return _solve(problem)


def certify(solution: FilterSolution, problem: FilterProblem) -> CertificationReport:
    """Independently re-check a filter solution against its problem.

    Recomputes constraint slacks, finds best nonnegative multipliers by
    least squares, and checks stationarity and complementary slackness.
    Raises :class:`CertificationFailed` when any tolerance is exceeded;
    hold-static solutions are rejected outright (nothing to certify).
    """
    if solution.status != STATUS_OPTIMAL:
        raise ValueError("only optimal solutions can be certified")
    v = solution.twist
    values, grads = qcqp.evaluate(problem.a, problem.b, problem.c, v)

    violation = float(values.max())
    if violation > CERT_FEAS_TOL:
        raise CertificationFailed(f"constraint violation {violation:.3e} > {CERT_FEAS_TOL:.0e}")
    speed = float(np.linalg.norm(v))
    if speed > problem.v_max + 1e-9:
        raise CertificationFailed(f"speed {speed} exceeds bound {problem.v_max}")

    grad_obj = 2.0 * (v - problem.v_ref)
    duals, residual = nnls(grads.T, -grad_obj)
    scale = 1.0 + float(np.linalg.norm(grad_obj))
    if residual > CERT_STAT_TOL * scale:
        raise CertificationFailed(f"stationarity residual {residual:.3e} > {CERT_STAT_TOL:.0e} * {scale:.3e}")

    comp = float((duals * np.maximum(-values, 0.0)).max())
    if comp > CERT_COMP_TOL:
        raise CertificationFailed(f"complementarity {comp:.3e} > {CERT_COMP_TOL:.0e}")
    return CertificationReport(
        max_violation=violation,
        stationarity_residual=float(residual),
        max_complementarity=comp,
        duals=duals,
    )
