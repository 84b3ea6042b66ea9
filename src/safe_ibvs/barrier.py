"""Occlusion-avoidance constraints over the camera twist.

For each feature point the occlusion margin is

    h = ||s_i - s_o||^2 - Rn^2

(positive outside the obstacle's projected disk). Every quantity here is
computed for all m features at once, from the ``(m, 2)`` offsets ``ds``
between features and obstacle and the ``(m, 2, 6)`` differences ``dl``
of their interaction matrices, formed once per step in an
:class:`Observation`. Two constraint families keep h nonnegative along
the closed loop:

* exact measurements: a half-space per feature, requiring the margin's
  control-dependent rate to dominate ``-gamma * h``;
* noisy measurements: a convex quadratic per feature which additionally
  absorbs an axis-aligned confidence box of half-width ``e`` on the
  relative measurement noise, so that any twist satisfying it keeps the
  true margin nonnegative whenever the noise falls inside the box, i.e.
  with probability at least the box's confidence level.

Both constraint functions return the filter's stacked format ``(f, b, c)`` of shapes
``(m, r, 6)``, ``(m, 6)`` and ``(m,)``: row i admits the twists with
``||f_i V||^2 + b_i'V + c_i <= 0``. The quadratic term is passed as its
factor f_i (r = 2 for PrCBC, r = 0 for a half-space), so it is convex by
construction. Beside them each returns the ``(m, 6)`` rate rows it formed.

A scene's box half-width is fixed by its noise covariances, focal length
and confidence level, so :class:`NoiseModel` computes it once, when it is
built, and carries it. It needs only the standard library's
``erf``/``erfc`` and a fixed Gauss-Legendre rule, so this module, like
the rest of the control loop, runs on numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import DegenerateConstraint, UnsupportedCovariance
from .geometry import ObstacleImageState

# Winitzki's constant in the closed-form first guess for erfinv (relative error below 2e-3)
_WINITZKI_A = 0.147
_ERFINV_NEWTON_STEPS = 5
# doublings of the upper bracket before a half-width is declared out of reach
_MAX_DOUBLINGS = 64
# box_probability: Gauss-Legendre nodes per panel, and the +-bound on the standardized
# integration variable (the normal mass beyond 9 standard deviations is below 3e-19)
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_U_MAX = 9.0


def _psd_sqrt(cov: np.ndarray) -> np.ndarray:
    """Symmetric square root of a PSD matrix, round-off negative eigenvalues clipped to 0."""
    eigvals, eigvecs = np.linalg.eigh(cov)
    return (eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))) @ eigvecs.T


@dataclass(frozen=True, eq=False)
class NoiseModel:
    """Zero-mean Gaussian pixel noise on feature and obstacle positions, with its confidence box.

    Covariances are in pixel^2. Draws are the symmetric PSD square roots
    times standard normals, which also covers singular covariances. The
    constraint math lives in the normalized image plane, so the model is
    built for a focal length f, which it does not keep: ``halfwidth`` is
    the half-width of the box that holds the feature-minus-obstacle
    noise, of covariance ``(feature_cov + obstacle_cov) / f^2``, with
    probability ``sigma``. Every trial that shares the model shares it.
    Squaring an f past about 1.3e154 raises ``OverflowError``; a
    covariance that is not finite once scaled raises
    :class:`UnsupportedCovariance`.
    """

    feature_cov: np.ndarray  # (2, 2), applied independently to every feature
    obstacle_cov: np.ndarray  # (2, 2)
    focal_length: InitVar[float]
    sigma: float = 0.8  # confidence level for the noisy-case constraints
    feature_sqrt: np.ndarray = field(init=False, repr=False)
    obstacle_sqrt: np.ndarray = field(init=False, repr=False)
    halfwidth: float = field(init=False)

    def __post_init__(self, focal_length: float):
        fc = np.asarray(self.feature_cov, dtype=float).reshape(2, 2)
        oc = np.asarray(self.obstacle_cov, dtype=float).reshape(2, 2)
        object.__setattr__(self, "feature_cov", fc)
        object.__setattr__(self, "obstacle_cov", oc)
        for name, cov in (("feature_cov", fc), ("obstacle_cov", oc)):
            if not np.isfinite(cov).all():
                raise ValueError(f"{name} holds a non-finite number")
            if np.abs(cov - cov.T).max() > 1e-12:
                raise ValueError(f"{name} must be symmetric")
            if np.linalg.eigvalsh(cov)[0] < -1e-12:
                raise ValueError(f"{name} must be PSD")
        if not 0.0 < self.sigma < 1.0:
            raise ValueError(f"sigma must lie in (0, 1), got {self.sigma}")
        object.__setattr__(self, "feature_sqrt", _psd_sqrt(fc))
        object.__setattr__(self, "obstacle_sqrt", _psd_sqrt(oc))
        with np.errstate(all="ignore"):  # a covariance this leaves non-finite is refused by noise_box_halfwidth
            relative_cov = (fc + oc) / focal_length**2
        object.__setattr__(self, "halfwidth", noise_box_halfwidth(self.sigma, relative_cov))


@dataclass(frozen=True, eq=False)
class Observation:
    """One step's measured geometry, formed once by ``sim.observe`` and read by every later layer.

    Positions may carry measurement noise; the interaction matrices are
    evaluated at the observed (possibly noisy) coordinates and the exact
    depths. The planner reads ``features`` and ``l_features``; the
    constraints read only the offsets ``ds`` and the differences ``dl``.
    """

    features: np.ndarray  # (m, 2) normalized coordinates
    l_features: np.ndarray  # (m, 2, 6)
    obstacle: ObstacleImageState
    l_radius: np.ndarray  # (6,)
    ds: np.ndarray  # (m, 2) features - obstacle.center
    dl: np.ndarray  # (m, 2, 6) l_features - the obstacle center's interaction matrix


def barrier_value(ds: np.ndarray, rn: float) -> float | np.ndarray:
    """Occlusion margin of one ``(2,)`` feature-minus-obstacle offset, or of each row of ``(m, 2)`` offsets."""
    d = np.asarray(ds, dtype=float)
    return (d[..., None, :] @ d[..., :, None])[..., 0, 0] - rn * rn


def barrier_rate_row(obs: Observation) -> np.ndarray:
    """The ``(m, 6)`` rows mapping a twist to the time derivative of each feature's occlusion margin."""
    return ((2.0 * obs.ds)[:, None, :] @ obs.dl)[:, 0] - 2.0 * obs.obstacle.rn * obs.l_radius


def cbc_halfspaces(obs: Observation, gamma: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One admissible half-space per feature, ``row @ V >= -gamma * h``, as stacked ``(f, b, c)``, then the rows.

    The rows are the margins' rate rows, so ``b = -row``, ``c = -gamma * h``
    and ``f`` has no rows, shape ``(m, 0, 6)``. Rows never vanish for a projectable obstacle: even with
    the feature on the projected center, the radius-rate entry
    ``-2 Rn R / Zo^2`` survives. A zero row would make the constraint
    meaningless, so it is rejected here.
    """
    if not gamma > 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    rows = barrier_rate_row(obs)
    degenerate = np.flatnonzero(~(np.abs(rows).max(axis=1) > 0.0))
    if degenerate.size:
        raise DegenerateConstraint(f"degenerate barrier row for feature {degenerate[0]}")
    return np.zeros((len(rows), 0, 6)), -rows, -gamma * barrier_value(obs.ds, obs.obstacle.rn), rows


def _erfinv(y: float) -> float:
    """Inverse error function on [0, 1), to a few ulp.

    Starts from Winitzki's closed-form approximation and takes Newton
    steps on ``math.erf``. Above 0.5 the residual is taken as
    ``(1 - y) - erfc(x)``: ``1 - y`` is exact there and ``erfc`` keeps
    full relative accuracy in the tail, where ``erf(x) - y`` would lose
    every digit to cancellation.
    """
    if y == 0.0:
        return 0.0
    q = 1.0 - y
    log_term = math.log(q * (1.0 + y))  # log(1 - y^2)
    t = 2.0 / (math.pi * _WINITZKI_A) + 0.5 * log_term
    x = math.sqrt(max(math.sqrt(t * t - log_term / _WINITZKI_A) - t, 0.0))
    for _ in range(_ERFINV_NEWTON_STEPS):
        residual = q - math.erfc(x) if y > 0.5 else math.erf(x) - y
        x -= residual / (2.0 / math.sqrt(math.pi) * math.exp(-x * x))
    return x


def _bisect(f, hi: float) -> float:
    """Smallest double (to one ulp) at which an increasing ``f`` with ``f(0) < 0`` turns nonnegative.

    ``hi`` starts the bracket and is doubled, at most ``_MAX_DOUBLINGS``
    times, until ``f(hi) >= 0``. The upper end of the final bracket is
    returned, so ``f`` is nonnegative at the result.
    """
    for _ in range(_MAX_DOUBLINGS):
        if f(hi) >= 0.0:
            break
        hi *= 2.0
    else:
        raise UnsupportedCovariance(f"no half-width up to {hi:.3e} reaches the confidence level")
    lo = 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid


def noise_box_halfwidth(sigma: float, cov: np.ndarray) -> float:
    """Half-width e of the square [-e, e]^2 holding probability ``sigma``.

    ``cov`` is the finite PSD covariance of the zero-mean planar noise.
    An exactly isotropic covariance ``nu^2 I`` (the two axes independent,
    so each holds probability ``sqrt(sigma)``) and one without variance
    take the closed form ``nu * sqrt(2) * erfinv(sqrt(sigma))``; every
    other covariance bisects on :func:`box_probability`.
    """
    if not 0.0 < sigma < 1.0:
        raise ValueError(f"sigma must lie in (0, 1), got {sigma}")
    cov = np.asarray(cov, dtype=float).reshape(2, 2)
    if not np.linalg.eigvalsh(cov)[0] >= -1e-12:  # an infinite entry gives NaN eigenvalues
        raise UnsupportedCovariance("covariance must be finite and PSD")
    widest = max(cov[0, 0], cov[1, 1], 0.0)
    if widest == 0.0 or (cov[0, 1] == 0.0 and cov[0, 0] == cov[1, 1]):
        return math.sqrt(widest) * math.sqrt(2.0) * _erfinv(math.sqrt(sigma))
    return _bisect(lambda e: box_probability(e, cov) - sigma, 2.0 * math.sqrt(widest))


def box_probability(e: float, cov: np.ndarray) -> float:
    """Probability that zero-mean Gaussian noise falls in [-e, e]^2.

    General PSD covariances. Degenerate axes collapse to the 1-D
    marginal, and a perfectly correlated pair to its closed form.
    Otherwise a fixed Gauss-Legendre rule integrates the conditional
    CDF of the narrower axis along the wider one, in standard units
    clipped to +-9. Panels are at most one unit long, and are graded
    geometrically towards each point where the conditional mean crosses
    a box edge: the integrand steps there, over a width of one
    conditional standard deviation divided by the slope of that mean.
    """
    if e <= 0.0:
        return 0.0
    cov = np.asarray(cov, dtype=float).reshape(2, 2)
    a, b, c = cov[0, 0], cov[0, 1], cov[1, 1]
    if a <= 0.0 and c <= 0.0:
        return 1.0
    if a <= 0.0 or c <= 0.0:
        return math.erf(e / math.sqrt(2.0 * max(a, c)))
    if c > a:
        a, c = c, a
    sx = math.sqrt(a)
    cond_var = max(c - b * b / a, 0.0)
    if cond_var == 0.0:
        # y = (b / a) x: both coordinates lie in the box exactly when |x| <= min(e, e a / |b|)
        return math.erf(min(e, e * a / abs(b)) / (math.sqrt(2.0) * sx))
    half = min(e / sx, _U_MAX)
    breaks = list(np.linspace(-half, half, math.ceil(2.0 * half) + 1))
    slope = float(b) / sx  # conditional mean of the narrow axis per standard unit of the wide one
    # a subnormal slope puts the crossing at inf (Python floats overflow without a warning): no break to grade
    crossing = float(e) / abs(slope) if slope != 0.0 else math.inf
    if math.isfinite(crossing):
        width = math.sqrt(cond_var) / abs(slope)
        offsets = [0.0]
        while offsets[-1] < crossing + half:
            offsets.append(width * 2.0 ** (len(offsets) - 1))
        breaks += [x + s * o for x in (-crossing, crossing) for s in (-1.0, 1.0) for o in offsets]
    edges = np.unique(np.clip(breaks, -half, half))
    mids, halves = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    u = (mids[:, None] + halves[:, None] * _GL_NODES).ravel()
    weights = (halves[:, None] * _GL_WEIGHTS).ravel()
    scale = math.sqrt(2.0 * cond_var)
    inside = [
        0.5 * (math.erf((e - m) / scale) + math.erf((e + m) / scale)) for m in (slope * u).tolist()
    ]
    density = np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    return float(weights @ (density * np.array(inside)))


def prcbc_quadratics(
    obs: Observation,
    gamma: float,
    halfwidth: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One convex quadratic per feature for the noisy-measurement case, as stacked ``(f, b, c)``, then the rows.

    With ``ds`` the observed feature-to-obstacle offset and ``dl`` the
    difference of their interaction matrices, the constraint is

        ||f V||^2 + b V + (2 Rn^2 + 4 e^2 - ||ds||^2) <= 0
        f = dl / gamma,   b = (-2 ds'dl + 8 Rn L_r) / gamma

    with ``L_r`` the radius's interaction row. The quadratic part is
    passed as its ``(m, 2, 6)`` factor ``f``; its Gram matrix
    ``f'f = dl'dl / gamma^2`` is PSD of rank <= 2 by construction.
    """
    if not gamma > 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if halfwidth < 0.0:
        raise ValueError(f"halfwidth must be nonnegative, got {halfwidth}")
    rn, ds, dl = obs.obstacle.rn, obs.ds, obs.dl
    f = dl / gamma
    b = -2.0 * (ds[:, None, :] @ dl)[:, 0] / gamma + 8.0 * rn * obs.l_radius / gamma
    c = 2.0 * rn * rn + 4.0 * halfwidth * halfwidth - (ds[:, None, :] @ ds[:, :, None])[:, 0, 0]
    return f, b, c, barrier_rate_row(obs)  # its (2 ds)'dl is not b's 2 (ds'dl) where 2 ds overflows
