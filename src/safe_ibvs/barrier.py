"""Occlusion-avoidance constraints over the camera twist.

For each feature point the occlusion margin is

    h = ||s_i - s_o||^2 - Rn^2

(positive outside the obstacle's projected disk). Every quantity here is
computed for all m features at once, from the ``(m, 2)`` offsets ``ds``
between features and obstacle and the ``(m, 2, 6)`` differences ``dl``
of their interaction matrices. Two constraint families keep h
nonnegative along the closed loop:

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
construction.

The box half-width needs only the standard library's ``erf``/``erfc``
and a fixed Gauss-Legendre rule, so this module, like the rest of the
control loop, runs on numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import UnsupportedCovariance
from .observation import FeatureObservation

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
    """Zero-mean Gaussian pixel noise on feature and obstacle positions.

    Covariances are in pixel^2; constraint math lives in the normalized
    image plane, so they are divided by f^2 on conversion. Draws are the
    symmetric PSD square roots times standard normals, which also covers
    singular covariances.
    """

    feature_cov: np.ndarray  # (2, 2), applied independently to every feature
    obstacle_cov: np.ndarray  # (2, 2)
    sigma: float = 0.8  # confidence level for the noisy-case constraints
    feature_sqrt: np.ndarray = field(init=False, repr=False)
    obstacle_sqrt: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
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

    @staticmethod
    def isotropic(pixel_variance: float, sigma: float = 0.8) -> "NoiseModel":
        cov = np.diag([pixel_variance, pixel_variance])  # not pixel_variance * I, whose inf * 0 would warn
        return NoiseModel(cov, cov.copy(), sigma)

    def relative_cov_normalized(self, f: float) -> np.ndarray:
        """Covariance of the feature-minus-obstacle noise, normalized plane."""
        return (self.feature_cov + self.obstacle_cov) / f**2


def barrier_value(s_i: np.ndarray, s_o: np.ndarray, rn: float) -> float | np.ndarray:
    """Occlusion margin of one ``(2,)`` feature, or of each row of ``(m, 2)`` features, against the obstacle disk."""
    d = np.asarray(s_i, dtype=float) - np.asarray(s_o, dtype=float)
    return (d[..., None, :] @ d[..., :, None])[..., 0, 0] - rn * rn


def barrier_rate_row(
    s_i: np.ndarray,
    s_o: np.ndarray,
    l_feature: np.ndarray,
    l_obstacle: np.ndarray,
    l_radius: np.ndarray,
    rn: float,
) -> np.ndarray:
    """Row mapping a twist to the time derivative of the occlusion margin.

    ``(2,)`` features with ``(2, 6)`` interaction matrices give one
    ``(6,)`` row; ``(m, 2)`` and ``(m, 2, 6)`` give the ``(m, 6)`` rows.
    """
    d = np.asarray(s_i, dtype=float) - np.asarray(s_o, dtype=float)
    return ((2.0 * d)[..., None, :] @ (l_feature - l_obstacle))[..., 0, :] - 2.0 * rn * l_radius


def cbc_halfspaces(obs: FeatureObservation, gamma: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One admissible half-space per feature, ``row @ V >= -gamma * h``, as stacked ``(f, b, c)``.

    The rows are the margins' rate rows, so ``b = -row``, ``c = -gamma * h``
    and ``f`` has no rows, shape ``(m, 0, 6)``. Rows never vanish for a projectable obstacle: even with
    the feature on the projected center, the radius-rate entry
    ``-2 Rn R / Zo^2`` survives. A zero row would make the constraint
    meaningless, so it is rejected here.
    """
    if not gamma > 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    center, rn = obs.obstacle.center, obs.obstacle.rn
    rows = barrier_rate_row(obs.features, center, obs.l_features, obs.l_obstacle, obs.l_radius, rn)
    degenerate = np.flatnonzero(~(np.abs(rows).max(axis=1) > 0.0))
    if degenerate.size:
        raise ValueError(f"degenerate barrier row for feature {degenerate[0]}")
    h = barrier_value(obs.features, center, rn)
    return np.zeros((obs.m, 0, 6)), -rows, -gamma * h


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

    ``cov`` is the PSD covariance of the zero-mean planar noise. An
    off-diagonal entry of exactly zero takes the closed forms: isotropic
    covariances ``nu * sqrt(2) * erfinv(sqrt(sigma))``, unequal diagonals
    a bisection on the product-of-erf equation. Correlated and singular
    covariances bisect on :func:`box_probability`.
    """
    if not 0.0 < sigma < 1.0:
        raise ValueError(f"sigma must lie in (0, 1), got {sigma}")
    cov = np.asarray(cov, dtype=float).reshape(2, 2)
    if cov[0, 1] != 0.0:
        if np.linalg.eigvalsh(cov)[0] < -1e-12:
            raise UnsupportedCovariance("covariance must be PSD")
        if cov.max() == 0.0:
            return 0.0
        return _bisect(lambda e: box_probability(e, cov) - sigma, 2.0 * math.sqrt(max(cov[0, 0], cov[1, 1])))
    v1, v2 = math.sqrt(max(cov[0, 0], 0.0)), math.sqrt(max(cov[1, 1], 0.0))
    if v1 == 0.0 and v2 == 0.0:
        return 0.0
    if v1 == 0.0 or v2 == 0.0:
        nu = max(v1, v2)
        return nu * math.sqrt(2.0) * _erfinv(sigma)
    if abs(v1 - v2) <= 1e-14 * max(v1, v2):
        return v1 * math.sqrt(2.0) * _erfinv(math.sqrt(sigma))

    def box_prob_minus_sigma(e):
        return math.erf(e / (math.sqrt(2.0) * v1)) * math.erf(e / (math.sqrt(2.0) * v2)) - sigma

    return _bisect(box_prob_minus_sigma, 2.0 * max(v1, v2))


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
    obs: FeatureObservation,
    gamma: float,
    halfwidth: float,
    include_radius_term: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One convex quadratic per feature for the noisy-measurement case, as stacked ``(f, b, c)``.

    With ``ds`` the observed feature-to-obstacle offset and ``dl`` the
    difference of their interaction matrices, the constraint is

        ||f V||^2 + b V + (2 Rn^2 + 4 e^2 - ||ds||^2) <= 0
        f = dl / gamma,   b = (-2 ds'dl + 8 Rn L_r) / gamma

    where the radius-rate term ``8 Rn L_r`` can be dropped via
    ``include_radius_term=False`` for comparison runs. The quadratic part
    is passed as its ``(m, 2, 6)`` factor ``f``; its Gram matrix
    ``f'f = dl'dl / gamma^2`` is PSD of rank <= 2 by construction.
    """
    if not gamma > 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if halfwidth < 0.0:
        raise ValueError(f"halfwidth must be nonnegative, got {halfwidth}")
    rn = obs.obstacle.rn
    ds = obs.features - obs.obstacle.center
    dl = obs.l_features - obs.l_obstacle
    f = dl / gamma
    b = -2.0 * (ds[:, None, :] @ dl)[:, 0] / gamma
    if include_radius_term:
        b = b + 8.0 * rn * obs.l_radius / gamma
    c = 2.0 * rn * rn + 4.0 * halfwidth * halfwidth - (ds[:, None, :] @ ds[:, :, None])[:, 0, 0]
    return f, b, c
