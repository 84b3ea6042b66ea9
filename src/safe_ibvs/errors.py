"""Exception types shared across the package."""


class SafeIbvsError(Exception):
    """Base class for all package-specific errors."""


class NonPositiveDepth(SafeIbvsError):
    """A projected point lies on or behind the camera plane."""


class RankDeficient(SafeIbvsError):
    """Stacked interaction matrix has rank-deficient normal equations."""


class DimensionMismatch(SafeIbvsError, ValueError):
    """Operands have inconsistent shapes."""


class DegenerateConstraint(SafeIbvsError, ValueError):
    """A barrier constraint row is zero or not finite, so it constrains nothing."""


class UnsupportedCovariance(SafeIbvsError):
    """Covariance shape not handled by the closed-form inversion."""


class CertificationFailed(SafeIbvsError):
    """A solver result failed the independent KKT re-check."""


class ScenarioError(SafeIbvsError):
    """Scenario configuration is missing, malformed, or inconsistent."""
