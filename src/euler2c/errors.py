"""Exception types shared across the package."""


class Euler2CError(Exception):
    """Base class for all package-specific errors."""


class CollisionPoint(Euler2CError):
    """A position coincides with one of the primaries."""


class MoonCollision(Euler2CError):
    """The Levi-Civita radicand vanishes (regularized Moon collision)."""


class EnergyAboveCritical(Euler2CError):
    """Energy at or above the critical Jacobi energy where a bounded
    component is required."""


class OracleInconsistency(Euler2CError):
    """Two independent evaluations inside a numerical oracle disagree
    beyond their tolerance."""


class TraceFailure(Euler2CError):
    """Implicit-curve tracing could not proceed.

    The ``partial`` attribute carries whatever polyline was produced
    before the failure, if any.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class VariableMismatch(Euler2CError):
    """Arithmetic between polynomials over different variable lists."""
