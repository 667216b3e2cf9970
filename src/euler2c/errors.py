"""Exception types shared across the package."""


class Euler2CError(Exception):
    """Base class for all package-specific errors."""


class CollisionPoint(Euler2CError):
    """A position coincides with one of the primaries."""


class MoonCollision(Euler2CError):
    """The Levi-Civita radicand vanishes (regularized Moon collision)."""


class FocalDegeneracy(Euler2CError):
    """Momentum pullback requested at a focus, where the coordinate
    Jacobian is singular."""


class SingularPoint(Euler2CError):
    """Gradient of the defining function vanishes; no tangent frame."""


class EnergyAboveCritical(Euler2CError):
    """Energy at or above the critical Jacobi energy where a bounded
    component is required."""


class OutsideRegion(Euler2CError):
    """Point lies outside the projected energy region."""


class BoundaryAmbiguous(Euler2CError):
    """Point is on a Hill-region boundary within tolerance; membership
    is not well defined."""


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
