"""Convexity analysis of the planar Euler problem of two fixed centers.

The package computes, certifies, and falsifies convexity of the
regularized energy hypersurfaces and of the Hill regions below the
critical Jacobi energy:

- ``model``: Hamiltonian, the potential U and its derivative table, Hill
  regions, frames, shared constants and the heavier lobe.
- ``elliptic``: two-sheeted elliptic regularization, projected Hessian
  of the regularized energy, thresholds c_E, c_M, c0, verdicts, oracle.
- ``levicivita``: Levi-Civita regularization around one primary,
  boundary-convexity function F, tangency and inflection analysis.
- ``fiberwise``: curvature of Hill-region boundaries and fiberwise
  convexity sweeps, with the equal-mass polar closed forms.
- ``exactpoly``: exact rational polynomial arithmetic, Sturm-based sign
  certificates, and the named identity suite behind the proofs.
- ``scan``: the level-set curvature numerator behind C and F and its
  gradient, sign scans, implicit-curve tracing from a closed-form value
  and gradient, finite-difference derivative validation.
- ``cli``: the ``euler2c`` command.
"""

from .errors import (
    BoundaryAmbiguous,
    CollisionPoint,
    EnergyAboveCritical,
    Euler2CError,
    FocalDegeneracy,
    MoonCollision,
    OutsideRegion,
    SingularPoint,
    TraceFailure,
    VariableMismatch,
)
from .model import (
    CartesianPhasePoint,
    Frame,
    HillComponent,
    Membership,
    ProblemParams,
    U_derivs,
    grad_U,
    hamiltonian_H,
    hill_boundary,
    hill_membership,
    jacobi_energy,
    lagrange_l,
    potential_U,
)
from .elliptic import (
    Definiteness,
    EllipticPoint,
    Thresholds,
    Verdict,
    convexity_verdict,
    oracle_convexity,
    thresholds,
)
from .levicivita import (
    F_value,
    LCPoint,
    nonconvex_witness_levi,
    tangency_check,
    tilde_derivatives,
    x0_of,
)
from .fiberwise import (
    C_value,
    FiberwiseReport,
    curvature_numerator,
    fiberwise_verdict,
    positivity_certificates,
)
from .exactpoly import (
    MultiPoly,
    identity_names,
    ring,
    sign_certificate,
    sturm_isolate,
    verify_all,
    verify_identity,
)
from .scan import Polyline, ScanReport, fd_check, sign_scan, trace_implicit

__version__ = "0.1.0"

__all__ = [
    "Euler2CError", "CollisionPoint", "MoonCollision", "FocalDegeneracy",
    "SingularPoint", "EnergyAboveCritical", "OutsideRegion",
    "BoundaryAmbiguous", "TraceFailure",
    "VariableMismatch",
    "Frame", "HillComponent", "Membership", "ProblemParams",
    "CartesianPhasePoint", "potential_U", "grad_U", "hamiltonian_H",
    "lagrange_l", "jacobi_energy", "hill_membership", "hill_boundary",
    "EllipticPoint", "Definiteness", "Verdict", "Thresholds",
    "thresholds", "convexity_verdict", "oracle_convexity",
    "LCPoint", "F_value", "x0_of", "tangency_check", "tilde_derivatives",
    "nonconvex_witness_levi",
    "C_value", "FiberwiseReport", "U_derivs", "curvature_numerator",
    "fiberwise_verdict", "positivity_certificates",
    "MultiPoly", "ring", "sturm_isolate", "sign_certificate",
    "identity_names", "verify_identity", "verify_all",
    "ScanReport", "Polyline", "sign_scan", "trace_implicit", "fd_check",
    "__version__",
]
