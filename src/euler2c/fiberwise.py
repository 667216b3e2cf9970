"""Fiberwise convexity of Hill regions via boundary curvature.

A Hill-region boundary {U = c} is convex exactly where the curvature
numerator

    C = U_q1q1 U_q2^2 + U_q1^2 U_q2q2 - 2 U_q1q2 U_q1 U_q2

is positive (kappa = C / |grad U|^3). C is scan.level_curvature of U's
partials table from model (U_derivs, re-exported here). Fiberwise
convexity of the position-fibered energy hypersurface at energy c is
equivalent to convexity of every Hill region of effective energy
e <= c. Every position q lies on the boundary of its own region,
e = U(q), so this is one statement about one region: C > 0 on the Earth
lobe of energy c (the Moon's is that of params.swapped()). The verdict
routine reads C on the lobe as model.hill_region samples it, a grid and
the closed-form rim U = c, which reaches the vertex (l, 0) at c_J.

All positions here are in the Standard frame (Earth at the origin,
Moon at (1, 0)). The equal-mass lemmas of the paper are exact: the
polar derivatives of C, its closed form on the tangent cone and its
fourth-order contact with zero at (l, 0) are identities in
tests/regularizations.py over the bodies P1, P2, aq and bq of
``formulas``; the named identities of exactpoly certify F0 and the
cone polynomials, and positivity_certificates holds the Sturm
certificates behind their signs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import formulas
from .model import U_derivs, _U_partials, hill_region, potential_U
from .scan import level_curvature, level_curvature_grad

__all__ = [
    "FiberwiseReport",
    "U_derivs",
    "C_with_grad",
    "fiberwise_verdict",
    "positivity_certificates",
]

# the Earth region is read on this many lambda and as many nu values
_N_REGION = 100
_C_TOL = 1e-12


def curvature_numerator(q, params):
    """Vectorized curvature numerator C (derivative combination only)."""
    return level_curvature(_U_partials(q, params, 2))


def C_with_grad(params):
    """(q1, q2) -> (C, C_q1, C_q2) from one U_derivs call, to trace C = 0."""
    def f(q1, q2):
        d = U_derivs((q1, q2), params)
        return level_curvature(d), *level_curvature_grad(d)
    return f


@dataclass
class FiberwiseReport:
    verdict: str                 # "convex" | "nonconvex-witness"
    witness: tuple | None        # (effective energy U(q), (q1, q2), C)
    min_C: float
    samples: int


def fiberwise_verdict(params, c):
    """C over the Earth Hill region of energy c <= c_J, whose every
    position q lies on the boundary of its own energy U(q); C below
    -_C_TOL is a witness, reported with that energy.

    One curvature_numerator call reads the positions of model.hill_region
    (_N_REGION x _N_REGION and the rim, without the Earth) and keeps the
    least C; C is even in q2, so the region's q2 >= 0 half stands for
    all of it. The rim holds the boundary next to the vertex (l, 0), where C turns
    negative first and where the grid alone can miss it.
    """
    region = hill_region(params, c, _N_REGION, _N_REGION)
    q1, q2 = region.q.T
    # the Earth, where C is not defined, is the grid point (0, 0)
    off = (q1 != 0.0) | (q2 != 0.0)
    q1, q2 = q1[off], q2[off]
    cvals = curvature_numerator((q1, q2), params)
    i = int(np.argmin(cvals))
    min_C = float(cvals[i])
    if min_C < -_C_TOL:
        q = (float(q1[i]), float(q2[i]))
        return FiberwiseReport("nonconvex-witness",
                               (potential_U(q, params), q, min_C),
                               min_C, cvals.size)
    return FiberwiseReport("convex", None, min_C, cvals.size)


def positivity_certificates():
    """Exact Sturm certificates behind the equal-mass positivity lemmas.

    formulas.quartic stays negative on (1/3, 1/2), with value exactly -1
    at q = 1/3; formulas.sextic is positive for q < 1/2, with value
    exactly 21/4 at q = 1/2; the quadratic 360x^2 - 360x + 101 has no
    real root (reduced discriminant 180^2 - 360*101 = -3960).
    """
    from fractions import Fraction as Fr

    from .exactpoly import ring, sign_certificate, sturm_isolate
    (q,) = ring("q")
    quad = [Fr(101), Fr(-360), Fr(360)]
    return {
        "quartic_negative": sign_certificate(
            formulas.quartic(q), (Fr(1, 3), Fr(1, 2)), "-"),
        "sextic_positive": sign_certificate(
            formulas.sextic(q), (None, Fr(1, 2)), "+"),
        "quadratic_no_real_root": len(sturm_isolate(quad)) == 0,
        "quadratic_discriminant": 180 ** 2 - 360 * 101,
        "quartic_at_one_third": formulas.quartic(Fr(1, 3)),   # exactly -1
        "sextic_at_one_half": formulas.sextic(Fr(1, 2)),      # exactly 21/4
    }
