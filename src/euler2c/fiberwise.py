"""Fiberwise convexity of Hill regions via boundary curvature.

A Hill-region boundary {U = c} is convex exactly where the curvature
numerator

    C = U_q1q1 U_q2^2 + U_q1^2 U_q2q2 - 2 U_q1q2 U_q1 U_q2

is positive (kappa = C / |grad U|^3). C is scan.level_curvature of U's
partials table from model (U_derivs, re-exported here); its contact
with zero along the tangent cone at (l, 0) is scan.cone_contact of U's
partials there. Fiberwise convexity of the position-fibered energy
hypersurface at energy c is equivalent to convexity of every Hill
region of effective energy e <= c. Every position q lies on the boundary
of its own region, e = U(q), so this is one statement about one region:
C > 0 on the Earth lobe of energy c. The verdict routine reads C on the
lobe as scan.hill_region samples it, and, for the heavier Earth lobe,
just inside the vertex (l, 0) with scan.vertex_window.

All positions here are in the Standard frame (Earth at the origin,
Moon at (1, 0)). The equal-mass analysis uses polar coordinates around
the Earth: lemma_polynomials gives the numerators F and G of the radial
and angular derivatives of C, the auxiliary polynomials F0, a, b, and
the cone-restricted curvature C0(q1); F0 and the polynomials of F and
C0 are the bodies of ``formulas`` that the identities in exactpoly
certify.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import formulas
from .model import HillComponent, U_derivs, _U_partials, potential_U
from .scan import (cone_contact, elliptic_to_cartesian, hill_region,
                   level_curvature, level_curvature_grad, vertex_window)

__all__ = [
    "FiberwiseReport",
    "U_derivs",
    "C_with_grad",
    "C_l_derivatives",
    "fiberwise_verdict",
    "lemma_polynomials",
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


def C_l_derivatives(params):
    """Certify the fourth-order contact of C with zero along the cone.

    The derivatives C0..C4 of t -> C(t, sqrt(2)(t - l)) at t = l, C0..C3
    divided by the nonzero C4, so each is small iff the contact order is
    four: scan.cone_contact of U's partials at (l, 0) through order four,
    exact to degree four since U_1, U_2 vanish there.

    Also returns the squared slope of the C = 0 branch at (l, 0), which
    is exactly -U_11/U_22 = 2: the gradient of U vanishes at (l, 0), so
    the Hessian of C there is 2[U_11 dU_2 (x) dU_2 + U_22 dU_1 (x) dU_1
    - 2 U_12 dU_1 (.) dU_2], built from second derivatives of U alone,
    and U_11 = -2 U_22 on the axis.
    """
    d = _U_partials((params.l, 0.0), params, 4)
    c = cone_contact(d, 4)
    out = {f"C{k}": c[k] / c[4] for k in range(4)} | {"C4": c[4]}

    hess = {a: d[a] for a in ((2, 0), (1, 1), (0, 2))}
    c_11 = 2.0 * level_curvature(hess | {(1, 0): d[2, 0], (0, 1): d[1, 1]})
    c_22 = 2.0 * level_curvature(hess | {(1, 0): d[1, 1], (0, 1): d[0, 2]})
    out["slope_sq"] = -c_11 / c_22
    out["slope_sq_hill"] = -d[2, 0] / d[0, 2]
    return out


@dataclass
class FiberwiseReport:
    verdict: str                 # "convex" | "nonconvex-witness"
    witness: tuple | None        # (effective energy U(q), (q1, q2), C)
    min_C: float
    samples: int


def fiberwise_verdict(params, c):
    """C over the Earth Hill region of energy c, whose every position q
    lies on the boundary of its own energy U(q); C below -_C_TOL is a
    witness, reported with that energy.

    One curvature_numerator call reads the positions of scan.hill_region
    (_N_REGION x _N_REGION and the rim, without the Earth) and keeps the
    least C. For the heavier Earth lobe (mu < 1/2) without a witness
    there, scan.vertex_window on U < c searches q1 in (l - 0.1 l, l).
    """
    if c > params.c_jacobi:
        raise ValueError("fiberwise_verdict requires c <= c_jacobi")
    region = hill_region(params, c, HillComponent.EARTH, _N_REGION,
                         _N_REGION)
    q1, q2 = elliptic_to_cartesian(region.lam[region.ilam], region.nu)
    q1 = q1 + 0.5
    # the Earth, where C is not defined, is the grid point (0, 0)
    off = (q1 != 0.0) | (q2 != 0.0)
    q1, q2 = q1[off], q2[off]
    cvals = curvature_numerator((q1, q2), params)
    i = int(np.argmin(cvals))
    min_C, samples = float(cvals[i]), cvals.size
    found = (float(q1[i]), float(q2[i]), min_C) if min_C < -_C_TOL else None

    if found is None and params.heavier is HillComponent.EARTH:
        # corollary regime: look just below the touching point (l, 0)
        found, read, least = vertex_window(
            lambda q1, q2: potential_U((q1, q2), params) < c,
            lambda q1, q2: curvature_numerator((q1, q2), params),
            params.l, _C_TOL)
        samples += read
        min_C = min(min_C, least)

    if found is None:
        return FiberwiseReport("convex", None, min_C, samples)
    q = found[:2]
    return FiberwiseReport("nonconvex-witness",
                           (potential_U(q, params), q, found[2]),
                           min_C, samples)


# -- equal-mass polar analysis ------------------------------------------------

def lemma_polynomials(x, y):
    """The auxiliary functions of the equal-mass polar derivatives,
    evaluated at (x, y) = (r, cos theta):

    F (radial numerator), its boundary polynomial F0 = F * conjugate
    combination, G (angular numerator) with its surd-free parts a, b,
    and the cone-restricted curvature C0 (as a function of q1 = x). At
    mu = 1/2, with rho = sqrt(r^2 - 2 r cos t + 1) the Moon distance,

        dC/dr     = -7 F(r, cos t) / (2 r^8 rho^9),
        dC/dtheta = -G(r, cos t) sin t / (8 r^5 rho^9).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    s = np.sqrt(x ** 2 - 2.0 * x * y + 1.0)
    F = formulas.P1(x, y) * s + x ** 2 * formulas.P2(x, y)
    a_aux = (6.0 * x ** 3 * y ** 2 - (10.0 * x ** 4 - 6.0 * x ** 2) * y
             + 14.0 * x ** 5 - 16.0 * x ** 3)
    b_aux = (-14.0 * x ** 3 * y ** 3 + (27.0 * x ** 4 - 9.0 * x ** 2) * y ** 2
             - (24.0 * x ** 5 - 18.0 * x ** 3 - 12.0 * x) * y
             + 14.0 * x ** 6 - 3.0 * x ** 4 - 12.0 * x ** 2 - 2.0)
    return {"F_rderi": F, "F0": formulas.F0(x, y), "G": a_aux * s + b_aux,
            "a_aux": a_aux, "b_aux": b_aux, "C0": cone_curvature_C0(x)}


def cone_curvature_C0(q1):
    """Closed form of the equal-mass curvature numerator restricted to
    the cone lines q2 = +-sqrt(2)(q1 - 1/2); positive for q1 < 1/2."""
    q1 = np.asarray(q1, dtype=float)
    s1 = np.sqrt(12.0 * q1 ** 2 - 8.0 * q1 + 2.0)
    s2 = np.sqrt(12.0 * q1 ** 2 - 16.0 * q1 + 6.0)
    a_s1 = formulas.aq(q1) * s1
    b_s2 = formulas.bq(q1) * s2
    # where the two terms have opposite signs their sum cancels; there
    # the c0-resultant identity gives it as a quotient of terms that do not
    opposite = a_s1 * b_s2 < 0.0
    quotient = ((2.0 * q1 - 1.0) ** 3 * formulas.sextic(q1)
                / (11664.0 * np.where(opposite, a_s1 - b_s2, 1.0)))
    num = (-864.0 * (1.0 - 2.0 * q1)
           * np.where(opposite, quotient, a_s1 + b_s2))
    den = ((6.0 * q1 ** 2 - 8.0 * q1 + 3.0) ** 3
           * (6.0 * q1 ** 2 - 4.0 * q1 + 1.0) ** 3 * s1 * s2)
    out = num / den
    return float(out) if np.ndim(out) == 0 else out


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
