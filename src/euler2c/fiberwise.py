"""Fiberwise convexity of Hill regions via boundary curvature.

A Hill-region boundary {U = c} is convex exactly where the curvature
numerator

    C = U_q1q1 U_q2^2 + U_q1^2 U_q2q2 - 2 U_q1q2 U_q1 U_q2

is positive (kappa = C / |grad U|^3). C is scan.level_curvature applied
to the derivative table model.U_derivs, which this module re-exports
together with UPotentialEval. Fiberwise convexity of the
position-fibered energy hypersurface at energy c is equivalent to
convexity of every Hill region of effective energy e <= c, so the
verdict routine sweeps effective energies.

All positions here are in the Standard frame (Earth at the origin,
Moon at (1, 0)). The equal-mass analysis uses polar coordinates around
the Earth with closed forms for the radial and angular derivatives of C
and the auxiliary polynomials F, F0, G, a, b, and the cone-restricted
curvature C0(q1); their exact-arithmetic identities live in exactpoly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CollisionPoint
from .exactpoly import sign_certificate, sturm_isolate
from .model import (Frame, HillComponent, UPotentialEval, U_derivs,
                    _distances, hill_boundary, potential_U)
from .scan import fd_derivative, level_curvature, level_curvature_grad

__all__ = [
    "UPotentialEval",
    "CurvatureEval",
    "FiberwiseReport",
    "U_derivs",
    "C_value",
    "C_with_grad",
    "V_line",
    "C_l_derivatives",
    "fiberwise_verdict",
    "earth_boundary_near_vertex",
    "polar_C_derivs",
    "lemma_polynomials",
    "positivity_certificates",
]


@dataclass(frozen=True)
class CurvatureEval:
    """Curvature data of a Hill boundary through a point.

    C is the curvature numerator from the derivative combination;
    C_closed the same quantity from the explicit rational closed form
    (the two agree to 1e-8 relative); kappa = C/|grad U|^3, NaN-flagged
    at the critical point (l, 0) where the gradient vanishes.
    """

    C: float
    C_closed: float
    kappa: float
    kappa_singular: bool
    r1: float
    r2: float
    f_aux: float
    g_aux: float


def curvature_numerator(q, params):
    """Vectorized curvature numerator C (derivative combination only)."""
    e = U_derivs(q, params)
    return level_curvature(e.U_1, e.U_2, e.U_11, e.U_12, e.U_22)


def C_with_grad(params):
    """(q1, q2) -> (C, C_q1, C_q2) from one U_derivs call, to trace C = 0."""
    def f(q1, q2):
        e = U_derivs((q1, q2), params)
        return (level_curvature(e.U_1, e.U_2, e.U_11, e.U_12, e.U_22),
                *level_curvature_grad(e.U_1, e.U_2, e.U_11, e.U_12, e.U_22,
                                      e.U_111, e.U_112, e.U_122, e.U_222))
    return f


def _aux_fg(q1, q2):
    f = (q1 ** 4 - 2.0 * q1 ** 3 + 2.0 * q1 ** 2 * q2 ** 2 + q1 ** 2
         - 2.0 * q1 * q2 ** 2 + q2 ** 4 - 2.0 * q2 ** 2)
    g = 2.0 * q1 ** 2 - 2.0 * q1 + 2.0 * q2 ** 2
    return f, g


def C_value(q, params, grad_tol=1e-9):
    """Curvature numerator of the Hill boundary through q, computed two
    ways (derivative combination and explicit closed form), with
    kappa = C/|grad U|^3 flagged singular at the critical point."""
    q1, q2 = float(q[0]), float(q[1])
    mu = params.mu
    e = U_derivs((q1, q2), params)
    C = level_curvature(e.U_1, e.U_2, e.U_11, e.U_12, e.U_22)
    _, _, r1, r2 = _distances((q1, q2), Frame.STANDARD)
    r1, r2 = float(r1), float(r2)
    f, g = _aux_fg(q1, q2)
    a, b = 1.0 - mu, mu
    C_closed = (a ** 3 / r1 ** 7 + b ** 3 / r2 ** 7
                + b * a ** 2 * (f + r2 ** 2 * g) / (r1 ** 6 * r2 ** 5)
                + b ** 2 * a * (f + r1 ** 2 * g) / (r1 ** 5 * r2 ** 6))
    gn = math.hypot(e.U_1, e.U_2)
    singular = gn < grad_tol
    kappa = math.nan if singular else C / gn ** 3
    return CurvatureEval(C, C_closed, kappa, singular, r1, r2, f, g)


def V_line(q1, params):
    """The potential restricted to the tangent-cone line through (l, 0):
    V(q1) = U(q1, sqrt(2)(q1 - l)) - c_J, with closed-form derivatives
    through order four."""
    mu, l = params.mu, params.l
    q1 = float(q1)
    _, _, rho1, rho2 = _distances((q1, math.sqrt(2.0) * (q1 - l)),
                                  Frame.STANDARD)
    rho1, rho2 = float(rho1), float(rho2)
    a, b = 1.0 - mu, mu
    V = -a / rho1 - b / rho2 - params.c_jacobi
    V1 = (a * (3.0 * q1 - 2.0 * l) / rho1 ** 3
          + b * (3.0 * q1 - 1.0 - 2.0 * l) / rho2 ** 3)
    V2 = 6.0 * (q1 - l) * (a * (l - 3.0 * q1) / rho1 ** 5
                           + b * (l - 3.0 * q1 + 2.0) / rho2 ** 5)
    V3 = -6.0 * (
        a * (l ** 2 - 12.0 * l * q1 + 9.0 * q1 ** 2)
        * (2.0 * l - 3.0 * q1) / rho1 ** 7
        + b * (l ** 2 - 12.0 * l * q1 + 9.0 * q1 ** 2 + 10.0 * l
               - 6.0 * q1 - 2.0) * (2.0 * l - 3.0 * q1 + 1.0) / rho2 ** 7)
    poly = (13.0 * l ** 4 + 48.0 * l ** 3 * q1 - 324.0 * l ** 2 * q1 ** 2
            + 432.0 * l * q1 ** 3 - 162.0 * q1 ** 4)
    tail = (-100.0 * l ** 3 + 504.0 * l ** 2 * q1 - 648.0 * l * q1 ** 2
            + 216.0 * q1 ** 3 - 102.0 * l ** 2 + 144.0 * l * q1
            + 20.0 * l - 48.0 * q1 + 7.0)
    V4 = (12.0 * poly * (a / rho1 ** 9 + b / rho2 ** 9)
          + 12.0 * b * tail / rho2 ** 9)
    return {"V": V, "V1": V1, "V2": V2, "V3": V3, "V4": V4}


def C_l_derivatives(params):
    """Certify the fourth-order contact of C with zero along the cone.

    Finite-difference derivatives through order three of
    t -> C(t, sqrt(2)(t - l)) at t = l all vanish; they are reported
    scaled by the (nonzero) fourth derivative, so each entry measures
    "derivative k relative to the leading term" and is small iff the
    contact order really is four. These stay finite differences: the
    fourth derivative of C along the cone needs fourth derivatives of U,
    and U_derivs stops at order three. Also returns the squared slope of
    the C = 0 branch at (l, 0), which is exactly -U_11/U_22 = 2: the
    gradient of U vanishes at (l, 0), so the Hessian of C there is
    2[U_11 dU_2 (x) dU_2 + U_22 dU_1 (x) dU_1 - 2 U_12 dU_1 (.) dU_2],
    built from second derivatives of U alone, and U_11 = -2 U_22 on the
    axis.
    """
    l = params.l
    s2 = math.sqrt(2.0)

    def cline(t, _y=0.0):
        return float(curvature_numerator((t, s2 * (t - l)), params))

    c4 = fd_derivative(cline, l, 0.0, 4, 0, 1e-2)
    out = {
        "C0": cline(l) / c4,
        "C1": fd_derivative(cline, l, 0.0, 1, 0, 3e-3) / c4,
        "C2": fd_derivative(cline, l, 0.0, 2, 0, 3e-3) / c4,
        "C3": fd_derivative(cline, l, 0.0, 3, 0, 3e-3) / c4,
        "C4": c4,
    }

    e = U_derivs((l, 0.0), params)
    c_11 = 2.0 * level_curvature(e.U_11, e.U_12, e.U_11, e.U_12, e.U_22)
    c_22 = 2.0 * level_curvature(e.U_12, e.U_22, e.U_11, e.U_12, e.U_22)
    out["slope_sq"] = -c_11 / c_22
    out["slope_sq_hill"] = -e.U_11 / e.U_22
    return out


@dataclass
class FiberwiseReport:
    verdict: str                 # "convex" | "nonconvex-witness"
    witness: tuple | None        # (effective energy, (q1, q2), C)
    energies: list
    min_C: float
    samples: int


def earth_boundary_near_vertex(params, c, q1_values):
    """Boundary points of the Earth Hill lobe with prescribed abscissas
    just below l, found by bisection in q2 on each vertical line (valid
    up to and including c = c_J, where the lobes touch at (l, 0)).

    Abscissas whose axis point lies outside the lobe are dropped; all
    others are bisected together, each until its bracket is below 1e-15.
    """
    q1 = np.atleast_1d(np.asarray(q1_values, dtype=float))
    q1 = q1[potential_U((q1, np.zeros_like(q1)), params) < c]
    lo, hi = np.zeros_like(q1), np.full_like(q1, 1.5)
    for _ in range(200):
        active = hi - lo >= 1e-15
        if not active.any():
            break
        mid = 0.5 * (lo + hi)
        below = potential_U((q1, mid), params) < c
        lo = np.where(active & below, mid, lo)
        hi = np.where(active & ~below, mid, hi)
    return list(zip(q1.tolist(), (0.5 * (lo + hi)).tolist()))


def fiberwise_verdict(params, c, n_boundary=512, n_energies=12,
                      tol=1e-12):
    """Scan C along Earth Hill boundaries over effective energies.

    Energies run from e_min (where the boundary radius spread around the
    Earth falls below 1% and the near-Kepler-circle argument takes over;
    a spot check at e = -100 is included) up to c. When the Earth lobe
    is the heavier one (mu < 1/2) and c = c_J, the corollary witness
    region q1 in (l - 0.1 l, l) is scanned with adaptive refinement as
    well.
    """
    cj = params.c_jacobi
    if c > cj:
        raise ValueError("fiberwise_verdict requires c <= c_jacobi")

    # find e_min: walk down until the boundary is circular to 1%
    e_min = min(2.0 * c, -8.0)
    for _ in range(40):
        pts = hill_boundary(params, e_min, HillComponent.EARTH, n=64)
        r = np.hypot(pts[:, 0], pts[:, 1])
        if (r.max() - r.min()) / r.mean() < 0.01:
            break
        e_min *= 2.0
    energies = list(np.linspace(e_min, c, n_energies)) + [-100.0]

    min_C = math.inf
    witness = None
    samples = 0
    for e in energies:
        pts = hill_boundary(params, e, HillComponent.EARTH, n=n_boundary)
        cvals = curvature_numerator((pts[:, 0], pts[:, 1]), params)
        samples += len(pts)
        i = int(np.argmin(cvals))
        if cvals[i] < min_C:
            min_C = float(cvals[i])
            if cvals[i] < -tol:
                witness = (float(e), (float(pts[i, 0]), float(pts[i, 1])),
                           float(cvals[i]))

    if (witness is None and params.heavier is HillComponent.EARTH
            and c >= cj - 1e-12):
        # corollary regime: look just below the touching point (l, 0)
        delta = 0.1 * params.l
        for n in (64, 256, 1024):
            q1s = params.l - delta * (np.arange(1, n + 1) / (n + 1.0))
            pts = earth_boundary_near_vertex(params, c, q1s)
            if not pts:
                continue
            q1, q2 = np.array(pts).T
            cvals = curvature_numerator((q1, q2), params)
            hit = np.flatnonzero(cvals < -tol)
            k = int(hit[0]) + 1 if hit.size else len(pts)
            samples += k
            min_C = min(min_C, float(cvals[:k].min()))
            if hit.size:
                witness = (float(c), pts[k - 1], float(cvals[k - 1]))
                break

    verdict = "convex" if witness is None else "nonconvex-witness"
    return FiberwiseReport(verdict, witness, energies, min_C, samples)


# -- equal-mass polar analysis ------------------------------------------------

def _check_equal_mass(params):
    if params.heavier is not None:
        raise ValueError("the polar closed forms require mu = 1/2")


def lemma_polynomials(x, y):
    """The auxiliary functions of the equal-mass polar derivatives,
    evaluated at (x, y) = (r, cos theta):

    F (radial numerator), its boundary polynomial F0 = F * conjugate
    combination, G (angular numerator) with its surd-free parts a, b,
    and the cone-restricted curvature C0 (as a function of q1 = x).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    s = np.sqrt(x ** 2 - 2.0 * x * y + 1.0)
    P1 = (4.0 * x ** 4 * y ** 4
          - (65.0 / 7.0 * x ** 5 + 8.0 * x ** 3) * y ** 3
          + (235.0 / 28.0 * x ** 6 + 345.0 / 28.0 * x ** 4
             + 6.0 * x ** 2) * y ** 2
          - (4.0 * x ** 7 + 38.0 / 7.0 * x ** 5 + 6.0 * x ** 3
             + 2.0 * x) * y
          + (x ** 8 + 13.0 / 28.0 * x ** 6 + 9.0 / 7.0 * x ** 4
             + x ** 2 + 0.25))
    P2 = (6.5 * x ** 3 * y ** 4
          - (393.0 / 28.0 * x ** 4 + 207.0 / 28.0 * x ** 2) * y ** 3
          + (333.0 / 28.0 * x ** 5 + 297.0 / 28.0 * x ** 3
             + 39.0 / 14.0 * x) * y ** 2
          - (5.0 * x ** 6 + 5.25 * x ** 4 + 27.0 / 14.0 * x ** 2
             + 5.0 / 14.0) * y
          + (x ** 7 + 27.0 / 28.0 * x ** 5 + 3.0 / 14.0 * x ** 3))
    F = P1 * s + x ** 2 * P2
    F0 = (x ** 2 - 2.0 * x * y + 1.0) * P1 ** 2 - x ** 4 * P2 ** 2
    a_aux = (6.0 * x ** 3 * y ** 2 - (10.0 * x ** 4 - 6.0 * x ** 2) * y
             + 14.0 * x ** 5 - 16.0 * x ** 3)
    b_aux = (-14.0 * x ** 3 * y ** 3 + (27.0 * x ** 4 - 9.0 * x ** 2) * y ** 2
             - (24.0 * x ** 5 - 18.0 * x ** 3 - 12.0 * x) * y
             + 14.0 * x ** 6 - 3.0 * x ** 4 - 12.0 * x ** 2 - 2.0)
    G = a_aux * s + b_aux
    C0 = cone_curvature_C0(x)
    return {"F_rderi": F, "F0": F0, "G": G, "a_aux": a_aux,
            "b_aux": b_aux, "C0": C0}


def cone_curvature_C0(q1):
    """Closed form of the equal-mass curvature numerator restricted to
    the cone lines q2 = +-sqrt(2)(q1 - 1/2); positive for q1 < 1/2."""
    q1 = np.asarray(q1, dtype=float)
    aq = (q1 ** 5 - 8.0 / 3.0 * q1 ** 4 + 53.0 / 18.0 * q1 ** 3
          - 169.0 / 108.0 * q1 ** 2 + 10.0 / 27.0 * q1 - 5.0 / 216.0)
    bq = (q1 ** 5 - 7.0 / 3.0 * q1 ** 4 + 41.0 / 18.0 * q1 ** 3
          - 137.0 / 108.0 * q1 ** 2 + 11.0 / 27.0 * q1 - 13.0 / 216.0)
    s1 = np.sqrt(12.0 * q1 ** 2 - 8.0 * q1 + 2.0)
    s2 = np.sqrt(12.0 * q1 ** 2 - 16.0 * q1 + 6.0)
    num = -864.0 * (1.0 - 2.0 * q1) * (aq * s1 + bq * s2)
    den = ((6.0 * q1 ** 2 - 8.0 * q1 + 3.0) ** 3
           * (6.0 * q1 ** 2 - 4.0 * q1 + 1.0) ** 3 * s1 * s2)
    out = num / den
    return float(out) if np.ndim(out) == 0 else out


def polar_C_derivs(r, theta, params):
    """Equal-mass curvature numerator and its polar derivatives around
    the Earth, from the closed forms

        dC/dr     = -7 F(r, cos t) / (2 r^8 rho^9),
        dC/dtheta = -G(r, cos t) sin t / (8 r^5 rho^9),

    with rho = sqrt(r^2 - 2 r cos t + 1) from model._distances."""
    _check_equal_mass(params)
    r = float(r)
    theta = float(theta)
    if r <= 0.0:
        raise CollisionPoint("polar chart requires r > 0")
    q = (r * math.cos(theta), r * math.sin(theta))
    rho = float(_distances(q, Frame.STANDARD)[3])
    aux = lemma_polynomials(r, math.cos(theta))
    C = float(curvature_numerator(q, params))
    dC_dr = -7.0 * float(aux["F_rderi"]) / (2.0 * r ** 8 * rho ** 9)
    dC_dtheta = (-float(aux["G"]) * math.sin(theta)
                 / (8.0 * r ** 5 * rho ** 9))
    return {"C": C, "C_r": dC_dr, "C_theta": dC_dtheta}


def positivity_certificates():
    """Exact Sturm certificates behind the equal-mass positivity lemmas.

    quartic: 324q^4 - 648q^3 + 504q^2 - 180q + 23 stays negative on
    (1/3, 1/2), with value exactly -1 at q = 1/3; sextic:
    7776x^6 - 23328x^5 + 30348x^4 - 21816x^3 + 9232x^2 - 2212x + 241 is
    positive for x < 1/2, with value exactly 21/4 at x = 1/2; the
    quadratic 360x^2 - 360x + 101 has no real root (reduced discriminant
    180^2 - 360*101 = -3960).
    """
    from fractions import Fraction as Fr
    quartic = [Fr(23), Fr(-180), Fr(504), Fr(-648), Fr(324)]
    sextic = [Fr(241), Fr(-2212), Fr(9232), Fr(-21816), Fr(30348),
              Fr(-23328), Fr(7776)]
    quad = [Fr(101), Fr(-360), Fr(360)]
    quartic_third = sum(c * Fr(1, 3) ** k for k, c in enumerate(quartic))
    sextic_half = sum(c * Fr(1, 2) ** k for k, c in enumerate(sextic))
    return {
        "quartic_negative": sign_certificate(
            quartic, (Fr(1, 3), Fr(1, 2)), "-"),
        "sextic_positive": sign_certificate(
            sextic, (None, Fr(1, 2)), "+"),
        "quadratic_no_real_root": len(sturm_isolate(quad)) == 0,
        "quadratic_discriminant": 180 ** 2 - 360 * 101,
        "quartic_at_one_third": quartic_third,   # exactly -1
        "sextic_at_one_half": sextic_half,       # exactly 21/4
    }
