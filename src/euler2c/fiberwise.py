"""Fiberwise convexity of Hill regions via boundary curvature.

A Hill-region boundary {U = c} is convex exactly where the curvature
numerator

    C = U_q1q1 U_q2^2 + U_q1^2 U_q2q2 - 2 U_q1q2 U_q1 U_q2

is positive (kappa = C / |grad U|^3). C is scan.level_curvature applied
to U's partials from model, whose table U_derivs this module re-exports
together with UPotentialEval. Fiberwise convexity of the
position-fibered energy hypersurface at energy c is equivalent to
convexity of every Hill region of effective energy e <= c, so the
verdict routine sweeps effective energies.

All positions here are in the Standard frame (Earth at the origin,
Moon at (1, 0)). The equal-mass analysis uses polar coordinates around
the Earth with closed forms for the radial and angular derivatives of C
and the auxiliary polynomials F, F0, G, a, b, and the cone-restricted
curvature C0(q1); F0 and the polynomials of F and C0 are the bodies of
``formulas`` that the identities in exactpoly certify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import formulas
from .errors import CollisionPoint
from .model import (Frame, HillComponent, UPotentialEval, U_derivs,
                    _distances, _U_partials, hill_boundary, potential_U)
from .scan import level_curvature, level_curvature_grad

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
    d = _U_partials(q, params, 2)
    return level_curvature(d[1, 0], d[0, 1], d[2, 0], d[1, 1], d[0, 2])


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
    d = _U_partials((q1, q2), params, 2)
    C = level_curvature(d[1, 0], d[0, 1], d[2, 0], d[1, 1], d[0, 2])
    _, _, r1, r2 = _distances((q1, q2), Frame.STANDARD)
    r1, r2 = float(r1), float(r2)
    f, g = _aux_fg(q1, q2)
    a, b = 1.0 - mu, mu
    C_closed = (a ** 3 / r1 ** 7 + b ** 3 / r2 ** 7
                + b * a ** 2 * (f + r2 ** 2 * g) / (r1 ** 6 * r2 ** 5)
                + b ** 2 * a * (f + r1 ** 2 * g) / (r1 ** 5 * r2 ** 6))
    gn = math.hypot(d[1, 0], d[0, 1])
    singular = gn < grad_tol
    kappa = math.nan if singular else C / gn ** 3
    return CurvatureEval(C, C_closed, kappa, singular, r1, r2, f, g)


def _cone_derivative(d, i, j, k):
    """k-th derivative of d_1^i d_2^j U along t -> (t, sqrt(2)(t - l)),
    sum_m binom(k, m) sqrt(2)^m d_1^(i+k-m) d_2^(j+m) U, from table d."""
    return sum(math.comb(k, m) * math.sqrt(2.0) ** m * d[i + k - m, j + m]
               for m in range(k + 1))


def V_line(q1, params):
    """The potential on the tangent-cone line through (l, 0),
    V(q1) = U(q1, sqrt(2)(q1 - l)) - c_J, and its derivatives V1..V4
    along the line, from U's partials through order four."""
    d = _U_partials((q1, math.sqrt(2.0) * (q1 - params.l)), params, 4)
    out = {f"V{k}": _cone_derivative(d, 0, 0, k) for k in range(1, 5)}
    return {"V": d[0, 0] - params.c_jacobi} | out


def C_l_derivatives(params):
    """Certify the fourth-order contact of C with zero along the cone.

    The derivatives C0..C4 of t -> C(t, sqrt(2)(t - l)) at t = l, C0..C3
    divided by the nonzero C4, so each is small iff the contact order is
    four: level_curvature of the Taylor series of U_1, U_2, U_11, U_12,
    U_22 along the line, exact to degree four since U_1, U_2 vanish at
    (l, 0).

    Also returns the squared slope of the C = 0 branch at (l, 0), which
    is exactly -U_11/U_22 = 2: the gradient of U vanishes at (l, 0), so
    the Hessian of C there is 2[U_11 dU_2 (x) dU_2 + U_22 dU_1 (x) dU_1
    - 2 U_12 dU_1 (.) dU_2], built from second derivatives of U alone,
    and U_11 = -2 U_22 on the axis.
    """
    # imported here: numpy.polynomial adds about 2 ms to package import
    from numpy.polynomial import Polynomial
    d = _U_partials((params.l, 0.0), params, 4)
    series = [Polynomial([_cone_derivative(d, *a, n) / math.factorial(n)
                          for n in range(5 - sum(a))])
              for a in ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))]
    taylor = level_curvature(*series).coef
    c = [math.factorial(k) * float(taylor[k]) for k in range(5)]
    out = {f"C{k}": c[k] / c[4] for k in range(4)} | {"C4": c[4]}

    u_11, u_12, u_22 = d[2, 0], d[1, 1], d[0, 2]
    c_11 = 2.0 * level_curvature(u_11, u_12, u_11, u_12, u_22)
    c_22 = 2.0 * level_curvature(u_12, u_22, u_11, u_12, u_22)
    out["slope_sq"] = -c_11 / c_22
    out["slope_sq_hill"] = -u_11 / u_22
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
    a spot check at e = -100 is included) up to c. One hill_boundary
    call finds the boundaries of all these energies together, and one
    curvature_numerator call evaluates C at all their points. When the
    Earth lobe is the heavier one (mu < 1/2) and c = c_J, the corollary
    witness region q1 in (l - 0.1 l, l) is scanned as well, in batches of
    64, 256 and 1024 evenly spaced abscissas, up to the first witness.
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

    pts = hill_boundary(params, np.array(energies), HillComponent.EARTH,
                        n=n_boundary)
    cvals = curvature_numerator((pts[..., 0], pts[..., 1]), params)
    samples = cvals.size
    # the first energy whose boundary holds the least C, as a loop over
    # the energies that keeps a strictly smaller minimum would find it
    j, i = np.unravel_index(np.argmin(cvals), cvals.shape)
    min_C = float(cvals[j, i])
    witness = None
    if min_C < -tol:
        witness = (float(energies[j]),
                   (float(pts[j, i, 0]), float(pts[j, i, 1])), min_C)

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
