"""The polynomials that the program evaluates and the proofs certify.

Each body is written once, with integer literals and plain operators, so
it runs on Python floats, NumPy arrays, Fractions and exactpoly.MultiPoly
alike: the float modules call it, and the identity suite in exactpoly
evaluates it exactly. The equal-mass bodies P1, P2, aq and bq are read
by proofs only, the identities of exactpoly and the equal-mass lemmas
in tests/regularizations.py. Variables: x = cosh(lambda), y = cos(nu),
c the energy and m = 1 - 2 mu in the elliptic chart; (x, y) = (r, cos theta)
in the equal-mass polar chart, and q = q1 on its cone lines. This module
imports nothing, so it loads neither NumPy nor exactpoly.
"""

__all__ = ["g", "R2", "A", "projected_hessian", "lc_radicand", "P1", "P2",
           "F0", "aq", "bq", "quartic", "sextic", "xc_quartic"]


def g(t, c, m):
    """2c t^2 + m t - c; Q's Hessian diagonal is a = -2 g(x, c, 1),
    b = -2 g(y, c, m)."""
    return 2 * c * t ** 2 + m * t - c


def R2(x, y, c, m):
    """R^2 = 2 (p_lam^2 + p_nu^2) on the zero set of Q; the lobes are
    where it is >= 0."""
    return 2 * x + c * x ** 2 - 2 * m * y - c * y ** 2


def A(x, y, c, m):
    """The sign-governing polynomial of the tangential Hessian test."""
    gx, gy = g(x, c, 1), g(y, c, m)
    return (R2(x, y, c, m) * gx * gy
            - (1 - y ** 2) * (m + c * y) ** 2 * gx
            - (x ** 2 - 1) * (1 + c * x) ** 2 * gy)


def projected_hessian(x, y, z, w, a, b):
    """The entries (m00, m01, m02, m11, m12, m22) of diag(a, b, 4, 4) in
    the tangent frame X, Y, Z of grad Q = (x, y, z, w)."""
    m00 = a * y * y + b * x * x + 4 * w * w + 4 * z * z
    m01 = (a - 4) * y * z + (4 - b) * w * x
    m02 = (a - 4) * w * y + (b - 4) * x * z
    m11 = a * z * z + b * w * w + 4 * x * x + 4 * y * y
    m12 = (a - b) * w * z
    m22 = a * w * w + b * z * z + 4 * y * y + 4 * x * x
    return m00, m01, m02, m11, m12, m22


def lc_radicand(x, y):
    """The Levi-Civita radicand |2 v^2 - 1|^2, expanded."""
    return (4 * x ** 4 + 8 * x ** 2 * y ** 2 - 4 * x ** 2
            + 4 * y ** 4 + 4 * y ** 2 + 1)


def P1(x, y):
    """At mu = 1/2, dC/dr = -7 F / (2 r^8 rho^9) with the radial
    numerator F = P1 rho + x^2 P2, x = r and rho = sqrt(x^2 - 2xy + 1)
    the Moon distance."""
    return (112 * x ** 4 * y ** 4
            - (260 * x ** 5 + 224 * x ** 3) * y ** 3
            + (235 * x ** 6 + 345 * x ** 4 + 168 * x ** 2) * y ** 2
            - (112 * x ** 7 + 152 * x ** 5 + 168 * x ** 3 + 56 * x) * y
            + (28 * x ** 8 + 13 * x ** 6 + 36 * x ** 4 + 28 * x ** 2
               + 7)) / 28


def P2(x, y):
    return (182 * x ** 3 * y ** 4
            - (393 * x ** 4 + 207 * x ** 2) * y ** 3
            + (333 * x ** 5 + 297 * x ** 3 + 78 * x) * y ** 2
            - (140 * x ** 6 + 147 * x ** 4 + 54 * x ** 2 + 10) * y
            + (28 * x ** 7 + 27 * x ** 5 + 6 * x ** 3)) / 28


def F0(x, y):
    """The surd-free norm of F."""
    return (x ** 2 - 2 * x * y + 1) * P1(x, y) ** 2 - x ** 4 * P2(x, y) ** 2


def aq(q):
    """At mu = 1/2, C on the cone lines q2 = +-sqrt(2)(q - 1/2) is
    -864 (1 - 2q)(aq s1 + bq s2) over a positive denominator, with
    s1 = sqrt(12q^2 - 8q + 2) and s2 = sqrt(12q^2 - 16q + 6)."""
    return (216 * q ** 5 - 576 * q ** 4 + 636 * q ** 3 - 338 * q ** 2
            + 80 * q - 5) / 216


def bq(q):
    return (216 * q ** 5 - 504 * q ** 4 + 492 * q ** 3 - 274 * q ** 2
            + 88 * q - 13) / 216


def quartic(q):
    """Negative on (1/3, 1/2) (equal-mass slope lemma)."""
    return 324 * q ** 4 - 648 * q ** 3 + 504 * q ** 2 - 180 * q + 23


def sextic(q):
    """Positive for q < 1/2 (c0-resultant lemma)."""
    return (7776 * q ** 6 - 23328 * q ** 5 + 30348 * q ** 4
            - 21816 * q ** 3 + 9232 * q ** 2 - 2212 * q + 241)


def xc_quartic(x, c):
    """c^2 x^4 + 3c x^3 + x^2 + 1, the y-free term of A_y / (m + 4cy);
    ``curve quartic`` traces its zero set in the (x, c) plane."""
    return c * c * x ** 4 + 3 * c * x ** 3 + x * x + 1
