"""The exact identities behind the two regularizations of the paper, the
closed form of the Hill boundary in the elliptic chart, that of the
Hill-boundary curvature C, the equal-mass lemmas on C, the contact of C
with zero along the tangent cone at (l, 0), and that of the curvature
numerator of any function at any of its critical points.

Each public function but cone_contact_C4 and generic_cone_coefficients
returns polynomial differences
that are all zero exactly when its identity holds, like the named
identities of exactpoly, and evaluates the package's own bodies where
there is one: formulas.R2, formulas.lc_radicand, the equal-mass P1, P2,
F0, aq and bq, and scan.level_curvature. They stay out of the named
suite, whose count of 14 the verify-identities benchmark expects.

Elliptic chart (Centered frame, primaries at (-1/2, 0) and (1/2, 0)):
x = cosh(lam), y = cos(nu), sh = sinh(lam), sn = sin(nu), so
sh^2 = x^2 - 1 and sn^2 = 1 - y^2, and q = (x y / 2, sh sn / 2) with
Jacobian J = d(q1, q2)/d(lam, nu). Momenta pull back by
(p_lam, p_nu) = J^T p.

Levi-Civita chart (Standard frame, Earth at the origin): v = x + i y,
q = 2 v^2 and p = u / conj(v), so n p = (u1 x - u2 y, u1 y + u2 x) with
n = |v|^2; w stands for rho^(-1/2), the inverse Moon distance.
"""

import math
from fractions import Fraction
from functools import cache

from euler2c import formulas, levicivita, scan
from euler2c.exactpoly import MultiPoly, reduce_mod_quadratic, ring


def holds(differences):
    """Whether an identity's differences are all the zero polynomial."""
    return all(d.is_zero for d in differences)


def _reduce(p, relations):
    """p with each adjoined surd s of the (s, square) relations rewritten
    by s^2 = square, to degree at most 1 in s."""
    for symbol, square in relations:
        s = MultiPoly.variable(symbol, p.vars)
        p = reduce_mod_quadratic(p, symbol, s ** 2 - square)
    return p


def _elliptic():
    x, y, sh, sn, pl, pn, c, mu = ring("x", "y", "sh", "sn", "pl", "pn",
                                       "c", "mu")
    rels = (("sh", x ** 2 - 1), ("sn", 1 - y ** 2))
    J = ((sh * y / 2, -x * sn / 2), (x * sn / 2, sh * y / 2))
    return (x, y, sh, sn, pl, pn, c, mu), rels, (x * y / 2, sh * sn / 2), J


def elliptic_distances():
    """(x + y)/2 and (x - y)/2 are the distances to (-1/2, 0) and
    (1/2, 0): the chart is in the Centered frame, and (r1 + r2, r1 - r2)
    gives back (x, y)."""
    (x, y, *_), rels, (q1, q2), _ = _elliptic()
    half = Fraction(1, 2)
    return [_reduce((q1 + half) ** 2 + q2 ** 2 - ((x + y) / 2) ** 2, rels),
            _reduce((q1 - half) ** 2 + q2 ** 2 - ((x - y) / 2) ** 2, rels)]


def elliptic_metric():
    """J^T J = J J^T = (x^2 - y^2)/4 I, so p = 4 J (p_lam, p_nu) /
    (x^2 - y^2) inverts the pullback, and |p|^2 = 4 (p_lam^2 + p_nu^2) /
    (x^2 - y^2)."""
    (x, y, *_), rels, _, J = _elliptic()
    k = (x ** 2 - y ** 2) / 4
    out = []
    for i in range(2):
        for j in range(2):
            diag = k if i == j else 0
            out.append(_reduce(J[0][i] * J[0][j] + J[1][i] * J[1][j] - diag,
                               rels))
            out.append(_reduce(J[i][0] * J[j][0] + J[i][1] * J[j][1] - diag,
                               rels))
    return out


def elliptic_jacobian_det():
    """det J = (x^2 - y^2)/4 = (sh^2 + sn^2)/4, zero only where
    sh = sn = 0: at the foci x = 1, y = +-1, which are the primaries."""
    (x, y, sh, sn, *_), rels, (q1, q2), J = _elliptic()
    det = J[0][0] * J[1][1] - J[0][1] * J[1][0]
    foci = []
    for s in (1, -1):
        at = [q.subs("x", 1).subs("y", s).subs("sh", 0).subs("sn", 0)
              for q in (q1, q2)]
        foci += [at[0] - Fraction(s, 2), at[1]]
    return [_reduce(det - (x ** 2 - y ** 2) / 4, rels),
            _reduce(4 * det - (sh ** 2 + sn ** 2), rels), *foci]


def elliptic_hamiltonian():
    """Q = 2 (p_lam^2 + p_nu^2) - R^2 equals (H - c)(x^2 - y^2), with
    H = |p|^2/2 + U and U r1 r2 = -(1 - mu) r2 - mu r1; multiplied by
    x^2 - y^2 to clear |p|^2 = 16 |J (p_lam, p_nu)|^2 / (x^2 - y^2)^2."""
    (x, y, _, _, pl, pn, c, mu), rels, _, J = _elliptic()
    Q = 2 * (pl ** 2 + pn ** 2) - formulas.R2(x, y, c, 1 - 2 * mu)
    Jp = [J[i][0] * pl + J[i][1] * pn for i in range(2)]
    r1, r2 = (x + y) / 2, (x - y) / 2
    k = x ** 2 - y ** 2
    rhs = (8 * (Jp[0] ** 2 + Jp[1] ** 2)
           + k * (4 * (-(1 - mu) * r2 - mu * r1) - c * k))
    return [_reduce(Q * k - rhs, rels)]


def hill_rim_offsets():
    """The closed form of model.hill_boundary, in offsets x = 1 + u,
    y = -1 + v from the Earth (the Moon's are the same with m -> -m):

    R^2 = c u^2 + 2(1 + c) u + K(v), with K(v) = -c (v - v_E)(v - v_2)
    and -c v_E, -c v_2 = (m - c) -+ s, so that c K = -(c v + m - c - s)
    (c v + m - c + s); (m - c + s)(m - c - s) = -2c(1 + m), which gives
    v_E = 2(1 + m)/((m - c) + s); s^2 = c^2 + 2c + m^2 = (c - c_J)
    (c - c_J') for m = 1 - 2 mu, c_J, c_J' = -1 -+ 2t, t^2 = mu(1 - mu);
    and in the Standard frame |q| = r1 = (u + v)/2, q1 = (v - u + uv)/2
    and 4 q2^2 = u (2 + u) v (2 - v)."""
    u, v, c, m, s, mu, t, sh, sn = ring("u", "v", "c", "m", "s", "mu", "t",
                                        "sh", "sn")
    x, y = 1 + u, -1 + v
    rels = (("s", c ** 2 + 2 * c + m ** 2), ("t", mu * (1 - mu)),
            ("sh", x ** 2 - 1), ("sn", 1 - y ** 2))
    K = formulas.R2(x, y, c, m) - c * u ** 2 - 2 * (1 + c) * u
    q1, q2 = (x * y + 1) / 2, sh * sn / 2
    return [_reduce(c * K + (c * v + m - c - s) * (c * v + m - c + s), rels),
            _reduce((m - c + s) * (m - c - s) + 2 * c * (1 + m), rels),
            _reduce((c + 1 + 2 * t) * (c + 1 - 2 * t)
                    - (c ** 2 + 2 * c + (1 - 2 * mu) ** 2), rels),
            _reduce(q1 ** 2 + q2 ** 2 - ((u + v) / 2) ** 2, rels),
            q1 - (v - u + u * v) / 2,
            _reduce(4 * q2 ** 2 - u * (2 + u) * v * (2 - v), rels)]


def _levi_civita():
    x, y, u1, u2, c, mu, w = ring("x", "y", "u1", "u2", "c", "mu", "w")
    n = x ** 2 + y ** 2
    q = (2 * (x ** 2 - y ** 2), 4 * x * y)
    np_ = (u1 * x - u2 * y, u1 * y + u2 * x)
    return (x, y, u1, u2, c, mu, w), n, q, np_


def levi_civita_distances():
    """|q| = 2 |v|^2 and |q - 1|^2 = rho (formulas.lc_radicand), so
    rho^(-1/2) is the inverse Moon distance."""
    (x, y, *_), n, (q1, q2), _ = _levi_civita()
    return [q1 ** 2 + q2 ** 2 - 4 * n ** 2,
            (q1 - 1) ** 2 + q2 ** 2 - formulas.lc_radicand(x, y)]


def levi_civita_hamiltonian():
    """K = |u|^2/2 + V with V = -c |v|^2 - mu |v|^2 w - (1 - mu)/2 equals
    |v|^2 (H - c): |n p|^2 = |u|^2 n, and 2n K = 2n |v|^2 (H - c)."""
    (_, _, u1, u2, c, mu, w), n, _, (p1, p2) = _levi_civita()
    u2sum = u1 ** 2 + u2 ** 2
    K = u2sum / 2 - c * n - mu * n * w - (1 - mu) / 2
    # 2n |v|^2 (H - c), with |p|^2 = |n p|^2 / n^2, |q| = 2n, 1/|q - 1| = w
    h = (p1 ** 2 + p2 ** 2) - (1 - mu) * n - 2 * mu * n ** 2 * w \
        - 2 * c * n ** 2
    return [p1 ** 2 + p2 ** 2 - u2sum * n, 2 * n * K - h]


def levi_civita_pullback(factor):
    """p.dq - factor u.dv, times n, as its dx and dy coefficients, with
    dq1 = 4x dx - 4y dy and dq2 = 4y dx + 4x dy; zero for factor 4."""
    (x, y, u1, u2, *_), n, _, (p1, p2) = _levi_civita()
    return [p1 * 4 * x + p2 * 4 * y - factor * u1 * n,
            -p1 * 4 * y + p2 * 4 * x - factor * u2 * n]




def _formal_curvature(a, b, q1, q2, i1, i2):
    """C = scan.level_curvature of U = -a/r1 - b/r2 (Standard frame;
    a = 1 - mu, b = mu, but any masses will do) over U's formal partials
    in (q1, q2, i1 = 1/r1, i2 = 1/r2), with di_k/dq = -(q - primary_k)
    i_k^3. Returns C, U's partials table through order two and that
    formal derivative d(p, var)."""
    chain = {"q1": (-q1 * i1 ** 3, -(q1 - 1) * i2 ** 3),
             "q2": (-q2 * i1 ** 3, -q2 * i2 ** 3)}

    def d(p, var):
        di1, di2 = chain[var]
        return p.diff(var) + p.diff("i1") * di1 + p.diff("i2") * di2

    U = -a * i1 - b * i2
    U1, U2 = d(U, "q1"), d(U, "q2")
    table = {(1, 0): U1, (0, 1): U2, (2, 0): d(U1, "q1"),
             (1, 1): d(U1, "q2"), (0, 2): d(U2, "q2")}
    return scan.level_curvature(table), table, d


def _clear(p, r1, r2):
    """p (r1 r2)^N, N the highest power of an i_k in p: the monomial
    i1^j i2^k of p becomes r1^(N-j) r2^(N-k). Returns it and N."""
    at = [p.vars.index(v) for v in ("i1", "i2")]
    by_power = {}
    for e, coeff in p.terms.items():
        jk = e[at[0]], e[at[1]]
        e = list(e)
        e[at[0]] = e[at[1]] = 0
        by_power.setdefault(jk, {})[tuple(e)] = coeff
    N = max(map(max, by_power))
    out = MultiPoly(p.vars)
    for (j, k), terms in by_power.items():
        out = out + MultiPoly(p.vars, terms) * r1 ** (N - j) * r2 ** (N - k)
    return out, N


def _distance_ring():
    """The generators (q1, q2, i1, i2, r1, r2, a, b) of the Standard-frame
    closed forms, U's formal partials table through order two over them
    (_formal_curvature, masses a and b), P7 below, and the relations r1^2
    = q1^2 + q2^2 and r2^2 = (q1 - 1)^2 + q2^2."""
    q1, q2, i1, i2, r1, r2, a, b = ring("q1", "q2", "i1", "i2", "r1", "r2",
                                        "a", "b")
    _, table, _ = _formal_curvature(a, b, q1, q2, i1, i2)
    f = (q1 ** 4 - 2 * q1 ** 3 + 2 * q1 ** 2 * q2 ** 2 + q1 ** 2
         - 2 * q1 * q2 ** 2 + q2 ** 4 - 2 * q2 ** 2)
    g = 2 * q1 ** 2 - 2 * q1 + 2 * q2 ** 2
    P7 = (a ** 3 * r2 ** 7 + b ** 3 * r1 ** 7
          + b * a ** 2 * (f + r2 ** 2 * g) * r1 * r2 ** 2
          + b ** 2 * a * (f + r1 ** 2 * g) * r1 ** 2 * r2)
    rels = (("r1", q1 ** 2 + q2 ** 2), ("r2", (q1 - 1) ** 2 + q2 ** 2))
    return (q1, q2, i1, i2, r1, r2, a, b), table, P7, rels


def curvature_closed_form():
    """C = scan.level_curvature of U's formal partials, times (r1 r2)^7,
    equals

        P7 = a^3 r2^7 + b^3 r1^7 + b a^2 (f + r2^2 g) r1 r2^2
             + b^2 a (f + r1^2 g) r1^2 r2

    modulo r1^2 = q1^2 + q2^2 and r2^2 = (q1 - 1)^2 + q2^2, with the
    auxiliary polynomials f and g of _distance_ring. With N the highest
    power of an i_k in C, 9, both sides are multiplied by (r1 r2)^(N - 7)
    more."""
    (*_, r1, r2, _, _), table, P7, rels = _distance_ring()
    lhs, N = _clear(scan.level_curvature(table), r1, r2)
    return [_reduce(lhs - P7 * (r1 * r2) ** (N - 7), rels)]


def levi_closed_form():
    """L = levicivita.levi_numerator of U's formal partials satisfies

        (r1 r2)^7 L / r1^2 = 2 P7 - G1 G2,
        G1 = a r2^3 + b (r1^2 - q1) r1 = (q . grad U) r1 r2^3,
        G2 = a^2 r2^4 + b^2 r1^4 + 2ab (r1^2 - q1) r1 r2
           = |grad U|^2 (r1 r2)^4,

    with P7 of curvature_closed_form, modulo the same relations. With N
    the highest power of an i_k in L, both sides are multiplied by
    r1^2 (r1 r2)^(N - 7) more."""
    (q1, q2, _, _, r1, r2, a, b), table, P7, rels = _distance_ring()
    lhs, N = _clear(levicivita.levi_numerator(q1, q2, table), r1, r2)
    G1 = a * r2 ** 3 + b * (r1 ** 2 - q1) * r1
    G2 = (a ** 2 * r2 ** 4 + b ** 2 * r1 ** 4
          + 2 * a * b * (r1 ** 2 - q1) * r1 * r2)
    rhs = (2 * P7 - G1 * G2) * r1 ** 2 * (r1 * r2) ** (N - 7)
    return [_reduce(lhs - rhs, rels)]


def levi_rim_curvature():
    """On V = 0, F = 32 s2^3 L(2 v^2), with s2 = |v|^2 = x^2 + y^2, so
    that 4 |q|^3 = 32 s2^3: F is scan.level_curvature of V's formal
    partials, with w = rho^(-1/2) and dw = -w^3 d rho / 2, and L is
    levicivita.levi_numerator of U's formal partials (_formal_curvature)
    at q = 2 v^2. There i1 = 1/|q| = 1/(2 s2) and i2 = w = 1/|q - 1|, and
    V = 0 eliminates c = -(1 - mu) i1 - mu i2. The difference is
    multiplied by (2 s2 r2)^N, N the highest power of an i_k in it, with
    r2^2 = rho."""
    x, y, q1, q2, i1, i2, c, mu, r2 = ring("x", "y", "q1", "q2", "i1", "i2",
                                           "c", "mu", "r2")
    s2 = x ** 2 + y ** 2
    rho = formulas.lc_radicand(x, y)

    def d(p, var):
        return p.diff(var) - p.diff("i2") * i2 ** 3 * rho.diff(var) / 2

    V = -c * s2 - mu * s2 * i2 - (1 - mu) / 2
    Vx, Vy = d(V, "x"), d(V, "y")
    F = scan.level_curvature({(1, 0): Vx, (0, 1): Vy, (2, 0): d(Vx, "x"),
                              (1, 1): d(Vx, "y"), (0, 2): d(Vy, "y")})
    _, table, _ = _formal_curvature(1 - mu, mu, q1, q2, i1, i2)
    L = levicivita.levi_numerator(q1, q2, table)
    L = L.subs("q1", 2 * (x ** 2 - y ** 2)).subs("q2", 4 * x * y)
    diff = F.subs("c", -(1 - mu) * i1 - mu * i2) - 32 * s2 ** 3 * L
    return [_reduce(_clear(diff, 2 * s2, r2)[0], [("r2", rho)])]


def _equal_mass_polar():
    """The equal-mass C in polar coordinates q = r (y, sn) about the
    Earth, y = cos(theta), sn = sin(theta), rho = sqrt(r^2 - 2ry + 1) the
    Moon distance; returns the generators (r, y, sn, rho), the two
    relations, F = P1 rho + r^2 P2, and the radial and angular
    derivatives of C, each times r^N rho^N, with their N."""
    q1, q2, i1, i2, r, y, sn, rho = ring("q1", "q2", "i1", "i2", "r", "y",
                                         "sn", "rho")
    rels = (("sn", 1 - y ** 2), ("rho", r ** 2 - 2 * r * y + 1))
    half = Fraction(1, 2)
    C, _, d = _formal_curvature(half, half, q1, q2, i1, i2)
    C1, C2 = d(C, "q1"), d(C, "q2")

    def polar(p):
        p, N = _clear(p, r, rho)
        return _reduce(p.subs("q1", r * y).subs("q2", r * sn), rels), N

    F = formulas.P1(r, y) * rho + r ** 2 * formulas.P2(r, y)
    return ((r, y, sn, rho), rels, F, polar(y * C1 + sn * C2),
            polar(r * (y * C2 - sn * C1)))


def equal_mass_polar_derivatives():
    """At mu = 1/2,

        dC/dr     = -7 F / (2 r^8 rho^9),   F = P1 rho + r^2 P2,
        dC/dtheta = -G sn / (8 r^5 rho^9),  G = a rho + b,

    with P1, P2 of formulas and the surd-free parts a, b below, where
    dC/dr = C_q1 y + C_q2 sn and dC/dtheta = r (C_q2 y - C_q1 sn)."""
    (r, y, sn, rho), rels, F, (c_r, n_r), (c_t, n_t) = _equal_mass_polar()
    a = 6 * r ** 3 * y ** 2 - (10 * r ** 4 - 6 * r ** 2) * y \
        + 14 * r ** 5 - 16 * r ** 3
    b = (-14 * r ** 3 * y ** 3 + (27 * r ** 4 - 9 * r ** 2) * y ** 2
         - (24 * r ** 5 - 18 * r ** 3 - 12 * r) * y
         + 14 * r ** 6 - 3 * r ** 4 - 12 * r ** 2 - 2)
    G = a * rho + b
    return [_reduce(2 * c_r + 7 * F * r ** (n_r - 8) * rho ** (n_r - 9), rels),
            _reduce(8 * c_t + G * sn * r ** (n_t - 5) * rho ** (n_t - 9),
                    rels)]


def equal_mass_radial_norm():
    """F (P1 rho - r^2 P2) = formulas.F0: the surd-free norm of the
    radial numerator, so every zero of F is a zero of F0."""
    (r, y, _, rho), rels, F, _, _ = _equal_mass_polar()
    conj = formulas.P1(r, y) * rho - r ** 2 * formulas.P2(r, y)
    return [_reduce(F * conj, rels) - formulas.F0(r, y)]


def equal_mass_cone_curvature():
    """At mu = 1/2, C on the cone lines q2 = +-sqrt(2)(q - 1/2), q = q1,
    is the closed form of formulas.aq and formulas.bq,

        C = -864 (1 - 2q)(aq s1 + bq s2)
            / ((6q^2 - 8q + 3)^3 (6q^2 - 4q + 1)^3 s1 s2),

    with s1 = 2 r1 = sqrt(12q^2 - 8q + 2) and s2 = 2 r2 =
    sqrt(12q^2 - 16q + 6); w stands for sqrt(2)."""
    q1, q2, i1, i2, q, w, r1, r2 = ring("q1", "q2", "i1", "i2", "q", "w",
                                        "r1", "r2")
    half = Fraction(1, 2)
    rels = (("w", MultiPoly.constant(2, q.vars)),
            ("r1", 3 * q ** 2 - 2 * q + half),
            ("r2", 3 * q ** 2 - 4 * q + 3 * half))
    C, _, _ = _formal_curvature(half, half, q1, q2, i1, i2)
    lhs, N = _clear(C, r1, r2)
    s1, s2 = 2 * r1, 2 * r2
    num = -864 * (1 - 2 * q) * (formulas.aq(q) * s1 + formulas.bq(q) * s2)
    den = ((6 * q ** 2 - 8 * q + 3) ** 3 * (6 * q ** 2 - 4 * q + 1) ** 3
           * s1 * s2)
    return [_reduce(lhs.subs("q1", q).subs("q2", sign * w * (q - half)) * den
                    - num * (r1 * r2) ** N, rels) for sign in (1, -1)]


@cache
def _cone_contact():
    """The derivatives C_k = (d/dt)^k C(l + t, sqrt(2) t) at t = 0,
    k = 0..4, at the vertex (l, 0), each as (its polynomial in l times
    (l (1 - l))^N, N); the map at_vertex that reads a formal polynomial
    there the same way; U's partials table and C's second partials.

    With alpha = sqrt(1 - mu), beta = sqrt(mu) and l = alpha/(alpha +
    beta), (alpha, beta) = (alpha + beta)(l, 1 - l), so the masses
    (1 - mu, mu) = (alpha^2, beta^2) are (alpha + beta)^2 (l^2, (1 - l)^2)
    and U_1 = 0 at (l, 0). C is cubic in the masses: it is read with
    masses (l^2, (1 - l)^2) and carries the factor (alpha + beta)^6 =
    (l^2 + (1 - l)^2)^(-3), from alpha^2 + beta^2 = 1. The distances at
    the vertex are r1 = l and r2 = 1 - l, and w stands for sqrt(2)."""
    q1, q2, i1, i2, l, w = ring("q1", "q2", "i1", "i2", "l", "w")
    rel = ("w", MultiPoly.constant(2, l.vars))
    C, table, d = _formal_curvature(l ** 2, (1 - l) ** 2, q1, q2, i1, i2)

    def at_vertex(p):
        p, N = _clear(p, l, 1 - l)
        return p.subs("q1", l).subs("q2", 0), N

    along = [C]
    for _ in range(4):
        along.append(_reduce(d(along[-1], "q1") + w * d(along[-1], "q2"),
                             [rel]))
    C1 = d(C, "q1")
    second = {(2, 0): d(C1, "q1"), (1, 1): d(C1, "q2"),
              (0, 2): d(d(C, "q2"), "q2")}
    return [at_vertex(p) for p in along], at_vertex, table, second


def cone_contact():
    """For any mu, C_0..C_3 vanish at the vertex (l, 0): C has contact of
    order four with zero along the cone line t -> (l + t, sqrt(2) t).
    There U_1 = U_2 = U_12 = 0 and U_11 = -2 U_22, so C's Hessian is
    2 U_22 U_11^2 dq1^2 + 2 U_11 U_22^2 dq2^2 and the squared slope of
    the C = 0 branch, -C_11/C_22, is -U_11/U_22 = 2; U_22 = (1 - mu)/l^3
    + mu/(1 - l)^3 > 0 keeps both quotients defined."""
    along, at_vertex, table, second = _cone_contact()
    U11, U22 = table[2, 0], table[0, 2]
    return [p for p, _ in along[:4]] + [at_vertex(p)[0] for p in (
        table[1, 0], table[0, 1], table[1, 1], U11 + 2 * U22,
        second[2, 0] - 2 * U22 * U11 ** 2, second[1, 1],
        second[0, 2] - 2 * U11 * U22 ** 2)]


def cone_contact_C4(l):
    """C_4 at the vertex l, a rational in (0, 1), for the masses
    (1 - mu, mu) that put the vertex there, exactly."""
    p, N = _cone_contact()[0][4]
    # only l appears in p
    value = p.evaluate(dict.fromkeys(p.vars, 0) | {"l": l})
    return value / ((l ** 2 + (1 - l) ** 2) ** 3 * (l * (1 - l)) ** N)


@cache
def generic_cone_coefficients():
    """The coefficients of t^0..t^4 of K(t) = scan.level_curvature along
    the line t -> (t, w t) from a critical point of any f, f_x = f_y = 0
    there, with the line in its tangent cone, H(v, v) = 0 for v = (1, w):
    f's partials a_ij = d_x^i d_y^j f at the point are free through order
    four, and so is the slope w, but a_20 = -2 w a_11 - w^2 a_02. Each
    partial of orders one and two is its Taylor series along the line,
    sum_k t^k / k! sum_m binom(k, m) w^m a_(i+k-m, j+m), to the degree
    that fixes K's coefficients through t^4."""
    names = ["t", "w"] + [f"a{i}{n - i}" for n in range(2, 5)
                          for i in range(n + 1)]
    gens = dict(zip(names, ring(*names)))
    t, w = gens["t"], gens["w"]
    a = {(i, j): gens[f"a{i}{j}"] for i in range(5) for j in range(5 - i)
         if f"a{i}{j}" in gens}
    a[2, 0] = -2 * w * a[1, 1] - w ** 2 * a[0, 2]
    a[1, 0] = a[0, 1] = 0 * t

    def along(i, j):
        return sum((t ** k * w ** m * (math.comb(k, m)
                                       * Fraction(1, math.factorial(k)))
                    * a[i + k - m, j + m]
                    for k in range(1, 5 - i - j) for m in range(k + 1)),
                   a[i, j])

    K = scan.level_curvature({e: along(*e) for e in
                              ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))})
    return K.coeffs_in("t")[:5]


def generic_cone_contact():
    """For every f, the curvature numerator K = scan.level_curvature of
    f's partials vanishes to order three along each tangent-cone line at
    each critical point of f: the coefficients of t^0..t^3 of
    generic_cone_coefficients are zero. So C's contact at (l, 0) and F's
    at (x0, 0) follow from grad = 0 there and the slope of the cone."""
    return generic_cone_coefficients()[:4]
