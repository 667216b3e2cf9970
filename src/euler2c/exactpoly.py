"""Exact polynomial arithmetic kernel.

Sparse multivariate polynomials over arbitrary-precision rationals
(:class:`fractions.Fraction`), reduction modulo a quadratic (which
adjoins a surd s by s^2 - square), Sturm-sequence root isolation, and a
suite of machine-checked polynomial identities underlying the convexity
analysis of the two-fixed-centers problem.

The identities evaluate the bodies of ``formulas`` and ``ladder.eta``
that the float code calls; the printed or factored side of each is the
independent reference written here.

Everything in this module is exact: no floating point enters any
computation, so a passing identity means the polynomial difference is
identically zero.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial

from . import formulas
from .errors import VariableMismatch
from .ladder import eta

__all__ = [
    "MultiPoly",
    "ring",
    "reduce_mod_quadratic",
    "sturm_isolate",
    "sign_certificate",
    "verify_identity",
    "verify_all",
    "identity_names",
    "IdentityResult",
    "SignCertificate",
]


def _frac(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


class MultiPoly:
    """Sparse multivariate polynomial over Fraction coefficients.

    Terms are stored as a dict mapping exponent tuples (one slot per
    variable, in the order of ``vars``) to nonzero Fraction coefficients.
    All arithmetic is exact.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms=None):
        self.vars = tuple(vars)
        self.terms = {}
        if terms:
            for expo, coeff in terms.items():
                c = _frac(coeff)
                if c != 0:
                    self.terms[tuple(expo)] = c

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, value, vars):
        vars = tuple(vars)
        return cls(vars, {(0,) * len(vars): _frac(value)})

    @classmethod
    def variable(cls, name, vars):
        vars = tuple(vars)
        expo = [0] * len(vars)
        expo[vars.index(name)] = 1
        return cls(vars, {tuple(expo): Fraction(1)})

    # -- basic predicates ---------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    def degree(self, var=None):
        """Total degree, or degree in a single variable."""
        if not self.terms:
            return -1
        if var is None:
            return max(sum(e) for e in self.terms)
        i = self.vars.index(var)
        return max(e[i] for e in self.terms)

    def __eq__(self, other):
        other = self._coerce(other)
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.vars != self.vars:
                raise VariableMismatch(
                    f"incompatible variables {other.vars} vs {self.vars}")
            return other
        return MultiPoly.constant(other, self.vars)

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        for expo, coeff in other.terms.items():
            c = terms.get(expo, Fraction(0)) + coeff
            if c:
                terms[expo] = c
            else:
                terms.pop(expo, None)
        return MultiPoly(self.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                c = terms.get(expo, Fraction(0)) + c1 * c2
                if c:
                    terms[expo] = c
                else:
                    terms.pop(expo, None)
        return MultiPoly(self.vars, terms)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        s = _frac(scalar)
        return MultiPoly(self.vars, {e: c / s for e, c in self.terms.items()})

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        result = MultiPoly.constant(1, self.vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- calculus / evaluation ----------------------------------------

    def diff(self, var):
        """Formal partial derivative."""
        i = self.vars.index(var)
        terms = {}
        for expo, coeff in self.terms.items():
            k = expo[i]
            if k == 0:
                continue
            new = list(expo)
            new[i] = k - 1
            terms[tuple(new)] = coeff * k
        return MultiPoly(self.vars, terms)

    def coeffs_in(self, var):
        """Coefficients with respect to one variable, ascending order.

        Returns a list of MultiPoly (over the same ring, with ``var``
        exponent zero) of length degree(var)+1.
        """
        i = self.vars.index(var)
        deg = self.degree(var)
        if deg < 0:
            return [MultiPoly(self.vars)]
        buckets = [dict() for _ in range(deg + 1)]
        for expo, coeff in self.terms.items():
            new = list(expo)
            k = new[i]
            new[i] = 0
            buckets[k][tuple(new)] = coeff
        return [MultiPoly(self.vars, b) for b in buckets]

    def subs(self, var, value):
        """Substitute a variable by a rational or another polynomial."""
        if isinstance(value, MultiPoly):
            repl = self._coerce(value)
        else:
            repl = MultiPoly.constant(value, self.vars)
        coeffs = self.coeffs_in(var)
        # Horner over the replacement polynomial.
        result = MultiPoly(self.vars)
        for c in reversed(coeffs):
            result = result * repl + c
        return result

    def evaluate(self, assignment):
        """Exact evaluation at a full rational assignment {name: value}."""
        total = Fraction(0)
        vals = [_frac(assignment[v]) for v in self.vars]
        for expo, coeff in self.terms.items():
            term = coeff
            for v, k in zip(vals, expo):
                if k:
                    term *= v ** k
            total += term
        return total

    # -- display -------------------------------------------------------

    def leading_terms(self, n=6):
        """A short human-readable prefix of the polynomial, for diagnostics."""
        items = sorted(self.terms.items(), key=lambda t: (-sum(t[0]), t[0]))
        parts = []
        for expo, coeff in items[:n]:
            mono = "*".join(
                f"{v}^{k}" if k > 1 else v
                for v, k in zip(self.vars, expo) if k)
            parts.append(f"{coeff}" + (f"*{mono}" if mono else ""))
        suffix = " + ..." if len(items) > n else ""
        return " + ".join(parts) + suffix if parts else "0"

    def __repr__(self):
        return f"MultiPoly({self.leading_terms()})"


def ring(*names):
    """Create generators for a polynomial ring; returns one MultiPoly
    per variable name."""
    return tuple(MultiPoly.variable(n, names) for n in names)


# ---------------------------------------------------------------------------
# Univariate helpers over Fraction coefficient lists (ascending order).
# ---------------------------------------------------------------------------

def _uni_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _uni_from_poly(p):
    """Ascending Fraction coefficient list from a MultiPoly that is
    univariate (at most one variable with positive degree)."""
    if isinstance(p, (list, tuple)):
        return _uni_trim([_frac(x) for x in p])
    active = [v for v in p.vars if p.degree(v) > 0]
    if len(active) > 1:
        raise VariableMismatch(f"polynomial is not univariate: vars {active}")
    var = active[0] if active else (p.vars[0] if p.vars else None)
    if var is None:
        c0 = p.terms.get((), Fraction(0)) if not p.vars else Fraction(0)
        return _uni_trim([c0])
    i = p.vars.index(var)
    deg = p.degree(var)
    out = [Fraction(0)] * (deg + 1)
    for expo, coeff in p.terms.items():
        out[expo[i]] += coeff
    return _uni_trim(out)


def _uni_eval(c, x):
    total = Fraction(0)
    for coeff in reversed(c):
        total = total * x + coeff
    return total


def _uni_deriv(c):
    return _uni_trim([coeff * k for k, coeff in enumerate(c)][1:])


def _uni_divmod(num, den):
    num = list(num)
    q = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    dlead = den[-1]
    for i in range(len(num) - len(den), -1, -1):
        coeff = num[i + len(den) - 1] / dlead
        if coeff:
            q[i] = coeff
            for j, d in enumerate(den):
                num[i + j] -= coeff * d
    return _uni_trim(q), _uni_trim(num[: len(den) - 1])


def _uni_gcd(a, b):
    a, b = list(a), list(b)
    while b:
        _, r = _uni_divmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def _squarefree(c):
    d = _uni_deriv(c)
    if not d:
        return c
    g = _uni_gcd(c, d)
    if len(g) <= 1:
        return c
    q, _ = _uni_divmod(c, g)
    return q


def _sign_at(c, x):
    """Sign of the polynomial at x; x may be +-inf (string sentinels)."""
    if not c:
        return 0
    if x == "inf":
        return 1 if c[-1] > 0 else -1
    if x == "-inf":
        s = 1 if c[-1] > 0 else -1
        return s if (len(c) - 1) % 2 == 0 else -s
    v = _uni_eval(c, x)
    return (v > 0) - (v < 0)


def _sturm_chain(c):
    chain = [list(c)]
    d = _uni_deriv(c)
    if d:
        chain.append(d)
        while True:
            _, r = _uni_divmod(chain[-2], chain[-1])
            if not r:
                break
            chain.append([-x for x in r])
    return chain


def _variations(chain, x):
    signs = [s for s in (_sign_at(p, x) for p in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _root_bound(c):
    """Cauchy bound: all real roots lie in (-B, B)."""
    lead = abs(c[-1])
    m = max((abs(x) for x in c[:-1]), default=Fraction(0))
    return Fraction(1) + m / lead


def _count_roots_open(c, chain, lo, hi):
    """Exact number of distinct real roots in the open interval (lo, hi)."""
    n = _variations(chain, lo) - _variations(chain, hi)
    if hi not in ("inf", "-inf") and _uni_eval(c, hi) == 0:
        n -= 1
    return n


def sturm_isolate(p, interval=None):
    """Isolate the distinct real roots of a univariate polynomial.

    Parameters
    ----------
    p : MultiPoly or coefficient sequence (ascending powers)
    interval : optional (lo, hi) pair of rationals; None means all of R.

    Returns a list of disjoint open rational intervals (lo, hi), each
    containing exactly one real root of p inside ``interval``. Roots are
    counted without multiplicity (the squarefree part is used).
    """
    c = _squarefree(_uni_from_poly(p))
    if len(c) <= 1:
        return []
    chain = _sturm_chain(c)
    bound = _root_bound(c)
    if interval is None:
        lo, hi = -bound, bound
    else:
        lo = -bound if interval[0] is None else _frac(interval[0])
        hi = bound if interval[1] is None else _frac(interval[1])
    # nudge endpoints off roots so every root in the open interval is interior
    while _uni_eval(c, lo) == 0:
        lo = lo + Fraction(1, 10 ** 9)
    while _uni_eval(c, hi) == 0:
        hi = hi - Fraction(1, 10 ** 9)
    if lo >= hi:
        return []

    out = []

    def recurse(a, b):
        n = _count_roots_open(c, chain, a, b)
        if n == 0:
            return
        if n == 1:
            out.append((a, b))
            return
        mid = (a + b) / 2
        while _uni_eval(c, mid) == 0:
            mid = (a + mid) / 2
        recurse(a, mid)
        recurse(mid, b)

    recurse(lo, hi)
    out.sort()
    return out


@dataclass(frozen=True)
class SignCertificate:
    certified: bool
    claimed_sign: int
    interval: tuple
    witness: Fraction | None = None  # point refuting the claim, if any


def sign_certificate(p, interval, claimed_sign):
    """Certify that p has constant sign on an open rational interval.

    Certified iff the Sturm root count on the open interval is zero and
    an interior sample has the claimed sign; otherwise Refuted with a
    rational witness where the sign differs (or a root interval midpoint).
    """
    sign = {"+": 1, "-": -1}.get(claimed_sign, claimed_sign)
    c = _uni_from_poly(p)
    lo, hi = interval
    lo = None if lo is None else _frac(lo)
    hi = None if hi is None else _frac(hi)
    roots = sturm_isolate(c, (lo, hi))
    if lo is None:
        lo = -_root_bound(c)
    if hi is None:
        hi = _root_bound(c)
    if roots:
        # sign changes (or touches zero) inside: find a refuting sample
        a, b = roots[0]
        for x in (lo + (hi - lo) / 3, (a + b) / 2, b + (hi - b) / 2):
            if lo < x < hi and _sign_at(c, x) != sign:
                return SignCertificate(False, sign, (lo, hi), x)
        return SignCertificate(False, sign, (lo, hi), (a + b) / 2)
    mid = (lo + hi) / 2
    if _sign_at(c, mid) == sign:
        return SignCertificate(True, sign, (lo, hi))
    return SignCertificate(False, sign, (lo, hi), mid)


# ---------------------------------------------------------------------------
# Identity suite
# ---------------------------------------------------------------------------

def reduce_mod_quadratic(p, var, quad):
    """Pseudo-remainder of p modulo a quadratic in ``var``.

    ``quad`` has degree 2 in ``var`` with polynomial coefficients; at each
    step the dividend is scaled by the leading coefficient of ``quad``, so
    the result is zero iff quad divides p over the fraction field. For a
    monic quad = s^2 - square it is the remainder: p with every s^k
    rewritten by s^2 = square, of degree at most 1 in s.
    """
    lead = quad.coeffs_in(var)[2]
    v = MultiPoly.variable(var, p.vars)
    while p.degree(var) >= 2:
        k = p.degree(var)
        top = p.coeffs_in(var)[k]
        p = lead * p - top * v ** (k - 2) * quad
    return p


def _det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


@cache
def _elliptic_A():
    """formulas.A over Q[x, y, c, m], built once per process."""
    return formulas.A(*ring("x", "y", "c", "m"))


def _tangent_frame(x, y, z, w):
    """The tangent frame X, Y, Z of grad Q = (x, y, z, w)."""
    return [[-y, x, w, -z], [-z, -w, x, y], [-w, z, -y, x]]


def _id_det_frame():
    a, b, cc, d, x, y, z, w = ring("a", "b", "cc", "d", "x", "y", "z", "w")
    cols = _tangent_frame(x, y, z, w)
    M = [[sum(h * u * v for h, u, v in zip([a, b, cc, d], ci, cj))
          for cj in cols] for ci in cols]
    det = _det3(M)
    closed = ((x ** 2 + y ** 2 + z ** 2 + w ** 2) ** 2
              * (b * cc * d * x ** 2 + a * cc * d * y ** 2
                 + a * b * d * z ** 2 + a * b * cc * w ** 2))
    # the program's six entries are this compression at cc = d = 4
    upper = (M[0][0], M[0][1], M[0][2], M[1][1], M[1][2], M[2][2])
    entries = [e.subs("cc", 4).subs("d", 4) - f for e, f in
               zip(upper, formulas.projected_hessian(x, y, z, w, a, b))]
    # on the zero set, C of _tangent_spectrum is 32 A: a = -2 g(x),
    # b = -2 g(y), Q_lam^2 = 4 (x^2 - 1)(1 + cx)^2, Q_nu^2 = 4 (1 - y^2)
    # (m + cy)^2 and z^2 + w^2 = 8 R^2, R^2 = 2x + cx^2 - 2my - cy^2
    x, y, c, m = ring("x", "y", "c", "m")
    a, b = -2 * formulas.g(x, c, 1), -2 * formulas.g(y, c, m)
    q_lam2 = 4 * (x ** 2 - 1) * (1 + c * x) ** 2
    q_nu2 = 4 * (1 - y ** 2) * (m + c * y) ** 2
    s = 8 * (2 * x + c * x ** 2 - 2 * m * y - c * y ** 2)
    on_shell = a * b * s + 4 * (a * q_nu2 + b * q_lam2) - 32 * _elliptic_A()
    return [det - closed, *entries, on_shell]


def _a_dy_quad(x, y, c, m):
    return (-c * (2 * c * x ** 2 + x - c) * y ** 2
            - 2 * (2 * c * x ** 2 + x - c) * m * y
            + formulas.xc_quartic(x, c))


def _id_a_dy_factor():
    x, y, c, m = ring("x", "y", "c", "m")
    return [_elliptic_A().diff("y")
            - (m + 4 * c * y) * _a_dy_quad(x, y, c, m)]


def _id_a_critical_y0():
    x, y, c, m = ring("x", "y", "c", "m")
    target = (2 * c * x ** 2 + x - c) * (y ** 2 - 1) * (c * y + m) ** 2
    return [reduce_mod_quadratic(_elliptic_A() - target, "y",
                                 _a_dy_quad(x, y, c, m))]


def _id_a_dx_factor():
    x, y, c, m = ring("x", "y", "c", "m")
    A = _elliptic_A()
    f = 2 * c * y ** 2 + m * y - c
    g = _h_poly(y, c, m) + f * (c * x ** 2 + 2 * x - c - 2)
    d1 = A.diff("x") - (1 + 4 * c * x) * g
    # A(1, y) = (c + 1) * h(y)
    d2 = A.subs("x", 1) - (c + 1) * _h_poly(y, c, m)
    return [d1, d2]


def _h_poly(y, c, m):
    return ((2 * c * y ** 2 + m * y - c) * (c + 2)
            - (c ** 2 * y ** 4 + 3 * c * m * y ** 3 + m ** 2 * y ** 2 + m ** 2))


def _id_h_boundary_roots():
    y, c, m = ring("y", "c", "m")
    quad = -c * y ** 2 - 2 * m * y + c + 2
    target = (c ** 2 + 2 * c + m ** 2) * (y ** 2 - 1)
    return [reduce_mod_quadratic(_h_poly(y, c, m) - target, "y", quad)]


def _id_h_interior_root():
    # h(-m/(4c)) = -eta(c)/c^2, cleared of denominators by (4c)^4:
    # sum_k h_k * (-m)^k * (4c)^(4-k) = -(256) * c^2 * eta(c)
    y, c, m = ring("y", "c", "m")
    total = sum(hk * (-m) ** k * (4 * c) ** (4 - k)
                for k, hk in enumerate(_h_poly(y, c, m).coeffs_in("y")))
    return [total + 256 * c ** 2 * eta(c, (1 - m) / 2)]


def _id_eta_at_cj():
    # eta and its first two energy-derivatives at c_J = -1 - 2s,
    # s^2 = mu(1-mu), m = 1 - 2mu.
    mu, s, c = ring("mu", "s", "c")
    rel = s ** 2 - mu * (1 - mu)
    cJ = -1 - 2 * s
    eta_c = eta(c, mu)
    vals = [
        (eta_c, -Fraction(27, 256) * (1 - 2 * mu) ** 4),
        (eta_c.diff("c"),
         (14 * mu ** 2 - 14 * mu - Fraction(9, 2)) * s
         - 16 * mu * (1 - mu)),
        (eta_c.diff("c").diff("c"),
         -39 * mu ** 2 + 39 * mu + Fraction(9, 4) + 24 * s),
    ]
    return [reduce_mod_quadratic(expr.subs("c", cJ) - closed, "s", rel)
            for expr, closed in vals]


def _id_eta_at_ce2():
    mu, t, c = ring("mu", "t", "c")
    rel = t ** 2 - (-28 * mu ** 2 + 28 * mu + 9)
    cE2 = -1 - t / 4
    closed = (Fraction(9, 32) * (1 - 2 * mu) ** 2
              * (t - 4 * mu ** 2 + 4 * mu + 3))
    return [reduce_mod_quadratic(eta(c, mu).subs("c", cE2) - closed, "t",
                                 rel)]


def _id_levi_critical_curve():
    # Value of the regularizing potential at its off-center critical
    # points, with w = sqrt(-mu c): 2wV(x0,0) = -w(c+m) + 2 mu c =: E,
    # and E * Ebar = -mu c (c^2 + 2c + m^2), so V(x0,0)=0 iff
    # c^2 + 2c + m^2 = 0, i.e. c = -1 +- 2 sqrt(mu(1-mu)).
    mu, c, w = ring("mu", "c", "w")
    rel = w ** 2 + mu * c
    m = 1 - 2 * mu
    E = -w * (c + m) + 2 * mu * c
    Ebar = -w * (c + m) - 2 * mu * c
    d1 = (reduce_mod_quadratic(E * Ebar, "w", rel)
          + mu * c * (c ** 2 + 2 * c + m ** 2))
    # construction of E from x0^2 = (c+w)/(2c):
    # 2 c w V(x0,0) = -c w (c+w) + mu c (c+w) - (1-mu) c w  equals  c * E
    lhs = -c * w * (c + w) + mu * c * (c + w) - (1 - mu) * c * w
    d2 = reduce_mod_quadratic(lhs - c * E, "w", rel)
    return [d1, d2]


def _id_lc_radicand():
    x, y = ring("x", "y")
    return [formulas.lc_radicand(x, y)
            - (4 * (x ** 2 + y ** 2) ** 2 - 4 * x ** 2 + 4 * y ** 2 + 1)]


@cache
def _f0():
    """formulas.F0 over Q[x, y], built once per process."""
    return formulas.F0(*ring("x", "y"))


def _f0_printed(x, y):
    R = Fraction
    return (
        -32 * x ** 9 * y ** 9
        + (R(3425, 28) * x ** 10 + 144 * x ** 8) * y ** 8
        - (R(38917, 196) * x ** 11 + R(15021, 28) * x ** 9
           + 288 * x ** 7) * y ** 7
        + (R(139155, 784) * x ** 12 + R(340323, 392) * x ** 10
           + R(769431, 784) * x ** 8 + 336 * x ** 6) * y ** 6
        - (R(4629, 49) * x ** 13 + R(39360, 49) * x ** 11
           + R(19953, 14) * x ** 9 + R(196145, 196) * x ** 7
           + 252 * x ** 5) * y ** 5
        + (R(411, 14) * x ** 14 + R(368931, 784) * x ** 12
           + R(225543, 196) * x ** 10 + R(959533, 784) * x ** 8
           + R(30861, 49) * x ** 6 + 126 * x ** 4) * y ** 4
        - (R(30, 7) * x ** 15 + R(8769, 49) * x ** 13
           + R(111273, 196) * x ** 11 + R(77229, 98) * x ** 9
           + R(4293, 7) * x ** 7 + R(49443, 196) * x ** 5
           + 42 * x ** 3) * y ** 3
        + (R(288, 7) * x ** 14 + R(137229, 784) * x ** 12
           + R(112503, 392) * x ** 10 + R(113205, 392) * x ** 8
           + R(17883, 98) * x ** 6 + R(24709, 392) * x ** 4
           + 9 * x ** 2) * y ** 2
        - (R(30, 7) * x ** 15 + R(1536, 49) * x ** 13 + R(5739, 98) * x ** 11
           + R(1857, 28) * x ** 9 + R(10869, 196) * x ** 7
           + R(211, 7) * x ** 5 + 9 * x ** 3 + R(9, 8) * x) * y
        + (R(33, 14) * x ** 14 + R(4365, 784) * x ** 12
           + R(1221, 196) * x ** 10 + R(2307, 392) * x ** 8
           + R(249, 56) * x ** 6 + R(15, 7) * x ** 4 + R(9, 16) * x ** 2
           + R(1, 16)))


def _id_f0_expansion():
    x, y = ring("x", "y")
    F0 = _f0()
    d1 = F0 - _f0_printed(x, y)
    # boundary factorization F0(x, 1)
    fac = (Fraction(1, 784) * (1 - 2 * x) * (1 - x) ** 2
           * (2 * x ** 2 - 2 * x + 1)
           * (60 * x ** 4 - 120 * x ** 3 + 102 * x ** 2 - 42 * x + 7)
           * (28 * x ** 6 - 84 * x ** 5 + 150 * x ** 4 - 160 * x ** 3
              + 108 * x ** 2 - 42 * x + 7))
    d2 = F0.subs("y", 1) - fac
    return [d1, d2]


def _id_f0_discriminant():
    x, _ = ring("x", "y")
    co = _f0().coeffs_in("y")
    a9, a8, a7 = co[9], co[8], co[7]
    f8 = factorial(8)
    # discriminant of the 7th y-derivative of F0 (a quadratic in y):
    # (8! a8)^2 - 4 * (9!/2 a9) * (7! a7)
    disc = ((f8 * a8) ** 2
            - 4 * Fraction(factorial(9), 2) * factorial(7) * (a9 * a7))
    claim = f8 ** 2 * x ** 18 * (Fraction(74647, 112) * x ** 2
                                 - Fraction(23778, 7))
    return [disc - claim]


def _id_c0_resultant():
    (q,) = ring("q")
    lhs = ((12 * q ** 2 - 8 * q + 2) * formulas.aq(q) ** 2
           - (12 * q ** 2 - 16 * q + 6) * formulas.bq(q) ** 2)
    return [lhs - (2 * q - 1) ** 3 * formulas.sextic(q) / 11664]


def _id_equal_mass_slope():
    (q,) = ring("q")
    lhs = ((3 * q - 1) ** 2 * (6 * q ** 2 - 8 * q + 3) ** 3
           - (3 * q - 2) ** 2 * (6 * q ** 2 - 4 * q + 1) ** 3)
    return [lhs - (1 - 2 * q) ** 3 * formulas.quartic(q)]


_IDENTITIES = {
    "det-frame": _id_det_frame,
    "a-dy-factor": _id_a_dy_factor,
    "a-critical-y0": _id_a_critical_y0,
    "a-dx-factor": _id_a_dx_factor,
    "h-boundary-roots": _id_h_boundary_roots,
    "h-interior-root": _id_h_interior_root,
    "eta-at-cj": _id_eta_at_cj,
    "eta-at-ce2": _id_eta_at_ce2,
    "levi-critical-curve": _id_levi_critical_curve,
    "lc-radicand": _id_lc_radicand,
    "f0-expansion": _id_f0_expansion,
    "f0-discriminant": _id_f0_discriminant,
    "c0-resultant": _id_c0_resultant,
    "equal-mass-slope": _id_equal_mass_slope,
}


@dataclass
class IdentityResult:
    name: str
    passed: bool
    elapsed: float
    difference: MultiPoly | None = None

    def __bool__(self):
        return self.passed


def identity_names():
    return list(_IDENTITIES)


def verify_identity(name):
    """Verify one named identity exactly; Fail carries the nonzero
    difference polynomial for diagnosis."""
    if name not in _IDENTITIES:
        raise KeyError(f"unknown identity {name!r}; see identity_names()")
    t0 = time.perf_counter()
    diffs = _IDENTITIES[name]()
    elapsed = time.perf_counter() - t0
    for d in diffs:
        if not d.is_zero:
            return IdentityResult(name, False, elapsed, d)
    return IdentityResult(name, True, elapsed)


def verify_all():
    """Run the full identity suite; returns a list of IdentityResult."""
    return [verify_identity(name) for name in _IDENTITIES]
