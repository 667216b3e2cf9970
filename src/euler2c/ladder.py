"""Mass-ratio constants and the threshold ladder, without NumPy.

The problem's parameters (ProblemParams: the two masses, m, the
critical abscissa l, the critical Jacobi energy c_J and the mass swap),
the lobe names shared by every module, the threshold ladder c_E'' <= c0
<= c_J with the theory verdict for one regularized Hill component, and
the ranges of the boundary (levi) and fiberwise theorems. Everything
here is Python floats plus one exact Fraction sign, so the
``constants`` and ``curve c0curve`` commands and every theory verdict
run without importing NumPy. ``model`` and ``elliptic`` re-export these
names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .errors import EnergyAboveCritical

__all__ = [
    "HillComponent",
    "ProblemParams",
    "Verdict",
    "Thresholds",
    "roots_ab",
    "eta",
    "thresholds",
    "convexity_verdict",
    "theorem_verdict",
]


class HillComponent(Enum):
    EARTH = "earth"
    MOON = "moon"


class Verdict(Enum):
    CONVEX = "convex"
    NONCONVEX = "nonconvex"


@dataclass(frozen=True)
class ProblemParams:
    """Mass mu of the second (Moon) primary, with derived constants:
    earth_mass = 1 - mu, m = 1 - 2 mu, and from the two masses the
    critical-point abscissa l (Standard frame) and the critical Jacobi
    energy c_jacobi. swapped() exchanges the masses: its Earth lobe is this
    problem's Moon lobe mirrored by q1 -> 1 - q1, so every lobe routine
    computes the Earth lobe only."""

    mu: float
    earth_mass: float = field(init=False)
    m: float = field(init=False)
    l: float = field(init=False)
    c_jacobi: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.mu < 1.0:
            raise ValueError(f"mu must lie in (0, 1), got {self.mu}")
        self._derive(self.mu, 1.0 - self.mu, 1.0 - 2.0 * self.mu)

    def _derive(self, mu, earth_mass, m):
        # l is free of cancellation, and exactly 1/2 at mu = 1/2
        a = math.sqrt(earth_mass)
        self.__dict__.update(
            mu=mu, earth_mass=earth_mass, m=m, l=a / (a + math.sqrt(mu)),
            c_jacobi=-1.0 - 2.0 * math.sqrt(mu * earth_mass))

    def swapped(self):
        """The problem with the two masses exchanged bit for bit and m
        negated; never 1 - (1 - mu). c_jacobi is unchanged bit for bit."""
        other = object.__new__(ProblemParams)
        other._derive(self.earth_mass, self.mu, -self.m)
        return other

    def discriminant_root(self, c):
        """s = sqrt(c^2 + 2c + m^2) = sqrt((c - c_J)(c - c_J')), c_J' =
        -1 + 2 sqrt(mu (1 - mu)), of the rims R^2 = 0 on the axis; zero
        exactly at c = c_J, free of cancellation. Requires c <= c_J."""
        return math.sqrt((c - self.c_jacobi) * (
            c + 1.0 - 2.0 * math.sqrt(self.mu * self.earth_mass)))


def roots_ab(params, c):
    """The two real roots of f(y) = 2cy^2 + my - c, m = 1 - 2 mu, with
    -1 < a < 0 < b < 1 for mu <= 1/2 (-b and -a of the swapped
    problem for mu > 1/2)."""
    m = params.m
    disc = math.sqrt(m * m + 8.0 * c * c)
    return (-m + disc) / (4.0 * c), (-m - disc) / (4.0 * c)


def eta(c, mu):
    """The threshold quartic in the energy; its only root below -1 is
    c0(mu). Depends on mu only through m^2 = (1-2mu)^2; Python floats,
    arrays, or Fractions for an exact value."""
    m2 = (1 - 2 * mu) ** 2
    return (c ** 4 + 2 * c ** 3 + 9 * m2 * c ** 2 / 8 + m2 * c / 4
            + 5 * m2 * m2 / 256)


@dataclass(frozen=True)
class Thresholds:
    """The energy thresholds, c_E <= c_M < c_J and c_E_pp <= c0 <= c_J: c_E
    and c_M solve the radical boundary equations, c_E_pp is closed-form,
    and c0 is the convexity threshold for the heavier-primary component.
    cJ_minus_c0 keeps the gap c_J - c0 to full relative precision; within
    about 1.3e-4 of mu = 1/2, c0 rounds to c_J."""

    c_E: float
    c_M: float
    c_E_pp: float
    c0: float
    cJ_minus_c0: float


def _newton(f, x):
    """Newton's iteration for f(x) -> (value, slope), started on the side
    of the root from which it converges monotonically."""
    for _ in range(64):
        v, d = f(x)
        step = v / d
        x -= step
        if abs(step) <= 1e-15 * abs(x):
            break
    return x


def thresholds(params):
    """The threshold ladder for the given mass ratio.

    Every member depends on mu only through the lighter mass, the same
    bits for the swapped problem; the c_E/c_M labels refer to mu <= 1/2.
    With m = |1 - 2 mu|, squaring the boundary equations leaves
    c (c^3 + 8c^2 + (16 - 3m^2) c + 6m^2) = 0. With c = -4 + m (3 + t)
    and eps = 1 - m = 2 min(mu, 1 - mu), exact in binary64, the cubic
    is m t^3 + (9m - 4) t^2 - 24 eps t - 18 eps. c_E and c_M are its
    roots near -3 -+ 3/sqrt(2) (both tend to -4 as mu -> 1/2); the third
    lies above c_J and meets c_M like -+sqrt(3.6 eps) as mu -> 0.

    c0 = c_J - delta. With s = sqrt(mu (1 - mu)), c_J = -1 - 2s and the
    derivatives of eta at c_J (identity eta-at-cj), eta(c_J - delta) =
    e0 - e1 delta + e2 delta^2 - e3 delta^3 + delta^4 with the e_k below.
    It is convex and increasing for delta >= 0, so Newton converges
    monotonically from e0/e1 or, where nearer, from c_J - c_E_pp (eta > 0
    at c_E_pp).
    """
    light = min(params.mu, params.earth_mass)
    cj, eps, m = params.c_jacobi, 2.0 * light, abs(params.m)
    k2, r = 5.0 - 9.0 * eps, 3.0 / math.sqrt(2.0)

    def cubic(t):
        return (((m * t + k2) * t - 24.0 * eps) * t - 18.0 * eps,
                (3.0 * m * t + 2.0 * k2) * t - 24.0 * eps)

    c_e, c_m = (-1.0 + (m * _newton(cubic, t) - 3.0 * eps) for t in
                (-3.0 - r, -min(math.sqrt(3.6 * eps), 3.0 - r)))

    s = math.sqrt(params.mu * params.earth_mass)
    e0 = -27.0 / 256.0 * m ** 4
    e1 = -s * ((14.0 * s + 16.0) * s + 4.5)
    e2 = ((39.0 * s + 24.0) * s + 2.25) / 2.0
    e3 = -2.0 - 8.0 * s

    def gap(d):
        return ((((d - e3) * d + e2) * d - e1) * d + e0,
                ((4.0 * d - 3.0 * e3) * d + 2.0 * e2) * d - e1)

    c_e_pp = -1.0 - math.sqrt(-28.0 * light * light + 28.0 * light
                              + 9.0) / 4.0
    delta = _newton(gap, min(e0 / e1, cj - c_e_pp))
    return Thresholds(c_e, c_m, c_e_pp, cj - delta, delta)


def convexity_verdict(params, c, component):
    """Theory verdict for one regularized Hill component.

    The Moon's is the Earth lobe of params.swapped(). The lobe of the
    lighter primary bounds a convex region for every c < c_J; the lobe of
    the heavier primary does iff c < c0(mu). At mu = 1/2 both are convex.
    For m^2 = (1-2mu)^2 in (0, 1] the coefficients of eta(-1 - u) = u^4
    + 2u^3 + (9/8) m^2 u^2 + 2(m^2 - 1) u + (5/256) m^4 + (7/8) m^2 - 1
    change sign once, so c0 is the only root of eta below -1 >= c_J: for
    c < c_J the heavier lobe is convex iff eta(c) > 0, a sign taken
    exactly in rationals from c and the given mu for either lobe.
    """
    if c >= params.c_jacobi:
        raise EnergyAboveCritical(
            f"c = {c} is not below c_J = {params.c_jacobi}")
    lobe = (params.swapped() if HillComponent(component) is HillComponent.MOON
            else params)
    # m > 0: the lobe's own primary, the Earth, is the heavier one
    if lobe.m <= 0.0 or eta(Fraction(c), Fraction(params.mu)) > 0:
        return Verdict.CONVEX
    return Verdict.NONCONVEX


def theorem_verdict(target, params, c):
    """Proved verdict of the boundary theorem (target "levi") or the
    fiberwise theorem ("fiberwise") for the Earth lobe where it covers
    (mu, c), c == c_J exactly being critical; None where it is silent."""
    critical = c == params.c_jacobi
    if target == "levi":
        # boundary nonconvexity at the critical energy, regularized at the
        # Earth, for a Moon mass below the inflection threshold 16/17
        if critical and params.mu < 16.0 / 17.0:
            return Verdict.NONCONVEX
        return None
    if target == "fiberwise":
        if params.m == 0.0 and c <= params.c_jacobi:
            return Verdict.CONVEX
        # the witness lies next to the vertex on the heavier lobe
        if critical and params.m > 0.0:
            return Verdict.NONCONVEX
        return None
    raise ValueError(target)
