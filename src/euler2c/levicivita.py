"""Levi-Civita regularization and the potential-based convexity test.

The 2-to-1 map q = 2 v^2, p = u / conj(v) (Standard frame, Earth at
the origin) pulls p.dq back to 4 u.dv, so it is symplectic up to the
constant factor 4, and it turns the energy hypersurface H = c into the
zero set of K_c(v, u) = |v|^2 (H - c) = |u|^2 / 2 + V_c(v) with

    V_c(x, y) = -c (x^2+y^2) - mu (x^2+y^2) / sqrt(rho) - (1-mu)/2,
    rho = (2x^2 - 2y^2 - 1)^2 + 16 x^2 y^2,

removing the Earth collision; |q - 1|^2 = rho, so rho^(-1/2) is the
inverse distance to the Moon. The tests check these identities exactly.
The boundary of the regularized region is V = 0; as V_c(v) = |v|^2
(U(2 v^2) - c), it is the preimage v = +-sqrt(q/2) of the Hill boundary
U = c, read in closed form from model.hill_boundary (rim_preimage). Its
strict convexity follows the sign of

    F = V_xx V_y^2 + V_yy V_x^2 - 2 V_x V_y V_xy

along it (the potential criterion for mechanical Hamiltonians, evaluated
at the K-system energy 0). On V = 0, F = 4 |q|^3 L at v = +-sqrt(q/2),
L = 2 |q|^2 C - (q . grad U) |grad U|^2 (levi_numerator) with C the Hill
boundary's curvature numerator, so the witness search for non-convexity
on the preimage of the Earth rim (of params.swapped() at the Moon, in the
chart q = 1 - 2 conj(v)^2; model.least_on_lobe) and ``curve v0``
(F_on_rim) read F from U's partials through order two at the rim points.
This module also provides closed-form derivatives of V through order
three, as the partials table {(i, j): d_x^i d_y^j V} that
model.U_partials returns for U, so F off V = 0 is scan.level_curvature
of it; the off-center critical points (+-x0, 0) of V and the tangency
data there, where F vanishes to order three along the tangent cone, as
any level-set curvature numerator does at a critical point.
"""

from __future__ import annotations

import math

import numpy as np

from . import formulas
from .errors import CollisionPoint
from .model import U_partials, least_on_lobe
from .scan import level_curvature

__all__ = [
    "V_eval",
    "F_value",
    "tangency_check",
    "rim_preimage",
    "levi_numerator",
    "F_on_rim",
    "nonconvex_witness_levi",
]

_RAD_TOL = 1e-24
_WITNESS_TOL = 1e-8


def V_value(x, y, params, c):
    """Potential V_c alone: the order-0 entry of V_eval."""
    return V_eval(x, y, params, c)[0, 0]


def V_eval(x, y, params, c):
    """The table {(i, j): d_x^i d_y^j V} of V's closed-form value and
    partials through order three, the form of model.U_partials: Python
    floats at a scalar point, arrays of the inputs' shape otherwise.
    All entries are validated against finite differences. The radicand
    rho = |q - 1|^2 (formulas.lc_radicand) is a sum of squares, zero only
    at the preimages of the Moon; below _RAD_TOL it raises CollisionPoint,
    as U does at the Moon.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    mu = params.mu
    rho = formulas.lc_radicand(x, y)
    if np.any(rho < _RAD_TOL):
        raise CollisionPoint("V undefined at a Moon preimage")
    r32 = rho ** 1.5
    r52 = rho ** 2.5
    r72 = rho ** 3.5
    x2, y2 = x * x, y * y

    s2 = x2 + y2
    V = -c * s2 - mu * s2 / np.sqrt(rho) - 0.5 * params.earth_mass
    V_x = -2.0 * c * x + 2.0 * mu * x * (2.0 * x2 - 6.0 * y2 - 1.0) / r32
    V_y = -2.0 * c * y + 2.0 * mu * y * (6.0 * x2 - 2.0 * y2 - 1.0) / r32

    n_xx = (-24.0 * x2 ** 3 + 120.0 * x2 ** 2 * y2 + 20.0 * x2 ** 2
            + 120.0 * x2 * y2 ** 2 - 8.0 * x2 * y2 - 2.0 * x2
            - 24.0 * y2 ** 3 - 28.0 * y2 ** 2 - 10.0 * y2 - 1.0)
    n_yy = (-24.0 * x2 ** 3 + 120.0 * x2 ** 2 * y2 + 28.0 * x2 ** 2
            + 120.0 * x2 * y2 ** 2 + 8.0 * x2 * y2 - 10.0 * x2
            - 24.0 * y2 ** 3 - 20.0 * y2 ** 2 - 2.0 * y2 + 1.0)
    V_xx = -2.0 * c + 2.0 * mu * n_xx / r52
    V_yy = -2.0 * c - 2.0 * mu * n_yy / r52
    V_xy = (96.0 * mu * x * y * (x2 + y2)
            * (-2.0 * x2 + 2.0 * y2 + 1.0) / r52)

    n_xxx = (16.0 * x2 ** 4 - 128.0 * x2 ** 3 * y2 - 16.0 * x2 ** 3
             - 224.0 * x2 ** 2 * y2 ** 2 + 208.0 * x2 * y2 ** 2
             + 48.0 * x2 * y2 + 4.0 * x2 + 80.0 * y2 ** 4
             + 64.0 * y2 ** 3 - 8.0 * y2 - 1.0)
    n_xxy = (40.0 * x2 ** 4 - 112.0 * x2 ** 2 * y2 ** 2 - 28.0 * x2 ** 3
             - 64.0 * x2 * y2 ** 3 - 92.0 * x2 ** 2 * y2 - 2.0 * x2 ** 2
             + 12.0 * x2 * y2 ** 2 + 28.0 * x2 * y2 + 3.0 * x2
             + 8.0 * y2 ** 4 + 12.0 * y2 ** 3 + 6.0 * y2 ** 2 + y2)
    n_xyy = (8.0 * x2 ** 4 - 64.0 * x2 ** 3 * y2 - 12.0 * x2 ** 3
             - 112.0 * x2 ** 2 * y2 ** 2 - 12.0 * x2 ** 2 * y2
             + 6.0 * x2 ** 2 + 92.0 * x2 * y2 ** 2 + 28.0 * x2 * y2
             - x2 + 40.0 * y2 ** 4 + 28.0 * y2 ** 3 - 2.0 * y2 ** 2
             - 3.0 * y2)
    n_yyy = (80.0 * x2 ** 4 - 64.0 * x2 ** 3 - 224.0 * x2 ** 2 * y2 ** 2
             - 208.0 * x2 ** 2 * y2 - 128.0 * x2 * y2 ** 3
             + 48.0 * x2 * y2 + 8.0 * x2 + 16.0 * y2 ** 4
             + 16.0 * y2 ** 3 - 4.0 * y2 - 1.0)
    V_xxx = 48.0 * mu * x * n_xxx / r72
    V_xxy = 96.0 * mu * y * n_xxy / r72
    V_xyy = -96.0 * mu * x * n_xyy / r72
    V_yyy = -48.0 * mu * y * n_yyy / r72

    d = {(0, 0): V, (1, 0): V_x, (0, 1): V_y, (2, 0): V_xx, (1, 1): V_xy,
         (0, 2): V_yy, (3, 0): V_xxx, (2, 1): V_xxy, (1, 2): V_xyy,
         (0, 3): V_yyy}
    return {k: float(v) for k, v in d.items()} if np.ndim(V) == 0 else d


def x0_of(params, c):
    """Abscissa x0 of the off-center critical points of V_c."""
    if not (c < 0.0 and params.mu < -c):
        raise ValueError("critical points require c < 0 and mu < -c")
    return math.sqrt(0.5 * (1.0 - math.sqrt(params.mu / (-c))))


def F_value(x, y, params, c):
    """Boundary convexity function F = V_xx V_y^2 + V_yy V_x^2
    - 2 V_x V_y V_xy; positive along V = 0 iff the regularized region
    is locally convex there."""
    return level_curvature(V_eval(x, y, params, c))


def tangency_check(params):
    """Tangency data of V = 0 at the critical point (x0, 0), at the
    critical energy c = c_J.

    Returns a dict with slope_sq = -V_xx/V_yy (expected 2: the zero set
    is tangent to the lines y = +-sqrt(2)(x - x0)), together with the
    evaluated and closed-form second derivatives
    V_xx(x0,0) = -8c(1 - sqrt(-c/mu)), V_yy(x0,0) = 4c(1 - sqrt(-c/mu)),
    and V3_closed = 48 mu x0 (10 x0^2 - 1)/(2 x0^2 - 1)^4, the third
    derivative of t -> V(t, sqrt(2)(t - x0)) at t = x0, whose sign flips
    at mu = 16/17, where x0^2 = 1/10.
    """
    c = params.c_jacobi
    x0 = x0_of(params, c)
    d = V_eval(x0, 0.0, params, c)
    s = math.sqrt(-c / params.mu)
    return {
        "x0": x0,
        "slope_sq": -d[2, 0] / d[0, 2],
        "V_xx": d[2, 0],
        "V_xx_closed": -8.0 * c * (1.0 - s),
        "V_yy": d[0, 2],
        "V_yy_closed": 4.0 * c * (1.0 - s),
        "V3_closed": (48.0 * params.mu * x0 * (10.0 * x0 ** 2 - 1.0)
                      / (2.0 * x0 ** 2 - 1.0) ** 4),
    }


def rim_preimage(q, unwind=False):
    """The principal roots v = sqrt(q/2) of the points q of a Hill rim
    (an (n, 2) array of model.hill_boundary) as a complex array: points
    of V = 0, whose other half is -v. With unwind, the points past polar
    angle pi take the other root, so that along a rim that winds around
    0 (the Earth's) the half-angle runs on from 0 in one arc."""
    v = np.sqrt(0.5 * (q[:, 0] + 1j * q[:, 1]))
    if unwind:
        v[q[:, 1] < 0.0] *= -1.0
    return v


def levi_numerator(q1, q2, d):
    """L = 2 |q|^2 C - (q . grad U) |grad U|^2 at the Standard-frame
    position q, C = scan.level_curvature(d), from the table d of U's
    partials there through order two. It does not depend on c, and on V
    = 0, F = 4 |q|^3 L at v = +-sqrt(q/2). Operators and integer literals
    only, so it also runs on exactpoly.MultiPoly tables."""
    u1, u2 = d[1, 0], d[0, 1]
    return (2 * (q1 ** 2 + q2 ** 2) * level_curvature(d)
            - (q1 * u1 + q2 * u2) * (u1 ** 2 + u2 ** 2))


def _rim_F(q1, q2, d):
    """F = 4 |q|^3 L at +-sqrt(q/2) of a rim point q, from U's table d."""
    return 4.0 * np.hypot(q1, q2) ** 3 * levi_numerator(q1, q2, d)


def F_on_rim(q, params):
    """F = 4 |q|^3 L at +-sqrt(q/2) of the points q of a Hill rim of params
    (model.hill_boundary), from one model.U_partials call."""
    q1, q2 = q[:, 0], q[:, 1]
    return _rim_F(q1, q2, U_partials((q1, q2), params, 2))


def nonconvex_witness_levi(params, c=None):
    """Search for a non-convexity witness on the Earth loop of V = 0.

    F = 4 |q|^3 L is read on the rim of model.hill_region alone
    (model.least_on_lobe with no grid): the q2 >= 0 half, elliptic angle
    in [0, pi], of hill_boundary's 1024 points of the Earth rim U = c,
    whose principal roots (rim_preimage) have the other half's as
    conjugates; F is even in y and F(-v) = F(v), so they cover the loop.
    Returns (witness, read, least): the root of least F as (x, y, F) if
    that value is below -_WITNESS_TOL, else None; the number of points
    read; and the least F read.
    """
    if c is None:
        c = params.c_jacobi
    least, q, read = least_on_lobe(params, c, _rim_F)
    if not least < -_WITNESS_TOL:
        return None, read, least
    v = rim_preimage(np.array([q]))[0]
    return (float(v.real), float(v.imag), least), read, least
