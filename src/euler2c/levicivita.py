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
at the K-system energy 0). This module provides closed-form derivatives
of V through order three, as the partials table {(i, j): d_x^i d_y^j V}
that model.U_derivs returns for U, so F is scan.level_curvature of it;
the off-center critical points (+-x0, 0) of V, the tangency data there,
the directional derivative lemmas along the tangent cone, and a witness
search for non-convexity, F read on the preimage of the Earth rim (of
params.swapped() at the Moon, in the chart q = 1 - 2 conj(v)^2).
"""

from __future__ import annotations

import math

import numpy as np

from . import formulas
from .errors import MoonCollision
from .model import HillComponent, hill_boundary
from .scan import (cone_contact, cone_contact_size, level_curvature,
                   level_curvature_grad)

__all__ = [
    "radicand",
    "V_eval",
    "F_value",
    "F_with_grad",
    "tilde_derivatives",
    "tangency_check",
    "rim_preimage",
    "nonconvex_witness_levi",
]

_RAD_TOL = 1e-24
_WITNESS_TOL = 1e-8
# the witness search reads F at the q2 >= 0 half of this many points of
# the Earth rim
_N_RIM = 1024


def radicand(x, y):
    """rho(x, y) = |2 v^2 - 1|^2 = |q - 1|^2 (formulas.lc_radicand), a sum
    of squares: nonnegative, zero only at the Moon preimages, and as
    accurate relative to itself as q - 1 next to them."""
    r = formulas.lc_radicand(np.asarray(x, dtype=float),
                             np.asarray(y, dtype=float))
    return float(r) if np.ndim(r) == 0 else r


def _v_value(x, y, rho, params, c):
    s2 = x * x + y * y
    return -c * s2 - params.mu * s2 / np.sqrt(rho) - 0.5 * params.earth_mass


def V_value(x, y, params, c):
    """Potential V_c alone (vectorized); see V_eval for derivatives."""
    rho = radicand(x, y)
    if np.any(np.asarray(rho) < _RAD_TOL):
        raise MoonCollision("V undefined at a Moon preimage")
    v = _v_value(np.asarray(x, dtype=float), np.asarray(y, dtype=float),
                 rho, params, c)
    return float(v) if np.ndim(v) == 0 else v


def V_eval(x, y, params, c):
    """The table {(i, j): d_x^i d_y^j V} of V's closed-form value and
    partials through order three, the form of model.U_derivs: Python
    floats at a scalar point, arrays of the inputs' shape otherwise.
    All entries are validated against finite differences.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    mu = params.mu
    rho = radicand(x, y)
    if np.any(rho < _RAD_TOL):
        raise MoonCollision("V undefined at a Moon preimage")
    r32 = rho ** 1.5
    r52 = rho ** 2.5
    r72 = rho ** 3.5
    x2, y2 = x * x, y * y

    V = _v_value(x, y, rho, params, c)
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


def F_with_grad(params, c):
    """(x, y) -> (F, F_x, F_y) from one V_eval call, to trace F = 0."""
    def f(x, y):
        d = V_eval(x, y, params, c)
        return level_curvature(d), *level_curvature_grad(d)
    return f


def tangency_check(params):
    """Tangency data of V = 0 at the critical point (x0, 0), at the
    critical energy c = c_J.

    Returns a dict with slope_sq = -V_xx/V_yy (expected 2: the zero set
    is tangent to the lines y = +-sqrt(2)(x - x0)), together with the
    evaluated and closed-form second derivatives
    V_xx(x0,0) = -8c(1 - sqrt(-c/mu)), V_yy(x0,0) = 4c(1 - sqrt(-c/mu)).
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
    }


def tilde_derivatives(params):
    """Directional derivatives along the tangent-cone line at (x0, 0),
    at the critical energy c = c_J.

    With t -> (t, sqrt(2)(t - x0)): returns the third derivative of
    Vtilde(t) = V(t, sqrt(2)(t-x0)) in closed form,
    48 mu x0 (10 x0^2 - 1)/(2 x0^2 - 1)^4, plus the first three
    derivatives F1, F2, F3 of Ftilde(t) = F(t, sqrt(2)(t-x0)) at t = x0,
    which all vanish there. Because Ftilde has fourth-order contact with
    zero, finite differences cannot resolve them in binary64; they are
    scan.cone_contact of the order-three table of V at (x0, 0), exact to
    degree three since V_x and V_y vanish there. Each F_k is divided by
    the size of the terms that cancel in it (scan.cone_contact_size),
    where every partial of V counts as the sizes of its two terms, the
    Kepler term of -c |v|^2 and the Moon's term; they cancel in V_x.
    """
    c = params.c_jacobi
    x0 = x0_of(params, c)
    v3_closed = (48.0 * params.mu * x0 * (10.0 * x0 ** 2 - 1.0)
                 / (2.0 * x0 ** 2 - 1.0) ** 4)
    d = V_eval(x0, 0.0, params, c)
    kepler = {(1, 0): -2.0 * c * x0, (2, 0): -2.0 * c, (0, 2): -2.0 * c}
    size = {a: abs(kepler.get(a, 0.0)) + abs(v - kepler.get(a, 0.0))
            for a, v in d.items()}
    f = cone_contact(d, 3)
    scale = cone_contact_size(size, 3)
    return {"V3_closed": v3_closed} | {f"F{k}": f[k] / scale[k]
                                       for k in (1, 2, 3)}


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


def nonconvex_witness_levi(params, c=None):
    """Search for a non-convexity witness on the Earth loop of V = 0.

    F is read at the principal roots of the q2 >= 0 half (elliptic angle
    in [0, pi]) of _N_RIM points of the Earth rim U = c (rim_preimage).
    The roots of the other half are the conjugates of these, F is even
    in y and F(-v) = F(v), so they cover the loop. Returns (witness,
    read, least): the point of least F as (x, y, F) if that value is
    below -_WITNESS_TOL, else None; the number of points read; and the
    least F read.
    """
    if c is None:
        c = params.c_jacobi
    q = hill_boundary(params, c, HillComponent.EARTH, _N_RIM)
    v = rim_preimage(q[:_N_RIM // 2 + 1])
    F = F_value(v.real, v.imag, params, c)
    i = int(np.argmin(F))
    least = float(F[i])
    found = ((float(v[i].real), float(v[i].imag), least)
             if least < -_WITNESS_TOL else None)
    return found, F.size, least
