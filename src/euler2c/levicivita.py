"""Levi-Civita regularization and the potential-based convexity test.

The 2-to-1 symplectic map q = 2 v^2, p = u / conj(v) (Standard frame,
Earth at the origin) turns the energy hypersurface H = c into the zero
set of K_c(v, u) = |u|^2 / 2 + V_c(v) with

    V_c(x, y) = -c (x^2+y^2) - mu (x^2+y^2) / sqrt(rho) - (1-mu)/2,
    rho = 4x^4 + 8x^2y^2 - 4x^2 + 4y^4 + 4y^2 + 1,

removing the Earth collision. The boundary of the regularized region is
V = 0; strict convexity is governed by the sign of

    F = V_xx V_y^2 + V_yy V_x^2 - 2 V_x V_y V_xy

along it (the potential criterion for mechanical Hamiltonians, evaluated
at the K-system energy 0). This module provides closed-form derivatives
of V through order three, the three critical points of V, the tangency
data at (+-x0, 0), the directional derivative lemmas along the tangent
cone, and a witness search for non-convexity near the critical energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MoonCollision, OutsideRegion
from .model import CartesianPhasePoint, Frame
from .scan import level_curvature, level_curvature_grad, trace_implicit

__all__ = [
    "LCPoint",
    "LCPotentialEval",
    "K_value",
    "radicand",
    "V_eval",
    "V_with_grad",
    "critical_points_V",
    "F_value",
    "F_with_grad",
    "salomao_lhs",
    "tilde_derivatives",
    "tangency_check",
    "nonconvex_witness_levi",
]

_RAD_TOL = 1e-24


@dataclass(frozen=True)
class LCPoint:
    """Levi-Civita phase point: position v and conjugate variable u,
    each a real pair standing for a complex number."""

    v: tuple
    u: tuple


@dataclass(frozen=True)
class LCPotentialEval:
    """Value and partial derivatives through order three of V at a point."""

    V: float
    V_x: float
    V_y: float
    V_xx: float
    V_xy: float
    V_yy: float
    V_xxx: float
    V_xxy: float
    V_xyy: float
    V_yyy: float


def radicand(x, y):
    """rho(x, y) = |2 v^2 - 1|^2 expanded; equals
    (2x^2 - 2y^2 - 1)^2 + 16 x^2 y^2, hence nonnegative, vanishing only
    at the Moon preimages."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = (4.0 * x ** 4 + 8.0 * x ** 2 * y ** 2 - 4.0 * x ** 2
         + 4.0 * y ** 4 + 4.0 * y ** 2 + 1.0)
    return float(r) if np.ndim(r) == 0 else r


def _v_value(x, y, rho, mu, c):
    s2 = x * x + y * y
    return -c * s2 - mu * s2 / np.sqrt(rho) - (1.0 - mu) / 2.0


def V_value(x, y, params, c):
    """Potential V_c alone (vectorized); see V_eval for derivatives."""
    rho = radicand(x, y)
    if np.any(np.asarray(rho) < _RAD_TOL):
        raise MoonCollision("V undefined at a Moon preimage")
    v = _v_value(np.asarray(x, dtype=float), np.asarray(y, dtype=float),
                 rho, params.mu, c)
    return float(v) if np.ndim(v) == 0 else v


def K_value(pt: LCPoint, params, c):
    """Regularized Hamiltonian K_c(v, u) = |u|^2 / 2 + V_c(v)."""
    x, y = pt.v
    u1, u2 = pt.u
    return 0.5 * (u1 * u1 + u2 * u2) + V_value(x, y, params, c)


def lc_to_cartesian(pt: LCPoint):
    """Standard-frame phase point of an LC point (q = 2 v^2, p = u/conj(v));
    v must be nonzero."""
    x, y = pt.v
    v = complex(x, y)
    if abs(v) < 1e-15:
        raise ZeroDivisionError("p = u / conj(v) undefined at v = 0")
    q = 2.0 * v * v
    p = complex(*pt.u) / v.conjugate()
    return CartesianPhasePoint((q.real, q.imag), (p.real, p.imag),
                               Frame.STANDARD)


def V_eval(x, y, params, c):
    """Closed-form value and derivatives of V through order three.

    All entries are validated against finite differences; vectorized over
    numpy inputs (returns arrays inside the dataclass in that case).
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

    V = _v_value(x, y, rho, mu, c)
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

    if np.ndim(V) == 0:
        return LCPotentialEval(float(V), float(V_x), float(V_y),
                               float(V_xx), float(V_xy), float(V_yy),
                               float(V_xxx), float(V_xxy), float(V_xyy),
                               float(V_yyy))
    return LCPotentialEval(V, V_x, V_y, V_xx, V_xy, V_yy,
                           V_xxx, V_xxy, V_xyy, V_yyy)


def V_with_grad(params, c):
    """(x, y) -> (V, V_x, V_y) from one V_eval call, to trace V = 0."""
    def f(x, y):
        e = V_eval(x, y, params, c)
        return e.V, e.V_x, e.V_y
    return f


def x0_of(params, c):
    """Abscissa x0 of the off-center critical points of V_c."""
    if not (c < 0.0 and params.mu < -c):
        raise ValueError("critical points require c < 0 and mu < -c")
    return math.sqrt(0.5 * (1.0 - math.sqrt(params.mu / (-c))))


def critical_points_V(params, c):
    """The three critical points of V_c: the origin and (+-x0, 0)."""
    x0 = x0_of(params, c)
    return ((0.0, 0.0), (x0, 0.0), (-x0, 0.0))


def F_value(x, y, params, c):
    """Boundary convexity function F = V_xx V_y^2 + V_yy V_x^2
    - 2 V_x V_y V_xy; positive along V = 0 iff the regularized region
    is locally convex there."""
    e = V_eval(x, y, params, c)
    f = level_curvature(e.V_x, e.V_y, e.V_xx, e.V_xy, e.V_yy)
    return float(f) if np.ndim(f) == 0 else f


def F_with_grad(params, c):
    """(x, y) -> (F, F_x, F_y) from one V_eval call, to trace F = 0."""
    def f(x, y):
        e = V_eval(x, y, params, c)
        return (level_curvature(e.V_x, e.V_y, e.V_xx, e.V_xy, e.V_yy),
                *level_curvature_grad(e.V_x, e.V_y, e.V_xx, e.V_xy, e.V_yy,
                                      e.V_xxx, e.V_xxy, e.V_xyy, e.V_yyy))
    return f


def salomao_lhs(x, y, params, c, tol=1e-9):
    """Full convexity criterion 2 (0 - V)(V_xx V_yy - V_xy^2) + F for
    the K-system at its zero energy; reduces to F on the boundary V = 0.

    Raises OutsideRegion when V > tol (point outside the projected
    region of K_c^{-1}(0)).
    """
    e = V_eval(x, y, params, c)
    if np.any(np.asarray(e.V) > tol):
        raise OutsideRegion("V > 0: point outside the projected region")
    f = level_curvature(e.V_x, e.V_y, e.V_xx, e.V_xy, e.V_yy)
    out = 2.0 * (0.0 - e.V) * (e.V_xx * e.V_yy - e.V_xy ** 2) + f
    return float(out) if np.ndim(out) == 0 else out


def tangency_check(params, c=None):
    """Tangency data of V = 0 at the critical point (x0, 0).

    Returns a dict with slope_sq = -V_xx/V_yy (expected 2: the zero set
    is tangent to the lines y = +-sqrt(2)(x - x0)), together with the
    evaluated and closed-form second derivatives
    V_xx(x0,0) = -8c(1 - sqrt(-c/mu)), V_yy(x0,0) = 4c(1 - sqrt(-c/mu)).
    """
    if c is None:
        c = params.c_jacobi
    x0 = x0_of(params, c)
    e = V_eval(x0, 0.0, params, c)
    s = math.sqrt(-c / params.mu)
    return {
        "x0": x0,
        "slope_sq": -e.V_xx / e.V_yy,
        "V_xx": e.V_xx,
        "V_xx_closed": -8.0 * c * (1.0 - s),
        "V_yy": e.V_yy,
        "V_yy_closed": 4.0 * c * (1.0 - s),
    }


def tilde_derivatives(params, c=None):
    """Directional derivatives along the tangent-cone line at (x0, 0).

    With t -> (t, sqrt(2)(t - x0)): returns the third derivative of
    Vtilde(t) = V(t, sqrt(2)(t-x0)) in closed form,
    48 mu x0 (10 x0^2 - 1)/(2 x0^2 - 1)^4, plus the first three
    derivatives of Ftilde(t) = F(t, sqrt(2)(t-x0)) at t = x0, which all
    vanish there.

    Because Ftilde has fourth-order contact with zero, direct finite
    differencing of its third derivative cannot certify a 1e-5 bound in
    binary64; the F1/F2/F3 entries therefore use the reduced closed
    forms valid at a critical point of V on the symmetry axis (where
    V_x = V_y = V_xy = 0):

        F~'   = V_x * (2 V_yy dV_x + V_x (V_xyy + sqrt(2) V_yyy))
        F~''  = 2 V_xx V_yy (V_xx + 2 V_yy)
        F~''' = 6 (V_xx + 2 V_yy)(V_xxx V_yy + V_xyy V_xx)

    with dV_x = V_xx + sqrt(2) V_xy; the factor V_xx + 2 V_yy vanishes
    by the tangency identities. The finite-difference cross-checks of
    these closed forms live in the tests.
    """
    if c is None:
        c = params.c_jacobi
    x0 = x0_of(params, c)
    s2 = math.sqrt(2.0)
    v3_closed = (48.0 * params.mu * x0 * (10.0 * x0 ** 2 - 1.0)
                 / (2.0 * x0 ** 2 - 1.0) ** 4)
    e = V_eval(x0, 0.0, params, c)
    dvx = e.V_xx + s2 * e.V_xy
    f1 = e.V_x * (2.0 * e.V_yy * dvx + e.V_x * (e.V_xyy + s2 * e.V_yyy))
    f2 = 2.0 * e.V_xx * e.V_yy * (e.V_xx + 2.0 * e.V_yy)
    f3 = 6.0 * ((e.V_xx + 2.0 * e.V_yy)
                * (e.V_xxx * e.V_yy + e.V_xyy * e.V_xx))
    return {
        "V3_closed": v3_closed,
        "F1": f1,
        "F2": f2,
        "F3": f3,
    }


def nonconvex_witness_levi(params, c=None, tol=1e-8, step=1e-3,
                           window=None):
    """Search for a non-convexity witness on V^{-1}(0) just below x0.

    Traces the boundary curve from a seed on the tangent cone at
    (x0 - 1e-4, 1e-4 sqrt(2)) toward decreasing x and returns the first
    point with F < -tol as (x, y, F), or None if no sign violation is
    met within the window x in (x0 - window, x0).
    """
    if c is None:
        c = params.c_jacobi
    x0 = x0_of(params, c)
    if window is None:
        window = 0.1 * x0
    seed = (x0 - 1e-4, 1e-4 * math.sqrt(2.0))
    found = []

    def stop(x, y):
        if x < x0 - window:
            return True
        fv = F_value(x, y, params, c)
        if fv < -tol:
            found.append((x, y, fv))
            return True
        return False

    trace_implicit(V_with_grad(params, c), seed, step=step,
                   max_len=4.0 * window, direction=(-1.0, math.sqrt(2.0)),
                   stop=stop)
    return found[0] if found else None
