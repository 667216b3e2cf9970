"""The unregularized two-fixed-centers problem.

The potential U(q) = -(1-mu)/|q - E| - mu/|q - M| of the Hamiltonian
H(q, p) = |p|^2/2 + U(q), its derivative table, and the boundaries of
the Hill regions in closed form, read from the rim of the elliptic
chart. The unique interior critical point (l, 0) of U, the critical
Jacobi energy c_J = -1 - 2*sqrt(mu(1-mu)), ProblemParams with its mass
swap and the lobe names shared by all other modules live in the
NumPy-free ``ladder`` and are re-exported here.

Positions are in the Standard frame, with the primaries at E = (0, 0)
and M = (1, 0). The elliptic chart of ``scan`` and ``elliptic`` is
centered instead, with the primaries at (-1/2, 0) and (1/2, 0).
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from .errors import CollisionPoint
from .ladder import HillComponent, ProblemParams

__all__ = [
    "HillComponent",
    "ProblemParams",
    "potential_U",
    "U_derivs",
    "hill_boundary",
]

_COLLISION_TOL = 1e-13


def _distances(q):
    """The coordinates of q as arrays and its distances r1, r2 to the
    Earth and the Moon; the one place that applies the collision rule."""
    q1 = np.asarray(q[0], dtype=float)
    q2 = np.asarray(q[1], dtype=float)
    r1 = np.hypot(q1, q2)
    r2 = np.hypot(q1 - 1.0, q2)
    if np.any(r1 < _COLLISION_TOL) or np.any(r2 < _COLLISION_TOL):
        raise CollisionPoint("position coincides with a primary")
    return q1, q2, r1, r2


def potential_U(q, params):
    """Potential U(q) = -(1-mu)/|q - E| - mu/|q - M|; always negative.

    Accepts scalar pairs or numpy-array pairs.
    """
    _, _, r1, r2 = _distances(q)
    out = -params.earth_mass / r1 - params.mu / r2
    return float(out) if np.isscalar(out) or out.ndim == 0 else out


@cache
def _inverse_r_table(order):
    """The integer polynomials P_alpha of d^alpha (1/r) = P_alpha(d) /
    r^(2|alpha|+1), d = q - primary, from P_0 = 1 and P_{alpha+e_i} =
    r^2 dP_alpha/dd_i - (2|alpha|+1) d_i P_alpha; as (alpha, ((coeff,
    (e1, e2)), ...)) pairs by increasing |alpha| <= order. Imports
    exactpoly on its first call, so only the code that differentiates U
    loads it."""
    from .exactpoly import ring
    d1, d2 = ring("d1", "d2")
    r2 = d1 * d1 + d2 * d2
    table = {(0, 0): d1 ** 0}
    for k in range(order):
        for i in range(k, -1, -1):
            p = table[i, k - i]
            table[i + 1, k - i] = r2 * p.diff("d1") - (2 * k + 1) * d1 * p
        p = table[0, k]
        table[0, k + 1] = r2 * p.diff("d2") - (2 * k + 1) * d2 * p
    return tuple((alpha, tuple((int(c), e) for e, c in p.terms.items()))
                 for alpha, p in table.items())


def _U_partials(q, params, order):
    """{(i, j): d_1^i d_2^j U} for i + j <= order at a Standard-frame
    position (Python floats for a scalar one): a primary of mass m adds
    -m P_alpha(d) / r^(2|alpha|+1) = -m P_alpha(d / r^2) / r, P_alpha
    homogeneous (_inverse_r_table), so all alpha share the monomials."""
    q1, q2, r1, r2 = _distances(q)
    if np.ndim(r1) == 0:
        q1, q2, r1, r2 = float(q1), float(q2), float(r1), float(r2)
    out = {}
    for mass, d1, r in ((params.earth_mass, q1, r1),
                        (params.mu, q1 - 1.0, r2)):
        w = 1.0 / (r * r)
        x, y = d1 * w, q2 * w
        mono = {(0, 0): -mass / r}
        for k in range(1, order + 1):
            mono[k, 0] = mono[k - 1, 0] * x
            for i in range(k):
                mono[i, k - i] = mono[i, k - i - 1] * y
        for alpha, terms in _inverse_r_table(order):
            (c, e), *rest = terms
            v = mono[e] if c == 1 else c * mono[e]
            for c, e in rest:
                v = v + c * mono[e]
            out[alpha] = out[alpha] + v if alpha in out else v
    return out


def U_derivs(q, params):
    """The table {(i, j): d_1^i d_2^j U} through order three at a
    Standard-frame position (_U_partials): Python floats for a scalar
    one, arrays otherwise; levicivita.V_eval returns V's in this form."""
    return _U_partials(q, params, 3)


def hill_boundary(params, c, component, n=256):
    """Sample n points of the Hill-region boundary {U = c} of one bounded
    component as an (n, 2) array, in closed form: no iteration and no
    tolerance. The Earth's run counterclockwise from polar angle 0; the
    Moon's are the swapped problem's Earth points mirrored by q1 -> 1 - q1,
    clockwise from polar angle pi around the Moon.

    The boundary is the rim R^2 = 0 (formulas.R2) of the elliptic chart,
    in offsets from the Earth. x = cosh(lam) = 1 + u and y = cos(nu) =
    -1 + v give R^2 = c u^2 + 2(1 + c) u + K(v), with K(v) = -c (v_E -
    v)(v_2 - v) and v_E, v_2 = ((m - c) -+ s)/(-c), where m = 1 - 2 mu
    and s = ProblemParams.discriminant_root(c), zero exactly at c = c_J,
    where the point at v_E is (l, 0). The points are sampled in the
    elliptic angle, v = v_E cos^2(phi/2) for phi_k = 2 pi k / n, each on
    the positive root u, and are then q1 = (v - u + uv)/2 and q2 =
    +-sqrt(u (2 + u) v (2 - v))/2 with the sign of sin(phi). v_E = 4 (1 -
    mu)/((m - c) + s) and u = K / (-(1 + c) + sqrt((1 + c)^2 - cK)) are
    free of cancellation. Requires a finite c <= c_J.
    """
    if not -math.inf < c <= params.c_jacobi:
        raise ValueError("hill_boundary requires a finite c <= c_jacobi")
    if n < 8:
        raise ValueError("need n >= 8 boundary samples")
    moon = HillComponent(component) is HillComponent.MOON
    lobe = params.swapped() if moon else params
    s = lobe.discriminant_root(c)
    v_E = 4.0 * lobe.earth_mass / ((lobe.m - c) + s)
    phi = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    v = v_E * np.cos(0.5 * phi) ** 2
    # K(v) with w = v_E - v, exact or without cancellation, and v_2 - v
    # = 2s/(-c) + w: no cancellation at c_J, where v_2 = v_E
    w = v_E - v
    K = w * (2.0 * s - c * w)
    u = K / (-(1.0 + c) + np.sqrt((1.0 + c) ** 2 - c * K))
    q1 = 0.5 * (v - u + u * v)
    q2 = np.copysign(0.5 * np.sqrt(u * (2.0 + u) * v * (2.0 - v)),
                     np.sin(phi))
    return np.stack([1.0 - q1 if moon else q1, q2], axis=-1)
