"""The unregularized two-fixed-centers problem.

The potential U(q) = -(1-mu)/|q - E| - mu/|q - M| of the Hamiltonian
H(q, p) = |p|^2/2 + U(q), its derivative table, and the boundaries of
the Hill regions. The unique interior critical point (l, 0) of U, the
critical Jacobi energy c_J = -1 - 2*sqrt(mu(1-mu)), ProblemParams and
the lobe names shared by all other modules live in the NumPy-free
``ladder`` and are re-exported here.

Positions are in the Standard frame, with the primaries at E = (0, 0)
and M = (1, 0). The elliptic chart of ``scan`` and ``elliptic`` is
centered instead, with the primaries at (-1/2, 0) and (1/2, 0).
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .errors import CollisionPoint, TraceFailure
from .ladder import HillComponent, ProblemParams, jacobi_energy, lagrange_l

__all__ = [
    "HillComponent",
    "ProblemParams",
    "potential_U",
    "U_derivs",
    "lagrange_l",
    "jacobi_energy",
    "hill_boundary",
]

_COLLISION_TOL = 1e-13
# a hill_boundary ray has converged once |U - c| is below this
_LEVEL_TOL = 1e-10
# a hill_boundary ray is resolved once its bracket in t is below this
# many units of |q1| + |q2| (four ulps)
_RAY_ULPS = 4.0 * np.finfo(float).eps


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
    out = -(1.0 - params.mu) / r1 - params.mu / r2
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
    for mass, d1, r in ((1.0 - params.mu, q1, r1), (params.mu, q1 - 1.0, r2)):
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
    component, ordered by polar angle around the component's primary, as
    an (n, 2) array.

    The n rays are solved together, one array lane each, and every stage
    evaluates only the rays it has not finished. Each ray from the
    primary starts at the Kepler radius mass / (-c), where U < -mass/t
    <= c because the other primary only lowers U. It steps outward by
    the factor 1 + s, with s = 5 % doubled every step up to 100 %, to
    bracket the first crossing of U = c, and is finished by Newton's
    method on the radial slope from U and its gradient (_U_partials),
    safeguarded by bisection inside the bracket.
    A ray converges at |U - c| < tol = _LEVEL_TOL; it keeps the Newton
    step from its last evaluation and is not evaluated again.
    |U - c| < 10 tol + 2 eps (|U_1 q1| + |U_2 q2|), allowing for the
    rounding of q with the ray's last U_1, U_2, is then checked at every
    returned point q. Requires c <= c_J (at c = c_J the lobes touch at
    (l, 0), where the ray toward the other primary is excluded).
    """
    if c > params.c_jacobi:
        raise ValueError("hill_boundary requires c <= c_jacobi")
    if n < 8:
        raise ValueError("need n >= 8 boundary samples")
    component = HillComponent(component)
    earth, moon = params.primaries()
    origin = earth if component is HillComponent.EARTH else moon
    mass = 1.0 - params.mu if component is HillComponent.EARTH else params.mu

    theta = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    dx, dy = np.cos(theta), np.sin(theta)

    # Each lobe lies on its primary's side of the line q1 = l, on which
    # U >= c_J with equality only at (l, 0); capping the ray there keeps
    # the bracket on the first crossing even when the lobes touch.
    toward = dx > 0 if component is HillComponent.EARTH else dx < 0
    with np.errstate(divide="ignore"):
        t_cap = np.where(toward, (params.l - origin[0]) / dx, np.inf)

    def ray(t, lane=slice(None)):
        return origin[0] + t * dx[lane], origin[1] + t * dy[lane]

    # Inside at the Kepler radius in exact arithmetic; binary64 can round
    # U there up to c when the other primary's term is below an ulp.
    t_lo = np.full(n, mass / -c)
    bad = np.flatnonzero(potential_U(ray(t_lo), params) >= c)
    if bad.size:
        t_lo[bad] *= 0.5
        if np.any(potential_U(ray(t_lo[bad], bad), params) >= c):
            raise TraceFailure("inner bracket point is not inside {U < c}")

    # step outward until U >= c or the cap (first crossing bracket); a
    # lane still pending at step k has taken every step before it
    t_hi = np.empty_like(t_lo)
    lane, t = np.arange(t_lo.size), t_lo.copy()
    for k in range(400):
        t_try = np.minimum(t * (1.0 + min(0.05 * 2.0 ** k, 1.0)),
                           t_cap[lane])
        crossed = ((potential_U(ray(t_try, lane), params) >= c)
                   | (t_try >= t_cap[lane]))
        t_hi[lane[crossed]] = t_try[crossed]
        lane, t = lane[~crossed], t_try[~crossed]
        t_lo[lane] = t
        if lane.size == 0:
            break
    else:
        raise TraceFailure("could not bracket the Hill boundary crossing "
                           "on some ray")

    # Newton from the inner end; a step that leaves the bracket or has a
    # nonpositive slope is replaced by bisection. A ray has converged, and
    # is not evaluated again, when |U - c| < tol, or when its bracket is
    # narrower than the rounding of the position itself: near a light
    # primary an ulp of the position can move U by more than tol, and no
    # iterate would get closer.
    t_out = np.empty_like(t_lo)
    grad_1, grad_2 = np.empty_like(t_lo), np.empty_like(t_lo)
    lane, t, lo, hi = np.arange(t_lo.size), t_lo, t_lo, t_hi
    for _ in range(100):
        q1, q2 = ray(t, lane)
        d = _U_partials((q1, q2), params, 1)
        grad_1[lane], grad_2[lane] = d[1, 0], d[0, 1]
        g = d[0, 0] - c
        below = g < 0.0
        lo, hi = np.where(below, t, lo), np.where(below, hi, t)
        slope = d[1, 0] * dx[lane] + d[0, 1] * dy[lane]
        with np.errstate(divide="ignore", invalid="ignore"):
            t_new = t - g / slope
        newton = (slope > 0.0) & (t_new >= lo) & (t_new <= hi)
        done = ((np.abs(g) < _LEVEL_TOL)
                | (hi - lo <= _RAY_ULPS * (np.abs(q1) + np.abs(q2))))
        # a converged ray still takes the Newton step from this
        # evaluation, without another one: near the vertex the slope is
        # small and |U - c| < tol alone leaves the point tol/slope off;
        # U at every kept point is checked below
        t_out[lane[done]] = np.where(newton, t_new, t)[done]
        t = np.where(newton, t_new, 0.5 * (lo + hi))
        lane, t, lo, hi = (v[~done] for v in (lane, t, lo, hi))
        if lane.size == 0:
            break
    t_out[lane] = t
    q1, q2 = ray(t_out)
    bound = _LEVEL_TOL * 10 + 2.0 * np.finfo(float).eps * (np.abs(grad_1 * q1)
                                                    + np.abs(grad_2 * q2))
    if np.any(np.abs(potential_U((q1, q2), params) - c) >= bound):
        raise TraceFailure("Newton failed to reach the boundary tolerance")
    return np.stack([q1, q2], axis=-1)
