"""The unregularized two-fixed-centers problem.

The potential U(q) = -(1-mu)/|q - E| - mu/|q - M| of the Hamiltonian
H(q, p) = |p|^2/2 + U(q), its derivative table (from integer
polynomials, without exactpoly), and the Earth's Hill lobe in closed
form: its rim R^2 = 0 of the elliptic chart, solved once in offsets from
the Earth (hill_boundary), the positions that the oracles read, a grid
inside that rim and the rim itself (hill_region), and the least value
of a quantity of U's order-two table over them (least_on_lobe), which
the levi and fiberwise verdicts read on the rim and on the whole lobe.
The Moon's lobe is the swapped problem's Earth lobe, mirrored. The
unique interior critical point (l, 0) of U, the critical Jacobi energy
c_J = -1 - 2*sqrt(mu(1-mu)), ProblemParams with its mass swap and the
lobe names shared by all other modules live in the NumPy-free
``ladder`` and are re-exported here.

Positions are in the Standard frame, with the primaries at E = (0, 0)
and M = (1, 0). The elliptic coordinates (lam, nu) are those of
``elliptic``: cosh(lam) = r1 + r2 and cos(nu) = r1 - r2, the offsets
u = cosh(lam) - 1 and v = cos(nu) + 1 vanishing at the Earth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import formulas
from .errors import CollisionPoint
from .ladder import HillComponent, ProblemParams

__all__ = [
    "HillComponent",
    "ProblemParams",
    "potential_U",
    "U_partials",
    "hill_boundary",
    "HillRegion",
    "hill_region",
    "least_on_lobe",
]

_COLLISION_TOL = 1e-13
# hill_region's rim is the q2 >= 0 half of this many hill_boundary points
_N_RIM = 1024


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


@cache
def _inverse_r_table(order):
    """The integer polynomials P_alpha of d^alpha (1/r) = P_alpha(d) /
    r^(2|alpha|+1), d = q - primary, from P_0 = 1 and P_{alpha+e_i} =
    r^2 dP_alpha/dd_i - (2|alpha|+1) d_i P_alpha; as (alpha, ((coeff,
    (e1, e2)), ...)) pairs by increasing |alpha| <= order, each P's terms
    in the order in which the recursion produces them."""
    def step(p, i, k):
        # r^2 dp/dd_i - (2k + 1) d_i p, its terms in the order they arise
        dp = [((e1 - 1 + i, e2 - i), c * (e1, e2)[i])
              for (e1, e2), c in p.items() if (e1, e2)[i]]
        out = {}
        for (a, b), (e1, e2), c in (
                [(s, e, c) for s in ((2, 0), (0, 2)) for e, c in dp]
                + [((1 - i, i), e, -(2 * k + 1) * c) for e, c in p.items()]):
            out[a + e1, b + e2] = out.get((a + e1, b + e2), 0) + c
        return {e: c for e, c in out.items() if c}

    table = {(0, 0): {(0, 0): 1}}
    for k in range(order):
        for i in range(k, -1, -1):
            table[i + 1, k - i] = step(table[i, k - i], 0, k)
        table[0, k + 1] = step(table[0, k], 1, k)
    return tuple((alpha, tuple((c, e) for e, c in p.items()))
                 for alpha, p in table.items())


def U_partials(q, params, order):
    """The table {(i, j): d_1^i d_2^j U} for i + j <= order at a
    Standard-frame position, Python floats for a scalar one and arrays
    otherwise; levicivita.V_eval returns V's in this form. A primary of
    mass m adds -m P_alpha(d) / r^(2|alpha|+1) = -m P_alpha(d / r^2) / r,
    P_alpha homogeneous (_inverse_r_table), so all alpha share the
    monomials."""
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


def potential_U(q, params):
    """Potential U(q) = -(1-mu)/|q - E| - mu/|q - M|, always negative:
    the order-0 entry of U_partials, a float or an array like q's."""
    return U_partials(q, params, 0)[0, 0]


def _earth_rim(lobe, c, n):
    """Offsets (u, v) from the Earth, u = cosh(lam) - 1 and v = cos(nu)
    + 1, of n points of the Earth rim of energy c, and the sign of q2
    at each (see hill_boundary)."""
    if not -math.inf < c <= lobe.c_jacobi:
        raise ValueError("a Hill rim requires a finite c <= c_jacobi")
    s = lobe.discriminant_root(c)
    v_E = 4.0 * lobe.earth_mass / ((lobe.m - c) + s)
    phi = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    v = v_E * np.cos(0.5 * phi) ** 2
    # K(v) with w = v_E - v, exact or without cancellation, and v_2 - v
    # = 2s/(-c) + w: no cancellation at c_J, where v_2 = v_E
    w = v_E - v
    K = w * (2.0 * s - c * w)
    u = K / (-(1.0 + c) + np.sqrt((1.0 + c) ** 2 - c * K))
    return u, v, np.sin(phi)


def _chart(u, v):
    """The Standard-frame position (q1, q2 >= 0) of the offsets u =
    cosh(lam) - 1, v = cos(nu) + 1 from the Earth."""
    return 0.5 * (v - u + u * v), 0.5 * np.sqrt(u * (2.0 + u) * v * (2.0 - v))


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
    if n < 8:
        raise ValueError("need n >= 8 boundary samples")
    moon = HillComponent(component) is HillComponent.MOON
    u, v, sign = _earth_rim(params.swapped() if moon else params, c, n)
    q1, q2 = _chart(u, v)
    return np.stack([1.0 - q1 if moon else q1, np.copysign(q2, sign)],
                    axis=-1)


@dataclass(frozen=True)
class HillRegion:
    """Positions of the Earth's Hill lobe R^2 >= 0 with q2 >= 0: the grid
    points in row-major order, then the rim R^2 = 0; each in elliptic
    coordinates (lam, nu), nu in [0, pi], and in offsets (u, v) = (cosh
    lam - 1, cos nu + 1) from the Earth, whose chart is the Standard
    position q."""

    lam: np.ndarray       # per point
    nu: np.ndarray        # per point
    u: np.ndarray         # per point
    v: np.ndarray         # per point
    R2: np.ndarray        # per point, R^2 (zero on the rim)
    n_grid: int           # points before the rim

    @property
    def q(self):
        """The Standard-frame positions as an (n, 2) array."""
        return np.stack(_chart(self.u, self.v), axis=-1)


def hill_region(params, c, n_lam, n_nu):
    """Sample the Earth's Hill lobe of energy c <= c_J (see HillRegion).

    Its rim is the q2 >= 0 half, phi in [0, pi], of hill_boundary's
    _N_RIM points, bit for bit. The rim's offsets bound the lobe by u <=
    u(v = 0), its last point, and v <= v_E, its first, which is (l, 0) at
    c_J. The n_lam x n_nu grid, uniform in lam and nu over that
    rectangle, keeps the points where R^2 = formulas.R2(cosh lam, cos nu,
    c, m) = -4 r1 r2 (U - c) is >= 0, which include the Earth (lam = 0,
    nu = pi) at q = (0, 0) exactly. Its far edges lam = lam(u(0)) and
    nu = nu(v_E) meet the lobe only at the rim's ends, and are left to
    the rim. A grid point's offsets are cosh lam - 1 and cos nu + 1, on
    which R^2 was read. n_lam = n_nu = 0 gives the rim alone.
    """
    u, v, _ = _earth_rim(params, c, _N_RIM)
    u, v = u[:_N_RIM // 2 + 1], v[:_N_RIM // 2 + 1]
    rim_lam = np.arcsinh(np.sqrt(u * (2.0 + u)))
    rim_nu = np.arctan2(np.sqrt(v * (2.0 - v)), v - 1.0)
    lam = np.linspace(0.0, rim_lam[-1], n_lam)[:-1]
    nu = np.linspace(rim_nu[0], np.pi, n_nu)[1:]
    ch, cn = np.cosh(lam)[:, None], np.cos(nu)[None, :]
    R2 = formulas.R2(ch, cn, c, params.m)
    i, j = np.nonzero(R2 >= 0.0)
    return HillRegion(np.concatenate([lam[i], rim_lam]),
                      np.concatenate([nu[j], rim_nu]),
                      np.concatenate([ch[i, 0] - 1.0, u]),
                      np.concatenate([cn[0, j] + 1.0, v]),
                      np.concatenate([R2[i, j], np.zeros(u.size)]), i.size)


def least_on_lobe(params, c, quantity, n=0):
    """The least value of quantity(q1, q2, d) over the Earth's Hill lobe of
    energy c <= c_J, d being U's partials through order two at the
    Standard-frame position (q1, q2); one U_partials call reads it at
    the positions of hill_region(params, c, n, n) but the Earth, where U
    has none, so n = 0 reads the rim alone. Returns the least value, its
    position (q1, q2) and the number of positions read."""
    q1, q2 = hill_region(params, c, n, n).q.T
    off = (q1 != 0.0) | (q2 != 0.0)
    q1, q2 = q1[off], q2[off]
    values = quantity(q1, q2, U_partials((q1, q2), params, 2))
    i = int(np.argmin(values))
    return float(values[i]), (float(q1[i]), float(q2[i])), values.size
