"""Doubly-covered elliptic coordinates and the regularized Hamiltonian.

Positions are described by confocal elliptic coordinates (lambda, nu)
with cosh(lambda) = r1 + r2 and cos(nu) = r1 - r2 (Centered frame,
primaries at (-1/2, 0) and (1/2, 0), inter-focal distance 1), nu running
over a full circle so that the chart doubly covers the plane. The
regularized Hamiltonian at energy c is

    Q = 2 p_lam^2 - 2 cosh(lam) - c cosh(lam)^2
      + 2 p_nu^2 + 2 (1-2mu) cos(nu) + c cos(nu)^2,

whose zero set is the compactified energy hypersurface. This module
builds the orthogonal tangent frame of that zero set, evaluates the
tangential Hessian and its closed-form determinant, the sign-governing
polynomial A(x, y) in the substituted variables x = cosh(lam),
y = cos(nu), the admissible-domain bounds, and a brute-force convexity
oracle over sampled zero sets. The threshold ladder ending in c0(mu)
and the theory verdict are re-exported from the NumPy-free ``ladder``:
c_E and c_M are roots of one cubic, c0 is found by Newton on its gap
to c_J, and the theory verdict for the heavier lobe is the exact
rational sign of eta, with no float c0.

The tangent frame X, Y, Z is orthogonal and each vector has squared
norm n2 = |grad Q|^2, so the projected Hessian is n2 times the Hessian
of Q compressed to the tangent space. Its spectrum is closed-form: the
eigenvalue 4 n2 and the two roots of mu^2 - B mu + n2 C = 0, where
C = 32 A on the zero set (see _tangent_spectrum). The spectrum is
invariant under rotations of the momentum, so the oracle evaluates the
closed form once per sampled position. The matrix scale max |M_ij| does
turn with the momentum, but through rotation invariants: m00 is fixed,
m11 and m22 are P +- Q cos(2 phi), and (m01, m02) has a fixed length.
From these the oracle bounds each position's smallest and largest scale
over the sampled angles, and so its smallest and its largest relative
eigenvalue, each in its own interval (_scale_ranges). It confirms with
LAPACK (eigvalsh) only the samples that may hold a reported extreme,
plus a fixed-stride audit; every reported number comes from LAPACK, and
a disagreement with the position's closed form beyond 1e-12 of the
matrix scale raises OracleInconsistency.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import formulas
from .errors import (EnergyAboveCritical, FocalDegeneracy,
                     OracleInconsistency, SingularPoint)
from .ladder import (CartesianPhasePoint, Frame, HillComponent, Thresholds,
                     Verdict, _newton, convexity_verdict, eta, roots_ab,
                     thresholds)
from .scan import ScanReport

__all__ = [
    "EllipticPoint",
    "HessFrameData",
    "EllipticDomain",
    "Definiteness",
    "Verdict",
    "Thresholds",
    "elliptic_to_cartesian",
    "cartesian_to_elliptic",
    "Q_value",
    "hess_frame",
    "frame_vectors",
    "tangential_hessian_det",
    "tangential_hessian_definiteness",
    "A_value",
    "domain_bounds",
    "roots_ab",
    "eta",
    "thresholds",
    "convexity_verdict",
    "sample_zero_set",
    "oracle_convexity",
]


class Definiteness(Enum):
    POS_DEF = "posdef"
    INDEFINITE = "indefinite"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class EllipticPoint:
    """Phase point (lambda, nu, p_lambda, p_nu) on the double cover;
    positions are always in the Centered frame."""

    lam: float
    nu: float
    p_lam: float
    p_nu: float


@dataclass(frozen=True)
class HessFrameData:
    """Gradient entries and Hessian diagonal of Q at a point.

    x = Q_lam, y = Q_nu, z = Q_{p_lam}, w = Q_{p_nu}; a = Q_{lam lam},
    b = Q_{nu nu}; the momentum diagonal entries are 4 identically.
    """

    x: float
    y: float
    z: float
    w: float
    a: float
    b: float


@dataclass(frozen=True)
class EllipticDomain:
    """Admissible rectangle in the substituted variables x = cosh(lam),
    y = cos(nu) for one Hill component."""

    x_range: tuple
    y_range: tuple
    component: HillComponent


def elliptic_to_cartesian(lam, nu):
    """Centered-frame position of elliptic coordinates (lam, nu)."""
    lam = np.asarray(lam, dtype=float)
    nu = np.asarray(nu, dtype=float)
    q1 = 0.5 * np.cosh(lam) * np.cos(nu)
    q2 = 0.5 * np.sinh(lam) * np.sin(nu)
    if q1.ndim == 0:
        return float(q1), float(q2)
    return q1, q2


def _coords_from_position(q1, q2):
    """(lam, nu) on the canonical branch nu in [0, pi], q2 >= 0."""
    r1 = math.hypot(q1 + 0.5, q2)
    r2 = math.hypot(q1 - 0.5, q2)
    ch = r1 + r2
    lam = math.acosh(max(ch, 1.0))
    cn = min(1.0, max(-1.0, r1 - r2))
    nu = math.acos(cn)
    if q2 < 0:
        nu = 2.0 * math.pi - nu
    return lam, nu


def _jacobian(lam, nu):
    """d(q1, q2)/d(lam, nu); its determinant is (cosh^2 - cos^2)/4."""
    return 0.5 * np.array([
        [math.sinh(lam) * math.cos(nu), -math.cosh(lam) * math.sin(nu)],
        [math.cosh(lam) * math.sin(nu), math.sinh(lam) * math.cos(nu)],
    ])


def cartesian_to_elliptic(pt: CartesianPhasePoint):
    """Both preimages of a Centered-frame phase point under the double
    cover; momenta are the Jacobian-transpose pullback (p_lam d lam +
    p_nu d nu = p1 dq1 + p2 dq2).

    The second preimage is (lam, 2 pi - nu) with p_nu negated.
    """
    if pt.frame is not Frame.CENTERED:
        raise ValueError("cartesian_to_elliptic expects the Centered frame")
    q1, q2 = pt.q
    lam, nu = _coords_from_position(q1, q2)
    if lam < 1e-12:
        raise FocalDegeneracy(
            "momentum pullback is singular at a focus (lambda = 0)")
    J = _jacobian(lam, nu)
    p_lam, p_nu = J.T @ np.asarray(pt.p, dtype=float)
    first = EllipticPoint(lam, nu % (2 * math.pi), float(p_lam), float(p_nu))
    second = EllipticPoint(lam, (2 * math.pi - nu) % (2 * math.pi),
                           float(p_lam), -float(p_nu))
    return first, second


def elliptic_to_cartesian_phase(ep: EllipticPoint):
    """Centered-frame phase point of an elliptic phase point."""
    q1, q2 = elliptic_to_cartesian(ep.lam, ep.nu)
    J = _jacobian(ep.lam, ep.nu)
    detJ = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
    if abs(detJ) < 1e-15:
        raise FocalDegeneracy("momentum push-forward singular at a focus")
    p = np.linalg.solve(J.T, np.array([ep.p_lam, ep.p_nu]))
    return CartesianPhasePoint((q1, q2), (float(p[0]), float(p[1])),
                               Frame.CENTERED)


# -- Q and its derivatives ---------------------------------------------------

def Q_value(ep, params, c):
    """Regularized Hamiltonian Q_c; accepts an EllipticPoint or arrays
    (lam, nu, p_lam, p_nu) as a tuple."""
    lam, nu, pl, pn = _unpack(ep)
    m = 1.0 - 2.0 * params.mu
    ch, cn = np.cosh(lam), np.cos(nu)
    q = (2.0 * pl ** 2 - 2.0 * ch - c * ch ** 2
         + 2.0 * pn ** 2 + 2.0 * m * cn + c * cn ** 2)
    return float(q) if np.isscalar(q) or np.ndim(q) == 0 else q


def _unpack(ep):
    if isinstance(ep, EllipticPoint):
        return ep.lam, ep.nu, ep.p_lam, ep.p_nu
    return ep


def _lam_terms(lam, c):
    """The lambda-only frame quantities x = Q_lam and a = Q_lam_lam."""
    ch, sh = np.cosh(lam), np.sinh(lam)
    return -2.0 * sh * (1.0 + c * ch), -2.0 * formulas.g(ch, c, 1)


def _nu_terms(nu, params, c):
    """The nu-only frame quantities y = Q_nu and b = Q_nu_nu."""
    m = 1.0 - 2.0 * params.mu
    cn, sn = np.cos(nu), np.sin(nu)
    return -2.0 * sn * (m + c * cn), -2.0 * formulas.g(cn, c, m)


def _frame_arrays(lam, nu, pl, pn, params, c):
    """Gradient entries and Hessian diagonal of Q, vectorized."""
    x, a = _lam_terms(lam, c)
    y, b = _nu_terms(nu, params, c)
    return x, y, 4.0 * pl, 4.0 * pn, a, b


def hess_frame(ep, params, c, tol=1e-12):
    """Closed-form frame data of Q at a phase point.

    Raises SingularPoint when the gradient of Q vanishes (never happens
    on the zero set for c < c_J).
    """
    lam, nu, pl, pn = _unpack(ep)
    x, y, z, w, a, b = _frame_arrays(lam, nu, pl, pn, params, c)
    if x * x + y * y + z * z + w * w < tol:
        raise SingularPoint("gradient of Q vanishes at this point")
    return HessFrameData(float(x), float(y), float(z), float(w),
                         float(a), float(b))


def frame_vectors(h: HessFrameData):
    """The orthogonal tangent frame X, Y, Z built from the gradient
    entries (each is orthogonal to grad Q = (x, y, z, w))."""
    x, y, z, w = h.x, h.y, h.z, h.w
    X = np.array([-y, x, w, -z])
    Y = np.array([-z, -w, x, y])
    Z = np.array([-w, z, -y, x])
    return X, Y, Z


def _symmetric(m00, m01, m02, m11, m12, m22):
    """Symmetric 3x3 matrices (last two axes) from their six entries."""
    return np.stack([np.stack(row, axis=-1) for row in
                     ((m00, m01, m02), (m01, m11, m12), (m02, m12, m22))],
                    axis=-2)


def _tangent_spectrum(x, y, z, w, a, b):
    """The three eigenvalues (4 n2, mu_lo, mu_hi) of the projected
    Hessian in closed form, for arrays of the frame quantities.

    X, Y, Z are orthogonal with squared norm n2 = |grad Q|^2, so the
    matrix is n2 times diag(a, b, 4, 4) compressed to grad Q^perp. With
    s = z^2 + w^2, (0, 0, w, -z) is an eigenvector of eigenvalue 4 n2,
    and mu_lo <= mu_hi solve mu^2 - B mu + n2 C = 0 where, with
    u = b x^2 + a y^2 and rho^2 = x^2 + y^2,

        B = u + 4 rho^2 + (a+b) s,   C = 4 u + a b s  (= 32 A on Q = 0).

    The discriminant B^2 - 4 n2 C is evaluated as the sum of squares
    D1^2 + 4 (a-b)^2 x^2 y^2 s n2 / rho^4 with
    D1 = u - 4 rho^2 + (a-b) s (y^2 - x^2) / rho^2 (limit D1 = (a-b) s
    at rho = 0), and each root in the form free of cancellation.
    """
    xx, yy, s = x * x, y * y, z * z + w * w
    rho2 = xx + yy
    n2 = rho2 + s
    u = b * xx + a * yy
    B = u + 4.0 * rho2 + (a + b) * s
    nC = n2 * (4.0 * u + a * b * s)
    flat = rho2 == 0.0
    inv = 1.0 / np.where(flat, 1.0, rho2)
    # at rho = 0: (y^2 - x^2) / rho^2 -> 1 and x^2 y^2 / rho^4 -> 0
    t = (yy - xx) * inv + flat
    sab = (a - b) * s
    D1 = u - 4.0 * rho2 + sab * t
    r = np.sqrt(D1 * D1 + 4.0 * (a - b) * sab * (xx * inv) * (yy * inv) * n2)
    with np.errstate(divide="ignore", invalid="ignore"):
        mu_lo = np.where(B <= 0.0, 0.5 * (B - r), 2.0 * nC / (B + r))
        mu_hi = np.where(B >= 0.0, 0.5 * (B + r), 2.0 * nC / (B - r))
    return 4.0 * n2, mu_lo, mu_hi


def tangential_hessian_det(ep, params, c):
    """Determinant of the Hessian of Q projected to the tangent frame,
    both as a numeric 3x3 determinant and by the closed-form product
    (x^2+y^2+z^2+w^2)^2 (16 b x^2 + 16 a y^2 + 4 a b z^2 + 4 a b w^2).

    Returns (numeric, closed_form).
    """
    h = hess_frame(ep, params, c)
    M = _symmetric(*formulas.projected_hessian(h.x, h.y, h.z, h.w,
                                               h.a, h.b))
    numeric = float(np.linalg.det(M))
    n2 = h.x ** 2 + h.y ** 2 + h.z ** 2 + h.w ** 2
    closed = n2 ** 2 * (h.b * 4 * 4 * h.x ** 2 + h.a * 4 * 4 * h.y ** 2
                        + h.a * h.b * 4 * h.z ** 2 + h.a * h.b * 4 * h.w ** 2)
    return numeric, float(closed)


def tangential_hessian_definiteness(ep, params, c, tol=1e-9):
    """Classification of the projected Hessian by leading principal
    minors, with a tolerance relative to the matrix scale."""
    h = hess_frame(ep, params, c)
    M = _symmetric(*formulas.projected_hessian(h.x, h.y, h.z, h.w,
                                               h.a, h.b))
    scale = float(np.max(np.abs(M))) or 1.0
    m1 = M[0, 0]
    m2 = M[0, 0] * M[1, 1] - M[0, 1] ** 2
    m3 = float(np.linalg.det(M))
    eps1, eps2, eps3 = tol * scale, tol * scale ** 2, tol * scale ** 3
    if m1 > eps1 and m2 > eps2 and m3 > eps3:
        return Definiteness.POS_DEF
    if abs(m1) <= eps1 or abs(m2) <= eps2 or abs(m3) <= eps3:
        return Definiteness.DEGENERATE
    return Definiteness.INDEFINITE


# -- the function A and the domain -------------------------------------------

def A_value(x, y, params, c):
    """The sign-governing polynomial A in the substituted variables
    x = cosh(lam), y = cos(nu). On the zero set of Q, 32*A equals
    Q_ll Q_nn (Q_pl^2 + Q_pn^2) + 4 (Q_ll Q_nu^2 + Q_nn Q_lam^2)."""
    a = formulas.A(np.asarray(x, dtype=float), np.asarray(y, dtype=float),
                   c, 1.0 - 2.0 * params.mu)
    return float(a) if np.ndim(a) == 0 else a


def domain_bounds(params, c, component):
    """Closed-form admissible rectangle in (x, y) = (cosh lam, cos nu)
    for one component of the zero set; requires c <= c_J (the rectangle
    degenerates at equality)."""
    if c > params.c_jacobi:
        raise EnergyAboveCritical(
            f"c = {c} above critical Jacobi energy {params.c_jacobi}")
    component = HillComponent(component)
    m = 1.0 - 2.0 * params.mu
    rad_y = max(c * c + 2.0 * c + m * m, 0.0)
    sy = math.sqrt(rad_y)
    if component is HillComponent.EARTH:
        rad_x = max(c * c - 2.0 * m * c + 1.0, 0.0)
        x_hi = (-1.0 - math.sqrt(rad_x)) / c
        y_range = (-1.0, (-m + sy) / c)
    else:
        rad_x = max(c * c + 2.0 * m * c + 1.0, 0.0)
        x_hi = (-1.0 - math.sqrt(rad_x)) / c
        y_range = ((-m - sy) / c, 1.0)
    return EllipticDomain((1.0, x_hi), y_range, component)


# -- zero-set sampling and the convexity oracle ------------------------------

def _nu_interval(params, c, component):
    dom = domain_bounds(params, c, component)
    y_lo, y_hi = dom.y_range
    # nu = arccos(y) is decreasing: Earth nu in [arccos(y_hi), pi]
    return math.acos(min(1.0, max(-1.0, y_hi))), math.acos(
        min(1.0, max(-1.0, y_lo))), dom


@dataclass(frozen=True)
class _ZeroSet:
    """The zero set of Q sampled per position (lambda, nu).

    The grid points with R^2 >= 0 come first, in row-major order, each
    with its momentum radius s and one sample per angle phi; the rim
    points follow, each one sample with zero momentum (s = 0). Flat
    sample indices run point-major, angle-minor, rim last.
    """

    lam: np.ndarray       # the lambda grid
    ilam: np.ndarray      # per point, its index into lam
    nu: np.ndarray        # per point
    s: np.ndarray         # per point, the momentum radius
    n_grid: int           # points before the rim
    cos_phi: np.ndarray
    sin_phi: np.ndarray

    @property
    def counts(self):
        """Samples per point: n_phi on the grid, one on the rim."""
        return np.where(np.arange(self.s.size) < self.n_grid,
                        self.cos_phi.size, 1)

    @property
    def n_samples(self):
        return self.n_grid * (self.cos_phi.size - 1) + self.s.size

    def samples(self, f):
        """Point index and (lam, nu, p_lam, p_nu) of the flat samples f."""
        n_phi = self.cos_phi.size
        rim = f >= self.n_grid * n_phi
        pt = np.where(rim, f - self.n_grid * (n_phi - 1), f // n_phi)
        # a rim sample takes angle 0: s = 0 times (1, 0) is (+0.0, +0.0)
        k = np.where(rim, 0, f % n_phi)
        s = self.s[pt]
        return (pt, self.lam[self.ilam[pt]], self.nu[pt],
                s * self.cos_phi[k], s * self.sin_phi[k])


def _zero_set_points(params, c, component, n_lam=100, n_nu=100, n_phi=16):
    """The zero set of Q sampled per position (see _ZeroSet).

    On shell, 2(p_lam^2 + p_nu^2) = R^2 with R^2 = 2 cosh(lam)
    + c cosh(lam)^2 - 2(1-2mu) cos(nu) - c cos(nu)^2; where R^2 >= 0 the
    momentum circle of radius s = sqrt(R^2/2) is sampled at n_phi angles.
    Between grid neighbors of opposite R^2 sign the rim R^2 = 0 is added
    with zero momentum. Only the canonical cover branch nu in [0, pi] is
    sampled: the deck transformation (nu, p_nu) -> (2 pi - nu, -p_nu)
    preserves Q and the projected-Hessian spectrum, and the full momentum
    circle already realizes both p_nu signs.

    Requires c < c_J, where the two lobes are apart, and a grid of at
    least two lambda and two nu values and one angle, which always
    holds the primary's position.
    """
    if c >= params.c_jacobi:
        raise EnergyAboveCritical(
            f"c = {c} is not below c_J = {params.c_jacobi}")
    if n_lam < 2 or n_nu < 2 or n_phi < 1:
        raise ValueError(
            f"grid (n_lam, n_nu, n_phi) = ({n_lam}, {n_nu}, {n_phi}) needs "
            "n_lam >= 2, n_nu >= 2 and n_phi >= 1")
    nu_lo, nu_hi, dom = _nu_interval(params, c, component)
    lam_max = math.acosh(dom.x_range[1])
    m = 1.0 - 2.0 * params.mu

    lam = np.linspace(0.0, lam_max, n_lam)
    nu = np.linspace(nu_lo, nu_hi, n_nu)
    ch, cn = np.cosh(lam)[:, None], np.cos(nu)[None, :]
    R2 = 2.0 * ch + c * ch ** 2 - 2.0 * m * cn - c * cn ** 2
    ok = R2 >= 0.0
    ilam, jnu = np.nonzero(ok)

    # at fixed lam, R^2 = 0 is the quadratic c cn^2 + 2 m cn - k = 0 in
    # cn = cos(nu), k = 2 cosh(lam) + c cosh(lam)^2
    ii, jj = np.nonzero(ok[:, :-1] != ok[:, 1:])
    ch = ch[ii, 0]
    k = 2.0 * ch + c * ch ** 2
    q = -(m + math.copysign(1.0, m) * np.sqrt(np.maximum(m * m + c * k,
                                                         0.0)))
    with np.errstate(divide="ignore", invalid="ignore"):
        roots = (q / c, -k / q)
    # cos is decreasing on [0, pi]: the bracket in cn is
    # [cos nu_{j+1}, cos nu_j]; take the root nearer to it
    lo, hi = np.cos(nu[jj + 1]), np.cos(nu[jj])
    d1, d2 = (np.maximum(np.maximum(lo - r, r - hi), 0.0) for r in roots)
    cn_rim = np.clip(np.where(d2 < d1, roots[1], roots[0]), lo, hi)
    nu_rim = np.clip(np.arccos(cn_rim), nu[jj], nu[jj + 1])

    phi = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    return _ZeroSet(lam, np.concatenate([ilam, ii]),
                    np.concatenate([nu[jnu], nu_rim]),
                    np.concatenate([np.sqrt(0.5 * R2[ok]), np.zeros(ii.size)]),
                    ilam.size, np.cos(phi), np.sin(phi))


def _zero_set_arrays(params, c, component, n_lam=100, n_nu=100, n_phi=16):
    """Flat arrays (lam, nu, p_lam, p_nu) of every sample of
    _zero_set_points, point-major, angle-minor, rim last."""
    zs = _zero_set_points(params, c, component, n_lam, n_nu, n_phi)
    return zs.samples(np.arange(zs.n_samples))[1:]


def sample_zero_set(params, c, component, n_lam=100, n_nu=100, n_phi=16):
    """Sample the zero set of Q_c over one Hill component.

    Returns a list of EllipticPoint, each satisfying |Q| < 1e-10 by
    construction; the R^2 = 0 rim is included with zero momentum.
    """
    lam, nu, pl, pn = _zero_set_arrays(params, c, component,
                                       n_lam, n_nu, n_phi)
    return [EllipticPoint(float(a), float(b), float(u), float(v))
            for a, b, u, v in zip(lam, nu, pl, pn)]


# closed-form spectrum against LAPACK, relative to the matrix scale; the
# closed form is good to about 4e-16 and eigvalsh to about 2e-15
_CONFIRM_TOL = 1e-12
# every this many good samples is confirmed whatever its value
_AUDIT_STRIDE = 64


def _near_extremes(lo, hi):
    """Samples whose interval [lo, hi] may hold the minimum or the
    maximum of the values the intervals enclose."""
    return (lo <= hi.min()) | (hi >= lo.max())


def _may_hold_extreme(ev, scale_lo, scale_hi):
    """Samples that may hold the extreme smallest eigenvalue, absolute or
    relative to the matrix scale, given the closed-form value ev, a
    matrix scale in [scale_lo, scale_hi], and a closed form good to
    _CONFIRM_TOL of that scale."""
    span = _CONFIRM_TOL * scale_hi
    r1 = ev / np.maximum(scale_lo, 1e-30)
    r2 = ev / np.maximum(scale_hi, 1e-30)
    return (_near_extremes(ev - span, ev + span)
            | _near_extremes(np.minimum(r1, r2) - _CONFIRM_TOL,
                             np.maximum(r1, r2) + _CONFIRM_TOL)
            | ~np.isfinite(ev))


def _scale_ranges(x, y, z, a, b, n_phi):
    """Bounds (lo, hi) on the smallest and on the largest matrix scale
    max |M_ij| of the projected Hessian over the n_phi sampled momentum
    angles of the circle through (z, 0).

    At the angle phi, m00 is constant, m11 and m22 are
    P +- Q cos(2 phi) and m12 = Q sin(2 phi) with P = (a+b) z^2 / 2
    + 4 rho^2 and Q = (a-b) z^2 / 2, and (m01, m02) turns with phi at the
    constant length amp = |z| hypot((a-4) y, (4-b) x). So every angle
    has a scale of at least max(|m00|, |P|, amp / sqrt(2)) and at most
    max(|m00|, |P| + |Q|, amp); the angle 0, which is sampled, reaches
    |P| + |Q|, and some sampled angle reaches amp cos(pi / n_phi)
    (n_phi even) or amp cos(pi / (2 n_phi)) (odd). The scale at angle 0
    bounds the smallest from above. All bounds are widened by 1e-12
    relative to cover rounding.
    """
    m00, m01, m02, m11, _, m22 = formulas.projected_hessian(x, y, z, 0.0,
                                                            a, b)
    amp = np.sqrt(m01 * m01 + m02 * m02)
    top = np.maximum(np.abs(m00), np.maximum(np.abs(m11), np.abs(m22)))
    at0 = np.maximum(top, np.maximum(np.abs(m01), np.abs(m02)))
    reach = math.cos(math.pi / (n_phi if n_phi % 2 == 0 else 2 * n_phi))
    lo, hi = 1.0 - 1e-12, 1.0 + 1e-12
    floor = np.maximum(np.abs(m00), 0.5 * np.abs(m11 + m22))
    smallest = (lo * np.maximum(floor, amp / math.sqrt(2.0)), hi * at0)
    largest = (lo * np.maximum(at0, reach * amp), hi * np.maximum(top, amp))
    return smallest, largest


def _relative_ranges(ev, smallest, largest):
    """Intervals (lo, hi) holding the smallest and the largest of
    ev / max(scale, 1e-30) over the sampled angles, given bounds (lo, hi)
    on the smallest and on the largest scale (_scale_ranges): ev >= 0 is
    smallest over the largest scale and largest over the smallest, ev < 0
    the other way round."""
    pos = ev >= 0.0
    (s_lo, s_hi), (l_lo, l_hi) = smallest, largest

    def rel(a, b):
        return ev / np.maximum(np.where(pos, a, b), 1e-30)

    return ((rel(l_hi, s_lo), rel(l_lo, s_hi)),
            (rel(s_hi, l_lo), rel(s_lo, l_hi)))


def _point_screen(zs, params, c):
    """Per point of zs: whether |grad Q|^2 > 1e-12, the closed-form
    smallest eigenvalue of the projected Hessian, and whether some sample
    of the point may hold a reported extreme.

    Q's Hessian diag(a, b, 4, 4) is invariant under rotations of the
    momentum (p_lam, p_nu), so the spectrum depends on the momentum only
    through its radius: it is evaluated once per point, at angle 0
    (z = 4 s, w = 0). The matrix scale does change with the angle, so
    each point gets two intervals of relative eigenvalues, one for its
    smallest and one for its largest over the sampled angles, from
    bounds on its smallest and largest scale (_scale_ranges,
    _relative_ranges). A point is a candidate when its smallest-value
    interval reaches the lowest upper end of all of them, when its
    largest-value interval reaches the highest lower end, when its
    absolute value may be extreme, or when it is not finite.
    """
    x, a = (v[zs.ilam] for v in _lam_terms(zs.lam, c))
    y, b = _nu_terms(zs.nu, params, c)
    z = 4.0 * zs.s
    good = x * x + y * y + z * z > 1e-12
    e4, mu_lo, _ = _tangent_spectrum(x, y, z, 0.0, a, b)
    ev = np.minimum(e4, mu_lo)
    e = ev[good]
    smallest, largest = _scale_ranges(x[good], y[good], z[good], a[good],
                                      b[good], zs.cos_phi.size)
    (lo_min, hi_min), (lo_max, hi_max) = _relative_ranges(e, smallest,
                                                          largest)
    # each end is good to _CONFIRM_TOL, so two compare with twice that
    margin = 2.0 * _CONFIRM_TOL
    span = _CONFIRM_TOL * largest[1]
    cand = np.zeros_like(good)
    cand[good] = (_near_extremes(e - span, e + span)
                  | (lo_min <= hi_min.min() + margin)
                  | (hi_max >= lo_max.max() - margin)
                  | ~np.isfinite(e))
    return good, ev, cand


def _sample_matrices(zs, f, params, c):
    """Point index, (lam, nu, p_lam, p_nu) and the six projected-Hessian
    entries of the flat samples f."""
    pt, *sample = zs.samples(f)
    return pt, sample, formulas.projected_hessian(
        *_frame_arrays(*sample, params, c))


def oracle_convexity(params, c, component, grid=(100, 100, 16), tol=1e-9):
    """Brute-force convexity oracle: projected-Hessian definiteness over
    a sampled zero set.

    Reports the minimum smallest eigenvalue, its witness point, and a
    verdict ('posdef' everywhere vs 'indefinite' witness). Samples with
    a vanishing gradient are counted as failures, never aborting.

    Each position is screened once with the closed-form smallest
    eigenvalue, which all its momentum samples share (_point_screen).
    Inside the positions that may hold a reported extreme, each sample's
    exact matrix scale decides whether it may; LAPACK (eigvalsh) then
    confirms those samples plus every _AUDIT_STRIDE-th good sample, and
    every reported number comes from LAPACK. Raises OracleInconsistency
    when LAPACK and the position's closed form differ by more than
    _CONFIRM_TOL times the matrix scale. The report's counters give the
    candidate positions and the samples LAPACK confirmed. Like the
    theory verdict, it requires c < c_J (_zero_set_points).
    """
    t0 = time.perf_counter()
    zs = _zero_set_points(params, c, component, *grid)
    good, ev, cand = _point_screen(zs, params, c)
    counts = zs.counts
    failures = int(counts[~good].sum())

    confirm = np.zeros(zs.n_samples, dtype=bool)
    confirm[np.flatnonzero(np.repeat(good, counts))[::_AUDIT_STRIDE]] = True
    f = np.flatnonzero(np.repeat(cand, counts))
    pt, _, entries = _sample_matrices(zs, f, params, c)
    scale = np.max(np.abs(entries), axis=0)
    confirm[f[_may_hold_extreme(ev[pt], scale, scale)]] = True

    pt, (lam, nu, pl, pn), entries = _sample_matrices(
        zs, np.flatnonzero(confirm), params, c)
    scale = np.max(np.abs(entries), axis=0)
    ev_sel = np.linalg.eigvalsh(_symmetric(*entries))[:, 0]
    if not np.all(np.abs(ev_sel - ev[pt]) <= _CONFIRM_TOL * scale):
        raise OracleInconsistency(
            "closed-form and LAPACK smallest eigenvalues disagree")
    rel_sel = ev_sel / np.maximum(scale, 1e-30)

    i_min, i_max = int(np.argmin(rel_sel)), int(np.argmax(rel_sel))
    min_rel = float(rel_sel[i_min])
    witness_pt = (float(lam[i_min]), float(nu[i_min]),
                  float(pl[i_min]), float(pn[i_min]))
    witnesses = []
    if min_rel < -tol:
        verdict = "indefinite"
        witnesses.append(witness_pt)
    elif min_rel > tol:
        verdict = "posdef"
    else:
        verdict = "degenerate"
    return ScanReport(
        target=f"tangential-hessian mu={params.mu} c={c} "
               f"{HillComponent(component).value}",
        grid=grid,
        min_value=float(ev_sel.min()), argmin=witness_pt,
        max_value=float(ev_sel.max()),
        argmax=(float(lam[i_max]), float(nu[i_max]),
                float(pl[i_max]), float(pn[i_max])),
        witnesses=witnesses, verdict=verdict,
        samples=zs.n_samples, failures=failures,
        wall_time=time.perf_counter() - t0,
        counters={"candidate_positions": int(np.count_nonzero(cand)),
                  "lapack_samples": int(ev_sel.size)})
