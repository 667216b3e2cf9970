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
y = cos(nu), and a brute-force convexity oracle over the zero set above
the positions of scan.hill_region, which the fiberwise verdict reads
too; scan's chart and domain bounds are re-exported. The threshold
ladder ending in c0(mu) and the theory verdict are re-exported from the NumPy-free ``ladder``:
c_E and c_M are roots of one cubic, c0 is found by Newton on its gap
to c_J, and the theory verdict for the heavier lobe is the exact
rational sign of eta, with no float c0.

The tangent frame X, Y, Z is orthogonal and each vector has squared
norm n2 = |grad Q|^2, so the projected Hessian is n2 times the Hessian
of Q compressed to the tangent space. Its spectrum is closed-form: the
eigenvalue 4 n2 and the two roots of mu^2 - B mu + n2 C = 0, where
C = 32 A on the zero set (see _tangent_spectrum). Q's Hessian
diag(a, b, 4, 4) commutes with rotations of the momentum, so the
spectrum is one per position (lambda, nu), and so is the scale
n2 max(|a|, |b|, 4) that bounds every eigenvalue. The oracle evaluates
the closed form once per sampled position and divides by that scale;
LAPACK (eigvalsh) audits every fourth position and the positions of the
reported extremes, each at a different momentum angle, and a
disagreement beyond 1e-12 of the scale raises OracleInconsistency.
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
from .scan import (EllipticDomain, HillRegion, ScanReport, domain_bounds,
                   elliptic_to_cartesian, hill_region)

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

_GRAD_FLOOR = 1e-12
_DEFINITE_TOL = 1e-9


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
    q = (2.0 * (pl ** 2 + pn ** 2)
         - formulas.R2(np.cosh(lam), np.cos(nu), c, 1.0 - 2.0 * params.mu))
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


def hess_frame(ep, params, c):
    """Closed-form frame data of Q at a phase point.

    Raises SingularPoint when |grad Q|^2 < _GRAD_FLOOR (never happens on
    the zero set for c < c_J).
    """
    lam, nu, pl, pn = _unpack(ep)
    x, y, z, w, a, b = _frame_arrays(lam, nu, pl, pn, params, c)
    if x * x + y * y + z * z + w * w < _GRAD_FLOOR:
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


def tangential_hessian_definiteness(ep, params, c):
    """Classification of the projected Hessian by leading principal
    minors, with the tolerance _DEFINITE_TOL relative to the matrix
    scale."""
    h = hess_frame(ep, params, c)
    M = _symmetric(*formulas.projected_hessian(h.x, h.y, h.z, h.w,
                                               h.a, h.b))
    scale = float(np.max(np.abs(M))) or 1.0
    m1 = M[0, 0]
    m2 = M[0, 0] * M[1, 1] - M[0, 1] ** 2
    m3 = float(np.linalg.det(M))
    eps1, eps2, eps3 = (_DEFINITE_TOL * scale ** k for k in (1, 2, 3))
    if m1 > eps1 and m2 > eps2 and m3 > eps3:
        return Definiteness.POS_DEF
    if abs(m1) <= eps1 or abs(m2) <= eps2 or abs(m3) <= eps3:
        return Definiteness.DEGENERATE
    return Definiteness.INDEFINITE


# -- the function A ----------------------------------------------------------

def A_value(x, y, params, c):
    """The sign-governing polynomial A in the substituted variables
    x = cosh(lam), y = cos(nu). On the zero set of Q, 32*A equals
    Q_ll Q_nn (Q_pl^2 + Q_pn^2) + 4 (Q_ll Q_nu^2 + Q_nn Q_lam^2)."""
    a = formulas.A(np.asarray(x, dtype=float), np.asarray(y, dtype=float),
                   c, 1.0 - 2.0 * params.mu)
    return float(a) if np.ndim(a) == 0 else a


# -- zero-set sampling and the convexity oracle ------------------------------

@dataclass(frozen=True)
class _ZeroSet(HillRegion):
    """The zero set of Q sampled per position (lambda, nu): the positions
    of a HillRegion, each with its momentum radius s (zero on the rim),
    whose circle is sampled at the angles phi."""

    s: np.ndarray
    cos_phi: np.ndarray
    sin_phi: np.ndarray


def _zero_set_points(params, c, component, n_lam=100, n_nu=100, n_phi=16):
    """The zero set of Q sampled per position (see _ZeroSet).

    The positions are scan.hill_region's. On shell, 2(p_lam^2 + p_nu^2)
    = R^2 (formulas.R2), so the momentum circle of a position has radius
    s = sqrt(R^2/2), sampled at n_phi angles; the rim has zero momentum.
    Only the canonical cover branch nu in [0, pi] is sampled: the deck
    transformation (nu, p_nu) -> (2 pi - nu, -p_nu) preserves Q and the
    projected-Hessian spectrum, and the full momentum circle already
    realizes both p_nu signs.

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
    region = hill_region(params, c, component, n_lam, n_nu)
    phi = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    return _ZeroSet(**vars(region), s=np.sqrt(0.5 * region.R2),
                    cos_phi=np.cos(phi), sin_phi=np.sin(phi))


def sample_zero_set(params, c, component, n_lam=100, n_nu=100, n_phi=16):
    """Sample the zero set of Q_c over one Hill component.

    Returns a list of EllipticPoint, each satisfying |Q| < 1e-10 by
    construction: every grid position at the n_phi momentum angles
    2 pi k / n_phi in turn, then the R^2 = 0 rim with zero momentum.
    """
    zs = _zero_set_points(params, c, component, n_lam, n_nu, n_phi)
    lam, nu, s = zs.lam[zs.ilam].tolist(), zs.nu.tolist(), zs.s.tolist()
    n = zs.n_grid
    angles = list(zip(zs.cos_phi.tolist(), zs.sin_phi.tolist()))
    return ([EllipticPoint(u, v, r * cp, r * sp)
             for u, v, r in zip(lam[:n], nu[:n], s[:n]) for cp, sp in angles]
            + [EllipticPoint(u, v, 0.0, 0.0)
               for u, v in zip(lam[n:], nu[n:])])


# closed-form spectrum against LAPACK, relative to the scale
# n2 max(|a|, |b|, 4); the closed form is good to about 4e-16 of it and
# eigvalsh to about 2e-15
_CONFIRM_TOL = 1e-12
# LAPACK audits every this many positions whatever their values
_AUDIT_STRIDE = 4


def oracle_convexity(params, c, component, grid=(100, 100, 16)):
    """Brute-force convexity oracle: projected-Hessian definiteness over
    a sampled zero set.

    Reports the minimum smallest eigenvalue, its witness point, and a
    verdict ('posdef' everywhere vs 'indefinite' witness). Positions with
    |grad Q|^2 <= _GRAD_FLOOR are counted as failures, never aborting.

    Q's Hessian diag(a, b, 4, 4) commutes with rotations of the momentum,
    so every momentum at a position (lambda, nu) has one spectrum: the
    oracle evaluates its closed form once per position, at angle 0
    (p_lam = s, p_nu = 0), and divides the smallest eigenvalue ev by the
    rotation-invariant scale n2 max(|a|, |b|, 4), which bounds every
    eigenvalue. The verdict compares the smallest of these relative
    eigenvalues with _DEFINITE_TOL; samples and failures count
    positions, and n_phi only picks the audit angles.

    LAPACK (eigvalsh) audits every _AUDIT_STRIDE-th position, the
    positions of the reported extremes, and any position whose closed form
    is not finite; the k-th audited position is taken at the k-th sampled
    momentum angle (mod n_phi), so the audit also tests rotation
    invariance. Raises OracleInconsistency when LAPACK and the closed form
    differ by more than _CONFIRM_TOL times the scale. The report's
    counters give the positions with a spectrum and the LAPACK samples.
    Like the theory verdict, it requires c < c_J (_zero_set_points).
    """
    t0 = time.perf_counter()
    zs = _zero_set_points(params, c, component, *grid)
    x, a = (v[zs.ilam] for v in _lam_terms(zs.lam, c))
    y, b = _nu_terms(zs.nu, params, c)
    z = 4.0 * zs.s
    n2 = x * x + y * y + z * z
    pos = np.flatnonzero(n2 > _GRAD_FLOOR)
    x, y, z, a, b, n2, nu, s = (v[pos] for v in (x, y, z, a, b, n2, zs.nu,
                                                 zs.s))
    lam = zs.lam[zs.ilam[pos]]
    e4, mu_lo, _ = _tangent_spectrum(x, y, z, 0.0, a, b)
    ev = np.minimum(e4, mu_lo)
    scale = n2 * np.maximum(np.maximum(np.abs(a), np.abs(b)), 4.0)
    rel = ev / scale
    i_min, i_max = int(np.argmin(rel)), int(np.argmax(rel))

    audit = ~np.isfinite(ev)
    audit[::_AUDIT_STRIDE] = True
    audit[[i_min, i_max, int(np.argmin(ev)), int(np.argmax(ev))]] = True
    k = np.flatnonzero(audit)
    turn = np.arange(k.size) % zs.cos_phi.size
    entries = formulas.projected_hessian(
        x[k], y[k], 4.0 * (s[k] * zs.cos_phi[turn]),
        4.0 * (s[k] * zs.sin_phi[turn]), a[k], b[k])
    lapack = np.linalg.eigvalsh(_symmetric(*entries))[:, 0]
    if not np.all(np.abs(lapack - ev[k]) <= _CONFIRM_TOL * scale[k]):
        raise OracleInconsistency(
            "closed-form and LAPACK smallest eigenvalues disagree")

    def point(i):
        return float(lam[i]), float(nu[i]), float(s[i]), 0.0

    min_rel = float(rel[i_min])
    witnesses = []
    if min_rel < -_DEFINITE_TOL:
        verdict = "indefinite"
        witnesses.append(point(i_min))
    elif min_rel > _DEFINITE_TOL:
        verdict = "posdef"
    else:
        verdict = "degenerate"
    return ScanReport(
        target=f"tangential-hessian mu={params.mu} c={c} "
               f"{HillComponent(component).value}",
        grid=grid,
        min_value=float(ev.min()), argmin=point(i_min),
        max_value=float(ev.max()), argmax=point(i_max),
        witnesses=witnesses, verdict=verdict,
        samples=zs.s.size, failures=zs.s.size - pos.size,
        wall_time=time.perf_counter() - t0,
        counters={"positions": int(pos.size),
                  "lapack_samples": int(k.size)})
