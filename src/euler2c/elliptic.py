"""Doubly-covered elliptic coordinates and the regularized Hamiltonian.

Positions are described by confocal elliptic coordinates (lambda, nu)
with cosh(lambda) = r1 + r2 and cos(nu) = r1 - r2 (Centered frame,
primaries at (-1/2, 0) and (1/2, 0), inter-focal distance 1), nu running
over a full circle so that the chart doubly covers the plane. The
regularized Hamiltonian at energy c is

    Q = 2 p_lam^2 - 2 cosh(lam) - c cosh(lam)^2
      + 2 p_nu^2 + 2 (1-2mu) cos(nu) + c cos(nu)^2,

whose zero set is the compactified energy hypersurface. This module
holds the closed-form spectrum of the Hessian of Q projected to the
tangent space of that zero set, and a brute-force convexity oracle over
the zero set above the positions of model.hill_region, which the
fiberwise verdict reads too. The chart itself, and the identity
Q = (H - c)(cosh^2 lam - cos^2 nu), are checked exactly in the tests.
The threshold ladder ending in c0(mu) and the theory verdict are
re-exported from the NumPy-free ``ladder``: c_E and c_M are roots of
one cubic, c0 is found by Newton on its gap to c_J, and the theory
verdict for the heavier lobe is the exact rational sign of eta, with
no float c0.

The tangent frame X = (-y, x, w, -z), Y = (-z, -w, x, y),
Z = (-w, z, -y, x) of grad Q = (x, y, z, w) is orthogonal and each
vector has squared norm n2 = |grad Q|^2, so the projected Hessian is n2
times the Hessian of Q compressed to the tangent space. Its spectrum is closed-form: the
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

import time

import numpy as np

from . import formulas
from .errors import EnergyAboveCritical, OracleInconsistency
from .ladder import (HillComponent, Thresholds, Verdict, convexity_verdict,
                     eta, roots_ab, thresholds)
from .model import hill_region
from .scan import ScanReport

__all__ = [
    "Verdict",
    "Thresholds",
    "roots_ab",
    "eta",
    "thresholds",
    "convexity_verdict",
    "oracle_convexity",
]

_GRAD_FLOOR = 1e-12
_DEFINITE_TOL = 1e-9


def _lam_terms(lam, c):
    """The lambda-only frame quantities x = Q_lam and a = Q_lam_lam."""
    ch, sh = np.cosh(lam), np.sinh(lam)
    return -2.0 * sh * (1.0 + c * ch), -2.0 * formulas.g(ch, c, 1)


def _nu_terms(nu, params, c):
    """The nu-only frame quantities y = Q_nu and b = Q_nu_nu."""
    m = params.m
    cn, sn = np.cos(nu), np.sin(nu)
    return -2.0 * sn * (m + c * cn), -2.0 * formulas.g(cn, c, m)


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


# -- the convexity oracle ----------------------------------------------------

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

    The positions are those of model.hill_region, the grid and then the
    rim, with nu in [0, pi]: the deck transformation (nu, p_nu) -> (2 pi
    - nu, -p_nu) preserves Q and the spectrum. On shell, 2(p_lam^2 +
    p_nu^2) = R^2 (formulas.R2), so a position's momentum circle has
    radius s = sqrt(R^2/2), zero on the rim.

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
    Like the theory verdict, it requires c < c_J, where the two lobes
    are apart, and a grid of at least two lambda and two nu values and
    one angle, which always holds the primary's position. The Moon's
    lobe is the Earth lobe of params.swapped(), reported with
    nu -> pi - nu; the spectrum reads Q_nu only through its square.
    """
    t0 = time.perf_counter()
    if c >= params.c_jacobi:
        raise EnergyAboveCritical(
            f"c = {c} is not below c_J = {params.c_jacobi}")
    n_lam, n_nu, n_phi = grid
    if n_lam < 2 or n_nu < 2 or n_phi < 1:
        raise ValueError(
            f"grid (n_lam, n_nu, n_phi) = ({n_lam}, {n_nu}, {n_phi}) needs "
            "n_lam >= 2, n_nu >= 2 and n_phi >= 1")
    moon = HillComponent(component) is HillComponent.MOON
    lobe = params.swapped() if moon else params
    region = hill_region(lobe, c, n_lam, n_nu)
    s = np.sqrt(0.5 * region.R2)
    x, a = _lam_terms(region.lam, c)
    y, b = _nu_terms(region.nu, lobe, c)
    z = 4.0 * s
    n2 = x * x + y * y + z * z
    pos = np.flatnonzero(n2 > _GRAD_FLOOR)
    x, y, z, a, b, n2, lam, nu, s = (v[pos] for v in (
        x, y, z, a, b, n2, region.lam, region.nu, s))
    nu = np.pi - nu if moon else nu
    e4, mu_lo, _ = _tangent_spectrum(x, y, z, 0.0, a, b)
    ev = np.minimum(e4, mu_lo)
    scale = n2 * np.maximum(np.maximum(np.abs(a), np.abs(b)), 4.0)
    rel = ev / scale
    i_min, i_max = int(np.argmin(rel)), int(np.argmax(rel))

    audit = ~np.isfinite(ev)
    audit[::_AUDIT_STRIDE] = True
    audit[[i_min, i_max, int(np.argmin(ev)), int(np.argmax(ev))]] = True
    k = np.flatnonzero(audit)
    phi = np.linspace(0.0, 2.0 * np.pi, n_phi,
                      endpoint=False)[np.arange(k.size) % n_phi]
    entries = formulas.projected_hessian(
        x[k], y[k], 4.0 * (s[k] * np.cos(phi)), 4.0 * (s[k] * np.sin(phi)),
        a[k], b[k])
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
        samples=region.R2.size, failures=region.R2.size - pos.size,
        wall_time=time.perf_counter() - t0,
        counters={"positions": int(pos.size),
                  "lapack_samples": int(k.size)})
