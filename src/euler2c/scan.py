"""Generic numerics: sign scans that bisect every sign-changing grid edge
at once, implicit-curve tracing, and finite-difference validation of
closed-form derivatives.

All routines are deterministic: grids are regular and traces are seeded
explicitly, so identical inputs produce identical reports.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import TraceFailure

__all__ = ["ScanReport", "Polyline", "level_curvature",
           "level_curvature_grad", "sign_scan", "trace_implicit", "fd_check"]

GRAD_COLLAPSE_TOL = 1e-7


@dataclass
class ScanReport:
    """Outcome of a sign/definiteness scan over a rectangular grid."""

    target: str
    grid: tuple
    min_value: float
    argmin: tuple
    max_value: float
    argmax: tuple
    witnesses: list
    verdict: str
    samples: int
    failures: int
    wall_time: float


@dataclass
class Polyline:
    """An ordered polyline approximating an implicit curve f = 0."""

    points: np.ndarray
    closed: bool
    max_residual: float
    mean_residual: float
    gradient_collapse: bool = False
    collapse_point: tuple | None = None

    def __len__(self):
        return len(self.points)


def _eval_field(f, X, Y):
    """Evaluate f on coordinate arrays, vectorized when possible."""
    try:
        Z = np.asarray(f(X, Y), dtype=float)
        if Z.shape != X.shape:
            raise ValueError
        return Z
    except Exception:
        Z = np.empty(X.shape)
        flat = Z.ravel()
        xf, yf = X.ravel(), Y.ravel()
        for i in range(flat.size):
            try:
                flat[i] = f(xf[i], yf[i])
            except Exception:
                flat[i] = np.nan
        return Z


def level_curvature(fx, fy, fxx, fxy, fyy):
    """Curvature numerator f_xx f_y^2 + f_yy f_x^2 - 2 f_x f_y f_xy of
    the level set of f through a point, from the partial derivatives of
    f there; the curvature is this over |grad f|^3. Elementwise on
    arrays."""
    return fxx * fy ** 2 + fyy * fx ** 2 - 2.0 * fx * fy * fxy


def level_curvature_grad(fx, fy, fxx, fxy, fyy, fxxx, fxxy, fxyy, fyyy):
    """Gradient of K = level_curvature(fx, fy, fxx, fxy, fyy) from the
    partials of f through order three: K_x is K of (fxxx, fxxy, fxyy) plus
    2 fx det Hess f, K_y is K of (fxxy, fxyy, fyyy) plus 2 fy det Hess f."""
    det2 = 2.0 * (fxx * fyy - fxy ** 2)
    return (level_curvature(fx, fy, fxxx, fxxy, fxyy) + fx * det2,
            level_curvature(fx, fy, fxxy, fxyy, fyyy) + fy * det2)


def sign_scan(f, region, grid=(400, 400), tol=1e-10, target="field",
              max_witnesses=64):
    """Scan a scalar field for sign changes on a rectangle.

    Every pair of grid neighbours, along either axis, whose ends are
    finite and split by f > 0 against f <= 0 is bisected, all pairs
    together with one array call of f per step, until |f| < tol at the
    midpoint (a witness) or f there is not finite (the pair is dropped).
    Witnesses come in grid order of the pair's first end, the x pair
    before the y pair, at most ``max_witnesses`` of them (all when
    None). Evaluation failures (NaN) are counted, not fatal.
    """
    t0 = time.perf_counter()
    x0, x1, y0, y1 = region
    nx, ny = grid
    if nx < 2 or ny < 2:
        raise ValueError("grid must be at least 2x2")
    xs = np.linspace(x0, x1, nx)
    ys = np.linspace(y0, y1, ny)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    # eight rows at a time keeps the temporaries of a field like C small
    Z = np.concatenate([_eval_field(f, X[i:i + 8], Y[i:i + 8])
                        for i in range(0, nx, 8)])
    failures = int(np.count_nonzero(~np.isfinite(Z)))
    samples = Z.size

    finite = np.isfinite(Z)
    if not finite.any():
        raise TraceFailure("field evaluation failed everywhere")
    imin = np.unravel_index(np.nanargmin(Z), Z.shape)
    imax = np.unravel_index(np.nanargmax(Z), Z.shape)
    min_value, argmin = float(Z[imin]), (float(X[imin]), float(Y[imin]))
    max_value, argmax = float(Z[imax]), (float(X[imax]), float(Y[imax]))

    # neighbour pairs (ia, ib) as flat indices, in the order of ia with
    # the x pair first; bisect those whose ends are finite and split
    idx = np.arange(Z.size).reshape(Z.shape)
    ia = np.concatenate([idx[:-1].ravel(), idx[:, :-1].ravel()])
    ib = np.concatenate([idx[1:].ravel(), idx[:, 1:].ravel()])
    order = np.argsort(ia, kind="stable")
    ia, ib = ia[order], ib[order]
    Xf, Yf, Zf, ok = X.ravel(), Y.ravel(), Z.ravel(), finite.ravel()
    split = ok[ia] & ok[ib] & ((Zf[ia] > 0) != (Zf[ib] > 0))
    ia, ib = ia[split], ib[split]

    ax, ay, bx, by = Xf[ia], Yf[ia], Xf[ib], Yf[ib]
    a_pos = Zf[ia] > 0
    lane = np.arange(ia.size)
    found = np.full((ia.size, 3), np.nan)
    for _ in range(200):
        if lane.size == 0:
            break
        mx, my = 0.5 * (ax + bx), 0.5 * (ay + by)
        fm = _eval_field(f, mx, my)
        done = np.abs(fm) < tol
        found[lane[done]] = np.stack([mx, my, fm], axis=1)[done]
        keep = np.isfinite(fm) & ~done
        to_a = keep & ((fm > 0) == a_pos)
        ax, ay = np.where(to_a, mx, ax), np.where(to_a, my, ay)
        bx, by = np.where(to_a, bx, mx), np.where(to_a, by, my)
        ax, ay, bx, by, a_pos, lane = (v[keep] for v in
                                       (ax, ay, bx, by, a_pos, lane))
    witnesses = [tuple(w) for w in
                 found[~np.isnan(found[:, 2])].tolist()][:max_witnesses]

    verdict = "sign-change" if witnesses else (
        "positive" if min_value > 0 else
        "negative" if max_value < 0 else "indeterminate")
    return ScanReport(target, (nx, ny), min_value, argmin, max_value,
                      argmax, witnesses, verdict, samples, failures,
                      time.perf_counter() - t0)


def trace_implicit(f, seed, step=1e-3, max_len=10.0, tol=1e-10,
                   direction=None, stop=None):
    """Trace the implicit curve f = 0 by predictor-corrector, where
    ``f(x, y)`` returns ``(value, f_x, f_y)`` from one evaluation per
    Newton iterate.

    The predictor steps along the unit tangent (perpendicular to the
    gradient); the corrector projects back onto the curve by Newton
    iterations. Tracing terminates on closure (return near the seed),
    on exceeding ``max_len`` of arc length, on gradient collapse
    (||grad f|| < 1e-7, flagged), or when the optional ``stop`` predicate
    returns True at a vertex.

    ``direction`` (a 2-vector) orients the first step; subsequent steps
    keep a consistent orientation.
    """
    def project(x, y):
        for _ in range(20):
            v, gx, gy = f(x, y)
            if abs(v) < tol:
                return x, y, v, gx, gy
            n2 = gx * gx + gy * gy
            if n2 < GRAD_COLLAPSE_TOL ** 2:
                return None
            x -= v * gx / n2
            y -= v * gy / n2
        v, gx, gy = f(x, y)
        if abs(v) < 100 * tol:
            return x, y, v, gx, gy
        return None

    start = project(*seed)
    if start is None:
        raise TraceFailure(f"could not project seed {seed} onto the curve")
    x, y, v, gx, gy = start
    pts = [(x, y)]
    residuals = [abs(v)]
    prev_t = direction
    collapse_point = None
    closed = False
    arclen = 0.0
    nmax = max(16, int(max_len / step) + 4)

    for k in range(nmax):
        gn = math.hypot(gx, gy)
        if gn < GRAD_COLLAPSE_TOL:
            collapse_point = (x, y)
            break
        tx, ty = -gy / gn, gx / gn
        if prev_t is not None and tx * prev_t[0] + ty * prev_t[1] < 0:
            tx, ty = -tx, -ty
        prev_t = (tx, ty)
        nxt = project(x + step * tx, y + step * ty)
        if nxt is None:
            # try a smaller predictor step before giving up
            nxt = project(x + 0.25 * step * tx, y + 0.25 * step * ty)
            if nxt is None:
                pl = _mk_polyline(pts, residuals, False, None)
                raise TraceFailure("Newton projection failed mid-trace",
                                   partial=pl)
        arclen += math.hypot(nxt[0] - x, nxt[1] - y)
        x, y, v, gx, gy = nxt
        pts.append((x, y))
        residuals.append(abs(v))
        if stop is not None and stop(x, y):
            break
        if k > 4 and math.hypot(x - pts[0][0], y - pts[0][1]) < 0.75 * step:
            closed = True
            break
        if arclen >= max_len:
            break

    return _mk_polyline(pts, residuals, closed, collapse_point)


def _mk_polyline(pts, residuals, closed, collapse_point):
    return Polyline(np.asarray(pts, dtype=float), closed,
                    float(np.max(residuals)), float(np.mean(residuals)),
                    collapse_point is not None, collapse_point)


# -- finite differences -----------------------------------------------------

_STENCILS = {
    1: ([(1, 0.5), (-1, -0.5)], 1),
    2: ([(1, 1.0), (0, -2.0), (-1, 1.0)], 2),
    3: ([(2, 0.5), (1, -1.0), (-1, 1.0), (-2, -0.5)], 3),
    4: ([(2, 1.0), (1, -4.0), (0, 6.0), (-1, -4.0), (-2, 1.0)], 4),
}


def fd_derivative(f, x, y, order_x, order_y, h):
    """Central finite-difference estimate of a mixed partial derivative
    of f(x, y), composing 1-D second-order stencils."""
    if order_x == 0 and order_y == 0:
        return f(x, y)
    if order_x > 0:
        offs, power = _STENCILS[order_x]
        return sum(w * fd_derivative(f, x + k * h, y, 0, order_y, h)
                   for k, w in offs) / h ** power
    offs, power = _STENCILS[order_y]
    return sum(w * f(x, y + k * h) for k, w in offs) / h ** power


def fd_check(f, derivs, points, h=1e-5, h4=1e-3, scale_floor=1e-8):
    """Compare claimed derivative evaluators against finite differences.

    Parameters
    ----------
    f : callable (x, y) -> value
    derivs : dict mapping (order_x, order_y) to a callable (x, y)
    points : iterable of (x, y) sample points interior to the domain
    h : step for orders 1-3; h4 : step for total order 4

    Returns a dict mapping each multi-index to its maximum scaled relative
    error over the sample points. The scale per point is |closed value|,
    floored by the largest closed value seen for that derivative (times
    scale_floor) so that incidental zeros of a derivative do not blow up
    the quotient.
    """
    points = list(points)
    table = {}
    for key, claimed in derivs.items():
        ox, oy = key
        step = h4 if ox + oy >= 4 else h
        exact = [claimed(x, y) for (x, y) in points]
        scale = max((abs(e) for e in exact), default=1.0)
        floor = max(scale * scale_floor, 1e-300)
        worst = 0.0
        for (x, y), e in zip(points, exact):
            approx = fd_derivative(f, x, y, ox, oy, step)
            worst = max(worst, abs(approx - e) / max(abs(e), floor))
        table[key] = worst
    return table
