"""Generic numerics: the curvature numerator of a level set and its
gradient, read from one partials table {(i, j): d_x^i d_y^j f}, and the
callback that traces its zero set; sign scans that bisect every
sign-changing grid edge at once; and implicit-curve tracing.

All routines are deterministic: grids are regular and traces are seeded
explicitly, so identical inputs produce identical reports.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import TraceFailure

__all__ = ["ScanReport", "Polyline", "level_curvature",
           "level_curvature_grad", "level_curvature_tracer", "sign_scan",
           "trace_implicit"]

GRAD_COLLAPSE_TOL = 1e-7
# |f| below this is on the zero set, for a scan witness and a trace
# point alike; perfbench/checks.py relies on traces keeping it at 1e-10
ZERO_TOL = 1e-10


@dataclass
class ScanReport:
    """Outcome of a sign/definiteness scan over a rectangular grid;
    counters holds the work counts a scan reports beyond samples and
    failures (empty for sign_scan)."""

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
    counters: dict = field(default_factory=dict)


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
    """f on coordinate arrays, which must give an array of their shape."""
    Z = np.asarray(f(X, Y), dtype=float)
    if Z.shape != X.shape:
        raise ValueError(f"field of shape {Z.shape} on a {X.shape} grid")
    return Z


def level_curvature(d):
    """Curvature numerator f_xx f_y^2 + f_yy f_x^2 - 2 f_x f_y f_xy of
    the level set of f through a point, from the table d = {(i, j):
    d_x^i d_y^j f} of f's partials there (the entries of orders one and
    two are read); the curvature is this over |grad f|^3. Elementwise on
    arrays; the integer literals let it run on exactpoly.MultiPoly
    tables too. At a critical point of f it vanishes to order three
    along each line of the tangent cone, for every f (an exact identity
    in tests/regularizations.py), so its sign there is read at order
    four."""
    fx, fy = d[1, 0], d[0, 1]
    return d[2, 0] * fy ** 2 + d[0, 2] * fx ** 2 - 2 * fx * fy * d[1, 1]


def level_curvature_grad(d):
    """Gradient of K = level_curvature(d) from the table d of f's
    partials through order three: K_x is K with the second partials
    replaced by (f_xxx, f_xxy, f_xyy), plus 2 f_x det Hess f, and K_y is
    K with (f_xxy, f_xyy, f_yyy), plus 2 f_y det Hess f."""
    fx, fy = d[1, 0], d[0, 1]
    det2 = 2 * (d[2, 0] * d[0, 2] - d[1, 1] ** 2)
    kx = (d[3, 0] * fy ** 2 + d[1, 2] * fx ** 2 - 2 * fx * fy * d[2, 1]
          + fx * det2)
    ky = (d[2, 1] * fy ** 2 + d[0, 3] * fx ** 2 - 2 * fx * fy * d[1, 2]
          + fy * det2)
    return kx, ky


def level_curvature_tracer(table):
    """(x, y) -> (K, K_x, K_y) for trace_implicit, K = level_curvature of
    the partials table through order three that table(x, y) returns, from
    one call of it per point."""
    def f(x, y):
        d = table(x, y)
        return level_curvature(d), *level_curvature_grad(d)
    return f


def sign_scan(f, region, grid=(400, 400), target="field"):
    """Scan a scalar field for sign changes on a rectangle.

    f gets coordinate arrays only and must return an array of their
    shape (ValueError otherwise); its exceptions propagate. Every pair
    of grid neighbours, along either axis, whose ends are finite and
    split by f > 0 against f <= 0 is bisected, all pairs together with
    one array call of f per step, until |f| < ZERO_TOL at the midpoint
    (a witness) or f there is not finite (the pair is dropped). All
    witnesses are returned, in grid order of the pair's first end, the
    x pair before the y pair. Non-finite grid values count as failures.
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
        done = np.abs(fm) < ZERO_TOL
        found[lane[done]] = np.stack([mx, my, fm], axis=1)[done]
        keep = np.isfinite(fm) & ~done
        to_a = keep & ((fm > 0) == a_pos)
        ax, ay = np.where(to_a, mx, ax), np.where(to_a, my, ay)
        bx, by = np.where(to_a, bx, mx), np.where(to_a, by, my)
        ax, ay, bx, by, a_pos, lane = (v[keep] for v in
                                       (ax, ay, bx, by, a_pos, lane))
    witnesses = [tuple(w) for w in found[~np.isnan(found[:, 2])].tolist()]

    verdict = "sign-change" if witnesses else (
        "positive" if min_value > 0 else
        "negative" if max_value < 0 else "indeterminate")
    return ScanReport(target, (nx, ny), min_value, argmin, max_value,
                      argmax, witnesses, verdict, samples, failures,
                      time.perf_counter() - t0)


def trace_implicit(f, seed, step=1e-3, max_len=10.0, direction=None):
    """Trace the implicit curve f = 0 by predictor-corrector, where
    ``f(x, y)`` returns ``(value, f_x, f_y)`` from one evaluation per
    Newton iterate.

    The predictor steps along the unit tangent (perpendicular to the
    gradient); the corrector projects back onto the curve by Newton
    iterations, to |f| < ZERO_TOL (100 ZERO_TOL after 20 of them).
    Tracing terminates on closure (return near the seed),
    on exceeding ``max_len`` of arc length, or on gradient collapse
    (||grad f|| < 1e-7, flagged).

    ``direction`` (a 2-vector) orients the first step; subsequent steps
    keep a consistent orientation.
    """
    def project(x, y):
        for _ in range(20):
            v, gx, gy = f(x, y)
            if abs(v) < ZERO_TOL:
                return x, y, v, gx, gy
            n2 = gx * gx + gy * gy
            if n2 < GRAD_COLLAPSE_TOL ** 2:
                return None
            x -= v * gx / n2
            y -= v * gy / n2
        v, gx, gy = f(x, y)
        if abs(v) < 100 * ZERO_TOL:
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
