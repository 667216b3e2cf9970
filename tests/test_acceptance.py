"""End-to-end acceptance suite.

Each test pins one headline guarantee of the package: the exact identity
suite, the derived constants, the threshold ladder, theory-vs-oracle
agreement for the regularized Hessian, the boundary non-convexity
witness, fiberwise convexity at equal masses, derivative validation,
exact cross-evaluation of the closed forms, the tangency constants, and
the figure data.
"""

import csv
import math
import time

import numpy as np
import pytest

from euler2c import elliptic, levicivita, model, scan
from euler2c.cli import main
from euler2c.exactpoly import verify_all, verify_identity
from euler2c.fiberwise import U_derivs, curvature_numerator
from euler2c.levicivita import (
    F_value,
    V_eval,
    nonconvex_witness_levi,
    tangency_check,
    tilde_derivatives,
    x0_of,
)
from euler2c.model import (HillComponent, ProblemParams, hill_boundary,
                           potential_U)
from finite_differences import fd_derivative

import regularizations
from regularizations import holds


def test_01_exact_identity_suite():
    t0 = time.perf_counter()
    results = verify_all()
    elapsed = time.perf_counter() - t0
    assert len(results) == 14
    for r in results:
        assert r.passed, f"{r.name} failed: {r.difference}"
    assert elapsed < 60.0


def test_02_constants_and_eta_normalization():
    assert ProblemParams(0.5).c_jacobi == -2.0
    assert ProblemParams(0.5).l == 0.5
    rng = np.random.default_rng(2)
    for mu in rng.uniform(0.01, 0.99, 50):
        cj = ProblemParams(float(mu)).c_jacobi
        m4 = (1.0 - 2.0 * mu) ** 4
        assert abs(elliptic.eta(cj, float(mu)) + (27.0 / 256.0) * m4) \
            < 1e-12


def test_03_threshold_chain():
    t0 = time.perf_counter()
    for mu in np.arange(0.05, 0.46, 0.05):
        p = ProblemParams(float(mu))
        th = elliptic.thresholds(p)
        assert th.c_E_pp < th.c0 < p.c_jacobi
        # eta sign change certified at the bracketing endpoints
        assert elliptic.eta(th.c_E_pp, p.mu) > 0.0
        assert elliptic.eta(p.c_jacobi, p.mu) < 0.0
    assert time.perf_counter() - t0 < 5.0


def test_04_regularized_hessian_oracle_agreement():
    t0 = time.perf_counter()
    grid = (100, 100, 16)
    for mu in (0.2, 0.35):
        p = ProblemParams(mu)
        th = elliptic.thresholds(p)
        below = th.c0 - 0.1
        mid = 0.5 * (th.c0 + p.c_jacobi)
        # Earth (heavier primary for mu < 1/2): convex below c0 only
        rep = elliptic.oracle_convexity(p, below, HillComponent.EARTH,
                                        grid=grid)
        assert rep.verdict == "posdef"
        assert elliptic.convexity_verdict(
            p, below, HillComponent.EARTH).value == "convex"
        rep = elliptic.oracle_convexity(p, mid, HillComponent.EARTH,
                                        grid=grid)
        assert rep.verdict == "indefinite" and rep.witnesses
        assert elliptic.convexity_verdict(
            p, mid, HillComponent.EARTH).value == "nonconvex"
        # Moon (lighter): convex at both energies
        for c in (below, mid):
            rep = elliptic.oracle_convexity(p, c, HillComponent.MOON,
                                            grid=grid)
            assert rep.verdict == "posdef"
            assert elliptic.convexity_verdict(
                p, c, HillComponent.MOON).value == "convex"
    p = ProblemParams(0.5)
    for c in (-2.05, -3.0):
        for comp in HillComponent:
            rep = elliptic.oracle_convexity(p, c, comp, grid=grid)
            assert rep.verdict == "posdef"
            assert elliptic.convexity_verdict(p, c, comp).value == "convex"
    assert time.perf_counter() - t0 < 120.0


def test_05_boundary_nonconvexity_witness():
    t0 = time.perf_counter()
    p = ProblemParams(0.3)
    c = p.c_jacobi
    x0 = x0_of(p, c)
    w, _, _ = nonconvex_witness_levi(p, c)
    assert w is not None
    x, y, f = w
    assert f < -1e-8
    assert x0 - 0.1 < x < x0
    # axis crossings of V = 0: F is nonnegative there
    for xc in (x0, -x0):
        assert F_value(xc, 0.0, p, c) >= -1e-10
    # inflection bracket around 16/17
    v93 = tilde_derivatives(ProblemParams(0.93))["V3_closed"]
    v95 = tilde_derivatives(ProblemParams(0.95))["V3_closed"]
    assert v93 > 0 > v95
    assert time.perf_counter() - t0 < 10.0


def test_06_fiberwise_convexity_and_witness():
    t0 = time.perf_counter()
    p = ProblemParams(0.5)
    for e in (-2.1, -3.0, -6.0, -20.0):
        pts = hill_boundary(p, e, HillComponent.EARTH, n=2048)
        cv = curvature_numerator((pts[:, 0], pts[:, 1]), p)
        assert pts.shape[0] >= 2000
        assert np.min(cv) > 1e-10
    # at c_J the least C on the closed-form Earth rim lies just short of
    # the vertex (l, 0), and is negative
    p3 = ProblemParams(0.3)
    c = p3.c_jacobi
    pts = hill_boundary(p3, c, HillComponent.EARTH, n=1024)
    cv = curvature_numerator((pts[:, 0], pts[:, 1]), p3)
    k = int(np.argmin(cv))
    q1, q2 = pts[k].tolist()
    assert p3.l - 0.1 * p3.l < q1 < p3.l
    assert cv[k] == float(curvature_numerator((q1, q2), p3)) < 0
    assert abs(potential_U((q1, q2), p3) - c) < 1e-14
    assert time.perf_counter() - t0 < 30.0


def _sample_points(rng, n, exclude, min_dist=0.1, box=(-1.5, 2.5, -1.5, 1.5)):
    pts = []
    while len(pts) < n:
        x = rng.uniform(box[0], box[1])
        y = rng.uniform(box[2], box[3])
        if all(math.hypot(x - a, y - b) > min_dist for a, b in exclude):
            pts.append((x, y))
    return pts


def _fd1(f, x, y, ox, oy, h):
    """Richardson-extrapolated central first difference (O(h^4))."""
    c1 = fd_derivative(f, x, y, ox, oy, h)
    c2 = fd_derivative(f, x, y, ox, oy, 0.5 * h)
    return (4.0 * c2 - c1) / 3.0


def test_07_derivative_tables():
    """Validate every closed derivative table against finite differences.

    Each order-k table is differenced from the closed order-(k-1) table,
    so every comparison is a first or second difference of an analytic
    expression; direct high-order differences of the base function would
    drown in binary64 roundoff long before 1e-6. The equal-mass polar
    derivatives of C have closed forms, checked exactly.
    """
    rng = np.random.default_rng(7)
    p = ProblemParams(0.3)

    # -- U through order 3 over >= 500 interior samples
    pts = _sample_points(rng, 500, [(0.0, 0.0), (1.0, 0.0)])
    # each partial against a first difference of the one below it
    ladder = [((i + ox, j + oy), (i, j), ox, oy)
              for i, j, ox, oy in [(0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 1, 0),
                                   (1, 0, 0, 1), (0, 1, 0, 1), (2, 0, 1, 0),
                                   (2, 0, 0, 1), (1, 1, 0, 1), (0, 2, 0, 1)]]
    for name, base, ox, oy in ladder:
        fb = lambda x, y: U_derivs((x, y), p)[base]
        worst = 0.0
        vals = [U_derivs(q, p)[name] for q in pts]
        scale = max(abs(v) for v in vals)
        for (x, y), v in zip(pts, vals):
            fd = _fd1(fb, x, y, ox, oy, 1e-5)
            worst = max(worst, abs(fd - v) / max(abs(v), 1e-5 * scale))
        assert worst < 1e-6, (name, worst)

    # -- V through order 3 over >= 500 interior samples
    c = p.c_jacobi
    moon_pre = math.sqrt(0.5)
    pts = _sample_points(rng, 500, [(moon_pre, 0.0), (-moon_pre, 0.0)],
                         min_dist=0.15, box=(-1.0, 1.0, -1.0, 1.0))
    for name, base, ox, oy in ladder:
        if base == (0, 0):
            fb = lambda x, y: levicivita.V_value(x, y, p, c)
        else:
            fb = lambda x, y: V_eval(x, y, p, c)[base]
        worst = 0.0
        vals = [V_eval(x, y, p, c)[name] for x, y in pts]
        scale = max(abs(v) for v in vals)
        for (x, y), v in zip(pts, vals):
            fd = _fd1(fb, x, y, ox, oy, 1e-5)
            worst = max(worst, abs(fd - v) / max(abs(v), 1e-5 * scale))
        assert worst < 1e-6, (name, worst)

    # -- U along the cone line through (l, 0), through order 4, over
    # >= 500 samples
    def line(t, p):
        d = model._U_partials((t, math.sqrt(2.0) * (t - p.l)), p, 4)
        return [d[0, 0]] + [scan._cone_derivative(d, 0, 0, k)
                            for k in range(1, 5)]

    ts = rng.uniform(0.05, 0.55, 500)
    for k in range(1, 5):
        fb = lambda t, _y=0.0: line(t, p)[k - 1]
        worst = 0.0
        vals = [line(t, p)[k] for t in ts]
        scale = max(abs(v) for v in vals)
        for t, v in zip(ts, vals):
            fd = _fd1(fb, float(t), 0.0, 1, 0, 1e-5)
            worst = max(worst, abs(fd - v) / max(abs(v), 1e-5 * scale))
        assert worst < 1e-6, (k, worst)

    # the fourth derivative along the line, pinned at equal masses
    assert line(0.5, ProblemParams(0.5))[4] == pytest.approx(2688.0, rel=1e-6)

    # -- the polar closed forms of C_r and C_theta at equal masses, exact
    assert holds(regularizations.equal_mass_polar_derivatives())


def test_08_cross_evaluation_oracles():
    # each closed form against the evaluation it replaces, exactly: the
    # curvature numerator C (scan.level_curvature of U's partials) and the
    # projected-Hessian determinant (det-frame)
    assert holds(regularizations.curvature_closed_form())
    assert verify_identity("det-frame").passed


def test_09_tangency_constants():
    # exact, for any mu: -U_11/U_22 and the squared slope of the C = 0
    # branch at (l, 0) are 2
    assert holds(regularizations.cone_contact())
    for mu in (0.3, 0.5, 0.12):
        p = ProblemParams(mu)
        t = tangency_check(p)
        assert t["slope_sq"] == pytest.approx(2.0, abs=1e-8)


def test_10_figure_data(tmp_path):
    out = tmp_path / "quartic.csv"
    assert main(["curve", "quartic", "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    d = min(math.hypot(float(r["x"]) - 1.0, float(r["c"]) + 2.0)
            for r in rows)
    assert d < 1e-6

    out = tmp_path / "c0.csv"
    assert main(["curve", "c0curve", "--n", "21", "--mu-min", "0.25",
                 "--mu-max", "0.75", "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    mid = [r for r in rows if abs(float(r["mu"]) - 0.5) < 1e-12]
    assert mid
    assert abs(float(mid[0]["c0"]) - float(mid[0]["c_jacobi"])) < 1e-9
