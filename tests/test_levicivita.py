"""Levi-Civita regularization: potential derivatives, tangency, witnesses."""

import math
from fractions import Fraction

import numpy as np
import pytest

from euler2c.errors import MoonCollision
from euler2c.exactpoly import ring
from euler2c.ladder import theorem_verdict
from euler2c.levicivita import (
    F_value,
    F_with_grad,
    V_eval,
    V_value,
    nonconvex_witness_levi,
    radicand,
    rim_preimage,
    tangency_check,
    tilde_derivatives,
    x0_of,
)
from euler2c.model import (HillComponent, ProblemParams, U_derivs,
                           hill_boundary)
from finite_differences import fd_check, fd_derivative

import regularizations
from regularizations import holds

X0_03 = 0.5497072294690329  # x0(mu=0.3, c=c_J)


class TestRegularization:
    def test_radicand_form(self, rng):
        for _ in range(20):
            x, y = rng.uniform(-1, 1, 2)
            expect = (2 * x * x - 2 * y * y - 1) ** 2 + 16 * x * x * y * y
            assert radicand(x, y) == pytest.approx(expect, rel=1e-14)

    def test_radicand_near_moon_preimage(self):
        # at mu = 1e-4, c = -100 the Moon rim lies about 1e-6 from the
        # Moon; on its preimage the expanded radicand was off by 3.3e-4
        # relative to |q - 1|^2 and |V| read 8.3e-3
        p = ProblemParams(1e-4)
        q = hill_boundary(p, -100.0, HillComponent.MOON, n=64)
        v = np.sqrt(0.5 * (q[:, 0] + 1j * q[:, 1]))
        for x, y in ((v.real, v.imag), (-v.real, -v.imag)):
            rho = radicand(x, y)
            assert np.max(np.abs(rho / ((q[:, 0] - 1.0) ** 2 + q[:, 1] ** 2)
                                 - 1.0)) <= 1e-8
            assert np.max(np.abs(V_value(x, y, p, -100.0))) <= 1e-7

    def test_K_is_conformal_H(self):
        # exact: K_c(v, u) = (H(q, p) - c) |v|^2 under q = 2 v^2,
        # p = u/conj(v), with w = rho^(-1/2) the inverse Moon distance
        assert holds(regularizations.levi_civita_hamiltonian())

    def test_chart_distances(self):
        # exact: |q| = 2 |v|^2 and |q - 1|^2 = rho (formulas.lc_radicand)
        assert holds(regularizations.levi_civita_distances())

    def test_pullback_is_four_u_dv(self):
        # exact: p.dq = 4 u.dv, so the map is symplectic up to the
        # factor 4, not 1
        assert holds(regularizations.levi_civita_pullback(4))
        assert not any(d.is_zero
                       for d in regularizations.levi_civita_pullback(1))

    def test_moon_collision(self, p03):
        # v^2 = 1/2 maps to the Moon q = (1, 0)
        with pytest.raises(MoonCollision):
            V_value(math.sqrt(0.5), 0.0, p03, -2.0)

    def test_equal_mass_boundary_point(self, p05):
        # x0 = 1/2 at mu = 1/2, c = -2, and V vanishes there exactly
        assert x0_of(p05, -2.0) == 0.5
        assert V_value(0.5, 0.0, p05, -2.0) == 0.0


class TestDerivatives:
    def test_first_and_second_fd(self, p03):
        c = p03.c_jacobi
        f = lambda x, y: V_value(x, y, p03, c)
        pts = [(0.3, 0.2), (0.55, 0.1), (0.2, -0.4), (-0.5, 0.3)]
        derivs = {a: lambda x, y, a=a: V_eval(x, y, p03, c)[a]
                  for a in [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]}
        table = fd_check(f, derivs, pts, h=1e-5)
        assert all(err < 1e-6 for err in table.values())

    def test_third_order_hierarchical(self, p03):
        # validate each third derivative as a first difference of the
        # closed second derivatives (direct third differences drown in
        # roundoff at the 1e-6 level)
        c = p03.c_jacobi
        pairs = [
            ((3, 0), (2, 0), 1, 0),
            ((2, 1), (2, 0), 0, 1),
            ((1, 2), (1, 1), 0, 1),
            ((0, 3), (0, 2), 0, 1),
        ]
        for name, base, ox, oy in pairs:
            fb = lambda x, y: V_eval(x, y, p03, c)[base]
            for (x, y) in [(0.3, 0.2), (0.55, 0.1), (-0.4, 0.35)]:
                closed = V_eval(x, y, p03, c)[name]
                fd = fd_derivative(fb, x, y, ox, oy, 1e-5)
                assert fd == pytest.approx(closed, rel=1e-6, abs=1e-6), \
                    (name, x, y)

    @pytest.mark.parametrize("mu", [0.3, 0.7])
    def test_traced_value_and_gradient(self, mu):
        # F with its gradient from one V_eval call; the gradient is
        # scan.level_curvature_grad of the third-order table
        p = ProblemParams(mu)
        c = p.c_jacobi
        F = F_with_grad(p, c)
        pts = [(0.3, 0.2), (0.55, 0.1), (0.2, -0.4), (-0.5, 0.3)]
        for x, y in pts:
            assert F(x, y)[0] == F_value(x, y, p, c)
        table = fd_check(lambda x, y: F(x, y)[0],
                         {(1, 0): lambda x, y: F(x, y)[1],
                          (0, 1): lambda x, y: F(x, y)[2]}, pts, h=1e-5)
        assert all(err < 1e-6 for err in table.values()), table

    def test_vectorized(self, p03):
        c = p03.c_jacobi
        xs = np.array([0.3, 0.4])
        ys = np.array([0.2, -0.1])
        d = V_eval(xs, ys, p03, c)
        s = V_eval(0.3, 0.2, p03, c)
        assert all(d[a].shape == (2,) and d[a][0] == s[a] for a in s)

    def test_same_table_as_U(self, p03):
        # V_eval and model.U_derivs hand the curvature code one format:
        # the ten partials through order three, Python floats at a point
        d = V_eval(0.3, 0.2, p03, p03.c_jacobi)
        u = U_derivs((0.3, 0.2), p03)
        keys = {(i, j) for i in range(4) for j in range(4 - i)}
        assert set(d) == set(u) == keys
        assert all(type(v) is float for v in [*d.values(), *u.values()])


class TestCriticalPoints:
    def test_x0_frozen(self, p03):
        assert x0_of(p03, p03.c_jacobi) == pytest.approx(X0_03, rel=1e-14)

    def test_three_critical_points(self, p03):
        c = p03.c_jacobi
        x0 = x0_of(p03, c)
        for (x, y) in ((0.0, 0.0), (x0, 0.0), (-x0, 0.0)):
            d = V_eval(x, y, p03, c)
            assert abs(d[1, 0]) < 1e-12 and abs(d[0, 1]) < 1e-12

    def test_boundary_through_x0(self, p03):
        c = p03.c_jacobi
        x0 = x0_of(p03, c)
        assert abs(V_value(x0, 0.0, p03, c)) < 1e-10
        assert abs(V_value(-x0, 0.0, p03, c)) < 1e-10

    def test_x0_requires_bound_regime(self, p03):
        with pytest.raises(ValueError):
            x0_of(p03, 0.5)
        with pytest.raises(ValueError):
            x0_of(p03, -0.1)


class TestTangency:
    def test_slope_squared_two(self, p03, p05):
        for p in (p03, p05, ProblemParams(0.12)):
            t = tangency_check(p)
            assert t["slope_sq"] == pytest.approx(2.0, abs=1e-10)

    def test_second_derivative_closed_forms(self, p03):
        t = tangency_check(p03)
        assert t["V_xx"] == pytest.approx(t["V_xx_closed"], rel=1e-12)
        assert t["V_yy"] == pytest.approx(t["V_yy_closed"], rel=1e-12)
        assert t["V_xx"] < 0 < t["V_yy"]

    def test_cone_contact_derivatives_vanish(self):
        # relative to the size of the terms that cancel in them, F1..F3
        # are rounding at every mu: raw, F3 is 1.9e-5 at mu = 0.01 and
        # -2.1e-9 at mu = 0.3
        for mu in (0.01, 0.1, 0.3, 0.5, 0.7, 0.93):
            d = tilde_derivatives(ProblemParams(mu))
            for k in ("F1", "F2", "F3"):
                assert abs(d[k]) < 1e-13, (mu, k, d[k])

    def test_v3_closed_vs_fd(self, p03):
        # direct third differences carry ~eps/h^3 roundoff, so the raw
        # channel only certifies ~1e-3; the exact value is pinned by the
        # hierarchical check in test_third_order_hierarchical
        x0 = x0_of(p03, p03.c_jacobi)
        s2 = math.sqrt(2.0)
        vt = lambda t, _y: V_value(t, s2 * (t - x0), p03, p03.c_jacobi)
        v3_fd = fd_derivative(vt, x0, 0.0, 3, 0, 1e-3)
        assert v3_fd == pytest.approx(tilde_derivatives(p03)["V3_closed"],
                                      rel=1e-3)

    def test_inflection_sign_change(self):
        # the cubic coefficient along the cone changes sign between
        # mu = 0.93 and mu = 0.95 (threshold 16/17 = 0.941...)
        v93 = tilde_derivatives(ProblemParams(0.93))["V3_closed"]
        v95 = tilde_derivatives(ProblemParams(0.95))["V3_closed"]
        assert v93 > 0 > v95

    def test_inflection_threshold_exact(self):
        # the cone's third derivative is proportional to 10 x0^2 - 1, with
        # x0^2 = (1 - sqrt(mu / -c_J)) / 2 and c_J = -1 - 2 sqrt(mu (1 - mu)):
        # at mu = 16/17, sqrt(mu (1 - mu)) = 4/17, c_J = -25/17 and
        # mu / -c_J = 16/25, so x0^2 = 1/10 exactly
        mu = Fraction(16, 17)
        root = Fraction(4, 17)
        assert root ** 2 == mu * (1 - mu)
        cj = -1 - 2 * root
        assert cj == Fraction(-25, 17) and mu / -cj == Fraction(16, 25)
        assert (1 - Fraction(4, 5)) / 2 == Fraction(1, 10)
        # 10 x0^2 = 1 iff 25 mu = 16 (-c_J) = 16 + 32 sqrt(mu (1 - mu));
        # squared, (25 mu - 16)^2 = 1024 mu (1 - mu), that is
        # 1649 mu^2 - 1824 mu + 256 = (17 mu - 16)(97 mu - 16) = 0; the
        # unsquared form needs 25 mu >= 16, which leaves 16/17 alone
        (m,) = ring("mu")
        squared = (25 * m - 16) ** 2 - 1024 * m * (1 - m)
        assert (squared - (1649 * m ** 2 - 1824 * m + 256)).is_zero
        assert (squared - (17 * m - 16) * (97 * m - 16)).is_zero
        assert 25 * Fraction(16, 97) < 16 <= 25 * mu
        # the threshold of the levi theorem is this 16/17, rounded once
        assert 16.0 / 17.0 == float(mu)
        below = ProblemParams(float(mu) - 1e-12)
        assert theorem_verdict("levi", below, below.c_jacobi) is not None
        assert theorem_verdict("levi", ProblemParams(float(mu)),
                               ProblemParams(float(mu)).c_jacobi) is None


class TestWitness:
    def test_witness_mu03(self, p03):
        w, _, _ = nonconvex_witness_levi(p03)
        assert w is not None
        x, y, f = w
        x0 = x0_of(p03, p03.c_jacobi)
        assert x0 - 0.1 < x < x0
        assert f < -1e-8

    def test_no_witness_above_inflection(self):
        p = ProblemParams(0.95)
        w, read, least = nonconvex_witness_levi(p)
        # F at the q2 >= 0 half of 1024 points of the Earth rim
        assert w is None and read == 513 and least >= -1e-8

    # at c_J the loop is nonconvex below mu = 16/17, on both sides of 1/2;
    # at mu = 0.95, and at mu = 0.7 just below c_J, it is convex
    @pytest.mark.parametrize("mu, below, witness", [
        (0.3, 0.0, True), (0.3, 1e-3, True), (0.7, 0.0, True),
        (0.9, 0.0, True), (0.7, 1e-3, False), (0.95, 0.0, False)])
    def test_witness_is_least_of_direct_rim_read(self, mu, below, witness):
        # F at the principal roots sqrt(q/2) of the q2 >= 0 half of
        # hill_boundary's Earth rim; F is even in y, so the whole rim's
        # least F is the half's up to rounding (at mu = 0.7 and c_J it
        # lies on the other half, 1.7e-13 away)
        p = ProblemParams(mu)
        c = p.c_jacobi - below
        q = hill_boundary(p, c, HillComponent.EARTH, n=1024)
        v = np.sqrt(0.5 * (q[:, 0] + 1j * q[:, 1]))
        F = F_value(v.real, v.imag, p, c)
        k = int(np.argmin(F[:513]))
        w, read, least = nonconvex_witness_levi(p, c)
        assert read == 513 and least == F[k]
        assert least == pytest.approx(F.min(), rel=1e-12)
        if not witness:
            assert w is None and least >= -1e-8
            return
        assert w == (v[k].real, v[k].imag, F[k]) and F[k] < -1e-8
        assert abs(V_value(w[0], w[1], p, c)) < 1e-10
        x0 = x0_of(p, c)
        assert x0 - 0.1 * x0 < w[0] < x0

    @pytest.mark.parametrize("mu", np.round(np.linspace(0.005, 0.925, 47), 3))
    def test_witness_where_theorem_applies(self, mu):
        # at c_J below mu = 16/17 the boundary is nonconvex (the band
        # [0.93, 16/17) is the strict xfail levi-0.935 of test_cli)
        p = ProblemParams(float(mu))
        w, _, _ = nonconvex_witness_levi(p)
        assert w is not None
        x, y, f = w
        x0 = x0_of(p, p.c_jacobi)
        assert x0 - 0.1 * x0 < x < x0 and f < -1e-8
        assert abs(V_value(x, y, p, p.c_jacobi)) < 1e-10

    @pytest.mark.parametrize("mu", [0.955, 0.96, 0.97, 0.98, 0.99, 0.999])
    def test_no_witness_past_the_inflection(self, mu):
        assert nonconvex_witness_levi(ProblemParams(mu))[0] is None

    def test_witness_below_critical_energy(self):
        # no theorem applies below c_J, but the boundary is nonconvex
        # there: the rim read finds F = -0.777 at (0.574, 0.066)
        p = ProblemParams(0.1)
        c = p.c_jacobi - 0.01
        (x, y, f), _, _ = nonconvex_witness_levi(p, c)
        assert f < -0.01
        assert f == pytest.approx(F_value(x, y, p, c), rel=1e-12)
        assert abs(V_value(x, y, p, c)) < 1e-10

    @pytest.mark.parametrize("mu", [0.3, 0.7])
    @pytest.mark.parametrize("below", [0.0, 0.5])
    def test_rim_preimage(self, mu, below):
        # +-sqrt(q/2) of either rim lies on V = 0; unwound, the roots of
        # the Earth rim, which winds around 0, run in half-angle from 0
        # to pi in one arc
        p = ProblemParams(mu)
        c = p.c_jacobi - below
        for comp in HillComponent:
            q = hill_boundary(p, c, comp, n=256)
            v = rim_preimage(q)
            for z in (v, -v):
                assert np.max(np.abs(V_value(z.real, z.imag, p, c))) < 1e-12
            u = rim_preimage(q, unwind=True)
            flip = q[:, 1] < 0.0
            assert np.array_equal(u[~flip], v[~flip])
            assert np.array_equal(u[flip], -v[flip])
        half = np.angle(rim_preimage(
            hill_boundary(p, c, HillComponent.EARTH, n=256), unwind=True))
        assert half[0] == 0.0 and np.all(np.diff(half) > 0.0)
        assert half[-1] < np.pi

    def test_axis_crossings_nonnegative(self, p03):
        # F along the axis inside the region stays >= 0 (nonconvexity
        # appears strictly off the axis)
        c = p03.c_jacobi
        x0 = x0_of(p03, c)
        for x in np.linspace(-x0 + 1e-3, x0 - 1e-3, 41):
            if V_value(x, 0.0, p03, c) <= 0:
                assert F_value(x, 0.0, p03, c) >= -1e-10
