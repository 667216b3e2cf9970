"""Levi-Civita regularization: potential derivatives, tangency, witnesses."""

import math

import numpy as np
import pytest

from euler2c.errors import MoonCollision, OutsideRegion
from euler2c.levicivita import (
    F_value,
    F_with_grad,
    K_value,
    LCPoint,
    V_eval,
    V_value,
    V_with_grad,
    critical_points_V,
    lc_to_cartesian,
    nonconvex_witness_levi,
    radicand,
    salomao_lhs,
    tangency_check,
    tilde_derivatives,
    x0_of,
)
from euler2c.model import ProblemParams, hamiltonian_H
from euler2c.scan import fd_check, fd_derivative

X0_03 = 0.5497072294690329  # x0(mu=0.3, c=c_J)


class TestRegularization:
    def test_radicand_form(self, rng):
        for _ in range(20):
            x, y = rng.uniform(-1, 1, 2)
            expect = (2 * x * x - 2 * y * y - 1) ** 2 + 16 * x * x * y * y
            assert radicand(x, y) == pytest.approx(expect, rel=1e-14)

    def test_K_is_conformal_H(self, p03, rng):
        # K_c(v, u) = (H(q, p) - c) |v|^2 under q = 2 v^2, p = u/conj(v)
        c = p03.c_jacobi - 0.3
        for _ in range(20):
            x, y = rng.uniform(0.2, 0.8, 2)
            u = tuple(rng.uniform(-1, 1, 2))
            pt = LCPoint((x, y), u)
            cart = lc_to_cartesian(pt)
            h = hamiltonian_H(cart, p03)
            assert K_value(pt, p03, c) == pytest.approx(
                (h - c) * (x * x + y * y), rel=1e-11, abs=1e-12)

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
        derivs = {
            (1, 0): lambda x, y: V_eval(x, y, p03, c).V_x,
            (0, 1): lambda x, y: V_eval(x, y, p03, c).V_y,
            (2, 0): lambda x, y: V_eval(x, y, p03, c).V_xx,
            (1, 1): lambda x, y: V_eval(x, y, p03, c).V_xy,
            (0, 2): lambda x, y: V_eval(x, y, p03, c).V_yy,
        }
        table = fd_check(f, derivs, pts, h=1e-5)
        assert all(err < 1e-6 for err in table.values())

    def test_third_order_hierarchical(self, p03):
        # validate each third derivative as a first difference of the
        # closed second derivatives (direct third differences drown in
        # roundoff at the 1e-6 level)
        c = p03.c_jacobi
        pairs = [
            ("V_xxx", "V_xx", 1, 0),
            ("V_xxy", "V_xx", 0, 1),
            ("V_xyy", "V_xy", 0, 1),
            ("V_yyy", "V_yy", 0, 1),
        ]
        for name, base, ox, oy in pairs:
            fb = lambda x, y: getattr(V_eval(x, y, p03, c), base)
            for (x, y) in [(0.3, 0.2), (0.55, 0.1), (-0.4, 0.35)]:
                closed = getattr(V_eval(x, y, p03, c), name)
                fd = fd_derivative(fb, x, y, ox, oy, 1e-5)
                assert fd == pytest.approx(closed, rel=1e-6, abs=1e-6), \
                    (name, x, y)

    @pytest.mark.parametrize("mu", [0.3, 0.7])
    def test_traced_value_and_gradient(self, mu):
        # V and F with their gradients from one V_eval call; the F
        # gradient is scan.level_curvature_grad of the third-order table
        p = ProblemParams(mu)
        c = p.c_jacobi
        V, F = V_with_grad(p, c), F_with_grad(p, c)
        pts = [(0.3, 0.2), (0.55, 0.1), (0.2, -0.4), (-0.5, 0.3)]
        for x, y in pts:
            e = V_eval(x, y, p, c)
            assert V(x, y) == (V_value(x, y, p, c), e.V_x, e.V_y)
            assert F(x, y)[0] == F_value(x, y, p, c)
        table = fd_check(lambda x, y: F(x, y)[0],
                         {(1, 0): lambda x, y: F(x, y)[1],
                          (0, 1): lambda x, y: F(x, y)[2]}, pts, h=1e-5)
        assert all(err < 1e-6 for err in table.values()), table

    def test_vectorized(self, p03):
        c = p03.c_jacobi
        xs = np.array([0.3, 0.4])
        ys = np.array([0.2, -0.1])
        e = V_eval(xs, ys, p03, c)
        s = V_eval(0.3, 0.2, p03, c)
        assert e.V_xx[0] == s.V_xx and e.V_yyy[0] == s.V_yyy


class TestCriticalPoints:
    def test_x0_frozen(self, p03):
        assert x0_of(p03, p03.c_jacobi) == pytest.approx(X0_03, rel=1e-14)

    def test_three_critical_points(self, p03):
        c = p03.c_jacobi
        for (x, y) in critical_points_V(p03, c):
            e = V_eval(x, y, p03, c)
            assert abs(e.V_x) < 1e-12 and abs(e.V_y) < 1e-12

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

    def test_cone_contact_derivatives_vanish(self, p03):
        d = tilde_derivatives(p03)
        assert abs(d["F1"]) < 1e-8
        assert abs(d["F2"]) < 1e-8
        assert abs(d["F3"]) < 1e-6

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
        # 10 x0^2 - 1 = 0 exactly at mu = 16/17 (c = c_J(16/17))
        p = ProblemParams(16.0 / 17.0)
        x0 = x0_of(p, p.c_jacobi)
        assert 10.0 * x0 * x0 - 1.0 == pytest.approx(0.0, abs=1e-12)


class TestWitness:
    def test_witness_mu03(self, p03):
        w = nonconvex_witness_levi(p03)
        assert w is not None
        x, y, f = w
        x0 = x0_of(p03, p03.c_jacobi)
        assert x0 - 0.1 < x < x0
        assert f < -1e-8

    def test_no_witness_above_inflection(self):
        p = ProblemParams(0.95)
        assert nonconvex_witness_levi(p) is None

    def test_axis_crossings_nonnegative(self, p03):
        # F along the axis inside the region stays >= 0 (nonconvexity
        # appears strictly off the axis)
        c = p03.c_jacobi
        x0 = x0_of(p03, c)
        for x in np.linspace(-x0 + 1e-3, x0 - 1e-3, 41):
            if V_value(x, 0.0, p03, c) <= 0:
                assert F_value(x, 0.0, p03, c) >= -1e-10

    def test_salomao_outside_region(self, p03):
        with pytest.raises(OutsideRegion):
            salomao_lhs(2.0, 2.0, p03, p03.c_jacobi)

    def test_salomao_reduces_to_F_on_boundary(self, p03):
        c = p03.c_jacobi
        x0 = x0_of(p03, c)
        assert salomao_lhs(x0, 0.0, p03, c) == pytest.approx(
            F_value(x0, 0.0, p03, c), abs=1e-12)
