"""Hill-boundary curvature and fiberwise convexity."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from euler2c import formulas
from euler2c.errors import CollisionPoint
from euler2c.fiberwise import (
    C_l_derivatives,
    C_value,
    C_with_grad,
    U_derivs,
    V_line,
    cone_curvature_C0,
    curvature_numerator,
    earth_boundary_near_vertex,
    fiberwise_verdict,
    lemma_polynomials,
    polar_C_derivs,
    positivity_certificates,
)
from euler2c.model import (HillComponent, ProblemParams, hill_boundary,
                           potential_U)
from euler2c.scan import fd_check, fd_derivative


class TestUDerivatives:
    def test_value_matches_potential(self, p03, rng):
        for _ in range(10):
            q = (rng.uniform(-1, 2), rng.uniform(0.1, 1))
            assert U_derivs(q, p03).U == pytest.approx(
                potential_U(q, p03), rel=1e-14)

    def test_first_and_second_fd(self, p03):
        f = lambda x, y: potential_U((x, y), p03)
        for q in [(0.3, 0.4), (1.3, -0.5), (-0.6, 0.3)]:
            e = U_derivs(q, p03)
            checks = [((1, 0), e.U_1, 1e-5), ((0, 1), e.U_2, 1e-5),
                      ((2, 0), e.U_11, 1e-4), ((1, 1), e.U_12, 1e-4),
                      ((0, 2), e.U_22, 1e-4)]
            for (ox, oy), val, h in checks:
                fd = fd_derivative(f, q[0], q[1], ox, oy, h)
                assert fd == pytest.approx(val, rel=1e-6, abs=1e-8)

    def test_third_order_hierarchical(self, p03):
        pairs = [("U_111", "U_11", 1, 0), ("U_112", "U_11", 0, 1),
                 ("U_122", "U_12", 0, 1), ("U_222", "U_22", 0, 1)]
        for name, base, ox, oy in pairs:
            fb = lambda x, y: getattr(U_derivs((x, y), p03), base)
            for q in [(0.3, 0.4), (1.3, -0.5), (-0.6, 0.3)]:
                closed = getattr(U_derivs(q, p03), name)
                fd = fd_derivative(fb, q[0], q[1], ox, oy, 1e-5)
                assert fd == pytest.approx(closed, rel=1e-6, abs=1e-7), name

    def test_collision(self, p03):
        with pytest.raises(CollisionPoint):
            U_derivs((1.0, 0.0), p03)


class TestCurvature:
    def test_two_computations_agree(self, p03, rng):
        for _ in range(300):
            q = (rng.uniform(-1.5, 2.5), rng.uniform(-1.5, 1.5))
            if min(math.hypot(*q), math.hypot(q[0] - 1, q[1])) < 0.05:
                continue
            ev = C_value(q, p03)
            scale = max(abs(ev.C), abs(ev.C_closed), 1e-12)
            assert abs(ev.C - ev.C_closed) / scale < 1e-8

    @pytest.mark.parametrize("mu", [0.3, 0.7])
    def test_traced_value_and_gradient(self, mu):
        # C and its gradient from one U_derivs call, against finite
        # differences of the curvature numerator
        p = ProblemParams(mu)
        C = C_with_grad(p)
        pts = [(0.3, 0.4), (1.3, -0.5), (-0.6, 0.3), (0.5, 0.2)]
        for q in pts:
            assert C(*q)[0] == curvature_numerator(q, p)
        table = fd_check(lambda x, y: C(x, y)[0],
                         {(1, 0): lambda x, y: C(x, y)[1],
                          (0, 1): lambda x, y: C(x, y)[2]}, pts, h=1e-5)
        assert all(err < 1e-6 for err in table.values()), table

    def test_kappa_singular_at_critical_point(self, p03):
        ev = C_value((p03.l, 0.0), p03)
        assert ev.kappa_singular and math.isnan(ev.kappa)

    def test_kappa_regular_elsewhere(self, p03):
        ev = C_value((0.2, 0.1), p03)
        assert not ev.kappa_singular
        assert ev.kappa == pytest.approx(
            ev.C / math.hypot(U_derivs((0.2, 0.1), p03).U_1,
                              U_derivs((0.2, 0.1), p03).U_2) ** 3)

    def test_cone_contact(self, p03, p05):
        for p in (p03, p05):
            d = C_l_derivatives(p)
            for k in range(4):
                assert abs(d[f"C{k}"]) <= 1e-12, k
            assert d["slope_sq"] == pytest.approx(2.0, abs=1e-12)
            assert d["slope_sq_hill"] == pytest.approx(2.0, abs=1e-12)

    # the fourth derivative of C along t -> (t, sqrt(2)(t - l)) at t = l,
    # evaluated exactly (symbolic differentiation at the rational mu, to
    # 30 digits)
    @pytest.mark.parametrize("mu, c4", [(0.5, 1376256.0),
                                        (0.3, 1371833.4336124546),
                                        (0.12, 1388421.0287779545),
                                        (0.01, -31754570.288854009)])
    def test_cone_contact_exact_C4(self, mu, c4):
        assert C_l_derivatives(ProblemParams(mu))["C4"] == \
            pytest.approx(c4, rel=1e-12)


class TestVLine:
    def test_derivative_ladder(self, p03):
        f = lambda t, _y=0.0: V_line(t, p03)["V"]
        for t in (0.15, 0.3, 0.45):
            d = V_line(t, p03)
            assert fd_derivative(f, t, 0, 1, 0, 1e-6) == pytest.approx(
                d["V1"], rel=1e-6, abs=1e-7)
            f1 = lambda t, _y=0.0: V_line(t, p03)["V1"]
            assert fd_derivative(f1, t, 0, 1, 0, 1e-6) == pytest.approx(
                d["V2"], rel=1e-6, abs=1e-7)
            f2 = lambda t, _y=0.0: V_line(t, p03)["V2"]
            assert fd_derivative(f2, t, 0, 1, 0, 1e-6) == pytest.approx(
                d["V3"], rel=1e-6, abs=1e-6)
            f3 = lambda t, _y=0.0: V_line(t, p03)["V3"]
            assert fd_derivative(f3, t, 0, 1, 0, 1e-6) == pytest.approx(
                d["V4"], rel=1e-5, abs=1e-5)

    def test_equal_mass_fourth_derivative(self, p05):
        assert V_line(0.5, p05)["V4"] == pytest.approx(2688.0, rel=1e-12)

    def test_critical_point_values(self, p03):
        d = V_line(p03.l, p03)
        assert abs(d["V"]) < 1e-13
        assert abs(d["V1"]) < 1e-13
        # the third derivative has the closed value
        l = p03.l
        expect = 12.0 * (2 * l - 1) / (l ** 2 * (1 - l) ** 2
                                       * (2 * l * l - 2 * l + 1))
        assert d["V3"] == pytest.approx(expect, rel=1e-10)


class TestEqualMassPolar:
    def test_polar_derivatives_vs_fd(self, p05):
        def cp(r, t):
            return float(curvature_numerator(
                (r * math.cos(t), r * math.sin(t)), p05))
        for r in (0.35, 0.6):
            for t in (0.7, 1.9):
                d = polar_C_derivs(r, t, p05)
                assert d["C"] == pytest.approx(cp(r, t), rel=1e-12)
                assert fd_derivative(cp, r, t, 1, 0, 1e-6) == \
                    pytest.approx(d["C_r"], rel=1e-6)
                assert fd_derivative(cp, r, t, 0, 1, 1e-6) == \
                    pytest.approx(d["C_theta"], rel=1e-6)

    def test_moon_collision_rule(self, p05):
        # the polar chart evaluates and raises exactly where the
        # curvature numerator does, also on the axis where
        # r^2 - 2 r cos t + 1 cancels to zero
        near = (1.0 + 5e-13, 0.0)
        assert polar_C_derivs(near[0], 0.0, p05)["C"] == \
            curvature_numerator(near, p05)
        nearer = (1.0 + 5e-14, 0.0)
        with pytest.raises(CollisionPoint):
            curvature_numerator(nearer, p05)
        with pytest.raises(CollisionPoint):
            polar_C_derivs(nearer[0], 0.0, p05)

    def test_requires_equal_mass(self, p03):
        with pytest.raises(ValueError):
            polar_C_derivs(0.5, 1.0, p03)

    def test_G_matches_parts(self, p05):
        aux = lemma_polynomials(0.6, 0.3)
        s = math.sqrt(0.6 ** 2 - 2 * 0.6 * 0.3 + 1)
        assert aux["G"] == pytest.approx(
            aux["a_aux"] * s + aux["b_aux"], rel=1e-13)

    def test_F0_vanishes_on_F_zero_set(self, p05):
        # F0 is the surd-free norm of F: every zero of F is a zero of F0
        x = 0.6
        ys = np.linspace(-1.0, 1.0, 400)
        fv = lemma_polynomials(x, ys)["F_rderi"]
        idx = np.nonzero(np.sign(fv[:-1]) != np.sign(fv[1:]))[0]
        assert idx.size > 0
        for i in idx:
            a, b = ys[i], ys[i + 1]
            for _ in range(80):
                m = 0.5 * (a + b)
                fm = float(lemma_polynomials(x, m)["F_rderi"])
                if (fm > 0) == (float(
                        lemma_polynomials(x, a)["F_rderi"]) > 0):
                    a = m
                else:
                    b = m
            root = 0.5 * (a + b)
            assert abs(float(lemma_polynomials(x, root)["F0"])) < 1e-10

    def test_cone_curvature_positive(self, p05):
        q = np.linspace(0.05, 0.49, 300)
        c0 = cone_curvature_C0(q)
        assert np.all(c0 > 1e-10)

    def test_cone_curvature_matches_decimal_reference(self):
        # the same aq/bq bodies in 60-digit decimal arithmetic; near
        # q = 1/2 the direct sum aq s1 + bq s2 cancels to about 1e-10
        def reference(q):
            q = Decimal(float(q))
            s1 = (12 * q ** 2 - 8 * q + 2).sqrt()
            s2 = (12 * q ** 2 - 16 * q + 6).sqrt()
            num = (-864 * (1 - 2 * q)
                   * (formulas.aq(q) * s1 + formulas.bq(q) * s2))
            den = ((6 * q ** 2 - 8 * q + 3) ** 3
                   * (6 * q ** 2 - 4 * q + 1) ** 3 * s1 * s2)
            return num / den

        q = np.linspace(0.05, 0.49, 300)
        with localcontext() as ctx:
            ctx.prec = 60
            for qi, got in zip(q, cone_curvature_C0(q)):
                ref = reference(qi)
                assert abs(Decimal(float(got)) / ref - 1) < Decimal("1e-12")

    def test_cone_curvature_matches_direct(self, p05):
        for q1 in np.linspace(0.05, 0.49, 40):
            direct = float(curvature_numerator(
                (q1, math.sqrt(2.0) * (q1 - 0.5)), p05))
            assert cone_curvature_C0(q1) == pytest.approx(
                direct, rel=1e-8)


class TestVerdicts:
    def test_equal_mass_convex(self, p05):
        for e in (-2.1, -3.0):
            rep = fiberwise_verdict(p05, e)
            assert rep.verdict == "convex"
            assert rep.min_C > 0

    def test_unequal_mass_critical_witness(self, p03):
        rep = fiberwise_verdict(p03, p03.c_jacobi)
        assert rep.verdict == "nonconvex-witness"
        e, (q1, q2), cval = rep.witness
        assert cval < 0
        # witness sits on the Earth lobe boundary near the vertex
        assert q1 < p03.l
        assert abs(potential_U((q1, q2), p03) - e) < 1e-8

    def test_vertex_boundary_solver(self, p03):
        c = p03.c_jacobi
        q1s = p03.l - np.linspace(0.01, 0.05, 5)
        pts = earth_boundary_near_vertex(p03, c, q1s)
        assert len(pts) == 5
        for q1, q2 in pts:
            assert abs(potential_U((q1, q2), p03) - c) < 1e-9

    @pytest.mark.parametrize("mu", [0.3, 0.49, 0.4999])
    def test_vertex_boundary_matches_scalar_bisection(self, mu):
        p = ProblemParams(mu)

        def scalar(c, q1_values):
            pts = []
            for q1 in q1_values:
                lo, hi = 0.0, 1.5
                if potential_U((float(q1), lo), p) >= c:
                    continue
                for _ in range(200):
                    mid = 0.5 * (lo + hi)
                    if potential_U((float(q1), mid), p) < c:
                        lo = mid
                    else:
                        hi = mid
                    if hi - lo < 1e-15:
                        break
                pts.append((float(q1), 0.5 * (lo + hi)))
            return pts

        q1s = p.l - 0.1 * p.l * np.arange(1, 65) / 65.0
        for c in (p.c_jacobi, p.c_jacobi - 1e-3):
            ref = scalar(c, q1s)
            assert earth_boundary_near_vertex(p, c, q1s) == ref
        # below c_J the abscissas nearest l are off the lobe and dropped
        assert 0 < len(ref) < len(q1s)

    # witness in the first, second and third batch of the vertex window,
    # and none at 0.4995 and 0.4999
    @pytest.mark.parametrize("mu", [0.49, 0.497, 0.4992, 0.4995, 0.4999])
    def test_vertex_window_matches_point_loop(self, mu):
        p = ProblemParams(mu)
        c = p.c_jacobi
        rep = fiberwise_verdict(p, c)
        # one point at a time (as one-element arrays, the arithmetic of
        # the batch), stopping at the first C < -tol
        witness, window, samples = None, [], 0
        for n in (64, 256, 1024):
            q1s = p.l - 0.1 * p.l * np.arange(1, n + 1) / (n + 1.0)
            for q1, q2 in earth_boundary_near_vertex(p, c, q1s):
                cv = float(curvature_numerator(([q1], [q2]), p)[0])
                samples += 1
                window.append(cv)
                if cv < -1e-12:
                    witness = (c, (q1, q2), cv)
                    break
            if witness is not None:
                break
        assert rep.witness == witness
        assert rep.samples == 6656 + samples
        # the window holds the minimum of C at these mass ratios
        assert rep.min_C == min(window)

    # C at the exact boundary point of the witness ray, from a 50-digit
    # evaluation; the bisection this search replaced stopped 4e-12 to
    # 3e-11 short of the root and read C off by 1.1e-8 and 2.1e-8
    WITNESS_C = {0.1: -0.33904491000899749693, 0.3: -0.019285310775815137708}

    @pytest.mark.parametrize("mu", [0.1, 0.3, 0.7, 0.95])
    @pytest.mark.parametrize("below", [0.0, 0.1])
    def test_verdict_pinned(self, mu, below):
        p = ProblemParams(mu)
        rep = fiberwise_verdict(p, p.c_jacobi - below)
        assert rep.samples == 6656
        if below or mu > 0.5:
            assert rep.verdict == "convex" and rep.witness is None
            return
        assert rep.verdict == "nonconvex-witness"
        e, q, cval = rep.witness
        assert e == p.c_jacobi
        assert cval == pytest.approx(self.WITNESS_C[mu], rel=1e-8)

    @staticmethod
    def _per_energy_verdict(p, c, tol=1e-12):
        """fiberwise_verdict as one hill_boundary and one C call per
        effective energy, keeping a strictly smaller minimum."""
        e_min = min(2.0 * c, -8.0)
        for _ in range(40):
            pts = hill_boundary(p, e_min, HillComponent.EARTH, n=64)
            r = np.hypot(pts[:, 0], pts[:, 1])
            if (r.max() - r.min()) / r.mean() < 0.01:
                break
            e_min *= 2.0
        energies = list(np.linspace(e_min, c, 12)) + [-100.0]
        min_C, witness, samples = math.inf, None, 0
        for e in energies:
            pts = hill_boundary(p, e, HillComponent.EARTH, n=512)
            cvals = curvature_numerator((pts[:, 0], pts[:, 1]), p)
            samples += len(pts)
            i = int(np.argmin(cvals))
            if cvals[i] < min_C:
                min_C = float(cvals[i])
                if cvals[i] < -tol:
                    witness = (float(e), tuple(pts[i]), float(cvals[i]))
        if (witness is None and p.heavier is HillComponent.EARTH
                and c >= p.c_jacobi - 1e-12):
            for n in (64, 256, 1024):
                q1s = p.l - 0.1 * p.l * np.arange(1, n + 1) / (n + 1.0)
                pts = earth_boundary_near_vertex(p, c, q1s)
                if not pts:
                    continue
                cvals = curvature_numerator(np.array(pts).T, p)
                hit = np.flatnonzero(cvals < -tol)
                k = int(hit[0]) + 1 if hit.size else len(pts)
                samples += k
                min_C = min(min_C, float(cvals[:k].min()))
                if hit.size:
                    witness = (float(c), pts[k - 1], float(cvals[k - 1]))
                    break
        return witness, energies, min_C, samples

    @pytest.mark.parametrize("mu", [0.0001, 0.01, 0.1, 0.3, 0.45, 0.49,
                                    0.4995, 0.5, 0.7, 0.95, 0.999])
    def test_matches_per_energy_loop(self, mu):
        p = ProblemParams(mu)
        for below in (0.0, 0.05, 0.1, 0.3):
            c = p.c_jacobi - below
            rep = fiberwise_verdict(p, c)
            witness, energies, min_C, samples = self._per_energy_verdict(p, c)
            assert rep.verdict == ("convex" if witness is None
                                   else "nonconvex-witness")
            assert rep.energies == energies
            assert rep.samples == samples
            assert rep.min_C == pytest.approx(min_C, rel=1e-8, abs=1e-15)
            if witness is None:
                assert rep.witness is None
                continue
            assert rep.witness[0] == witness[0]
            assert rep.witness[2] == pytest.approx(witness[2], rel=1e-8)

    def test_rejects_supercritical(self, p03):
        with pytest.raises(ValueError):
            fiberwise_verdict(p03, p03.c_jacobi + 0.1)


class TestCertificates:
    def test_all_certified(self):
        certs = positivity_certificates()
        assert certs["quartic_negative"].certified
        assert certs["sextic_positive"].certified
        assert certs["quadratic_no_real_root"]
        assert certs["quadratic_discriminant"] == -3960
        assert certs["quartic_at_one_third"] == -1
        assert float(certs["sextic_at_one_half"]) == 21 / 4
