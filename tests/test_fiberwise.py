"""Hill-boundary curvature and fiberwise convexity."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from euler2c import formulas, model, scan
from euler2c.errors import CollisionPoint
from euler2c.exactpoly import ring, sign_certificate, verify_identity
from euler2c.fiberwise import (
    C_with_grad,
    U_derivs,
    curvature_numerator,
    fiberwise_verdict,
    positivity_certificates,
)
from euler2c.model import (HillComponent, ProblemParams, hill_boundary,
                           potential_U)
from euler2c.scan import elliptic_to_cartesian, hill_region, vertex_window
from finite_differences import fd_check, fd_derivative

import regularizations
from regularizations import holds


def _cone_line(t, p):
    """The potential on the tangent-cone line through (l, 0),
    V(t) = U(t, sqrt(2)(t - l)) - c_J, and its derivatives V1..V4 along
    the line, from U's partials through order four."""
    d = model._U_partials((t, math.sqrt(2.0) * (t - p.l)), p, 4)
    out = {f"V{k}": scan._cone_derivative(d, 0, 0, k) for k in range(1, 5)}
    return {"V": d[0, 0] - p.c_jacobi} | out


class TestUDerivatives:
    def test_value_matches_potential(self, p03, rng):
        for _ in range(10):
            q = (rng.uniform(-1, 2), rng.uniform(0.1, 1))
            assert U_derivs(q, p03)[0, 0] == pytest.approx(
                potential_U(q, p03), rel=1e-14)

    def test_first_and_second_fd(self, p03):
        f = lambda x, y: potential_U((x, y), p03)
        for q in [(0.3, 0.4), (1.3, -0.5), (-0.6, 0.3)]:
            d = U_derivs(q, p03)
            for (ox, oy) in [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]:
                h = 1e-5 if ox + oy == 1 else 1e-4
                fd = fd_derivative(f, q[0], q[1], ox, oy, h)
                assert fd == pytest.approx(d[ox, oy], rel=1e-6, abs=1e-8)

    def test_third_order_hierarchical(self, p03):
        pairs = [((3, 0), (2, 0), 1, 0), ((2, 1), (2, 0), 0, 1),
                 ((1, 2), (1, 1), 0, 1), ((0, 3), (0, 2), 0, 1)]
        for name, base, ox, oy in pairs:
            fb = lambda x, y: U_derivs((x, y), p03)[base]
            for q in [(0.3, 0.4), (1.3, -0.5), (-0.6, 0.3)]:
                closed = U_derivs(q, p03)[name]
                fd = fd_derivative(fb, q[0], q[1], ox, oy, 1e-5)
                assert fd == pytest.approx(closed, rel=1e-6, abs=1e-7), name

    def test_collision(self, p03):
        with pytest.raises(CollisionPoint):
            U_derivs((1.0, 0.0), p03)


class TestCurvature:
    def test_two_computations_agree(self):
        # exact: scan.level_curvature of U's partials, times (r1 r2)^7, is
        # the closed-form numerator P7
        assert holds(regularizations.curvature_closed_form())

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
        # grad U and C vanish at (l, 0), so kappa = C / |grad U|^3 is
        # undefined there
        d = U_derivs((p03.l, 0.0), p03)
        assert math.hypot(d[1, 0], d[0, 1]) < 1e-9
        assert abs(curvature_numerator((p03.l, 0.0), p03)) < 1e-20

    def test_cone_contact(self):
        # exact, for any mu: C and its first three derivatives along
        # t -> (l + t, sqrt(2) t) vanish at t = 0, and the squared slopes
        # -U_11/U_22 and -C_11/C_22 at (l, 0) are 2
        assert holds(regularizations.cone_contact())

    # the fourth derivative of C along t -> (l + t, sqrt(2) t) at t = 0,
    # from its exact polynomial in l, with l to 50 digits at the rational
    # mu (exact at mu = 1/2, where l = 1/2)
    @pytest.mark.parametrize("mu, c4", [(0.5, 1376256.0),
                                        (0.3, 1371833.4336124546),
                                        (0.12, 1388421.0287779545),
                                        (0.01, -31754570.288854009)])
    def test_cone_contact_exact_C4(self, mu, c4):
        with localcontext() as ctx:
            ctx.prec = 50
            mu = Decimal(str(mu))
            l = Fraction(1 / (1 + (mu / (1 - mu)).sqrt()))
        C4 = regularizations.cone_contact_C4(l)
        assert float(C4) == pytest.approx(c4, rel=1e-12)
        if mu == Decimal("0.5"):
            assert l == Fraction(1, 2) and C4 == 1376256


class TestVLine:
    def test_derivative_ladder(self, p03):
        f = lambda t, _y=0.0: _cone_line(t, p03)["V"]
        for t in (0.15, 0.3, 0.45):
            d = _cone_line(t, p03)
            assert fd_derivative(f, t, 0, 1, 0, 1e-6) == pytest.approx(
                d["V1"], rel=1e-6, abs=1e-7)
            f1 = lambda t, _y=0.0: _cone_line(t, p03)["V1"]
            assert fd_derivative(f1, t, 0, 1, 0, 1e-6) == pytest.approx(
                d["V2"], rel=1e-6, abs=1e-7)
            f2 = lambda t, _y=0.0: _cone_line(t, p03)["V2"]
            assert fd_derivative(f2, t, 0, 1, 0, 1e-6) == pytest.approx(
                d["V3"], rel=1e-6, abs=1e-6)
            f3 = lambda t, _y=0.0: _cone_line(t, p03)["V3"]
            assert fd_derivative(f3, t, 0, 1, 0, 1e-6) == pytest.approx(
                d["V4"], rel=1e-5, abs=1e-5)

    def test_equal_mass_fourth_derivative(self, p05):
        assert _cone_line(0.5, p05)["V4"] == pytest.approx(2688.0, rel=1e-12)

    def test_critical_point_values(self, p03):
        d = _cone_line(p03.l, p03)
        assert abs(d["V"]) < 1e-13
        assert abs(d["V1"]) < 1e-13
        # the third derivative has the closed value
        l = p03.l
        expect = 12.0 * (2 * l - 1) / (l ** 2 * (1 - l) ** 2
                                       * (2 * l * l - 2 * l + 1))
        assert d["V3"] == pytest.approx(expect, rel=1e-10)


class TestEqualMassPolar:
    def test_polar_derivatives_vs_fd(self):
        # exact: dC/dr = -7 F / (2 r^8 rho^9) and dC/dtheta = -G sin t /
        # (8 r^5 rho^9), rho the Moon distance, F = P1 rho + r^2 P2 and
        # G = a rho + b
        assert holds(regularizations.equal_mass_polar_derivatives())

    def test_moon_collision_rule(self, p05):
        # C evaluates and raises where model's collision rule says, also
        # on the axis where the Moon distance cancels to nearly zero
        assert math.isfinite(curvature_numerator((1.0 + 5e-13, 0.0), p05))
        with pytest.raises(CollisionPoint):
            curvature_numerator((1.0 + 5e-14, 0.0), p05)

    def test_F0_vanishes_on_F_zero_set(self):
        # F0 is the surd-free norm of F, F (P1 rho - r^2 P2) = F0, so
        # every zero of F is a zero of F0
        assert holds(regularizations.equal_mass_radial_norm())

    def test_cone_curvature_positive(self):
        # on the cone, C has the sign of -(aq s1 + bq s2) for q < 1/2; by
        # c0-resultant (aq s1)^2 - (bq s2)^2 = (2q - 1)^3 sextic / 11664,
        # which is negative there since the sextic is positive, so the sum
        # has the sign of bq, which is negative there
        (q,) = ring("q")
        assert verify_identity("c0-resultant").passed
        assert positivity_certificates()["sextic_positive"].certified
        assert sign_certificate(formulas.bq(q), (None, Fraction(1, 2)),
                                "-").certified

    def test_cone_curvature_matches_direct(self):
        # exact: C on q2 = +-sqrt(2)(q1 - 1/2) is the aq/bq closed form
        assert holds(regularizations.equal_mass_cone_curvature())


def _window_batches(p, c):
    """The boundary points of each batch of the fiberwise vertex window,
    as scan.vertex_window bisects them for U < c, all read: the
    curvature it is handed records them and never reports a witness."""
    batches = []

    def record(q1, q2):
        batches.append(list(zip(q1.tolist(), q2.tolist())))
        return np.zeros_like(q1)

    vertex_window(lambda q1, q2: potential_U((q1, q2), p) < c, record,
                  p.l, 0.0)
    return batches


def _region(p, c):
    """The Earth-region positions fiberwise_verdict reads, and C there:
    scan.hill_region's 100 x 100 grid and rim in the Standard frame,
    without the Earth."""
    r = hill_region(p, c, HillComponent.EARTH, 100, 100)
    q1, q2 = elliptic_to_cartesian(r.lam[r.ilam], r.nu)
    q1 = q1 + 0.5
    off = (q1 != 0.0) | (q2 != 0.0)
    return q1[off], q2[off], curvature_numerator((q1[off], q2[off]), p)


def _C_decimal(q, mu):
    """C at the binary64 position q in 50-digit decimal arithmetic, from
    the partials of -m / r of each primary."""
    with localcontext() as ctx:
        ctx.prec = 50
        x, y = Decimal(q[0]), Decimal(q[1])
        u1 = u2 = u11 = u12 = u22 = Decimal(0)
        for m, px in ((1 - Decimal(mu), 0), (Decimal(mu), 1)):
            dx = x - px
            r2 = dx * dx + y * y
            r3 = r2 * r2.sqrt()
            r5 = r3 * r2
            u1 += m * dx / r3
            u2 += m * y / r3
            u11 += m * (1 / r3 - 3 * dx * dx / r5)
            u22 += m * (1 / r3 - 3 * y * y / r5)
            u12 -= 3 * m * dx * y / r5
        return u11 * u2 ** 2 + u22 * u1 ** 2 - 2 * u12 * u1 * u2


def _check_witness(rep, p, c):
    """A witness recomputes, lies in the region of energy c, and is on
    the boundary of its own energy U(q)."""
    e, q, cval = rep.witness
    assert rep.verdict == "nonconvex-witness"
    assert cval == pytest.approx(float(curvature_numerator(q, p)),
                                 rel=1e-9) and cval < -1e-12
    assert e == potential_U(q, p) <= c + 1e-9
    assert rep.min_C <= cval


class TestVerdicts:
    def test_equal_mass_convex(self, p05):
        for e in (-2.1, -3.0):
            rep = fiberwise_verdict(p05, e)
            assert rep.verdict == "convex"
            assert rep.min_C > 0

    def test_sample_count(self, p05):
        # one C per position of the Earth region but the Earth; at
        # mu = 1/2 there is no vertex window
        c = p05.c_jacobi - 0.2
        rep = fiberwise_verdict(p05, c)
        q1, _, cvals = _region(p05, c)
        assert rep.samples == q1.size > 5000
        assert rep.min_C == cvals.min()

    def test_unequal_mass_critical_witness(self, p03):
        rep = fiberwise_verdict(p03, p03.c_jacobi)
        _check_witness(rep, p03, p03.c_jacobi)
        # in the Earth lobe, short of the vertex
        assert rep.witness[1][0] < p03.l

    def test_vertex_boundary_solver(self, p03):
        c = p03.c_jacobi
        batches = _window_batches(p03, c)
        assert [len(b) for b in batches] == [64, 256, 1024]
        for q1, q2 in batches[0]:
            assert p03.l - 0.1 * p03.l < q1 < p03.l and q2 > 0.0
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

        # the first batch of scan.vertex_window's abscissas
        q1s = p.l - 0.1 * p.l * (np.arange(1, 65) / 65.0)
        for c in (p.c_jacobi, p.c_jacobi - 1e-3):
            ref = scalar(c, q1s)
            assert _window_batches(p, c)[0] == ref
        # below c_J the abscissas nearest l are off the lobe and dropped
        assert 0 < len(ref) < len(q1s)

    # at c_J the region grid holds no C < -1e-12 at these mass ratios;
    # the window has its witness in the first, second and third batch,
    # and none at 0.4995 and 0.4999
    @pytest.mark.parametrize("mu", [0.49, 0.497, 0.4992, 0.4995, 0.4999])
    def test_vertex_window_matches_point_loop(self, mu):
        p = ProblemParams(mu)
        c = p.c_jacobi
        rep = fiberwise_verdict(p, c)
        q1, _, cvals = _region(p, c)
        assert cvals.min() >= -1e-12
        # one point at a time (as one-element arrays, the arithmetic of
        # the batch), stopping at the first C < -tol
        witness, window = None, []
        for batch in _window_batches(p, c):
            for q in batch:
                cv = float(curvature_numerator(([q[0]], [q[1]]), p)[0])
                window.append(cv)
                if cv < -1e-12:
                    witness = (potential_U(q, p), q, cv)
                    break
            if witness is not None:
                break
        assert rep.witness == witness
        assert rep.samples == q1.size + len(window)
        assert rep.min_C == min(cvals.min(), min(window))

    # C at the least-C position of the region grid at c_J, from _C_decimal
    WITNESS_C = {0.1: -0.33893247334169422978, 0.3: -0.019313047878533365224}

    @pytest.mark.parametrize("mu", [0.1, 0.3, 0.7, 0.95])
    @pytest.mark.parametrize("below", [0.0, 0.1])
    def test_verdict_pinned(self, mu, below):
        p = ProblemParams(mu)
        c = p.c_jacobi - below
        rep = fiberwise_verdict(p, c)
        q1, _, cvals = _region(p, c)
        # no point of the window is read: below c_J its axis points are
        # off the lobe, and at c_J the grid already holds the witness
        assert rep.samples == q1.size
        assert rep.min_C == cvals.min()
        if below or mu > 0.5:
            assert rep.verdict == "convex" and rep.witness is None
            return
        _check_witness(rep, p, c)
        e, q, cval = rep.witness
        assert cval == cvals.min()
        assert float(_C_decimal(q, mu)) == pytest.approx(cval, rel=1e-10)
        assert cval == pytest.approx(self.WITNESS_C[mu], rel=1e-10)

    def test_window_below_critical_energy(self):
        # the grid misses the negative C just inside the vertex at
        # c_J - 1e-6; the window, which runs at every c <= c_J for the
        # heavier Earth lobe, finds it
        p = ProblemParams(0.43)
        c = p.c_jacobi - 1e-6
        rep = fiberwise_verdict(p, c)
        q1, _, cvals = _region(p, c)
        assert cvals.min() > 0.0
        _check_witness(rep, p, c)
        assert p.l - 0.1 * p.l < rep.witness[1][0] < p.l
        assert rep.samples > q1.size

    @staticmethod
    def _per_energy_verdict(p, c, tol=1e-12):
        """The witness of the boundary sweep the region grid replaced:
        one hill_boundary and one C call per effective energy, from where
        the Earth boundary is circular to 1 % up to c, plus e = -100,
        then the vertex window at c_J for the heavier Earth lobe."""
        e_min = min(2.0 * c, -8.0)
        for _ in range(40):
            pts = hill_boundary(p, e_min, HillComponent.EARTH, n=64)
            r = np.hypot(pts[:, 0], pts[:, 1])
            if (r.max() - r.min()) / r.mean() < 0.01:
                break
            e_min *= 2.0
        min_C, witness = math.inf, None
        for e in list(np.linspace(e_min, c, 12)) + [-100.0]:
            pts = hill_boundary(p, e, HillComponent.EARTH, n=512)
            cvals = curvature_numerator((pts[:, 0], pts[:, 1]), p)
            i = int(np.argmin(cvals))
            if cvals[i] < min_C:
                min_C = float(cvals[i])
                if cvals[i] < -tol:
                    witness = (float(e), tuple(pts[i]), float(cvals[i]))
        if (witness is None and p.heavier is HillComponent.EARTH
                and c >= p.c_jacobi - 1e-12):
            witness = vertex_window(
                lambda q1, q2: potential_U((q1, q2), p) < c,
                lambda q1, q2: curvature_numerator((q1, q2), p), p.l,
                tol)[0]
        return witness

    @pytest.mark.parametrize("mu", [0.0001, 0.01, 0.1, 0.3, 0.45, 0.49,
                                    0.4995, 0.5, 0.7, 0.95, 0.999])
    def test_matches_per_energy_loop(self, mu):
        # the region grid gives the sweep's verdict, on witnesses of its own
        p = ProblemParams(mu)
        for below in (0.0, 0.05, 0.1, 0.3):
            c = p.c_jacobi - below
            rep = fiberwise_verdict(p, c)
            witness = self._per_energy_verdict(p, c)
            assert rep.verdict == ("convex" if witness is None
                                   else "nonconvex-witness"), below
            if witness is None:
                assert rep.witness is None and rep.min_C >= -1e-12
            else:
                _check_witness(rep, p, c)

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
