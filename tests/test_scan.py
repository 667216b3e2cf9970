"""Level-set curvature, the Hill-region sampler that both oracles read
(model.hill_region), sign scans, implicit-curve tracing, and the tests'
finite-difference helpers."""

import math

import numpy as np
import pytest

from euler2c import formulas
from euler2c.errors import TraceFailure
from euler2c.model import (HillComponent, ProblemParams, hill_region,
                           potential_U)
from euler2c.scan import (cone_contact, cone_contact_size, level_curvature,
                          level_curvature_grad, sign_scan, trace_implicit)
from finite_differences import fd_check, fd_derivative


def unit_circle(x, y):
    return x ** 2 + y ** 2 - 1.0


def circle_vg(x, y):
    """The unit circle as (value, f_x, f_y), the form trace_implicit
    takes."""
    return unit_circle(x, y), 2.0 * x, 2.0 * y


class TestLevelCurvature:
    @staticmethod
    def _circle_table(x, y):
        # f = x^2 + y^2 through order three
        return {(0, 0): x * x + y * y, (1, 0): 2.0 * x, (0, 1): 2.0 * y,
                (2, 0): 2.0, (1, 1): 0.0, (0, 2): 2.0, (3, 0): 0.0,
                (2, 1): 0.0, (1, 2): 0.0, (0, 3): 0.0}

    def test_reads_the_partials_table(self):
        # K = 8 (x^2 + y^2), so the curvature K / |grad f|^3 is 1 / r
        for x, y in [(0.6, 0.8), (-1.5, 2.0), (0.0, 3.0)]:
            d = self._circle_table(x, y)
            k = level_curvature(d)
            assert k == pytest.approx(8.0 * (x * x + y * y), rel=1e-15)
            assert k / math.hypot(2 * x, 2 * y) ** 3 == pytest.approx(
                1.0 / math.hypot(x, y), rel=1e-15)
            assert level_curvature_grad(d) == pytest.approx(
                (16.0 * x, 16.0 * y), rel=1e-15)

    def test_elementwise_on_arrays(self):
        x, y = np.array([0.6, -1.5]), np.array([0.8, 2.0])
        k = level_curvature(self._circle_table(x, y))
        assert k.tolist() == [level_curvature(self._circle_table(a, b))
                              for a, b in zip(x, y)]

    def test_cone_contact_size(self, rng):
        # every product of the expansion counts by its size: a derivative
        # is at most its size, and equal to it when no term has a sign,
        # here nonnegative partials with f_12 = 0 along the line
        alphas = [(i, j) for i in range(4) for j in range(4 - i)]
        for _ in range(20):
            d = {a: rng.normal() for a in alphas}
            size = {a: abs(v) for a, v in d.items()}
            for k, s in zip(cone_contact(d, 3), cone_contact_size(size, 3)):
                assert abs(k) <= s * (1.0 + 1e-12)
            size.update({(1, 1): 0.0, (2, 1): 0.0, (1, 2): 0.0})
            assert cone_contact(size, 3) == pytest.approx(
                cone_contact_size(size, 3), rel=1e-14)


class TestHillRegion:
    @pytest.mark.parametrize("mu", [0.02, 0.3, 0.4995, 0.7, 0.999])
    def test_at_critical_energy(self, mu):
        # at c_J the lobes touch at (l, 0): every Earth position is finite,
        # stays on the Earth's side of q1 = l up to the rounding of the
        # rim's first point v_E / 2 (3 ulps at mu = 0.999), and lies in
        # {U <= c}; only the Earth itself has no U
        p = ProblemParams(mu)
        c = p.c_jacobi
        q1, q2 = hill_region(p, c, 100, 100).q.T
        assert np.all(np.isfinite(q1)) and np.all(np.isfinite(q2))
        assert q1.max() <= p.l + 4.0 * np.spacing(p.l)
        off = (q1 != 0.0) | (q2 != 0.0)
        assert np.count_nonzero(~off) == 1
        assert np.max(potential_U((q1[off], q2[off]), p) - c) <= 1e-9

    @pytest.mark.parametrize("comp", list(HillComponent))
    def test_below_critical_energy(self, comp):
        # R^2 = -4 r1 r2 (U - c): the grid points have R^2 >= 0, as read
        # at their (lam, nu), and lie in {U <= c}, the rim on {U = c}; the
        # primary is the one grid point without U. The Moon's lobe is the
        # swapped problem's Earth lobe, mirrored by q1 -> 1 - q1
        p = ProblemParams(0.3)
        c = p.c_jacobi - 0.3
        moon = comp is HillComponent.MOON
        lobe = p.swapped() if moon else p
        r = hill_region(lobe, c, 40, 40)
        n = r.n_grid
        assert np.all(r.R2[:n] >= 0.0) and np.all(r.R2[n:] == 0.0)
        assert np.array_equal(r.R2[:n], formulas.R2(
            np.cosh(r.lam[:n]), np.cos(r.nu[:n]), c, lobe.m))
        q1, q2 = r.q.T
        if moon:
            q1 = 1.0 - q1
        u = np.full(q1.size, -np.inf)
        off = np.hypot(q1 - moon, q2) != 0.0
        assert np.count_nonzero(~off[:n]) == 1 and off[n:].all()
        u[off] = potential_U((q1[off], q2[off]), p) - c
        assert 0 < n < r.R2.size
        assert np.all(u[:n] <= 1e-12)
        assert np.abs(u[n:]).max() < 1e-9

    def test_deep_energy(self):
        # at c = -1e4 the lobe is about 1.4e-4 wide in u = cosh lam - 1,
        # and the grid still holds points of it around the Earth, inside
        # the rim and in {U <= c}
        p = ProblemParams(0.3)
        c = -1e4
        r = hill_region(p, c, 100, 100)
        n = r.n_grid
        assert r.u.max() < 1.5e-4
        assert n > 1000 and np.all(r.R2[:n] >= 0.0)
        assert np.all(r.u[:n] < r.u[n:].max())
        q1, q2 = r.q[:n].T
        off = (q1 != 0.0) | (q2 != 0.0)
        assert np.all(potential_U((q1[off], q2[off]), p) - c <= 1e-8)


class TestSignScan:
    def test_finds_sign_change(self):
        rep = sign_scan(unit_circle, (-2, 2, -2, 2), grid=(50, 50))
        assert rep.verdict == "sign-change"
        for wx, wy, wf in rep.witnesses:
            assert abs(math.hypot(wx, wy) - 1.0) < 1e-7
            assert abs(wf) < 1e-10

    def test_array_calls_only(self):
        # the grid in chunks of eight rows, then one call per bisection
        # step over every sign-changing edge still open
        sizes = []

        def f(x, y):
            sizes.append(np.size(x))
            return unit_circle(x, y)

        rep = sign_scan(f, (-2, 2, -2, 2), grid=(50, 50))
        assert rep.witnesses
        assert min(sizes) > 1
        assert len(sizes) <= math.ceil(50 / 8) + 64

    def test_witnesses_cover_circle(self):
        rep = sign_scan(unit_circle, (-2, 2, -2, 2), grid=(50, 50))
        sectors = set()
        for wx, wy, wf in rep.witnesses:
            assert abs(unit_circle(wx, wy)) < 1e-10
            sectors.add(int(math.degrees(math.atan2(wy, wx)) % 360 // 10))
        assert sectors == set(range(36))

    def test_positive_field(self):
        rep = sign_scan(lambda x, y: x * x + y * y + 1.0, (-1, 1, -1, 1),
                        grid=(20, 20))
        assert rep.verdict == "positive"
        assert rep.min_value == pytest.approx(1.0, abs=1e-2)
        assert not rep.witnesses

    def test_extrema_locations(self):
        rep = sign_scan(lambda x, y: x, (-1, 1, -1, 1), grid=(21, 21))
        assert rep.min_value == -1.0 and rep.argmin[0] == -1.0
        assert rep.max_value == 1.0 and rep.argmax[0] == 1.0

    def test_failures_counted(self):
        def f(x, y):
            with np.errstate(invalid="ignore"):
                return np.where(x > 0, np.nan, x + y)
        rep = sign_scan(f, (-1, 1, -1, 1), grid=(10, 10))
        assert rep.failures > 0

    def test_nonfinite_midpoint_drops_the_edge(self):
        # the grid is finite, the midpoint of its two split edges is not:
        # one call for the grid, one bisection step, then nothing is open
        calls = []

        def f(x, y):
            calls.append(np.size(x))
            return np.where(np.abs(x) < 0.3, np.nan, x)

        rep = sign_scan(f, (-1, 1, -1, 1), grid=(2, 2))
        assert calls == [4, 2]
        assert rep.failures == 0
        assert not rep.witnesses
        assert rep.verdict == "indeterminate"

    def test_all_witnesses_returned(self):
        # the zero lines x = k pi, k = 1..19, each cross one x edge in
        # each of the 50 rows: all 950 edges give a witness, not 64
        rep = sign_scan(lambda x, y: np.sin(x), (0.5, 20 * np.pi - 0.5,
                                                 0.0, 1.0), grid=(400, 50))
        assert len(rep.witnesses) == 19 * 50
        assert all(abs(math.sin(wx)) < 1e-10 for wx, _, _ in rep.witnesses)

    def test_field_exception_propagates(self):
        def f(x, y):
            raise ZeroDivisionError("field undefined")
        with pytest.raises(ZeroDivisionError):
            sign_scan(f, (-1, 1, -1, 1), grid=(10, 10))

    def test_field_of_wrong_shape(self):
        with pytest.raises(ValueError):
            sign_scan(lambda x, y: 1.0, (-1, 1, -1, 1), grid=(10, 10))
        with pytest.raises(ValueError):
            sign_scan(lambda x, y: np.ravel(x), (-1, 1, -1, 1), grid=(10, 10))

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            sign_scan(unit_circle, (-1, 1, -1, 1), grid=(1, 5))


class TestTraceImplicit:
    def test_closes_on_circle(self):
        pl = trace_implicit(circle_vg, (1.01, 0.0), step=0.02,
                            max_len=10.0)
        assert pl.closed
        r = np.hypot(pl.points[:, 0], pl.points[:, 1])
        assert np.max(np.abs(r - 1.0)) < 1e-8
        assert pl.max_residual < 1e-8

    def test_one_evaluation_per_iterate(self):
        # value and gradient come from one call, so no point is
        # evaluated twice
        seen = []

        def f(x, y):
            seen.append((x, y))
            return circle_vg(x, y)

        pl = trace_implicit(f, (1.01, 0.0), step=0.02, max_len=10.0)
        assert pl.closed
        assert len(set(seen)) == len(seen)

    def test_respects_direction(self):
        up = trace_implicit(circle_vg, (1.0, 0.0), step=0.01,
                            max_len=0.1, direction=(0, 1))
        dn = trace_implicit(circle_vg, (1.0, 0.0), step=0.01,
                            max_len=0.1, direction=(0, -1))
        assert up.points[-1][1] > 0 > dn.points[-1][1]

    def test_seed_projection_failure(self):
        # no zero set at all: the seed cannot be projected
        f = lambda x, y: (x * x + y * y + 1.0, 2.0 * x, 2.0 * y)
        with pytest.raises(TraceFailure):
            trace_implicit(f, (0.5, 0.0), step=0.01)

    def test_collapse_near_saddle(self):
        # hyperbola pair xy = 0 has a gradient zero at the origin
        pl = trace_implicit(lambda x, y: (x * y, y, x), (0.3, 0.0),
                            step=0.01, max_len=1.0, direction=(-1, 0))
        assert pl.gradient_collapse
        assert math.hypot(*pl.collapse_point) < 0.05


class TestFiniteDifferences:
    def test_orders_on_polynomial(self):
        f = lambda x, y: x ** 4 * y + 3 * y ** 3
        assert fd_derivative(f, 1.0, 2.0, 1, 0, 1e-5) == \
            pytest.approx(8.0, rel=1e-8)
        assert fd_derivative(f, 1.0, 2.0, 2, 0, 1e-4) == \
            pytest.approx(24.0, rel=1e-6)
        assert fd_derivative(f, 1.0, 2.0, 0, 2, 1e-4) == \
            pytest.approx(36.0, rel=1e-6)
        assert fd_derivative(f, 1.0, 2.0, 1, 1, 1e-5) == \
            pytest.approx(4.0, rel=1e-5)
        assert fd_derivative(f, 1.0, 2.0, 3, 0, 1e-3) == \
            pytest.approx(48.0, rel=1e-4)
        assert fd_derivative(f, 1.0, 2.0, 4, 0, 1e-2) == \
            pytest.approx(48.0, rel=1e-4)

    def test_fd_check_table(self):
        f = lambda x, y: math.sin(x) * math.cos(y)
        derivs = {
            (1, 0): lambda x, y: math.cos(x) * math.cos(y),
            (0, 1): lambda x, y: -math.sin(x) * math.sin(y),
            (2, 0): lambda x, y: -math.sin(x) * math.cos(y),
            (1, 1): lambda x, y: -math.cos(x) * math.sin(y),
        }
        pts = [(0.3, 0.7), (1.1, -0.4), (-0.8, 0.2)]
        table = fd_check(f, derivs, pts, h=1e-4)
        assert all(err < 1e-6 for err in table.values())

    def test_fd_check_catches_wrong_claim(self):
        f = lambda x, y: x * x * y
        table = fd_check(f, {(1, 0): lambda x, y: 3 * x * y},
                         [(0.5, 0.5)])
        assert table[(1, 0)] > 1e-2
