"""Sign scans, implicit-curve tracing, finite-difference checking."""

import math

import numpy as np
import pytest

from euler2c.errors import TraceFailure
from euler2c.scan import fd_check, fd_derivative, sign_scan, trace_implicit


def unit_circle(x, y):
    return x ** 2 + y ** 2 - 1.0


def circle_vg(x, y):
    """The unit circle as (value, f_x, f_y), the form trace_implicit
    takes."""
    return unit_circle(x, y), 2.0 * x, 2.0 * y


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
        rep = sign_scan(unit_circle, (-2, 2, -2, 2), grid=(50, 50),
                        max_witnesses=None)
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

    def test_stop_predicate(self):
        pl = trace_implicit(circle_vg, (1.0, 0.0), step=0.01,
                            max_len=10.0, direction=(0, 1),
                            stop=lambda x, y: y > 0.5)
        assert 0.5 < pl.points[-1][1] < 0.52
        assert not pl.closed

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
