"""Exact polynomial arithmetic, Sturm isolation, and the identity suite."""

import argparse
import inspect
from fractions import Fraction as Fr

import numpy as np
import pytest

from euler2c import cli, elliptic, exactpoly, formulas, levicivita, scan
from euler2c.elliptic import eta
from euler2c.errors import OracleInconsistency, VariableMismatch
from euler2c.model import HillComponent, ProblemParams
from euler2c.exactpoly import (
    MultiPoly,
    SurdRelation,
    identity_names,
    reduce_mod_quadratic,
    ring,
    sign_certificate,
    sturm_isolate,
    verify_all,
    verify_identity,
)

import regularizations
from regularizations import holds


class TestMultiPoly:
    def test_ring_and_arithmetic(self):
        x, y = ring("x", "y")
        p = (x + y) ** 2
        q = x ** 2 + 2 * x * y + y ** 2
        assert (p - q).is_zero

    def test_pow_square_and_multiply(self):
        (x,) = ring("x")
        p = (x + MultiPoly.constant(1, x.vars)) ** 7
        assert p.coeffs_in("x")[3] == Fr(35)

    def test_diff(self):
        x, y = ring("x", "y")
        p = x ** 3 * y - 2 * y ** 2
        assert (p.diff("x") - 3 * x ** 2 * y).is_zero
        assert (p.diff("y") - (x ** 3 - 4 * y)).is_zero

    def test_subs_horner(self):
        x, y = ring("x", "y")
        p = x ** 2 * y + y ** 3
        q = p.subs("y", x + x)  # y -> 2x
        assert (q - (2 * x ** 3 + 8 * x ** 3)).is_zero

    def test_evaluate(self):
        x, y = ring("x", "y")
        p = x ** 2 - y
        assert p.evaluate({"x": Fr(3), "y": Fr(2)}) == Fr(7)

    def test_scalar_division(self):
        (x,) = ring("x")
        assert ((6 * x) / 3 - 2 * x).is_zero

    def test_variable_mismatch(self):
        (x,) = ring("x")
        (z,) = ring("z")
        with pytest.raises(VariableMismatch):
            _ = x + z

    def test_degree_and_zero(self):
        x, y = ring("x", "y")
        assert (x * y ** 2).degree() == 3
        assert (x * y ** 2).degree("y") == 2
        assert (x - x).is_zero


class TestSurd:
    def test_reduce_even_powers(self):
        # s^2 = mu(1 - mu): (a + b s)(a - b s) has no s left
        mu, s = ring("mu", "s")
        one = MultiPoly.constant(1, mu.vars)
        rel = SurdRelation("s", mu * (one - mu))
        p = (mu + s) * (mu - s)
        r = rel.reduce(p)
        assert (r - (mu ** 2 - mu * (one - mu))).is_zero

    def test_reduce_mod_quadratic(self):
        (x,) = ring("x")
        one = MultiPoly.constant(1, x.vars)
        # x^3 mod (x^2 - 2) = 2x
        r = reduce_mod_quadratic(x ** 3, "x", x ** 2 - 2 * one)
        assert (r - 2 * x).is_zero


class TestSturm:
    def test_isolate_quadratic(self):
        # x^2 - 2: roots +-sqrt(2)
        roots = sturm_isolate([Fr(-2), Fr(0), Fr(1)])
        assert len(roots) == 2
        lo, hi = roots[1]
        assert lo < Fr(141421356, 100000000) < hi

    def test_isolate_in_interval(self):
        roots = sturm_isolate([Fr(-2), Fr(0), Fr(1)], (Fr(0), Fr(2)))
        assert len(roots) == 1

    def test_no_real_roots(self):
        assert sturm_isolate([Fr(1), Fr(0), Fr(1)]) == []

    def test_multiple_root_counted_once(self):
        # (x - 1)^2
        assert len(sturm_isolate([Fr(1), Fr(-2), Fr(1)])) == 1

    def test_sign_certificate_positive(self):
        cert = sign_certificate([Fr(1), Fr(0), Fr(1)], (Fr(-5), Fr(5)), "+")
        assert cert.certified

    def test_sign_certificate_refuted(self):
        cert = sign_certificate([Fr(-2), Fr(0), Fr(1)], (Fr(0), Fr(3)), "+")
        assert not cert.certified
        assert cert.witness is not None


class TestIdentities:
    def test_all_names_stable(self):
        names = identity_names()
        assert len(names) == 14
        assert "det-frame" in names and "c0-resultant" in names

    def test_each_passes(self):
        for res in verify_all():
            assert res.passed, f"{res.name}: {res.difference}"

    def test_single_run(self):
        assert verify_identity("eta-at-cj").passed

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            verify_identity("nope")


class TestLadderAlgebra:
    """The algebra behind elliptic.thresholds and convexity_verdict.

    These stay out of the named identity suite, whose count of 14 the
    verify-identities benchmark expects."""

    def test_squared_boundary_cubic(self):
        # 4(-m + sqrt(c^2 + 2c + m^2)) = -m + sqrt(m^2 + 8c^2), squared
        # twice, is c times the cubic; c = -4 + m s and then s = 3 + t,
        # m = 1 - eps rescale it to the cubic thresholds solves
        c, m, s, t, eps = ring("c", "m", "s", "t", "eps")
        cubic = c ** 3 + 8 * c ** 2 + (16 - 3 * m ** 2) * c + 6 * m ** 2
        lhs = ((4 * c ** 2 + 16 * c + 3 * m ** 2) ** 2
               - 9 * m ** 2 * (m ** 2 + 8 * c ** 2))
        assert (lhs - 16 * c * cubic).is_zero
        in_s = m * s ** 3 - 4 * s ** 2 - 3 * m * s + 18
        assert (cubic.subs("c", m * s - 4) - m ** 2 * in_s).is_zero
        in_t = (m * t ** 3 + (9 * m - 4) * t ** 2 - 24 * eps * t
                - 18 * eps).subs("m", 1 - eps)
        assert (in_s.subs("s", t + 3).subs("m", 1 - eps) - in_t).is_zero

    def test_eta_below_minus_one_has_one_root(self):
        # eta(-1 - u) has coefficients + + + - - in u for m^2 in (0, 1]
        # (the u-coefficient vanishes at m^2 = 1), so by Descartes' rule
        # eta has exactly one root below -1
        u, m = ring("u", "m")
        coeffs = eta(-1 - u, (1 - m) / 2).coeffs_in("u")
        expected = [5 * m ** 4 / 256 + 7 * m ** 2 / 8 - 1,
                    2 * (m ** 2 - 1), 9 * m ** 2 / 8, 2, 1]
        assert len(coeffs) == 5
        assert all((a - b).is_zero for a, b in zip(coeffs, expected))
        for k, sign in ((0, "-"), (1, "-"), (2, "+")):
            assert sign_certificate(coeffs[k], (0, 1), sign).certified
        assert coeffs[0].evaluate({"u": 0, "m": 1}) < 0
        assert coeffs[1].evaluate({"u": 0, "m": 1}) == 0


def _clear_exact_caches():
    exactpoly._elliptic_A.cache_clear()
    exactpoly._f0.cache_clear()


def _audited_oracle():
    """The oracle's extremes on a small grid, or the fault its LAPACK
    audit of the projected-Hessian entries raises."""
    try:
        rep = elliptic.oracle_convexity(ProblemParams(0.3), -2.3,
                                        HillComponent.EARTH, grid=(10, 10, 2))
    except OracleInconsistency:
        return "inconsistent"
    return rep.min_value, rep.max_value


# (identity, shared body, change to the body's value given its arguments,
# a float call site of the body, or for a body that only proofs read the
# equal-mass identity of regularizations that reads it, or None)
_MUTATIONS = [
    ("det-frame", "projected_hessian",
     lambda e, x, y, z, w, a, b: (e[0] + x * y, *e[1:]), _audited_oracle),
    ("det-frame", "R2", lambda v, x, y, c, m: v + x * y,
     lambda: scan.hill_region(ProblemParams(0.3), -2.3, HillComponent.EARTH,
                              10, 10).R2.tolist()),
    ("a-dy-factor", "A", lambda v, x, y, c, m: v + x * y, None),
    ("a-dy-factor", "xc_quartic", lambda v, x, c: v + x,
     lambda: cli._curve_quartic(argparse.Namespace(xmax=2.0, n=5))),
    ("a-dy-factor", "g", lambda v, t, c, m: v + t,
     lambda: elliptic._lam_terms(0.4, -2.3)[1]),
    ("lc-radicand", "lc_radicand", lambda v, x, y: v + x * y,
     lambda: levicivita.radicand(0.3, 0.4)),
    # the coefficient 393 of P2 becomes 394
    ("f0-expansion", "P2", lambda v, x, y: v - x ** 4 * y ** 3 / 28,
     lambda: holds(regularizations.equal_mass_polar_derivatives())),
    ("c0-resultant", "aq", lambda v, q: v + q / 216,
     lambda: holds(regularizations.equal_mass_cone_curvature())),
    ("c0-resultant", "sextic", lambda v, q: v + q, None),
    ("equal-mass-slope", "quartic", lambda v, q: v + q, None),
]


class TestSharedFormulas:
    """The identity suite evaluates the bodies in ``formulas`` that the
    float code calls, so changing one of them breaks its identity."""

    @pytest.mark.parametrize("identity, body, change, probe", _MUTATIONS,
                             ids=[f"{m[1]}-{m[0]}" for m in _MUTATIONS])
    def test_identity_reads_the_program_formula(self, monkeypatch, identity,
                                                body, change, probe):
        original = getattr(formulas, body)
        before = probe() if probe else None
        monkeypatch.setattr(formulas, body,
                            lambda *args: change(original(*args), *args))
        _clear_exact_caches()
        try:
            assert not verify_identity(identity).passed
            if probe:
                assert probe() != before
        finally:
            monkeypatch.undo()
            _clear_exact_caches()
        assert verify_identity(identity).passed
        if probe:
            assert probe() == before

    @pytest.mark.parametrize("name", formulas.__all__)
    def test_one_body_for_every_number_type(self, name):
        # the body evaluated on Fractions is its MultiPoly evaluated
        # exactly, and on floats and arrays it rounds that value (Python
        # and NumPy powers may round differently)
        body = getattr(formulas, name)
        names = list(inspect.signature(body).parameters)
        point = dict(zip(names, [Fr(7, 5), Fr(-1, 3), Fr(-9, 4), Fr(2, 5),
                                 Fr(3, 2), Fr(-5, 2)]))
        exact = body(*point.values())
        poly = body(*ring(*names))
        as_float = body(*map(float, point.values()))
        as_array = body(*(np.full(3, float(v)) for v in point.values()))
        if name != "projected_hessian":
            exact, poly, as_float, as_array = ([v] for v in (
                exact, poly, as_float, as_array))
        for e, p, f, a in zip(exact, poly, as_float, as_array):
            assert p.evaluate(point) == e
            for v in (f, a):
                assert v == pytest.approx(float(e), rel=1e-12, abs=1e-12)
