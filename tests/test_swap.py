"""The mass swap: the Moon lobe is the swapped problem's Earth lobe,
mirrored by q1 -> 1 - q1 (nu -> pi - nu in the elliptic chart), bit for
bit."""

import json
import math

import numpy as np
import pytest

from euler2c.cli import main
from euler2c.elliptic import oracle_convexity, thresholds
from euler2c.fiberwise import fiberwise_verdict
from euler2c.ladder import theorem_verdict
from euler2c.levicivita import nonconvex_witness_levi
from euler2c.model import HillComponent, ProblemParams, hill_boundary

EARTH, MOON = HillComponent.EARTH, HillComponent.MOON
SWAP_MUS = (1e-4, 0.3, 0.4999, 0.5, 0.7, 1.0 - 1e-4)


def _same(a, b):
    """Equal bit for bit, floats by their repr (so -0.0 != 0.0)."""
    return repr(a) == repr(b)


@pytest.mark.parametrize("mu", SWAP_MUS)
class TestExactMirror:
    def test_swap_exchanges_the_masses(self, mu):
        p = ProblemParams(mu)
        s = p.swapped()
        assert s.swapped() == p
        assert s.earth_mass == mu and s.mu == p.earth_mass
        assert _same(s.m, -p.m)

    def test_constants_and_thresholds(self, mu):
        p = ProblemParams(mu)
        s = p.swapped()
        assert _same(s.c_jacobi, p.c_jacobi)
        assert _same(thresholds(s), thresholds(p))
        assert s.l + p.l == pytest.approx(1.0, abs=1e-15)

    def test_moon_rim_is_the_mirrored_earth_rim(self, mu):
        p = ProblemParams(mu)
        for c in (p.c_jacobi, p.c_jacobi - 1e-3, -100.0):
            moon = hill_boundary(p, c, MOON, n=64)
            earth = hill_boundary(p.swapped(), c, EARTH, n=64)
            assert np.array_equal(moon[:, 0], 1.0 - earth[:, 0])
            assert np.array_equal(moon[:, 1], earth[:, 1])

    def test_moon_oracle_is_the_mirrored_earth_oracle(self, mu):
        p = ProblemParams(mu)
        c = p.c_jacobi - 1e-3
        moon = oracle_convexity(p, c, MOON, grid=(30, 30, 4))
        earth = oracle_convexity(p.swapped(), c, EARTH, grid=(30, 30, 4))

        def mirrored(point):
            lam, nu, s, phi = point
            return lam, math.pi - nu, s, phi

        assert moon.argmin == mirrored(earth.argmin)
        assert moon.argmax == mirrored(earth.argmax)
        assert moon.witnesses == [mirrored(w) for w in earth.witnesses]
        for rep in (moon, earth):
            rep.argmin = rep.argmax = rep.witnesses = None
            rep.target = rep.wall_time = None
        assert moon == earth

    @pytest.mark.parametrize("below", [0.0, 1e-3])
    @pytest.mark.parametrize("target", ["fiberwise", "levi"])
    def test_cli_moon_is_the_swapped_earth(self, capsys, mu, below, target):
        # verdict TARGET --component moon reports the Earth lobe of the
        # swapped problem; the fiberwise witness in the Standard frame
        p = ProblemParams(mu)
        s = p.swapped()
        c = p.c_jacobi - below
        code = main(["verdict", target, "--mu", repr(mu), "--c", repr(c),
                     "--component", "moon"])
        d = json.loads(capsys.readouterr().out)
        assert d["component"] == "moon"
        theory = theorem_verdict(target, s, c)
        assert d.get("theory") == (theory and theory.value)
        if target == "fiberwise":
            rep = fiberwise_verdict(s, c)
            witness = rep.witness and {"energy": rep.witness[0],
                                       "point": [1.0 - rep.witness[1][0],
                                                 rep.witness[1][1]],
                                       "C": rep.witness[2]}
            least, samples = rep.min_C, rep.samples
        else:
            w, samples, least = nonconvex_witness_levi(s, c)
            witness = w and {"point": [w[0], w[1]], "F": w[2]}
        assert d["samples"] == samples and _same(d["least_value"], least)
        assert d.get("witness") == witness
        assert d["verdict"] == ("convex" if witness is None else "nonconvex")
        assert code == (3 if theory and theory.value != d["verdict"] else 0)

    @pytest.mark.parametrize("below", [0.0, 1e-3])
    @pytest.mark.parametrize("target", ["fiberwise", "levi"])
    def test_cli_mirror_pair(self, capsys, mu, below, target):
        # (mu, Moon) and (1 - mu, Earth) are one lobe; 1 - mu rounds, so
        # their verdicts agree, not their bits
        answers = []
        for m, comp in ((mu, "moon"), (1.0 - mu, "earth")):
            c = ProblemParams(m).c_jacobi - below
            main(["verdict", target, "--mu", repr(m), "--c", repr(c),
                  "--component", comp])
            d = json.loads(capsys.readouterr().out)
            answers.append((d["verdict"], d.get("theory"), d["samples"]))
        assert answers[0] == answers[1]
