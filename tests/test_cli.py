"""Command-line interface: subcommands, formats, exit codes."""

import csv
import gc
import json
import math
import os
import subprocess
import sys
import tokenize

import numpy as np
import pytest

import euler2c
from euler2c import levicivita
from euler2c.cli import _linspace, main, parse_energy
from euler2c.elliptic import oracle_convexity, thresholds
from euler2c.fiberwise import curvature_numerator
from euler2c.model import HillComponent, ProblemParams

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEnergyParsing:
    def test_symbolic(self, p03):
        assert parse_energy("cJ", p03) == p03.c_jacobi
        assert parse_energy("cJ-0.1", p03) == p03.c_jacobi - 0.1
        assert parse_energy("cJ+0.05", p03) == p03.c_jacobi + 0.05
        assert parse_energy("-2.5", p03) == -2.5

    def test_bad_symbolic(self, p03):
        with pytest.raises(ValueError):
            parse_energy("cJx", p03)

    @pytest.mark.parametrize("text", ["inf", "-inf", "nan", "cJ+inf",
                                      "cJ-inf", "1e400"])
    def test_nonfinite(self, p03, text):
        with pytest.raises(ValueError, match="--c"):
            parse_energy(text, p03)


class TestConstants:
    def test_equal_mass(self, capsys):
        code, out, _ = run(capsys, "constants", "--mu", "0.5")
        assert code == 0
        d = json.loads(out)
        assert d["schema"] == 1
        assert d["l"] == 0.5 and d["c_jacobi"] == -2.0 and d["c0"] == -2.0

    def test_quarter_mass(self, capsys):
        code, out, _ = run(capsys, "constants", "--mu", "0.25")
        d = json.loads(out)
        assert d["c_jacobi"] == pytest.approx(-1 - math.sqrt(3) / 2,
                                              rel=1e-15)
        assert -1.0 < d["a"] < 0.0 < d["b"] < 1.0

    def test_roundtrip_bit_exact(self, capsys, tmp_path):
        out_file = tmp_path / "c.json"
        code = main(["constants", "--mu", "0.3", "--out", str(out_file)])
        assert code == 0
        d = json.loads(out_file.read_text())
        p = ProblemParams(0.3)
        assert d["l"] == p.l and d["c_jacobi"] == p.c_jacobi

    def test_invalid_mu_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["constants", "--mu", "1.5"])
        assert exc.value.code == 2

    def test_near_equal_mass_gap(self, capsys):
        # c0 rounds to c_J here; the gap is reported on its own
        code, out, _ = run(capsys, "constants", "--mu", "0.4999999")
        assert code == 0
        d = json.loads(out)
        assert d["c0"] == d["c_jacobi"]
        assert d["cJ_minus_c0"] == pytest.approx(2.109375000242708e-29,
                                                 rel=1e-15)
        code, out, _ = run(capsys, "verdict", "elliptic", "--mu", "0.4999999",
                           "--c", "cJ-0.5", "--component", "earth",
                           "--method", "theory")
        assert code == 0 and json.loads(out)["verdict"] == "convex"


class TestVerdict:
    def test_elliptic_equal_mass_agrees(self, capsys):
        code, out, _ = run(capsys, "verdict", "elliptic", "--mu", "0.5",
                           "--c", "-2.5", "--component", "earth",
                           "--method", "both", "--grid", "30", "30", "8")
        assert code == 0
        d = json.loads(out)
        assert d["verdict"] == "convex" and d["theory"] == "convex"

    def test_levi_witness(self, capsys):
        code, out, _ = run(capsys, "verdict", "levi", "--mu", "0.3",
                           "--c", "cJ")
        assert code == 0
        d = json.loads(out)
        assert d["verdict"] == "nonconvex"
        assert d["samples"] > 0 and d["failures"] == 0
        x, y = d["witness"]["point"]
        assert 0.44 < x < 0.55 and abs(y) < 0.1

    @pytest.mark.parametrize("mu", [0.3, 0.95])
    def test_levi_samples_are_points_read(self, capsys, mu):
        # F at the q2 >= 0 half of 1024 points of the Earth rim, with a
        # witness (mu = 0.3) or without one (0.95)
        p = ProblemParams(mu)
        _, read, _ = levicivita.nonconvex_witness_levi(p, p.c_jacobi)
        code, out, _ = run(capsys, "verdict", "levi", "--mu", str(mu),
                           "--c", "cJ", "--method", "oracle")
        assert code == 0
        assert json.loads(out)["samples"] == read == 513

    def test_levi_least_value(self, capsys):
        # the least F read, which is the witness's F when below -tol
        p = ProblemParams(0.3)
        w, _, least = levicivita.nonconvex_witness_levi(p, p.c_jacobi)
        code, out, _ = run(capsys, "verdict", "levi", "--mu", "0.3",
                           "--c", "cJ")
        d = json.loads(out)
        assert code == 0 and d["least_value"] == least == w[2] < -1e-8
        assert d["witness"]["F"] == least

    def test_fiberwise_least_value_inside_tolerance(self, capsys):
        # at mu = 0.4995 and c_J the least C read is negative, but inside
        # the tolerance 1e-12, so no witness: the report shows how near
        code, out, _ = run(capsys, "verdict", "fiberwise", "--mu", "0.4995",
                           "--c", "cJ", "--method", "oracle")
        d = json.loads(out)
        assert code == 0 and d["verdict"] == "convex"
        assert -1e-12 < d["least_value"] < 0.0
        assert d["least_value"] == pytest.approx(-7.32e-13, rel=1e-2)

    @pytest.mark.parametrize("argv", [
        ["elliptic", "--component", "earth", "--c", "cJ-0.2", "--grid",
         "20", "20", "4"],
        ["levi", "--method", "theory"], ["fiberwise", "--method", "theory"]])
    def test_least_value_only_from_a_boundary_oracle(self, capsys, argv):
        _, out, _ = run(capsys, "verdict", *argv, "--mu", "0.3")
        assert "least_value" not in json.loads(out)

    def test_fiberwise_equal_mass(self, capsys):
        code, out, _ = run(capsys, "verdict", "fiberwise", "--mu", "0.5",
                           "--c", "-2.2")
        assert code == 0
        d = json.loads(out)
        assert d["verdict"] == "convex"
        assert d["samples"] > 0 and d["failures"] == 0

    def test_levi_no_theorem_above_inflection(self, capsys):
        # mu >= 16/17: the theorem is silent and the oracle finds no
        # witness, so the two cannot disagree
        code, out, _ = run(capsys, "verdict", "levi", "--mu", "0.95",
                           "--c", "cJ", "--method", "both")
        assert code == 0
        d = json.loads(out)
        assert d["verdict"] == "convex" and "theory" not in d

    @pytest.mark.parametrize("method", ["oracle", "both"])
    def test_levi_far_below_critical_energy_is_convex(self, capsys, method):
        # at c_J - 0.5, far from the vertex, F is positive on the whole
        # Earth loop; no theorem applies there
        code, out, err = run(capsys, "verdict", "levi", "--mu", "0.3",
                             "--c", "cJ-0.5", "--method", method)
        assert code == 0 and err == ""
        d = json.loads(out)
        assert d["verdict"] == "convex" and d["samples"] == 513
        assert d["least_value"] == pytest.approx(9.38, rel=1e-3)
        assert "witness" not in d and "theory" not in d

    @pytest.mark.parametrize("mu, verdict", [(0.3, "nonconvex"),
                                             (0.7, "convex")])
    def test_fiberwise_heavier_earth_only(self, capsys, mu, verdict):
        # without --component the verdict is the Earth lobe's, the heavier
        # one only for mu < 1/2
        code, out, _ = run(capsys, "verdict", "fiberwise", "--mu", str(mu),
                           "--c", "cJ", "--method", "both")
        assert code == 0
        d = json.loads(out)
        assert d["verdict"] == verdict and d["component"] == "earth"
        assert d.get("theory") == (verdict if mu < 0.5 else None)

    def test_fiberwise_moon_is_the_swapped_earth(self, capsys):
        # at mu = 0.7 the Moon lobe is the heavier one: the mirror image of
        # mu = 0.3's Earth lobe, witness and all, in the Standard frame
        code, out, _ = run(capsys, "verdict", "fiberwise", "--mu", "0.7",
                           "--c", "cJ", "--component", "moon")
        assert code == 0
        moon = json.loads(out)
        code, out, _ = run(capsys, "verdict", "fiberwise", "--mu", "0.3",
                           "--c", "cJ")
        earth = json.loads(out)
        assert moon["verdict"] == moon["theory"] == "nonconvex"
        assert moon["component"] == "moon"
        assert moon["least_value"] == pytest.approx(-0.0194013379946,
                                                    rel=1e-11)
        (q1, q2) = moon["witness"]["point"]
        (e1, e2) = earth["witness"]["point"]
        assert q1 > ProblemParams(0.7).l
        assert q1 == pytest.approx(1.0 - e1, abs=1e-15)
        # C is even in q2, so either of the two mirror points may be least
        assert abs(q2) == pytest.approx(abs(e2), abs=1e-15)
        assert moon["witness"]["C"] == pytest.approx(earth["witness"]["C"],
                                                     rel=1e-9)

    @pytest.mark.parametrize("mu, verdict", [(0.3, "nonconvex"),
                                             (0.05, "convex")])
    def test_levi_moon(self, capsys, mu, verdict):
        # regularized at the Moon the theorem reads the Earth's mass 1 - mu
        # against 16/17: nonconvex at mu = 0.3, silent at mu = 0.05, where
        # the oracle reads a convex boundary (the mirror of mu = 0.95)
        code, out, _ = run(capsys, "verdict", "levi", "--mu", str(mu),
                           "--c", "cJ", "--component", "moon")
        assert code == 0
        d = json.loads(out)
        assert d["verdict"] == verdict and d["component"] == "moon"
        assert d.get("theory") == (verdict if mu == 0.3 else None)

    def test_oracle_fault_exit_5(self, capsys, monkeypatch):
        # an internal disagreement of the oracle is a fault of the
        # program, not invalid input (exit 2)
        from euler2c import elliptic
        spectrum = elliptic._tangent_spectrum

        def off(*frame):
            e4, lo, hi = spectrum(*frame)
            return e4, lo * (1.0 + 1e-9), hi

        monkeypatch.setattr(elliptic, "_tangent_spectrum", off)
        with pytest.raises(SystemExit) as exc:
            main(["verdict", "elliptic", "--mu", "0.3", "--c", "cJ-0.5",
                  "--component", "moon", "--method", "both",
                  "--grid", "30", "30", "8"])
        assert exc.value.code == 5

    @pytest.mark.parametrize("method", ["oracle", "both"])
    def test_degenerate_oracle_is_undecided(self, capsys, monkeypatch,
                                            method):
        # a degenerate oracle report is a partial result (exit 1), never a
        # disagreement with the theory (exit 3); no real input is known to
        # give one, so the report is made up
        from euler2c import elliptic
        from euler2c.scan import ScanReport

        def degenerate(params, c, component, grid):
            return ScanReport("stub", grid, 0.0, (0.0,) * 4, 1.0, (0.0,) * 4,
                              [], "degenerate", 8, 0, 0.0,
                              {"positions": 8, "lapack_samples": 2})

        monkeypatch.setattr(elliptic, "oracle_convexity", degenerate)
        code, out, err = run(capsys, "verdict", "elliptic", "--mu", "0.3",
                             "--c", "cJ-0.5", "--component", "earth",
                             "--method", method)
        assert code == 1 and "undecided" in err
        d = json.loads(out)
        assert d["verdict"] == "undecided" and "witness" not in d
        assert d.get("theory") == ("convex" if method == "both" else None)
        assert d["oracle_counters"] == {"positions": 8, "lapack_samples": 2}

    def test_oracle_counters_in_json(self, capsys):
        code, out, _ = run(capsys, "verdict", "elliptic", "--mu", "0.3",
                           "--c", "cJ-0.5", "--component", "moon",
                           "--method", "both", "--grid", "30", "30", "8")
        assert code == 0
        d = json.loads(out)
        rep = oracle_convexity(ProblemParams(0.3),
                               ProblemParams(0.3).c_jacobi - 0.5,
                               HillComponent.MOON, grid=(30, 30, 8))
        assert d["oracle_counters"] == rep.counters
        assert set(rep.counters) == {"positions", "lapack_samples"}
        # samples count positions, and LAPACK audits every fourth of those
        # with a spectrum
        positions = rep.counters["positions"]
        assert d["samples"] == rep.samples == positions + rep.failures
        assert rep.counters["lapack_samples"] >= -(-positions // 4)
        code, out, _ = run(capsys, "verdict", "elliptic", "--mu", "0.3",
                           "--c", "cJ-0.5", "--component", "moon",
                           "--method", "theory")
        d = json.loads(out)
        assert "oracle_counters" not in d
        assert d["samples"] == d["failures"] == 0

    @pytest.mark.parametrize("mu", [0.499, 0.501])
    @pytest.mark.parametrize("component", ["earth", "moon"])
    def test_oracle_failures_in_json(self, capsys, mu, component):
        # midway between c0 and c_J the rim position at lambda = 0 next
        # to the L1 saddle has |grad Q|^2 = 8.4e-13 <= 1e-12: each lobe
        # drops exactly that position, and the JSON says so
        p = ProblemParams(mu)
        c = 0.5 * (thresholds(p).c0 + p.c_jacobi)
        code, out, _ = run(capsys, "verdict", "elliptic", "--mu", str(mu),
                           "--c", repr(c), "--component", component,
                           "--method", "oracle")
        assert code == 0
        d = json.loads(out)
        assert d["failures"] == 1
        assert d["samples"] == d["oracle_counters"]["positions"] + 1
        assert list(d)[list(d).index("samples") + 1] == "failures"

    # Known exit-3 bands (ROADMAP, "Certify c0 and make verdicts
    # three-valued"); strict, so the fix that closes a band flips them.
    # The Moon lobe at mu = 0.065 is the Earth lobe of mu = 0.935,
    # mirrored.
    _LEVI_BAND = ("mu in [0.9315, 16/17): the theorem claims nonconvex "
                  "but the witness search finds no F < -tol")

    @pytest.mark.parametrize("target, mu, component", [
        pytest.param("fiberwise", 0.4995, "earth", id="fiberwise-0.4995",
                     marks=pytest.mark.xfail(
                         strict=True, reason="mu in [0.4995, 1/2): min_C "
                         "is about -7e-13, inside tol = 1e-12, so the "
                         "oracle finds no witness")),
        pytest.param("levi", 0.935, "earth", id="levi-0.935",
                     marks=pytest.mark.xfail(strict=True, reason=_LEVI_BAND)),
        pytest.param("levi", 0.065, "moon", id="levi-0.065-moon",
                     marks=pytest.mark.xfail(strict=True, reason=_LEVI_BAND)),
    ])
    def test_theory_oracle_agree_at_band(self, capsys, target, mu,
                                         component):
        code, _, _ = run(capsys, "verdict", target, "--mu", str(mu),
                         "--c", "cJ", "--component", component,
                         "--method", "both")
        assert code == 0

    @pytest.mark.parametrize("target", ["levi", "fiberwise"])
    @pytest.mark.parametrize("c, verdict", [("cJ", "nonconvex"),
                                            ("cJ-5e-10", None)])
    def test_critical_energy_is_exact(self, capsys, target, c, verdict):
        # both critical-energy theorems are stated at c = c_J exactly
        code, out, _ = run(capsys, "verdict", target, "--mu", "0.3",
                           "--c", c, "--method", "theory")
        assert code == 0
        assert json.loads(out)["verdict"] == verdict

    @pytest.mark.parametrize("target", ["levi", "fiberwise"])
    def test_theory_silent_above_cj(self, capsys, target):
        # the theory computes nothing at the energy: above c_J no
        # theorem applies, and the verdict says so
        code, out, _ = run(capsys, "verdict", target, "--mu", "0.3",
                           "--c", "cJ+0.1", "--method", "theory")
        assert code == 0
        assert json.loads(out)["verdict"] is None

    @pytest.mark.parametrize("method", ["theory", "oracle", "both"])
    def test_elliptic_requires_energy_below_cj(self, capsys, method):
        # one input range, c < c_J, for every method: at c = c_J the two
        # lobes touch at the saddle
        with pytest.raises(SystemExit) as exc:
            main(["verdict", "elliptic", "--mu", "0.3", "--c", "cJ",
                  "--component", "earth", "--method", method])
        assert exc.value.code == 2
        assert "not below c_J" in capsys.readouterr().err

    def test_elliptic_requires_component(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verdict", "elliptic", "--mu", "0.5", "--c", "-2.5"])
        assert exc.value.code == 2

    def test_missing_mu_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verdict", "levi", "--c", "cJ"])
        assert exc.value.code == 2


class TestCurve:
    def _rows(self, path):
        with open(path) as fh:
            return list(csv.DictReader(fh))

    def test_quartic_contains_corner(self, capsys, tmp_path):
        out = tmp_path / "q.csv"
        assert main(["curve", "quartic", "--out", str(out)]) == 0
        rows = self._rows(out)
        d = min(math.hypot(float(r["x"]) - 1.0, float(r["c"]) + 2.0)
                for r in rows)
        assert d < 1e-6

    def test_quartic_residuals(self, capsys, tmp_path):
        out = tmp_path / "q.csv"
        main(["curve", "quartic", "--out", str(out)])
        for r in self._rows(out):
            assert abs(float(r["residual"])) < 1e-10

    def test_c0curve_touches_at_half(self, capsys, tmp_path):
        out = tmp_path / "c0.csv"
        assert main(["curve", "c0curve", "--n", "9", "--mu-min", "0.3",
                     "--mu-max", "0.7", "--out", str(out)]) == 0
        rows = self._rows(out)
        mid = [r for r in rows if abs(float(r["mu"]) - 0.5) < 1e-12][0]
        assert abs(float(mid["c0"]) - float(mid["c_jacobi"])) < 1e-9

    def test_hill_has_cone_series(self, capsys, tmp_path):
        out = tmp_path / "h.csv"
        assert main(["curve", "hill", "--mu", "0.3", "--c", "cJ-0.2",
                     "--n", "32", "--out", str(out)]) == 0
        series = {r["series"] for r in self._rows(out)}
        assert {"hill-earth", "hill-moon", "cone+", "cone-"} <= series

    @pytest.mark.parametrize("which, n, rows", [("hill", 8, 16 + 4),
                                                ("v0", 32, 32 + 16)])
    def test_least_n(self, capsys, which, n, rows):
        # the least --n each curve takes: hill_boundary's 8 points per
        # rim, and v0's n/4; one below it exits 2, naming --n
        # (TestOptionRanges)
        code, out, _ = run(capsys, "curve", which, "--mu", "0.3",
                           "--n", str(n))
        assert code == 0 and len(out.splitlines()) == 1 + rows

    def test_v0_passes_through_x0(self, capsys, tmp_path):
        out = tmp_path / "v.csv"
        assert main(["curve", "v0", "--mu", "0.3", "--c", "cJ",
                     "--out", str(out)]) == 0
        rows = [r for r in self._rows(out) if r["series"] == "v0-earth"]
        x0 = 0.5497072294690329
        d = min(math.hypot(float(r["x"]) - x0, float(r["y"]))
                for r in rows)
        assert d < 1e-6

    @pytest.mark.parametrize("mu", [0.3, 0.7])
    @pytest.mark.parametrize("energy", ["cJ", "cJ-0.5"],
                             ids=["cJ", "below-cJ"])
    def test_v0_rows_are_closed_loops_on_V_zero(self, capsys, tmp_path, mu,
                                                energy):
        # the preimage of both Hill rims: n v0 rows in three loops, each
        # in boundary order, and the tangent lines' n/2 rows
        n = 64
        out = tmp_path / "v.csv"
        assert main(["curve", "v0", "--mu", str(mu), "--c", energy,
                     "--n", str(n), "--out", str(out)]) == 0
        p = ProblemParams(mu)
        c = parse_energy(energy, p)
        series = {}
        for r in self._rows(out):
            series.setdefault(r["series"], []).append(
                (float(r["x"]), float(r["y"]), float(r["F"])))
        assert list(series) == ["v0-earth", "v0-moon+", "v0-moon-",
                                "tangent+", "tangent-"]
        assert [len(v) for v in series.values()] == [n // 2, n // 4, n // 4,
                                                     n // 4, n // 4]
        loops = {k: np.array(series[k]) for k in list(series)[:3]}
        for xyF in loops.values():
            xy = xyF[:, :2]
            # no jump anywhere, from the last point back to the first too;
            # a half-angle off by pi would jump by 2|v|, about 1 on Earth's
            steps = np.hypot(*(np.roll(xy, -1, axis=0) - xy).T)
            assert np.max(steps) < 0.25
            assert np.max(np.abs(levicivita.V_value(
                xy[:, 0], xy[:, 1], p, c))) <= 1e-12
            # F from one array call is the scalar F at every point
            scalar = [levicivita.F_value(x, y, p, c) for x, y in xy]
            assert np.max(np.abs(xyF[:, 2] - scalar)) \
                <= 1e-14 * np.max(np.abs(scalar))
        earth = loops["v0-earth"]
        assert np.array_equal(earth[n // 4:, :2], -earth[:n // 4, :2])
        assert np.array_equal(loops["v0-moon-"][:, :2],
                              -loops["v0-moon+"][:, :2])
        assert np.all(loops["v0-moon+"][:, 0] > 0.0)

    def test_f0_passes_through_x0(self, capsys, tmp_path):
        out = tmp_path / "f.csv"
        assert main(["curve", "f0", "--mu", "0.3", "--c", "cJ",
                     "--out", str(out)]) == 0
        rows = [r for r in self._rows(out) if r["series"] == "f0"]
        x0 = 0.5497072294690329
        d = min(math.hypot(float(r["x"]) - x0, float(r["y"]))
                for r in rows)
        assert d < 1e-6

    def test_czero_traces_zero_set(self, capsys, tmp_path):
        out = tmp_path / "cz.csv"
        p = ProblemParams(0.3)
        assert main(["curve", "czero", "--mu", "0.3", "--max-len", "0.25",
                     "--out", str(out)]) == 0
        rows = [r for r in self._rows(out)
                if r["series"].startswith("czero-")]
        assert rows
        for r in rows:
            q = (float(r["q1"]), float(r["q2"]))
            assert abs(curvature_numerator(q, p)) <= 1e-8

    @pytest.mark.parametrize("mu", [0.01, 0.3, 0.7])
    def test_czero_seeds_are_apart(self, capsys, tmp_path, mu):
        # a seed within 10 steps of a traced point would redraw that branch
        out = tmp_path / "cz.csv"
        step = 1e-3
        assert main(["curve", "czero", "--mu", str(mu), "--max-len", "0.25",
                     "--step", str(step), "--out", str(out)]) == 0
        series = {}
        for r in self._rows(out):
            if r["series"].startswith("czero-"):
                series.setdefault(r["series"], []).append(
                    (float(r["q1"]), float(r["q2"])))
        assert list(series) == [f"czero-{k}" for k in range(len(series))]
        assert 1 <= len(series) <= 4
        earlier = []
        for pts in series.values():
            x, y = pts[0]
            assert all(math.hypot(x - a, y - b) >= 10 * step
                       for a, b in earlier)
            # traced both ways from its seed, a series reaches past the
            # end of the earlier one it continues
            if earlier:
                fresh = [all(math.hypot(x - a, y - b) >= 2 * step
                             for a, b in earlier) for x, y in pts]
                assert sum(fresh) >= len(pts) / 3
            earlier += pts

    def test_csv_seventeen_digits_roundtrip(self, capsys, tmp_path):
        out = tmp_path / "c.csv"
        main(["curve", "c0curve", "--n", "5", "--out", str(out)])
        for r in self._rows(out):
            v = float(r["c0"])
            assert "%.17g" % v == r["c0"]


class TestOptionRanges:
    @pytest.mark.parametrize("argv, option", [
        (["verdict", "elliptic", "--component", "earth", "--grid", "2", "2",
          "0"], "grid"),
        (["verdict", "elliptic", "--component", "earth", "--grid", "5", "1",
          "4"], "grid"),
        (["curve", "f0", "--step", "0"], "--step"),
        (["curve", "czero", "--step", "0"], "--step"),
        (["verdict", "elliptic", "--c=-inf", "--component", "earth",
          "--method", "theory"], "--c"),
        (["verdict", "elliptic", "--c=-inf", "--component", "earth",
          "--method", "oracle"], "--c"),
        (["curve", "f0", "--max-len", "inf"], "--max-len"),
        (["curve", "f0", "--step", "inf"], "--step"),
        (["curve", "f0", "--max-len", "0"], "--max-len"),
        (["curve", "f0", "--max-len", "-1"], "--max-len"),
        (["curve", "v0", "--n", "31"], "--n"),
        (["curve", "hill", "--n", "7"], "--n"),
        # every command that computes at the energy refuses one above c_J
        (["curve", "hill", "--c", "cJ+0.1"], "--c"),
        (["curve", "v0", "--c", "cJ+0.1"], "--c"),
        (["curve", "f0", "--c", "cJ+0.1"], "--c"),
        (["curve", "czero", "--c", "cJ+5"], "--c"),
        (["verdict", "levi", "--c", "cJ+0.1", "--method", "oracle"], "--c"),
        (["verdict", "levi", "--c", "cJ+0.1", "--method", "both"], "--c"),
        (["verdict", "fiberwise", "--c", "cJ+0.1", "--method", "oracle"],
         "--c"),
        (["verdict", "fiberwise", "--c", "cJ+0.1"], "--c"),
        (["verdict", "elliptic", "--c", "cJ+0.1", "--component", "earth",
          "--method", "oracle"], "--c"),
    ], ids=["grid-no-angle", "grid-one-nu", "f0-step-0", "czero-step-0",
            "c-inf-theory", "c-inf-oracle", "f0-max-len-inf", "f0-step-inf",
            "f0-max-len-0", "f0-max-len-negative", "v0-n-below-32",
            "hill-n-below-8",
            "hill-above-cj",
            "v0-above-cj", "f0-above-cj", "czero-above-cj",
            "levi-oracle-above-cj", "levi-both-above-cj",
            "fiberwise-oracle-above-cj", "fiberwise-both-above-cj",
            "elliptic-oracle-above-cj"])
    def test_exit_2_naming_option(self, capsys, argv, option):
        # the defaults go before the case's options, which override them;
        # no traceback and no partial output, the option is named instead
        with pytest.raises(SystemExit) as exc:
            main([*argv[:2], "--mu", "0.3", "--c", "cJ-0.1", *argv[2:]])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert option in out.err

    @pytest.mark.parametrize("argv, lobe", [
        (["verdict", "fiberwise", "--component", "moon"], "moon"),
        (["verdict", "fiberwise", "--component", "earth", "--method",
          "theory"], "earth"),
        (["verdict", "levi", "--component", "moon"], "moon"),
        (["verdict", "levi", "--component", "earth", "--method", "oracle"],
         "earth"),
    ], ids=["fiberwise-component-moon", "fiberwise-component-theory",
            "levi-component-moon", "levi-component-oracle"])
    def test_component_names_the_lobe(self, capsys, argv, lobe):
        # levi and fiberwise answer for either lobe, and name it
        code, out, err = run(capsys, *argv[:2], "--mu", "0.3", "--c",
                             "cJ-0.1", *argv[2:])
        assert code == 0 and err == ""
        d = json.loads(out)
        assert d["component"] == lobe
        assert d["verdict"] in (("convex",) if "theory" not in argv
                                else (None,))


def _fmt_row(name, *values):
    return ",".join([name] + ["%.17g" % float(v) for v in values])


def _quartic_reference(n, xmax):
    """curve quartic as np.linspace and np.union1d sample it."""
    xs = np.union1d(np.linspace(2.0 / math.sqrt(5.0), xmax, n), [1.0])
    lines = ["series,x,c,residual"]
    for name, sgn in (("upper", 1.0), ("lower", -1.0)):
        for x in xs:
            cval = ((-3.0 * x + sgn * math.sqrt(max(5.0 * x * x - 4.0, 0.0)))
                    / (2.0 * x * x))
            resid = cval * cval * x ** 4 + 3.0 * cval * x ** 3 + x * x + 1.0
            lines.append(_fmt_row(name, x, cval, resid))
    return "\n".join(lines) + "\n"


def _c0curve_reference(n, mu_min, mu_max):
    """curve c0curve as np.linspace samples it."""
    lines = ["series,mu,c0,c_jacobi"]
    for mu in np.linspace(mu_min, mu_max, n):
        p = ProblemParams(float(mu))
        lines.append(_fmt_row("c0", mu, thresholds(p).c0, p.c_jacobi))
    return "\n".join(lines) + "\n"


class TestSampler:
    @pytest.mark.parametrize("start, stop", [
        (0.05, 0.95), (-0.3, 0.3), (4.0, 2.0 / math.sqrt(5.0)), (1.0, 1.0),
        (0.1, 0.7)])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 64, 101])
    def test_linspace_bit_for_bit(self, start, stop, n):
        assert ([x.hex() for x in _linspace(start, stop, n)]
                == [float(x).hex() for x in np.linspace(start, stop, n)])

    def test_negative_count(self):
        with pytest.raises(ValueError):
            _linspace(0.0, 1.0, -1)

    @pytest.mark.parametrize("n", [0, 1, 2, 101, 256])
    @pytest.mark.parametrize("opts, xmax", [([], 4.0),
                                            (["--xmax", "2.5"], 2.5)])
    def test_quartic_csv_matches_numpy(self, capsys, n, opts, xmax):
        code, out, _ = run(capsys, "curve", "quartic", "--n", str(n), *opts)
        assert code == 0 and out == _quartic_reference(n, xmax)

    @pytest.mark.parametrize("n", [0, 1, 2, 101, 256])
    @pytest.mark.parametrize("opts, lo, hi", [
        ([], 0.05, 0.95), (["--mu-min", "0.2", "--mu-max", "0.6"], 0.2, 0.6)])
    def test_c0curve_csv_matches_numpy(self, capsys, n, opts, lo, hi):
        code, out, _ = run(capsys, "curve", "c0curve", "--n", str(n), *opts)
        assert code == 0 and out == _c0curve_reference(n, lo, hi)

    @pytest.mark.parametrize("which", ["quartic", "c0curve"])
    def test_negative_n_exit_2(self, capsys, which):
        with pytest.raises(SystemExit) as exc:
            main(["curve", which, "--n", "-1"])
        assert exc.value.code == 2


class TestConfigFile:
    def test_preloads_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("mu = 0.5\n# comment\nc = -2.5\n")
        code, out, _ = run(capsys, "--config", str(cfg), "verdict",
                           "elliptic", "--component", "earth",
                           "--method", "theory")
        assert code == 0
        assert json.loads(out)["verdict"] == "convex"

    def test_bad_config_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("not a key value line\n")
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "constants", "--mu", "0.5"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("text, argv", [
        ("only = bogus\n", ["verify-identities"]),
        ("method = bogus\nmu = 0.3\n",
         ["verdict", "elliptic", "--component", "earth"]),
    ])
    def test_values_checked_like_command_line(self, tmp_path, text, argv):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), *argv])
        assert exc.value.code == 2

    def test_grid_and_command_line_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("grid = 30 30 8\nmu = 0.3\nc = cJ-0.5\n"
                       "method = oracle\n")
        code, out, _ = run(capsys, "--config", str(cfg), "verdict",
                           "elliptic", "--component", "earth")
        d = json.loads(out)
        assert code == 0 and d["method"] == "oracle"
        assert d["samples"] == oracle_convexity(
            ProblemParams(0.3), ProblemParams(0.3).c_jacobi - 0.5,
            HillComponent.EARTH, grid=(30, 30, 8)).samples
        code, out, _ = run(capsys, "--config", str(cfg), "verdict",
                           "elliptic", "--component", "earth", "--method",
                           "theory", "--mu", "0.2")
        d = json.loads(out)
        assert code == 0 and d["method"] == "theory"
        assert d["claim"].startswith("elliptic convexity, mu=0.2,")


class TestIdentities:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "verify-identities", "--list")
        assert code == 0
        assert "det-frame" in out.splitlines()

    def test_full_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify-identities")
        assert code == 0
        assert "14/14 identities verified" in out

    def test_unknown_identity_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify-identities", "--only", "bogus"])
        assert exc.value.code == 2

    def test_single(self, capsys):
        code, out, _ = run(capsys, "verify-identities", "--only",
                           "det-frame")
        assert code == 0
        assert "Pass" in out


class TestEntryPoint:
    def test_main_leaves_collector_alone(self, capsys):
        # in-process callers keep a normal collector, also after an exit
        assert main(["constants", "--mu", "0.3"]) == 0
        with pytest.raises(SystemExit):
            main(["constants", "--mu", "1.5"])
        assert gc.isenabled() and gc.get_freeze_count() == 0

    def _module(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "euler2c.cli", *argv],
            env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
            text=True)

    def test_module_exit_codes(self):
        res = self._module("constants", "--mu", "0.3")
        assert res.returncode == 0, res.stderr
        assert set(json.loads(res.stdout)) == {
            "schema", "mu", "l", "c_jacobi", "a", "b", "c_e_pp", "c0",
            "cJ_minus_c0"}
        res = self._module("verdict", "elliptic", "--mu", "0.3", "--c", "cJ",
                           "--component", "earth", "--method", "oracle")
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr.startswith("error: ")

    def test_run_returns_code_and_freezes(self):
        script = ("import contextlib, gc, io\n"
                  "from euler2c.cli import run\n"
                  "with contextlib.redirect_stdout(io.StringIO()):\n"
                  "    code = run(['verify-identities', '--list'])\n"
                  "print(code, gc.get_freeze_count() > 0)")
        res = subprocess.run([sys.executable, "-c", script],
                             env=dict(os.environ, PYTHONPATH=SRC),
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout == "0 True\n"

    # the variables a bundled OpenBLAS reads for its thread count
    _BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                  "OMP_NUM_THREADS")

    def _fresh(self, script, **preset):
        env = {k: v for k, v in os.environ.items()
               if k not in self._BLAS_VARS}
        env.update(preset, PYTHONPATH=SRC)
        res = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        return json.loads(res.stdout)

    _RUN_ELLIPTIC = (
        "import contextlib, gc, io, json, os\n"
        "from euler2c.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = run(['verdict', 'elliptic', '--mu', '0.3', '--c',\n"
        "                'cJ-0.2', '--component', 'earth', '--method',\n"
        "                'both', '--grid', '20', '20', '4'])\n"
        "task = '/proc/self/task'\n"
        "print(json.dumps([code, os.environ.get('OPENBLAS_NUM_THREADS'),\n"
        "                  gc.isenabled(), gc.get_freeze_count() > 0,\n"
        "                  len(os.listdir(task)) if os.path.isdir(task)\n"
        "                  else None]))")

    @pytest.mark.parametrize("preset, threads", [(None, "1"), ("2", "2")])
    def test_run_sets_blas_threads_and_collector(self, preset, threads):
        # run() gives OpenBLAS one thread unless the user chose a count,
        # and leaves the collector off and the heap frozen
        env = {} if preset is None else {"OPENBLAS_NUM_THREADS": preset}
        code, value, enabled, frozen, _ = self._fresh(self._RUN_ELLIPTIC,
                                                      **env)
        assert code == 0 and value == threads
        assert not enabled and frozen

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="needs /proc to count threads")
    def test_run_process_has_one_thread(self):
        *_, threads = self._fresh(self._RUN_ELLIPTIC)
        assert threads == 1
        # the control: in the same environment NumPy's import alone
        # starts a BLAS worker per extra CPU this process may run on
        control = self._fresh("import json, os, numpy\n"
                              "print(len(os.listdir('/proc/self/task')))")
        if len(os.sched_getaffinity(0)) > 1:
            assert control > 1


_SUBMODULES = ["cli", "elliptic", "errors", "exactpoly", "fiberwise",
               "formulas", "ladder", "levicivita", "model", "scan"]


def _cli(*argv):
    return f"from euler2c.cli import main; assert main({list(argv)!r}) == 0"


# a command that runs only the ladder loads neither
_LADDER_ONLY = ["numpy", "euler2c.exactpoly"]

# (statement run in a fresh interpreter, modules it must not load)
_IMPORT_CONTRACT = {
    "bare-import": ("import euler2c",
                    ["numpy"] + [f"euler2c.{m}" for m in _SUBMODULES]),
    "cli-import": ("import euler2c.cli", ["numpy"]),
    "constants": (_cli("constants", "--mu", "0.3"), _LADDER_ONLY),
    "curve-quartic": (_cli("curve", "quartic"), _LADDER_ONLY),
    "curve-c0curve": (_cli("curve", "c0curve"), _LADDER_ONLY),
    "verify-identities": (_cli("verify-identities"), ["numpy"]),
    "verify-identities-list": (_cli("verify-identities", "--list"),
                               ["numpy"]),
    "verdict-theory": (_cli("verdict", "elliptic", "--mu", "0.3", "--c",
                            "cJ-0.2", "--component", "earth", "--method",
                            "theory"), _LADDER_ONLY),
    "verdict-theory-levi": (_cli("verdict", "levi", "--mu", "0.3", "--c",
                                 "cJ", "--method", "theory"), _LADDER_ONLY),
    "verdict-theory-fiberwise": (_cli("verdict", "fiberwise", "--mu", "0.5",
                                      "--c", "cJ-0.1", "--method", "theory"),
                                 _LADDER_ONLY),
    "verdict-levi": (_cli("verdict", "levi", "--mu", "0.3", "--c", "cJ"),
                     ["euler2c.fiberwise", "euler2c.elliptic",
                      "euler2c.exactpoly"]),
    "verdict-fiberwise": (_cli("verdict", "fiberwise", "--mu", "0.3",
                               "--c", "cJ"),
                          ["euler2c.levicivita", "euler2c.elliptic"]),
    "curve-v0": (_cli("curve", "v0", "--mu", "0.3", "--max-len", "0.25"),
                 ["euler2c.fiberwise", "euler2c.elliptic",
                  "euler2c.exactpoly"]),
    "verdict-elliptic": (_cli("verdict", "elliptic", "--mu", "0.3", "--c",
                              "cJ-0.2", "--component", "earth", "--grid",
                              "20", "20", "4"),
                         ["euler2c.levicivita", "euler2c.fiberwise",
                          "euler2c.exactpoly"]),
    "all-names": (
        "import euler2c\n"
        f"for name in euler2c.__all__ + {_SUBMODULES!r}:\n"
        "    getattr(euler2c, name)\n"
        "assert set(euler2c.__all__) <= set(dir(euler2c))", []),
    "star-import": (
        "from euler2c import *\nimport euler2c\n"
        "missing = [n for n in euler2c.__all__ if n not in globals()]\n"
        "assert not missing, missing", []),
    "same-objects": (
        "import euler2c\nfrom euler2c import elliptic, ladder, model\n"
        "for mod in (model, elliptic):\n"
        "    for name in ladder.__all__ + ['_newton']:\n"
        "        if hasattr(mod, name):\n"
        "            assert getattr(mod, name) is getattr(ladder, name), name\n"
        "assert model.HillComponent is elliptic.HillComponent\n"
        "assert elliptic.thresholds is ladder.thresholds\n"
        "for name in euler2c.__all__[:-1]:\n"
        "    mod = euler2c._SOURCE[name]\n"
        "    assert getattr(euler2c, name) is getattr(\n"
        "        getattr(euler2c, mod), name), name", []),
}


@pytest.mark.parametrize("case", list(_IMPORT_CONTRACT))
def test_import_does_not_load_scipy(case):
    # each case in a fresh interpreter: a package import, or a command
    # that must load only the modules it runs
    code, absent = _IMPORT_CONTRACT[case]
    env = dict(os.environ, PYTHONPATH=SRC)
    script = ("import contextlib, io, sys\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              + "".join(f"    {line}\n" for line in code.splitlines())
              + "print(' '.join(sys.modules))")
    res = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    loaded = res.stdout.split()
    for name in ["scipy", *absent]:
        assert not [k for k in loaded
                    if k == name or k.startswith(name + ".")], name


# the program's own files, where a public name needs a caller: the
# package's modules but __init__ (its name table), the demos and the
# benchmark
_PROGRAM = [os.path.join(SRC, "euler2c", f)
            for f in os.listdir(os.path.join(SRC, "euler2c"))
            if f.endswith(".py") and f != "__init__.py"] + [
    os.path.join(os.path.dirname(SRC), d, f)
    for d in ("demos", "perfbench")
    for f in os.listdir(os.path.join(os.path.dirname(SRC), d))
    if f.endswith(".py")]


def _referenced_names(path):
    """The identifiers a file uses: NAME tokens outside import statements
    and other than the name a def or class statement defines (strings,
    comments and docstrings are not NAME tokens)."""
    names, in_import, start, prev = set(), False, True, None
    with tokenize.open(path) as fh:
        for tok in tokenize.generate_tokens(fh.readline):
            if tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
                in_import, start = False, True
            elif tok.type == tokenize.NAME:
                if start:
                    in_import = tok.string in ("import", "from")
                if not in_import and prev not in ("def", "class"):
                    names.add(tok.string)
                start = False
            prev = tok.string if tok.type == tokenize.NAME else None
    return names


def test_public_names_have_program_callers():
    # a name in euler2c.__all__ that only the tests use is dead weight
    used = set().union(*map(_referenced_names, _PROGRAM))
    unused = [n for n in euler2c.__all__ if n != "__version__"
              and n not in used]
    assert not unused
