"""Command-line interface: subcommands, formats, exit codes."""

import csv
import json
import math
import os
import subprocess
import sys

import pytest

from euler2c.cli import main, parse_energy
from euler2c.elliptic import oracle_convexity
from euler2c.fiberwise import curvature_numerator
from euler2c.model import HillComponent, ProblemParams


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
        x, y = d["witness"]["point"]
        assert 0.44 < x < 0.55 and abs(y) < 0.1

    def test_fiberwise_equal_mass(self, capsys):
        code, out, _ = run(capsys, "verdict", "fiberwise", "--mu", "0.5",
                           "--c", "-2.2")
        assert code == 0
        assert json.loads(out)["verdict"] == "convex"

    def test_levi_no_theorem_above_inflection(self, capsys):
        # mu >= 16/17: the theorem is silent and the oracle finds no
        # witness, so the two cannot disagree
        code, out, _ = run(capsys, "verdict", "levi", "--mu", "0.95",
                           "--c", "cJ", "--method", "both")
        assert code == 0
        d = json.loads(out)
        assert d["verdict"] == "convex" and "theory" not in d

    @pytest.mark.parametrize("mu, verdict", [(0.3, "nonconvex"),
                                             (0.7, "convex")])
    def test_fiberwise_heavier_earth_only(self, capsys, mu, verdict):
        # the Earth lobe, which the oracle scans, is the heavier one
        # only for mu < 1/2
        code, out, _ = run(capsys, "verdict", "fiberwise", "--mu", str(mu),
                           "--c", "cJ", "--method", "both")
        assert code == 0
        d = json.loads(out)
        assert d["verdict"] == verdict
        assert d.get("theory") == (verdict if mu < 0.5 else None)

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

    # Known exit-3 bands (ROADMAP, "Certify c0 and make verdicts
    # three-valued"); strict, so the fix that closes a band flips them.
    @pytest.mark.parametrize("target, mu", [
        pytest.param("fiberwise", 0.4995, marks=pytest.mark.xfail(
            strict=True, reason="mu in [0.4995, 1/2): min_C is about "
            "-4e-13, inside tol = 1e-12, so the oracle finds no witness")),
        pytest.param("levi", 0.935, marks=pytest.mark.xfail(
            strict=True, reason="mu in [0.9315, 16/17): the theorem "
            "claims nonconvex but the witness search finds no F < -tol")),
    ])
    def test_theory_oracle_agree_at_band(self, capsys, target, mu):
        code, _, _ = run(capsys, "verdict", target, "--mu", str(mu),
                         "--c", "cJ", "--method", "both")
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

    def test_v0_passes_through_x0(self, capsys, tmp_path):
        out = tmp_path / "v.csv"
        assert main(["curve", "v0", "--mu", "0.3", "--c", "cJ",
                     "--out", str(out)]) == 0
        rows = [r for r in self._rows(out) if r["series"] == "v0"]
        x0 = 0.5497072294690329
        d = min(math.hypot(float(r["x"]) - x0, float(r["y"]))
                for r in rows)
        assert d < 1e-6

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


def test_import_does_not_load_scipy():
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run(
        [sys.executable, "-c",
         "import sys, euler2c.cli; "
         "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "[]"
