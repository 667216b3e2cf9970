"""The reference corpus: levi, fiberwise and elliptic verdicts, the
verdicts of CI's console-script step, and figure curves, recorded once in
tests/reference/ and rerun here in-process.

Each row is an ``euler2c`` command line with its exit code and output: a
verdict's JSON without its runtime (null for a refused input), a curve's
CSV as a header and rows. A rerun must give the same exit code, verdict,
sample count, row count, series names and other strings; a float must
match within 1e-12 relative, since NumPy and libm may round the last bit
differently elsewhere. Near zero a float may also differ by the rounding
of its terms: 1e-15 in a verdict, whose least value is one sum of terms
of order one (several, such as 1.6e-32 at mu = 0.95 and c_J, are
rounding residues of a quantity that vanishes there, while -7.3e-13 and
-1.66e-9 at the band are pinned), and 1e-12 in a curve, whose points
come out of Newton iterations on curves of size one.

``PYTHONPATH=src python tests/test_reference.py`` rewrites the corpus
from the tree it runs in.
"""

import contextlib
import io
import json
import math
import os
import re
import sys

from euler2c.cli import main
from euler2c.ladder import ProblemParams, thresholds

_HERE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
_REL = 1e-12
_ABS = {"verdicts": 1e-15, "curves": 1e-12}

VERDICT_MU = ["0.05", "0.3", "0.4995", "0.5", "0.7", "0.935", "0.95", "0.999"]
VERDICT_C = ["cJ", "cJ-1e-3", "cJ-0.5"]
CURVE_MU = ["0.3", "0.5", "0.7", "0.95"]
# the verdicts of CI's console-script step, as CI writes them
CI_VERDICTS = [
    ["elliptic", "--mu", "0.4999999", "--c", "cJ-0.5", "--component",
     "earth", "--method", "theory"],
    ["elliptic", "--mu", "0.3", "--c", "cJ-0.0002", "--component", "earth",
     "--method", "both"],
    ["elliptic", "--mu", "0.7", "--c", "cJ-0.5", "--component", "moon",
     "--method", "both"],
    ["elliptic", "--mu", "0.7", "--c", "cJ-0.0002", "--component", "moon",
     "--method", "both"],
    ["elliptic", "--mu", "0.3", "--c", "cJ-0.5", "--component", "earth",
     "--method", "both"],
    ["elliptic", "--mu", "0.3", "--c", "cJ-1e-9", "--component", "earth",
     "--method", "both"],
    ["fiberwise", "--mu", "0.3", "--c", "-10000", "--method", "both"],
    ["levi", "--mu", "0.3", "--c", "cJ", "--method", "both"],
    ["levi", "--mu", "0.95", "--c", "cJ", "--method", "both"],
    ["levi", "--mu", "0.9315", "--c", "cJ", "--method", "both"],
    ["levi", "--mu", "0.1", "--c", "cJ-0.01", "--method", "oracle"],
    ["fiberwise", "--mu", "0.3", "--c", "cJ", "--method", "both"],
    ["fiberwise", "--mu", "0.999", "--c", "cJ", "--method", "both"],
    ["fiberwise", "--mu", "0.5", "--c", "cJ-0.2", "--method", "both"],
    ["fiberwise", "--mu", "0.43", "--c", "cJ-1e-6", "--method", "oracle"],
    ["fiberwise", "--mu", "0.7", "--c", "cJ", "--component", "moon"],
    ["levi", "--mu", "0.3", "--c", "cJ", "--component", "moon", "--method",
     "both"],
    ["levi", "--mu", "0.05", "--c", "cJ", "--component", "moon", "--method",
     "both"],
    ["levi", "--mu", "0.3", "--c", "cJ-0.5", "--method", "both"],
    ["levi", "--mu", "0.95", "--c", "cJ", "--method", "oracle"],
    ["levi", "--mu", "0.3", "--c", "cJ", "--method", "oracle"],
    ["levi", "--mu", "0.3", "--c", "cJ-0.5", "--component", "moon",
     "--method", "oracle"],
    ["fiberwise", "--mu", "0.4995", "--c", "cJ", "--method", "oracle"],
    ["elliptic", "--mu", "0.3", "--c", "cJ", "--component", "earth",
     "--method", "oracle"],
    ["elliptic", "--mu", "0.3", "--c=-inf", "--component", "earth",
     "--method", "theory"],
]


def elliptic_energies(mu):
    """The elliptic rows' energies at mu: cJ-1e-3 and cJ-0.5, and where
    c0 lies apart from c_J (|mu - 1/2| > 0.01) the literals c0 -+ 1e-9
    |c0|, on either side of the convexity threshold."""
    out = ["cJ-1e-3", "cJ-0.5"]
    if abs(float(mu) - 0.5) > 0.01:
        c0 = thresholds(ProblemParams(float(mu))).c0
        out += [repr(c0 - 1e-9 * abs(c0)), repr(c0 + 1e-9 * abs(c0))]
    return out


def verdict_commands():
    both = ["--method", "both"]
    return ([["verdict", target, "--mu", mu, "--c", c, "--component", comp,
              *both]
             for target in ("levi", "fiberwise") for mu in VERDICT_MU
             for c in VERDICT_C for comp in ("earth", "moon")]
            + [["verdict", "elliptic", "--mu", mu, "--c", c, "--component",
                comp, *both]
               for mu in VERDICT_MU for c in elliptic_energies(mu)
               for comp in ("earth", "moon")]
            + [["verdict", *argv] for argv in CI_VERDICTS])


def curve_commands():
    cmds = []
    for mu in CURVE_MU:
        for c in ("cJ", "cJ-0.5"):
            cmds += [["curve", which, "--mu", mu, "--c", c, "--n", "32"]
                     for which in ("hill", "v0")]
        cmds += [["curve", which, "--mu", mu, "--n", "32", "--step", "0.004",
                  "--max-len", "0.3"] for which in ("f0", "czero")]
    return cmds


def run(argv):
    """Exit code and output of ``euler2c ARGV`` run in this process: a
    verdict's JSON without ``runtime``, or a curve's CSV as {"header",
    "rows"} with the numbers parsed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as err:
            code = err.code
    text = out.getvalue()
    if argv[0] == "verdict":
        if not text:
            return code, None
        result = json.loads(text)
        del result["runtime"]
        return code, result
    header, *lines = text.splitlines()
    rows = [[series, *map(float, rest)] for series, *rest in
            (line.split(",") for line in lines)]
    return code, {"header": header.split(","), "rows": rows}


def _load(kind):
    with open(os.path.join(_HERE, f"{kind}.json")) as fh:
        return json.load(fh)


def _same(got, want, where, abs_tol):
    """Assert that got matches the recorded want (see the module doc)."""
    if isinstance(want, float):
        assert isinstance(got, float), where
        assert math.isclose(got, want, rel_tol=_REL, abs_tol=abs_tol), \
            (where, got, want)
    elif isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            _same(got[key], want[key], f"{where}.{key}", abs_tol)
    elif isinstance(want, list):
        assert len(got) == len(want), (where, len(got), len(want))
        for i, (g, w) in enumerate(zip(got, want)):
            _same(g, w, f"{where}[{i}]", abs_tol)
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


def pytest_generate_tests(metafunc):
    # the rows are read when pytest collects, so that this file also runs
    # as the script that writes them
    kind = {"test_verdict_matches_reference": "verdicts",
            "test_curve_matches_reference": "curves"}.get(
                metafunc.function.__name__)
    if kind is not None:
        metafunc.parametrize("row", _load(kind),
                             ids=lambda row: " ".join(row["argv"]))


def test_verdict_matches_reference(row):
    code, out = run(row["argv"])
    assert code == row["exit"]
    _same(out, row["out"], "out", _ABS["verdicts"])


def test_curve_matches_reference(row):
    code, out = run(row["argv"])
    assert code == row["exit"]
    _same(out, row["out"], "out", _ABS["curves"])


def test_corpus_covers_both_lobes_and_all_energies():
    rows = _load("verdicts")
    assert [r["argv"] for r in rows] == verdict_commands()
    assert [r["argv"] for r in _load("curves")] == curve_commands()
    assert {r["out"]["verdict"] for r in rows if r["out"]} == {
        "convex", "nonconvex"}
    elliptic = [dict(zip(r["argv"][2::2], r["argv"][3::2])) for r in rows
                if r["argv"][1] == "elliptic" and "--c" in r["argv"]]
    assert {o["--component"] for o in elliptic} == {"earth", "moon"}
    # c0 -+ 1e-9 |c0| at each mass ratio apart from 1/2, on both lobes
    literal = {(o["--mu"], o["--component"]) for o in elliptic
               if not o["--c"].startswith("cJ")}
    apart = [mu for mu in VERDICT_MU if abs(float(mu) - 0.5) > 0.01]
    assert literal == {(mu, comp) for mu in apart
                       for comp in ("earth", "moon")}
    # every CI verdict, the refused inputs among them
    assert {r["exit"] for r in rows if r["out"] is None} == {2}


def write_corpus():
    os.makedirs(_HERE, exist_ok=True)
    for kind, cmds in (("verdicts", verdict_commands()),
                       ("curves", curve_commands())):
        rows = []
        for argv in cmds:
            code, out = run(argv)
            rows.append({"argv": argv, "exit": code, "out": out})
        # a list of numbers or strings on one line
        text = re.sub(r"\[\n\s+([^][{}]+?)\n\s+\]",
                      lambda m: "[" + re.sub(r",\n\s+", ", ", m[1]) + "]",
                      json.dumps(rows, indent=1))
        with open(os.path.join(_HERE, f"{kind}.json"), "w") as fh:
            fh.write(text + "\n")
        print(f"{kind}: {len(rows)} rows", file=sys.stderr)


if __name__ == "__main__":
    write_corpus()
