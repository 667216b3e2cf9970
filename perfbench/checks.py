"""Output checks for every benchmark operation.

Each check takes an operation's outcome and returns ``None`` when the
output is right, or a one-line reason when it is not. The CLI already
turns a theory/oracle disagreement into exit 3 and a failed identity
into exit 4; the matching checks here name the reason for such an exit
and back the exit code up. The library functions used to recompute
values are bound here, at import, so they stay untraced while a traced
run patches the package.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

import numpy as np

from euler2c.elliptic import thresholds
from euler2c.fiberwise import curvature_numerator
from euler2c.levicivita import F_value, V_value
from euler2c.model import ProblemParams

# traces stop within 100 * tol of the curve (scan.trace_implicit, tol 1e-10)
RESIDUAL_TOL = 1e-8
N_IDENTITIES = 14


@dataclass
class CliResult:
    rc: int
    stdout: str
    stderr: str


class Bad(Exception):
    pass


def _json(text):
    try:
        return json.loads(text)
    except ValueError as err:
        raise Bad(f"output is not JSON: {err}") from None


def parse_csv(text, header):
    """Rows of a CLI CSV as (series, float, float, float) tuples."""
    if not text.endswith("\n"):
        raise Bad("CSV does not end with a newline")
    lines = text.splitlines()
    if not lines or lines[0].split(",") != header:
        raise Bad(f"CSV header is not {','.join(header)}")
    rows = []
    for k, line in enumerate(lines[1:], 2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise Bad(f"CSV line {k} has {len(cells)} fields")
        try:
            vals = [float(v) for v in cells[1:]]
        except ValueError:
            raise Bad(f"CSV line {k} has a non-number") from None
        if not all(math.isfinite(v) for v in vals):
            raise Bad(f"CSV line {k} has a non-finite value")
        rows.append((cells[0], *vals))
    if not rows:
        raise Bad("CSV has no rows")
    return rows


def _guard(check):
    """Turn a check raising Bad into one returning its reason."""
    def run(*args):
        try:
            check(*args)
        except Bad as err:
            return str(err)
        return None
    return run


@_guard
def constants(res):
    d = _json(res.stdout)
    if not d["c_e_pp"] < d["c0"] < d["c_jacobi"]:
        raise Bad(f"ladder violated: c_E''={d['c_e_pp']} c0={d['c0']} "
                  f"c_J={d['c_jacobi']}")


@_guard
def verdict(res, expect=None):
    d = _json(res.stdout)
    if "theory" in d and d["theory"] != d["verdict"]:
        raise Bad(f"theory says {d['theory']}, oracle says {d['verdict']}")
    if expect is not None and d["verdict"] != expect:
        raise Bad(f"verdict {d['verdict']}, expected {expect}")


@_guard
def csv_rows(res, header):
    parse_csv(res.stdout, header)


@_guard
def c0curve(res, n):
    rows = parse_csv(res.stdout, ["series", "mu", "c0", "c_jacobi"])
    if len(rows) != n:
        raise Bad(f"c0curve has {len(rows)} rows, expected {n}")
    for _, mu, c0, cj in rows:
        if c0 > cj:
            raise Bad(f"c0 = {c0} above c_J = {cj} at mu = {mu}")


@_guard
def identities(res):
    m = re.search(r"(\d+)/(\d+) identities verified", res.stdout)
    want = f"{N_IDENTITIES}/{N_IDENTITIES}"
    if m is None or m.group(0).split()[0] != want:
        raise Bad(f"identity suite did not print {want}")


def _residual(rows, prefix, fn):
    pts = np.array([(x, y) for s, x, y, _ in rows if s.startswith(prefix)])
    if len(pts) < 2:
        raise Bad(f"no {prefix} points traced")
    worst = float(np.max(np.abs(fn(pts[:, 0], pts[:, 1]))))
    if not worst <= RESIDUAL_TOL:
        raise Bad(f"{prefix} residual {worst:.3g} > {RESIDUAL_TOL}")


@_guard
def curve_v0(res, mu):
    p = ProblemParams(mu)
    rows = parse_csv(res.stdout, ["series", "x", "y", "F"])
    _residual(rows, "v0", lambda x, y: V_value(x, y, p, p.c_jacobi))


@_guard
def curve_f0(res, mu):
    p = ProblemParams(mu)
    rows = parse_csv(res.stdout, ["series", "x", "y", "V"])
    _residual(rows, "f0", lambda x, y: F_value(x, y, p, p.c_jacobi))


@_guard
def curve_czero(res, mu):
    p = ProblemParams(mu)
    rows = parse_csv(res.stdout, ["series", "q1", "q2", "zero"])
    _residual(rows, "czero-", lambda x, y: curvature_numerator((x, y), p))


_ORACLE = {"posdef": "convex", "indefinite": "nonconvex"}


@_guard
def elliptic(outcome, mu):
    theory, rep = outcome
    th = thresholds(ProblemParams(mu))
    if not th.c_E_pp < th.c0 < ProblemParams(mu).c_jacobi:
        raise Bad("ladder c_E'' < c0 < c_J violated")
    oracle = _ORACLE.get(rep.verdict, rep.verdict)
    if theory.value != oracle:
        raise Bad(f"theory says {theory.value}, oracle says {oracle}")
    if rep.samples <= rep.failures:
        raise Bad("oracle has no usable samples")


@_guard
def fiberwise(rep, mu, tol=1e-12):
    if rep.samples <= 0:
        raise Bad("fiberwise verdict took no samples")
    if rep.verdict == "convex":
        if rep.witness is not None or rep.min_C < -tol:
            raise Bad(f"convex verdict with min C = {rep.min_C}")
    elif rep.verdict == "nonconvex-witness":
        _, q, cv = rep.witness
        again = float(curvature_numerator(q, ProblemParams(mu)))
        if not (cv < -tol and abs(again - cv) <= 1e-9 * abs(cv)):
            raise Bad(f"witness C = {cv} does not recompute ({again})")
    else:
        raise Bad(f"unknown fiberwise verdict {rep.verdict!r}")
