"""The three workloads: inputs drawn from the seed, the operations of
one pass, and the closed loop that runs the passes.

Each workload is one client in one process that starts the next
operation when the previous one has returned; nothing here adds
threads. A pass runs the workload's fixed list of operations once.
Outputs are checked after the passes, outside the timed region.
"""

from __future__ import annotations

import io
import json
import os
import random
import resource
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Any, Callable

from euler2c import HillComponent, ProblemParams, cli, elliptic, fiberwise

import checks
from checks import CliResult

HERE = os.path.dirname(os.path.abspath(__file__))
TRACECLI = os.path.join(HERE, "tracecli.py")

# Trace length per figure curve (the CLI default is 3.0), chosen so that
# each operation takes about the same time and the latency percentiles
# of figure-traces do not fall between curves of different cost.
MAX_LEN = {"v0": "2.0", "f0": "0.5", "czero": "0.25"}


@dataclass
class Op:
    label: str
    kind: str
    call: Callable[["Runtime"], Any]
    check: Callable[[Any], "str | None"]
    # exit code of a known defect (ROADMAP) that this operation hits
    known_exit: "int | None" = None


class Runtime:
    """How operations reach the program: CLI commands in a fresh
    process or in this one, library calls directly."""

    def __init__(self, env, tracer=None, span_dir=None):
        self.env = env
        self.tracer = tracer
        self.span_dir = span_dir

    def cli_process(self, args):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "euler2c.cli", *args]
        else:
            spans = os.path.join(self.span_dir, f"cli-{os.getpid()}.json")
            cmd = [sys.executable, TRACECLI, spans, *args]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env=self.env, timeout=170)
        if self.tracer is not None:
            with open(spans) as fh:
                child = json.load(fh)
            os.remove(spans)
            self.tracer.merge(child["spans"], child["counters"])
        return CliResult(proc.returncode, proc.stdout, proc.stderr)

    @staticmethod
    def cli_main(args):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rc = cli.main(list(args)) or 0
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
        return CliResult(rc, out.getvalue(), err.getvalue())


def _u(rng, lo, hi):
    return round(rng.uniform(lo, hi), 6)


def _cli_op(kind, args, check, known_exit=None):
    args = [str(a) for a in args]
    return Op(" ".join(args), kind, lambda rt: rt.cli_process(args), check,
              known_exit)


def cli_recipes(rng):
    """The README recipes as fresh ``python -m euler2c.cli`` processes,
    mu on both sides of 1/2, plus the two inputs known to exit 3."""
    lo, hi = _u(rng, 0.15, 0.45), _u(rng, 0.55, 0.9)
    d1, d2, d3 = (_u(rng, 0.05, 0.3) for _ in range(3))
    both = ["--method", "both"]
    return [
        _cli_op("constants", ["constants", "--mu", lo], checks.constants),
        _cli_op("constants", ["constants", "--mu", hi], checks.constants),
        _cli_op("verdict_elliptic", ["verdict", "elliptic", "--mu", lo,
                                     "--c", f"cJ-{d1}", "--component",
                                     "earth", *both], checks.verdict),
        _cli_op("verdict_elliptic", ["verdict", "elliptic", "--mu", hi,
                                     "--c", f"cJ-{d2}", "--component",
                                     "moon", *both], checks.verdict),
        _cli_op("verdict_levi", ["verdict", "levi", "--mu", lo, "--c", "cJ",
                                 *both], checks.verdict),
        _cli_op("verdict_levi", ["verdict", "levi", "--mu", hi, "--c", "cJ",
                                 *both], checks.verdict),
        _cli_op("verdict_levi", ["verdict", "levi", "--mu", 0.95, "--c",
                                 "cJ", *both], checks.verdict, known_exit=3),
        _cli_op("verdict_fiberwise", ["verdict", "fiberwise", "--mu", lo,
                                      "--c", "cJ", *both], checks.verdict),
        _cli_op("verdict_fiberwise", ["verdict", "fiberwise", "--mu", 0.7,
                                      "--c", "cJ", *both], checks.verdict,
                known_exit=3),
        _cli_op("verdict_fiberwise", ["verdict", "fiberwise", "--mu", 0.5,
                                      "--c", f"cJ-{d3}", *both],
                lambda r: checks.verdict(r, "convex")),
        _cli_op("curve_hill", ["curve", "hill", "--mu", lo, "--c",
                               f"cJ-{d1}"],
                lambda r: checks.csv_rows(r, ["series", "q1", "q2", "C"])),
        _cli_op("curve_quartic", ["curve", "quartic"],
                lambda r: checks.csv_rows(r, ["series", "x", "c",
                                              "residual"])),
        _cli_op("curve_c0curve", ["curve", "c0curve", "--n", 101],
                lambda r: checks.c0curve(r, 101)),
        _cli_op("verify_identities", ["verify-identities"],
                checks.identities),
    ]


def oracle_sweep(rng, grid=(100, 100, 16)):
    """Theory verdict and scanning oracle over (mu, c, component), mu on
    both sides of 1/2; per mu one energy far below c0, one just below c0
    and one between c0 and c_J, plus one fiberwise verdict."""
    ops = []
    for mu in (_u(rng, 0.1, 0.4), _u(rng, 0.1, 0.4),
               _u(rng, 0.6, 0.9), _u(rng, 0.6, 0.9)):
        p = ProblemParams(mu)
        c0 = elliptic.thresholds(p).c0
        gap = p.c_jacobi - c0
        energies = (c0 - _u(rng, 0.2, 0.6),
                    c0 - _u(rng, 0.1, 0.5) * gap,
                    c0 + _u(rng, 0.1, 0.9) * gap)
        for comp in HillComponent:
            for c in energies:
                ops.append(Op(
                    f"elliptic mu={mu} c={c!r} {comp.value}", "elliptic",
                    lambda rt, p=p, c=c, comp=comp: (
                        elliptic.convexity_verdict(p, c, comp),
                        elliptic.oracle_convexity(p, c, comp, grid=grid)),
                    lambda out, mu=mu: checks.elliptic(out, mu)))
        cf = p.c_jacobi - _u(rng, 0.05, 0.3)
        ops.append(Op(f"fiberwise mu={mu} c={cf!r}", "fiberwise",
                      lambda rt, p=p, cf=cf: fiberwise.fiberwise_verdict(
                          p, cf),
                      lambda rep, mu=mu: checks.fiberwise(rep, mu)))
    return ops


def figure_traces(rng):
    """Figure curves through ``euler2c.cli.main`` in this process: v0
    and f0 on both sides of 1/2, czero once."""
    lo, hi = _u(rng, 0.25, 0.35), _u(rng, 0.65, 0.75)
    ops = []
    for which, mu, check in (("v0", lo, checks.curve_v0),
                             ("v0", hi, checks.curve_v0),
                             ("f0", lo, checks.curve_f0),
                             ("f0", hi, checks.curve_f0),
                             ("czero", lo, checks.curve_czero)):
        args = ["curve", which, "--mu", str(mu), "--max-len", MAX_LEN[which]]
        ops.append(Op(" ".join(args), f"curve_{which}",
                      lambda rt, args=args: rt.cli_main(args),
                      lambda r, mu=mu, check=check: check(r, mu)))
    return ops


BUILDERS = {
    "cli-recipes": cli_recipes,
    "oracle-sweep": oracle_sweep,
    "figure-traces": figure_traces,
}


def make_ops(workload, seed):
    return BUILDERS[workload](random.Random(seed))


def _cpu():
    """User + system seconds of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def failure_of(op, out):
    """Why an operation failed, or None when it passed. The failure is
    ``expected`` only when a known defect exits with its recorded code;
    any other exception, exit code or wrong output is unexpected."""
    if isinstance(out, Exception):
        return {"reason": f"{type(out).__name__}: {out}", "expected": False}
    if isinstance(out, CliResult) and out.rc != 0:
        why = op.check(out) or (out.stderr.strip().splitlines()[-1:]
                                or [""])[0]
        return {"reason": f"exit {out.rc}: {why}",
                "expected": out.rc == op.known_exit}
    reason = op.check(out)
    return None if reason is None else {"reason": reason, "expected": False}


def all_expected(failures):
    """The run is correct when every failure is an expected one."""
    return all(f["expected"] for f in failures)


def self_check():
    """Plant faults in outcomes of real operations and return the ones
    the checker judged wrongly (empty when it is sound)."""
    rng = random.Random(0)
    recipes, sweep = cli_recipes(rng), oracle_sweep(rng)

    def first(kind, known_exit=None):
        return next(op for op in recipes
                    if op.kind == kind and op.known_exit == known_exit)

    verdict = first("verdict_elliptic")
    disagree = json.dumps({"verdict": "convex", "theory": "nonconvex"})
    csv = "series,mu,c0,c_jacobi\n" + "".join(
        f"c0,{k / 100},-2,-1.9\n" for k in range(101))
    c0curve = first("curve_c0curve")
    # (fault, operation, outcome, judgement: None passed, True an
    # expected failure, False an unexpected one)
    plants = [
        ("intact CSV", c0curve, CliResult(0, csv, ""), None),
        ("truncated CSV", c0curve, CliResult(0, csv[:-9], ""), False),
        ("wrong verdict, exit 0", verdict, CliResult(0, disagree, ""), False),
        ("exit 3 outside the known defects", verdict,
         CliResult(3, disagree, "error: theory says nonconvex"), False),
        ("exit 4 from verify-identities", first("verify_identities"),
         CliResult(4, "13/14 identities verified\n", ""), False),
        ("exception in a library call", sweep[0], RuntimeError("planted"),
         False),
        ("known exit-3 defect", first("verdict_levi", 3),
         CliResult(3, disagree, "error: theory says nonconvex"), True),
    ]
    missed = []
    for fault, op, out, want in plants:
        f = failure_of(op, out)
        if (None if f is None else all_expected([f])) != want:
            missed.append(fault)
    return missed


@dataclass
class PassLog:
    walls: list
    cpus: list
    latencies: list   # (kind, seconds) per operation
    outcomes: list    # (op, outcome) per operation


def run_passes(ops, rt, seconds, min_ops):
    """Run passes until the next one would end after ``seconds``; make
    at least ``min_ops`` operations and at least one pass."""
    log = PassLog([], [], [], [])
    start = time.perf_counter()
    while not log.walls or len(log.outcomes) < min_ops or (
            time.perf_counter() - start + log.walls[-1] <= seconds):
        c0, t0 = _cpu(), time.perf_counter()
        for op in ops:
            s = time.perf_counter()
            try:
                if rt.tracer is None:
                    out = op.call(rt)
                else:
                    with rt.tracer.span("op." + op.kind):
                        out = op.call(rt)
            except Exception as err:  # recorded as a failed operation
                out = err
            log.latencies.append((op.kind, time.perf_counter() - s))
            log.outcomes.append((op, out))
        log.walls.append(time.perf_counter() - t0)
        log.cpus.append(_cpu() - c0)
    return log


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0
