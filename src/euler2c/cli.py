"""Command-line frontend.

Subcommands
-----------
constants          derived constants for a mass ratio as JSON
verdict            convexity verdicts (theory vs numerical oracle)
curve              figure data (boundaries, zero sets, thresholds) as CSV
verify-identities  run the exact polynomial-identity suite

A verdict is "convex", "nonconvex" or "undecided". Only the elliptic
oracle answers "undecided": when its smallest relative eigenvalue lies
within its tolerance of zero (a "degenerate" report); that is a partial
result, exit 1, also against a theory verdict, never a disagreement.
The levi and fiberwise oracles also report ``least_value``, the least
boundary curvature (F or C) they read, so a verdict near the witness
tolerance shows how near.

Exit codes: 0 success (methods agree), 1 partial result (a trace stopped
early, or the oracle is undecided), 2 invalid input, 3 theory/oracle
disagreement, 4 identity failure, 5 oracle fault (OracleInconsistency:
two evaluations inside the numerical oracle disagree, a defect of the
program, not of the input).

Energies accept the symbolic forms ``cJ``, ``cJ-0.1``, ``cJ+0.05``
resolved against the critical Jacobi energy of the given mass ratio, so
figure recipes stay portable across mu. An energy above c_J is invalid
input (exit 2) for every command that computes at it; a ``--method
theory`` levi or fiberwise verdict there is null. ``verdict elliptic``
requires ``--component``; levi and fiberwise read the Earth lobe
without it, the Moon's as the swapped problem's Earth lobe. A
``--config FILE`` of ``key = value`` lines sets long options of
the subcommand; they are parsed and checked like the command line,
which overrides them.

Each subcommand imports the library code it runs when it runs, so a
process loads only that: ``constants``, ``curve quartic``,
``curve c0curve``, ``verify-identities`` and every ``--method theory``
verdict run without NumPy, ``verdict levi`` does not load ``fiberwise``,
and ``verdict elliptic`` loads neither ``levicivita`` nor
``fiberwise``. The console script and ``python -m euler2c.cli`` enter
through ``run``, which gives OpenBLAS one thread and turns the cyclic
collector off before the subcommand loads anything.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import time

from .errors import Euler2CError, OracleInconsistency, TraceFailure

SCHEMA = 1


def _fail(msg, code=2):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(code)


def parse_energy(text, params):
    """Resolve the ``--c`` energy literal; ``cJ`` (optionally +/- a float
    offset) refers to the critical Jacobi energy of ``params``. Raises
    ValueError unless the energy is finite."""
    s = str(text).strip()
    if s.startswith("cJ"):
        try:
            c = params.c_jacobi + float(s[2:] or 0.0)
        except ValueError:
            raise ValueError(f"bad symbolic energy {text!r}")
    else:
        c = float(s)
    if not math.isfinite(c):
        raise ValueError(f"--c must be a finite energy, got {text!r}")
    return c


def _not_above_critical(c, params):
    """The energy c of a command that computes at it; above c_J, where
    the lobes have merged and no result of the paper applies, exit 2."""
    if c > params.c_jacobi:
        _fail(f"--c must not exceed c_J = {params.c_jacobi!r}, got {c!r}")
    return c


def _config_args(path):
    """Command-line tokens for a ``key = value`` config file: ``--key``
    (dashes or underscores) followed by the whitespace-separated value."""
    tokens = []
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line {raw.rstrip()!r}")
            key, val = line.split("=", 1)
            tokens += ["--" + key.strip().replace("_", "-"), *val.split()]
    return tokens


def _linspace(start, stop, n):
    """n evenly spaced floats from start to stop, bit for bit those of
    np.linspace: point i is i * step + start, the last point is stop,
    and n = 1 gives start."""
    if n < 0:
        raise ValueError(f"number of samples must be >= 0, got {n}")
    if n < 2:
        return [float(start)][:n]
    step = (stop - start) / (n - 1)
    return [i * step + start for i in range(n - 1)] + [float(stop)]


def _fmt(x):
    return "%.17g" % float(x)


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            v if isinstance(v, str) else _fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _emit_json(obj, path=None):
    text = json.dumps(obj, indent=2, sort_keys=False)
    if path in (None, "-"):
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


# -- constants ---------------------------------------------------------------

def cmd_constants(args):
    from .ladder import ProblemParams, roots_ab, thresholds
    params = ProblemParams(args.mu)
    a, b = roots_ab(params, params.c_jacobi - 0.1)
    th = thresholds(params)
    _emit_json({
        "schema": SCHEMA,
        "mu": args.mu,
        "l": params.l,
        "c_jacobi": params.c_jacobi,
        "a": a,
        "b": b,
        "c_e_pp": th.c_E_pp,
        "c0": th.c0,
        "cJ_minus_c0": th.cJ_minus_c0,
    }, args.out)
    return 0


# -- verdicts ----------------------------------------------------------------

# the elliptic oracle's report verdict as a CLI verdict
_ORACLE_VERDICT = {"posdef": "convex", "indefinite": "nonconvex",
                   "degenerate": "undecided"}


def cmd_verdict(args):
    from .ladder import (HillComponent, ProblemParams, convexity_verdict,
                         theorem_verdict)
    if args.target == "elliptic" and args.component is None:
        _fail("verdict elliptic requires --component")
    comp = HillComponent(args.component or "earth")
    params = ProblemParams(args.mu)
    c = parse_energy(args.c, params)
    if args.method != "theory":
        _not_above_critical(c, params)
    t0 = time.perf_counter()
    theory = oracle = None
    witness = counters = least = None
    samples = failures = 0

    # levi and fiberwise read the Moon as the swapped problem's Earth
    moon = comp is HillComponent.MOON
    lobe = params.swapped() if moon else params
    if args.target == "elliptic":
        if args.method in ("theory", "both"):
            theory = convexity_verdict(params, c, comp)
        if args.method in ("oracle", "both"):
            from . import elliptic
            rep = elliptic.oracle_convexity(params, c, comp,
                                            grid=tuple(args.grid))
            oracle = _ORACLE_VERDICT[rep.verdict]
            samples = rep.samples
            failures = rep.failures
            counters = rep.counters
            if rep.verdict == "indefinite":
                witness = {"point": list(rep.argmin),
                           "min_eigenvalue": rep.min_value}
    elif args.target == "levi":
        if args.method in ("theory", "both"):
            theory = theorem_verdict("levi", lobe, c)
        if args.method in ("oracle", "both"):
            from . import levicivita
            w, samples, least = levicivita.nonconvex_witness_levi(lobe, c)
            oracle = "convex" if w is None else "nonconvex"
            if w is not None:
                witness = {"point": [w[0], w[1]], "F": w[2]}
    elif args.target == "fiberwise":
        if args.method in ("theory", "both"):
            theory = theorem_verdict("fiberwise", lobe, c)
        if args.method in ("oracle", "both"):
            from . import fiberwise
            rep = fiberwise.fiberwise_verdict(lobe, c)
            oracle = "convex" if rep.verdict == "convex" else "nonconvex"
            samples, least = rep.samples, rep.min_C
            if rep.witness is not None:
                e, (q1, q2), cv = rep.witness
                witness = {"energy": e, "point": [1.0 - q1 if moon else q1,
                                                  q2], "C": cv}
    else:
        _fail(f"unknown verdict target {args.target!r}")

    if theory is not None:
        theory = theory.value
    verdict = oracle if oracle is not None else theory
    out = {
        "schema": SCHEMA,
        "claim": f"{args.target} convexity, mu={args.mu}, c={c}",
        "method": args.method,
        "component": comp.value,
        "verdict": verdict,
        "samples": samples,
        "failures": failures,
        "runtime": time.perf_counter() - t0,
    }
    if least is not None:
        # the least F (levi) or C (fiberwise) the oracle read
        out["least_value"] = least
    if theory is not None and args.method == "both":
        out["theory"] = theory
    if witness is not None:
        out["witness"] = witness
    if counters is not None:
        out["oracle_counters"] = counters
    _emit_json(out, args.out)
    if oracle == "undecided":
        print("warning: the oracle's smallest relative eigenvalue is within "
              "its tolerance of zero; verdict undecided", file=sys.stderr)
        return 1
    if (args.method == "both" and theory is not None and oracle is not None
            and theory != oracle):
        print(f"error: theory says {theory}, oracle says {oracle}",
              file=sys.stderr)
        return 3
    return 0


# -- curves ------------------------------------------------------------------

def _cone_rows(name, apex, half_width, n):
    """Series name+ and name- sampling the lines y = +-sqrt(2)(x - apex)
    through (apex, 0) at n // 4 abscissas within half_width of apex."""
    rows = []
    for sign, suffix in ((1.0, "+"), (-1.0, "-")):
        for t in _linspace(-half_width, half_width, n // 4):
            rows.append((name + suffix, apex + t,
                         sign * math.sqrt(2.0) * t, 0.0))
    return rows


def _curve_hill(args, params, c):
    from . import fiberwise
    from .ladder import HillComponent
    from .model import hill_boundary
    rows = []
    for comp in (HillComponent.EARTH, HillComponent.MOON):
        pts = hill_boundary(params, c, comp, n=args.n)
        C = fiberwise.curvature_numerator((pts[:, 0], pts[:, 1]), params)
        rows += [(f"hill-{comp.value}", q1, q2, cv)
                 for (q1, q2), cv in zip(pts, C)]
    # touching-cone tangents through (l, 0)
    rows += _cone_rows("cone", params.l, 0.2, args.n)
    return ["series", "q1", "q2", "C"], rows


def _trace_zero(f, starts, step, max_len):
    """Points of f = 0 traced from each (seed, direction); partial flag."""
    from .scan import trace_implicit
    points, partial = [], False
    for seed, direction in starts:
        try:
            pl = trace_implicit(f, seed, step=step, max_len=max_len,
                                direction=direction)
        except TraceFailure as err:
            if err.partial is None:
                raise
            pl, partial = err.partial, True
        points.extend(pl.points)
    return points, partial


def _curve_v0(args, params, c):
    """V = 0 as the preimage v = +-sqrt(q/2) of both Hill rims U = c
    (n/4 points each), in boundary order: one loop for the Earth (the
    +sqrt half from polar angle 0, then the -sqrt half), two for the Moon."""
    import numpy as np

    from . import levicivita
    from .model import hill_boundary
    rows = []
    for comp, names in (("earth", ("v0-earth", "v0-earth")),
                        ("moon", ("v0-moon+", "v0-moon-"))):
        q = hill_boundary(params, c, comp, n=args.n // 4)
        v = levicivita.rim_preimage(q, unwind=comp == "earth")
        v = np.concatenate([v, -v])
        F = levicivita.F_value(v.real, v.imag, params, c)
        rows += [(names[k >= len(q)], z.real, z.imag, f)
                 for k, (z, f) in enumerate(zip(v, F))]
    rows += _cone_rows("tangent", levicivita.x0_of(params, c), 0.3, args.n)
    return ["series", "x", "y", "F"], rows


def _curve_f0(args, params, c):
    import numpy as np

    from . import levicivita
    x0 = levicivita.x0_of(params, c)
    # F = 0 passes through (x0, 0) transversally to the axis
    points, partial = _trace_zero(
        levicivita.F_with_grad(params, c),
        [((x0, d * 1e-4), (0.0, d)) for d in (1.0, -1.0)],
        args.step, args.max_len)
    xy = np.array([(x0, 0.0)] + points)
    V = levicivita.V_value(xy[:, 0], xy[:, 1], params, c)
    rows = [("f0", x, y, v) for (x, y), v in zip(xy, V)]
    return ["series", "x", "y", "V"], rows, partial


def _curve_czero(args, params):
    """The zero set of the boundary-curvature numerator C near the
    touching cone (position space, Standard frame): up to four series,
    each traced max_len / 2 both ways from the first sign-change witness
    farther than 10 steps from every point traced before."""
    import numpy as np

    from . import fiberwise
    from .scan import sign_scan
    l = params.l
    f = lambda x, y: fiberwise.curvature_numerator((x, y), params)
    rows = []
    partial = False
    rep = sign_scan(f, (l - 0.35, l + 0.35, 0.02, 0.45),
                    grid=(120, 120), target="C")
    cg = fiberwise.C_with_grad(params)
    traced = np.empty((0, 2))
    k = 0
    for wx, wy, _ in rep.witnesses:
        if k == 4:
            break
        if np.any(np.hypot(traced[:, 0] - wx, traced[:, 1] - wy)
                  < 10.0 * args.step):
            continue
        _, gx, gy = cg(wx, wy)
        points, bad = _trace_zero(cg, [((wx, wy), (-gy, gx)),
                                       ((wx, wy), (gy, -gx))],
                                  args.step, 0.5 * args.max_len)
        partial |= bad
        rows += [(f"czero-{k}", x, y, 0.0) for x, y in points]
        traced = np.vstack([traced, points])
        k += 1
    rows += _cone_rows("cone", l, 0.3, args.n)
    return ["series", "q1", "q2", "zero"], rows, partial


def _curve_quartic(args):
    """Both real branches of c^2 x^4 + 3 c x^3 + x^2 + 1 = 0 in the
    (x, c) plane: c = (-3x +- sqrt(5x^2 - 4)) / (2x^2), real for
    x >= 2/sqrt(5); the lower branch passes through (1, -2)."""
    from .formulas import xc_quartic
    # with the lower branch's point (1, -2) exactly
    xs = sorted({*_linspace(2.0 / math.sqrt(5.0), args.xmax, args.n), 1.0})
    rows = []
    for name, sgn in (("upper", 1.0), ("lower", -1.0)):
        for x in xs:
            disc = 5.0 * x * x - 4.0
            cval = (-3.0 * x + sgn * math.sqrt(max(disc, 0.0))) \
                / (2.0 * x * x)
            resid = xc_quartic(x, cval)
            rows.append((name, x, cval, resid))
    return ["series", "x", "c", "residual"], rows


def _curve_c0curve(args):
    """Thresholds c0(mu) and c_J(mu) sampled over mu; they touch at
    mu = 1/2."""
    from .ladder import ProblemParams, thresholds
    rows = []
    for mu in _linspace(args.mu_min, args.mu_max, args.n):
        p = ProblemParams(mu)
        th = thresholds(p)
        rows.append(("c0", mu, th.c0, p.c_jacobi))
    return ["series", "mu", "c0", "c_jacobi"], rows


def cmd_curve(args):
    partial = False
    if args.which in ("f0", "czero"):
        for name, value in (("--step", args.step),
                            ("--max-len", args.max_len)):
            if not 0.0 < value < math.inf:
                _fail(f"{name} must be finite and positive, got {value}")
    # hill_boundary takes at least 8 points per rim, and v0 asks for n/4
    least_n = {"hill": 8, "v0": 32}.get(args.which)
    if least_n is not None and args.n < least_n:
        _fail(f"--n must be at least {least_n} for curve {args.which}, "
              f"got {args.n}")
    if args.which in ("hill", "v0", "f0", "czero"):
        from .ladder import ProblemParams
        params = ProblemParams(args.mu)
        c = _not_above_critical(parse_energy(args.c, params), params)
    if args.which == "hill":
        header, rows = _curve_hill(args, params, c)
    elif args.which == "v0":
        header, rows = _curve_v0(args, params, c)
    elif args.which == "f0":
        header, rows, partial = _curve_f0(args, params, c)
    elif args.which == "czero":
        header, rows, partial = _curve_czero(args, params)
    elif args.which == "quartic":
        header, rows = _curve_quartic(args)
    elif args.which == "c0curve":
        header, rows = _curve_c0curve(args)
    else:
        _fail(f"unknown curve {args.which!r}")
    _write_csv(args.out, header, rows)
    if partial:
        print("warning: trace terminated early; file is partial",
              file=sys.stderr)
        return 1
    return 0


# -- identities --------------------------------------------------------------

def cmd_verify_identities(args):
    from .exactpoly import identity_names, verify_all, verify_identity
    if args.only is not None and args.only not in identity_names():
        _fail(f"--only: unknown identity {args.only!r}; see --list")
    if args.list:
        for name in identity_names():
            print(name)
        return 0
    results = ([verify_identity(args.only)] if args.only
               else verify_all())
    failed = 0
    for r in results:
        status = "Pass" if r.passed else "Fail"
        print(f"{r.name:<24} {status}  {r.elapsed * 1e3:8.2f} ms")
        failed += not r.passed
    print(f"{len(results) - failed}/{len(results)} identities verified")
    return 4 if failed else 0


# -- argument plumbing -------------------------------------------------------

def _add_common(sp, mu=True, c=True, out=True):
    if mu:
        sp.add_argument("--mu", type=float, required=False)
    if c:
        sp.add_argument("--c", type=str, default="cJ")
    if out:
        sp.add_argument("--out", type=str, default=None,
                        help="output path ('-' or omitted: stdout)")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="euler2c",
        description="Convexity analysis of the planar two-fixed-centers "
                    "problem: constants, verdicts, figure data, and exact "
                    "identity checks.")
    ap.add_argument("--config", type=str, default=None,
                    help="key = value file of subcommand options")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("constants", help="derived constants as JSON")
    _add_common(sp, c=False)

    sp = sub.add_parser("verdict", help="convexity verdict (theory/oracle)")
    sp.add_argument("target", choices=["elliptic", "levi", "fiberwise"])
    _add_common(sp)
    sp.add_argument("--component", choices=["earth", "moon"], default=None)
    sp.add_argument("--method", choices=["theory", "oracle", "both"],
                    default="both")
    sp.add_argument("--grid", type=int, nargs=3, default=[100, 100, 16])

    sp = sub.add_parser("curve", help="figure data as CSV")
    sp.add_argument("which", choices=["hill", "v0", "f0", "czero",
                                      "quartic", "c0curve"])
    _add_common(sp)
    sp.add_argument("--n", type=int, default=256)
    traced = "read by the traced curves f0 and czero only"
    sp.add_argument("--step", type=float, default=1e-3, help=traced)
    sp.add_argument("--max-len", type=float, default=3.0, help=traced)
    sp.add_argument("--xmax", type=float, default=4.0)
    sp.add_argument("--mu-min", type=float, default=0.05)
    sp.add_argument("--mu-max", type=float, default=0.95)

    sp = sub.add_parser("verify-identities",
                        help="run the exact identity suite")
    sp.add_argument("--list", action="store_true")
    sp.add_argument("--only", default=None, metavar="NAME",
                    help="verify only this identity (see --list)")
    return ap


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.config:
        try:
            cfg = _config_args(args.config)
        except (OSError, ValueError) as err:
            _fail(str(err))
        # the file's options go right after the subcommand, so they are
        # parsed like the command line's, which follow and override them
        at = next(i for i, tok in enumerate(argv) if tok == args.command
                  and (i == 0 or argv[i - 1] != "--config")) + 1
        args = ap.parse_args(argv[:at] + cfg + argv[at:])

    needs_mu = args.command in ("constants", "verdict") or (
        args.command == "curve"
        and args.which in ("hill", "v0", "f0", "czero"))
    if needs_mu:
        if args.mu is None:
            _fail(f"{args.command} requires --mu")
        if not 0.0 < args.mu < 1.0:
            _fail(f"mu must lie in (0, 1), got {args.mu}")

    try:
        if args.command == "constants":
            return cmd_constants(args)
        if args.command == "verdict":
            return cmd_verdict(args)
        if args.command == "curve":
            return cmd_curve(args)
        if args.command == "verify-identities":
            return cmd_verify_identities(args)
    except OracleInconsistency as err:
        _fail(str(err), code=5)
    except (Euler2CError, ValueError) as err:
        _fail(str(err))
    return 0


def run(argv=None):
    """Console entry point: ``main`` in a process about to exit.

    It sets up the process for one short command before any subcommand
    imports NumPy. OpenBLAS gets one thread unless the environment's
    ``OPENBLAS_NUM_THREADS`` says otherwise. The cyclic collector stays
    off for the life of the process. Freezing the heap on the way out
    moves every object alive then, most of them left by NumPy's import,
    out of reach of the collections the interpreter still makes while
    it shuts down. ``main`` itself changes neither the environment nor
    the collector, for in-process callers."""
    # The library's only LAPACK call is the oracle's batched 3x3
    # eigvalsh, too small to split, but a multi-threaded OpenBLAS starts
    # a worker thread per extra core when NumPy loads, which spin-waits
    # for work that never comes and burns CPU time.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    # A short process frees everything at exit; collections during
    # NumPy's import only walk objects that live until then.
    gc.disable()
    try:
        return main(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
