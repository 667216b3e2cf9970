"""One workload in its own process; started by run.py.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE RESULTS_DIR

Prints one JSON object on its last line: pass wall and CPU times,
per-operation latencies, failures, peak memory and, with TRACE 1, the
per-layer metrics of the traced passes. The environment must put the
checkout's ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys

import numpy as np
import scipy

import euler2c
import spec
import workloads as wl
from checks import CliResult
from spans import TARGETS, Tracer, patched

HERE = os.path.dirname(os.path.abspath(__file__))

# An untraced run times at least this many operations, so that op_tail_s
# (the sample with ten above it) lies above the median.
MIN_OPS = 25

# layers reported as <name>.calls and <name>.self_s
CALL_LAYERS = ["scan.trace"] + [name for _, _, name, _ in TARGETS
                                if not name.startswith("exactpoly.")]


def _failures(outcomes, pass_len):
    out = []
    for i, (op, res) in enumerate(outcomes):
        f = wl.failure_of(op, res)
        if f is not None:
            out.append({"op": op.label, "kind": op.kind,
                        "pass": i // pass_len, **f})
    return out


def _cli_metrics(log, n_passes):
    """cli.* from untraced passes: p50 per recipe, exit codes per pass."""
    m = {}
    for kind in spec.CLI_KINDS:
        lat = [s for k, s in log.latencies if k == kind]
        m[f"cli.{kind}.p50_s"] = statistics.median(lat) if lat else 0.0
    rcs = [r.rc for _, r in log.outcomes if isinstance(r, CliResult)]
    m["cli.exit3.count"] = sum(rc == 3 for rc in rcs) / n_passes
    m["cli.exit_nonzero.count"] = sum(rc != 0 for rc in rcs) / n_passes
    return m


def _layer_metrics(tr, n, failures):
    """Per-layer metrics per traced pass."""
    summ = tr.summary()
    m = {}
    for name in CALL_LAYERS:
        calls, _, own = summ.get(name, (0, 0.0, 0.0))
        m[f"{name}.calls"] = calls / n
        m[f"{name}.self_s"] = own / n
    m["exactpoly.verify_all.s"] = summ.get(
        "exactpoly.verify_all", (0, 0.0, 0.0))[1] / n
    for key, v in tr.counters.items():
        m[key] = v / n

    def ratio(a, b, scale=1.0):
        return scale * m.get(a, 0.0) / m[b] if m.get(b) else 0.0

    m["elliptic.thresholds.us_per_call"] = ratio(
        "elliptic.thresholds.self_s", "elliptic.thresholds.calls", 1e6)
    m["elliptic.oracle.us_per_sample"] = ratio(
        "elliptic.oracle.self_s", "elliptic.oracle.samples", 1e6)
    m["scan.trace.us_per_step"] = ratio(
        "scan.trace.self_s", "scan.trace.steps", 1e6)
    m["scan.trace.f_evals_per_step"] = ratio(
        "scan.trace.f_evals", "scan.trace.steps")
    m["elliptic.oracle.disagree.count"] = sum(
        f["kind"] in ("elliptic", "verdict_elliptic")
        and "theory says" in f["reason"] for f in failures) / n
    m["trace.spans.count"] = len(tr.spans) / n
    # Each traced CLI process: its import span over its operation's span,
    # and the parts of the operation before the import span (process and
    # interpreter start) and after the process's last span (interpreter
    # exit, plus reading back the span file), which no layer covers.
    shares, starts, exits = [], [], []
    for name, t0, t1, p in tr.spans:
        if name == "import" and p >= 0:
            _, o0, o1, _ = tr.spans[p]
            last = max(sp[2] for sp in tr.spans if sp[3] == p)
            shares.append((t1 - t0) / (o1 - o0))
            starts.append(t0 - o0)
            exits.append(o1 - last)
    for key, xs in (("cli.import_share", shares),
                    ("cli.process_start_s", starts),
                    ("cli.process_exit_s", exits)):
        m[key] = statistics.median(xs) if xs else 0.0
    return m


def _positivity_seconds(repeats=5):
    probe = Tracer()
    with patched(probe):
        for _ in range(repeats):
            sys.modules["euler2c.fiberwise"].positivity_certificates()
    calls, total, _ = probe.summary()["exactpoly.positivity_certificates"]
    return total / calls


def _write_spans(path, workload, seed, spans):
    """All spans of the traced passes: names as indices into ``names``,
    times in microseconds from the first span."""
    names = sorted({sp[0] for sp in spans})
    index = {n: i for i, n in enumerate(names)}
    t0 = spans[0][1] if spans else 0.0
    rows = [[index[n], round((a - t0) * 1e6), round((b - t0) * 1e6), p]
            for n, a, b, p in spans]
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed, "names": names,
                   "fields": ["name", "start_us", "end_us", "parent"],
                   "spans": rows}, fh, separators=(",", ":"))


def _git_commit():
    git = os.path.join(os.path.dirname(HERE), ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:])) as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown (not a git checkout)"


def _environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_config": blas.get("openblas configuration"),
        "git_commit": _git_commit(),
        "euler2c_file": euler2c.__file__,
        **{k: os.environ.get(k, "unset") for k in (
            "EULER2C_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
            "MKL_NUM_THREADS")},
    }


def main(workload, seed, seconds, trace, results_dir):
    missed = wl.self_check()
    if missed:
        print(f"error: the output checker missed: {missed}", file=sys.stderr)
        return 3
    ops = wl.make_ops(workload, seed)
    env = dict(os.environ)
    out = {"env": _environment()}
    if not trace:
        log = wl.run_passes(ops, wl.Runtime(env), seconds, MIN_OPS)
        failures = _failures(log.outcomes, len(ops))
        attempted = len(log.outcomes)
    else:
        # half the time untraced, for the overhead; half traced
        log = wl.run_passes(ops, wl.Runtime(env), seconds / 2, 1)
        tr = Tracer()
        os.makedirs(results_dir, exist_ok=True)
        with patched(tr):
            tlog = wl.run_passes(ops, wl.Runtime(env, tr, results_dir),
                                 seconds / 2, 1)
        attempted = len(log.outcomes) + len(tlog.outcomes)
        failures = _failures(log.outcomes + tlog.outcomes, len(ops))
        layers = _layer_metrics(tr, len(tlog.walls), [
            f for f in failures if f["pass"] >= len(log.walls)])
        layers.update(_cli_metrics(log, len(log.walls)))
        layers["exactpoly.positivity_certificates.s"] = _positivity_seconds()
        layers["trace.coverage"] = tr.coverage("op.")
        out.update(layers=layers, traced_walls=tlog.walls)
        spans_path = os.path.join(
            results_dir, f"spans-{workload}-seed{seed}.json")
        _write_spans(spans_path, workload, seed, tr.spans)
        out["spans_file"] = spans_path
    out.update(walls=log.walls, cpus=log.cpus, latencies=log.latencies,
               passes=len(log.walls) + len(out.get("traced_walls", [])),
               attempted=attempted, failures=failures,
               correct=wl.all_expected(failures),
               peak_rss_mb=wl.peak_rss_mb())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    w, s, p, t, d = sys.argv[1:6]
    sys.exit(main(w, int(s), float(p), t == "1", d))
