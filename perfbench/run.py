"""euler2c benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from the root of a checkout; the package is imported from ``src``
of that checkout. One run measures set-up (``setup_s``, the median of
five fresh interpreters timed until ``import euler2c`` returns), then
starts the workload in its own process, which repeats the workload's
fixed list of operations (a pass) until the next pass would end after
``--seconds``, and at least twice. Every output is checked.

``--trace 0`` reports the end-to-end metrics of spec.END_TO_END.
``--trace 1`` spends half the time untraced and half with every layer
wrapped (spans.py), and reports the per-layer metrics of
spec.PER_LAYER, the ``python -X importtime`` breakdown and the tracing
overhead (traced minus untraced pass wall time). Per-layer counts and
times are per traced pass.

Each metric is printed as ``name value unit``; the last line is the
JSON result ``{"correct", "attempted", "failed", "metrics"}``.
``failed`` counts every failed operation: an exception, a non-zero exit
or a failed output check. ``correct`` is false when any failure is
unexpected, that is anything but a known defect (workloads.Op.known_exit)
exiting with its recorded code. Details (failed operations,
tail percentile, environment) go to ``perfbench/results/``.

``--all`` runs every workload untraced and traced, prints everything,
writes ``BENCHMARK.json`` at the root from spec.py and a summary JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

sys.path.insert(0, HERE)
import spec  # noqa: E402

SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def child_env():
    """Environment of every process the benchmark starts: this
    checkout's ``src`` first on the path, EULER2C_THREADS unset so the
    library keeps its one-thread default."""
    env = dict(os.environ)
    env.pop("EULER2C_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def _run(cmd, env, timeout):
    """Run a command in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"timed out: {' '.join(cmd[:4])}") from None
    return proc.returncode, out, err


def setup_seconds(env, deadline):
    """Fresh interpreter start until ``import euler2c`` returns."""
    code = ("import euler2c, time; print(time.monotonic()); "
            "print(euler2c.__file__)")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        rc, out, err = _run([sys.executable, "-c", code], env,
                            deadline - time.monotonic())
        if rc != 0:
            raise BenchError(f"import euler2c failed: {err.strip()[-300:]}")
        t1, path = out.split()
        if not os.path.abspath(path).startswith(SRC + os.sep):
            raise BenchError(f"euler2c imported from {path}, not {SRC}")
        times.append(float(t1) - t0)
    return statistics.median(times)


def _importtime_tree(text):
    """Parse ``-X importtime`` output into (name, self_s, cum_s, children)
    roots; children are listed before their parent, one indent deeper."""
    stack = []
    for line in text.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if not m:
            continue
        depth = len(m.group(3)) // 2
        kids = []
        while stack and stack[-1][0] > depth:
            kids.insert(0, stack.pop()[1])
        stack.append((depth, (m.group(4), int(m.group(1)) * 1e-6,
                              int(m.group(2)) * 1e-6, kids)))
    return [node for _, node in stack]


def _split(nodes, prefixes, acc):
    """Add each node's cumulative seconds to the first prefix met on its
    path from the root, so nested imports are not counted twice."""
    for name, _, cum, kids in nodes:
        hit = [p for p in prefixes if name == p or name.startswith(p + ".")]
        if hit:
            acc[hit[0]] += cum
        else:
            _split(kids, prefixes, acc)
    return acc


def _self_sum(nodes, prefix):
    return sum((own if name == prefix or name.startswith(prefix + ".")
                else 0.0) + _self_sum(kids, prefix)
               for name, own, _, kids in nodes)


def import_breakdown(env, deadline):
    rows = []
    for _ in range(IMPORTTIME_REPEATS):
        rc, _, err = _run([sys.executable, "-X", "importtime", "-c",
                           "import euler2c"], env,
                          deadline - time.monotonic())
        if rc != 0:
            raise BenchError("python -X importtime failed")
        roots = [n for n in _importtime_tree(err) if n[0] == "euler2c"]
        third = _split(roots, ("numpy", "scipy"), {"numpy": 0.0, "scipy": 0.0})
        rows.append({
            "import.total_s": sum(n[2] for n in roots),
            "import.numpy_s": third["numpy"],
            "import.scipy_s": third["scipy"],
            "import.euler2c_self_s": _self_sum(roots, "euler2c"),
        })
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def tail(values):
    """The highest percentile with at least ten samples above it:
    (seconds, percentile, sample count)."""
    v = sorted(values)
    n = len(v)
    if n <= 10:
        return v[-1], 100.0, n
    return v[n - 11], 100.0 * (n - 10) / n, n


def run_one(workload, seed, seconds, trace):
    """Run one workload; returns (result line, details)."""
    if not os.path.isfile(os.path.join(SRC, "euler2c", "__init__.py")):
        raise BenchError(f"no euler2c package under {SRC}")
    deadline = time.monotonic() + DEADLINE_S
    env = child_env()
    setup_s = setup_seconds(env, deadline)
    rc, out, err = _run(
        [sys.executable, os.path.join(HERE, "worker.py"), workload,
         str(seed), str(seconds), str(int(trace)), RESULTS],
        env, deadline - time.monotonic())
    if rc != 0:
        raise BenchError(f"workload process exited {rc}: "
                         f"{err.strip()[-500:]}")
    w = json.loads(out.strip().splitlines()[-1])

    lat = [s for _, s in w["latencies"]]
    op_p50 = statistics.median(lat)
    op_tail, pct, n_ops = tail(lat)
    wall = statistics.median(w["walls"])
    details = {"workload": workload, "seed": seed, "passes": w["passes"],
               "trace": int(trace), "env": w["env"],
               "tail_percentile": pct, "tail_samples": n_ops,
               "failures": w["failures"]}
    if not trace:
        values = {"setup_s": setup_s, "wall_s": wall, "op_p50_s": op_p50,
                  "op_tail_s": op_tail,
                  "cpu_s": statistics.median(w["cpus"]),
                  "peak_rss_mb": w["peak_rss_mb"]}
        units = {n: u for n, u, _, _ in spec.END_TO_END}
    else:
        values = dict.fromkeys((n for n, _, _ in spec.PER_LAYER), 0.0)
        values.update(w["layers"])
        values.update(import_breakdown(env, deadline))
        values["trace.overhead_s"] = (
            statistics.median(w["traced_walls"]) - wall)
        details["spans_file"] = os.path.relpath(w["spans_file"], ROOT)
        units = {n: u for n, u, _ in spec.PER_LAYER}
        values = {n: values[n] for n in units}
    failed = len(w["failures"])
    result = {
        "correct": w["correct"],
        "attempted": w["attempted"],
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in values.items()},
    }
    details["fail_frac"] = failed / w["attempted"]
    return result, details


def report(result, details):
    """Human-readable lines for one run."""
    lines = [f"# {details['workload']} seed={details['seed']} "
             f"trace={details['trace']} passes={details['passes']}"]
    for name, m in result["metrics"].items():
        lines.append(f"{name} {m['value']:.6g} {m['unit']}")
    if not details["trace"]:
        lines.append(f"# op_tail_s is p{details['tail_percentile']:.1f} of "
                     f"{details['tail_samples']} operations")
    else:
        lines.append("# cli.import_share: median over traced CLI processes "
                     "of the 'import euler2c' span (opened on the script's "
                     "first line, so all that euler2c loads is in it) over "
                     "the operation's wall time (process start to exit)")
        lines.append("# trace.coverage: share of the operation spans that "
                     "the layer spans directly inside them cover; in a CLI "
                     "process that leaves out cli.process_start_s and "
                     "cli.process_exit_s")
    lines.append(f"# fail_frac {details['fail_frac']:.6g} "
                 f"({result['failed']}/{result['attempted']})")
    seen = {}
    for f in details["failures"]:
        key = (f["op"], f["expected"], f["reason"])
        seen[key] = seen.get(key, 0) + 1
    for (op, expected, reason), k in seen.items():
        tag = "known defect" if expected else "UNEXPECTED"
        lines.append(f"# failed x{k} [{tag}] {op}: {reason}")
    lines.append("# env " + json.dumps(details["env"], sort_keys=True))
    return lines


def _save(name, obj):
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, name)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
    return path


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[n for n, _ in spec.WORKLOADS])
    ap.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload untraced and traced")
    args = ap.parse_args(argv)
    if not args.all and args.workload is None:
        ap.error("give --workload or --all")
    try:
        if not args.all:
            result, details = run_one(args.workload, args.seed, args.seconds,
                                      bool(args.trace))
            details["result"] = result
            _save(f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
                  details)
            print("\n".join(report(result, details)))
            print(json.dumps(result))
            return 0
        runs = []
        for workload, _ in spec.WORKLOADS:
            for trace in (False, True):
                result, details = run_one(workload, args.seed, args.seconds,
                                          trace)
                details["result"] = result
                runs.append(details)
                print("\n".join(report(result, details)), flush=True)
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
            json.dump(spec.benchmark_json(), fh, indent=2)
            fh.write("\n")
        path = _save(f"summary-seed{args.seed}.json",
                     {"seed": args.seed, "seconds": args.seconds,
                      "runs": runs})
        print(f"# wrote BENCHMARK.json and {os.path.relpath(path, ROOT)}")
        return 0
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
