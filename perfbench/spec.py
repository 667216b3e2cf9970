"""What the benchmark measures: workloads, metrics, units, directions
and regression bounds. ``BENCHMARK.json`` at the repository root is
generated from this module by ``python3 perfbench/run.py --all``."""

DEFAULT_SEED = 1
RUN_SECONDS = 25

WORKLOADS = [
    ("cli-recipes", "README recipes as fresh CLI processes; import is ~70% "
     "of each, so it shows import and CLI changes and keeps the exit-3 "
     "inputs"),
    ("oracle-sweep", "theory verdict and Hessian oracle over seeded "
     "(mu, c, component) in one warm process; clear and small margins to "
     "c0; no import in wall_s"),
    ("figure-traces", "curve v0, f0 and czero in one warm process; "
     "predictor-corrector steps and scalar potential calls do the work, "
     "the oracle none"),
]

# name, unit, better, bound (share of the parent's median)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("op_p50_s", "s", "lower", 0.25),
    ("op_tail_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

CLI_KINDS = ["constants", "verdict_elliptic", "verdict_levi",
             "verdict_fiberwise", "curve_hill", "curve_quartic",
             "curve_c0curve", "verify_identities"]

IDENTITIES = ["det-frame", "a-dy-factor", "a-critical-y0", "a-dx-factor",
              "h-boundary-roots", "h-interior-root", "eta-at-cj",
              "eta-at-ce2", "levi-critical-curve", "lc-radicand",
              "f0-expansion", "f0-discriminant", "c0-resultant",
              "equal-mass-slope"]

# name, unit, better
PER_LAYER = [
    ("import.total_s", "s", "lower"),
    ("import.numpy_s", "s", "lower"),
    ("import.scipy_s", "s", "lower"),
    ("import.euler2c_self_s", "s", "lower"),
    ("cli.import_share", "ratio", "lower"),
    ("cli.process_start_s", "s", "lower"),
    ("cli.process_exit_s", "s", "lower"),
    *[(f"cli.{k}.p50_s", "s", "lower") for k in CLI_KINDS],
    ("cli.main.self_s", "s", "lower"),
    ("cli.exit3.count", "count", "lower"),
    ("cli.exit_nonzero.count", "count", "lower"),
    ("elliptic.thresholds.calls", "count", "lower"),
    ("elliptic.thresholds.self_s", "s", "lower"),
    ("elliptic.thresholds.us_per_call", "us", "lower"),
    ("elliptic.convexity_verdict.calls", "count", "lower"),
    ("elliptic.convexity_verdict.self_s", "s", "lower"),
    ("elliptic.oracle.calls", "count", "lower"),
    ("elliptic.oracle.self_s", "s", "lower"),
    ("elliptic.oracle.samples", "count", "higher"),
    ("elliptic.oracle.failures", "count", "lower"),
    ("elliptic.oracle.us_per_sample", "us", "lower"),
    ("elliptic.oracle.posdef.count", "count", "higher"),
    ("elliptic.oracle.indefinite.count", "count", "higher"),
    ("elliptic.oracle.degenerate.count", "count", "lower"),
    ("elliptic.oracle.disagree.count", "count", "lower"),
    ("scan.trace.calls", "count", "lower"),
    ("scan.trace.self_s", "s", "lower"),
    ("scan.trace.steps", "count", "higher"),
    ("scan.trace.us_per_step", "us", "lower"),
    ("scan.trace.f_evals", "count", "lower"),
    ("scan.trace.grad_evals", "count", "lower"),
    ("scan.trace.f_evals_per_step", "ratio", "lower"),
    ("scan.trace.partial.count", "count", "lower"),
    ("scan.trace.closed.count", "count", "higher"),
    ("scan.sign_scan.calls", "count", "lower"),
    ("scan.sign_scan.self_s", "s", "lower"),
    ("scan.sign_scan.samples", "count", "higher"),
    ("scan.sign_scan.witnesses", "count", "higher"),
    *[(f"levicivita.{f}.{m}", unit, "lower")
      for f in ("V_value", "V_eval", "F_value", "witness")
      for m, unit in (("calls", "count"), ("self_s", "s"))],
    ("fiberwise.curvature_numerator.calls", "count", "lower"),
    ("fiberwise.curvature_numerator.points", "count", "higher"),
    ("fiberwise.curvature_numerator.self_s", "s", "lower"),
    ("fiberwise.verdict.calls", "count", "lower"),
    ("fiberwise.verdict.self_s", "s", "lower"),
    ("fiberwise.verdict.samples", "count", "higher"),
    ("model.hill_boundary.calls", "count", "lower"),
    ("model.hill_boundary.points", "count", "higher"),
    ("model.hill_boundary.self_s", "s", "lower"),
    ("exactpoly.verify_all.s", "s", "lower"),
    *[(f"exactpoly.identity.{n}.s", "s", "lower") for n in IDENTITIES],
    ("exactpoly.positivity_certificates.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.spans.count", "count", "lower"),
]


def benchmark_json():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": x}
                       for n, u, b, x in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }
