"""In-memory spans and counters, and the wrappers that time euler2c's
layers from outside the library.

A span is ``[name, start, end, parent]`` with times from
``time.perf_counter`` and ``parent`` the index of the enclosing span
(-1 at top level). Self time is a span's duration minus the time its
child spans cover; calls are sequential here, so that is the sum of the
children's durations.

``patched(tracer)`` wraps the public functions listed in ``TARGETS``.
Every attribute of every loaded ``euler2c`` module that is bound to a
wrapped function is replaced, so names imported by value (``cli`` does
``from .scan import trace_implicit``) are traced as well.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import inspect
import sys
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = collections.Counter()
        self._stack = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def count(self, key, n=1):
        self.counters[key] += n

    def merge(self, spans, counters):
        """Append spans recorded in another process under the open span."""
        base = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        for name, t0, t1, p in spans:
            self.spans.append([name, t0, t1, parent if p < 0 else base + p])
        self.counters.update(counters)

    def summary(self):
        """name -> (calls, total seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, p in self.spans:
            if p >= 0:
                child[p] += t1 - t0
        out = {}
        for (name, t0, t1, p), c in zip(self.spans, child):
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + (t1 - t0), own + (t1 - t0 - c))
        return out

    def coverage(self, prefix):
        """Share of the time of the spans named ``prefix...`` that their
        direct child spans cover."""
        own = {i for i, sp in enumerate(self.spans)
               if sp[0].startswith(prefix)}
        total = sum(self.spans[i][2] - self.spans[i][1] for i in own)
        inner = sum(t1 - t0 for _, t0, t1, p in self.spans if p in own)
        return inner / total if total else 0.0


# -- result hooks: counts read from what a layer returns ---------------------

def _oracle(tr, args, kwargs, rep):
    tr.count("elliptic.oracle.samples", rep.samples)
    tr.count("elliptic.oracle.failures", rep.failures)
    tr.count(f"elliptic.oracle.{rep.verdict}.count")


def _sign_scan(tr, args, kwargs, rep):
    tr.count("scan.sign_scan.samples", rep.samples)
    tr.count("scan.sign_scan.witnesses", len(rep.witnesses))


def _curvature(tr, args, kwargs, value):
    q = args[0] if args else kwargs["q"]
    tr.count("fiberwise.curvature_numerator.points", int(np.size(q[0])))


def _fiberwise(tr, args, kwargs, rep):
    tr.count("fiberwise.verdict.samples", rep.samples)


def _hill(tr, args, kwargs, pts):
    tr.count("model.hill_boundary.points", len(pts))


def _identities(tr, args, kwargs, results):
    for r in results:
        tr.count(f"exactpoly.identity.{r.name}.s", r.elapsed)


# (module, function, span name, result hook)
TARGETS = [
    ("euler2c.cli", "main", "cli.main", None),
    ("euler2c.model", "hill_boundary", "model.hill_boundary", _hill),
    ("euler2c.elliptic", "thresholds", "elliptic.thresholds", None),
    ("euler2c.elliptic", "convexity_verdict", "elliptic.convexity_verdict",
     None),
    ("euler2c.elliptic", "oracle_convexity", "elliptic.oracle", _oracle),
    ("euler2c.scan", "sign_scan", "scan.sign_scan", _sign_scan),
    ("euler2c.levicivita", "V_value", "levicivita.V_value", None),
    ("euler2c.levicivita", "V_eval", "levicivita.V_eval", None),
    ("euler2c.levicivita", "F_value", "levicivita.F_value", None),
    ("euler2c.levicivita", "nonconvex_witness_levi", "levicivita.witness",
     None),
    ("euler2c.fiberwise", "curvature_numerator",
     "fiberwise.curvature_numerator", _curvature),
    ("euler2c.fiberwise", "fiberwise_verdict", "fiberwise.verdict",
     _fiberwise),
    ("euler2c.fiberwise", "positivity_certificates",
     "exactpoly.positivity_certificates", None),
    ("euler2c.exactpoly", "verify_all", "exactpoly.verify_all", _identities),
]


def _wrap(tr, fn, name, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tr.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tr.close(idx)
        if hook is not None:
            hook(tr, args, kwargs, result)
        return result
    return traced


def _wrap_trace(tr, fn):
    """scan.trace_implicit: count the f and grad calls made through the
    callables handed in, the steps taken and how each trace ended."""
    sig = inspect.signature(fn)

    def counting(key, g):
        def h(*a):
            tr.counters[key] += 1
            return g(*a)
        return h

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        ba = sig.bind(*args, **kwargs)
        ba.arguments["f"] = counting("scan.trace.f_evals", ba.arguments["f"])
        if ba.arguments.get("grad") is not None:
            ba.arguments["grad"] = counting("scan.trace.grad_evals",
                                            ba.arguments["grad"])
        idx = tr.open("scan.trace")
        try:
            pl = fn(*ba.args, **ba.kwargs)
        except Exception as err:
            partial = getattr(err, "partial", None)
            if partial is not None:
                tr.count("scan.trace.partial.count")
                tr.count("scan.trace.steps", len(partial.points))
            raise
        finally:
            tr.close(idx)
        tr.count("scan.trace.steps", len(pl.points))
        tr.count("scan.trace.closed.count", int(pl.closed))
        return pl
    return traced


@contextlib.contextmanager
def patched(tr):
    """Trace every function in TARGETS and scan.trace_implicit into
    ``tr`` while the block runs; restore the originals afterwards."""
    targets = [(getattr(importlib.import_module(mod), fn), name, hook)
               for mod, fn, name, hook in TARGETS]
    modules = [m for n, m in list(sys.modules.items())
               if n == "euler2c" or n.startswith("euler2c.")]
    plan = [(fn, _wrap(tr, fn, name, hook)) for fn, name, hook in targets]
    trace_fn = sys.modules["euler2c.scan"].trace_implicit
    plan.append((trace_fn, _wrap_trace(tr, trace_fn)))
    saved = []
    for orig, wrapper in plan:
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    saved.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)
    try:
        yield tr
    finally:
        for mod, attr, orig in saved:
            setattr(mod, attr, orig)
