"""Spans around the package's public functions, patched in from outside.

The package itself carries no instrumentation.  While a :class:`Tracer` is
active it replaces each traced function with a wrapper in every module that
holds it, so names imported by value (``pullback.solve_monotone``,
``thurston.run``) are covered as well as names looked up through their
module (``critvals.phi``, ``comb.laps``).  Each call records a span: name,
start, end, parent span, sequence id and a note (the Newton iterations an
inversion returned, or the type of the exception that left the call).
Spans stay in memory until the run ends.

``Polynomial.__call__`` is counted, not spanned: its cost stays in the self
time of the function that evaluates, and a span per evaluation would cost
more than most evaluations.
"""

from __future__ import annotations

import csv
import statistics
from collections import Counter
from time import perf_counter

from mpmath.ctx_mp import MPContext

import thurston
from thurston import combinatorics, critvals, mpnum, pullback

MODULES = (thurston, combinatorics, critvals, mpnum, pullback)

# Public functions that get a span, by layer (= module).
SPANNED = {
    combinatorics: ("parse", "validate", "laps", "simplify"),
    critvals: (
        "invert_phi", "chebyshev_init", "phi", "phi_jacobian",
        "continuation_invert", "realize_critical_values",
    ),
    mpnum: ("solve_monotone", "affine_substitute"),
    pullback: ("run", "mapmake", "normalize", "pullback_step", "fit_error", "detect_collapse"),
}
LU_SOLVE = "critvals.lu_solve"  # mpmath's MPContext.lu_solve, called by critvals
INVERT = "critvals.invert_phi"
LAYERS = ("combinatorics", "critvals", "mpnum", "pullback")

# Self times of the gap-map inversion are identically 0 on unimodal, where
# Phi is never inverted.  They are printed but left out of the JSON result,
# whose times must be measurements that vary from run to run.
PRINTED_ONLY = tuple(
    f"{name}.self_s" for name in
    (INVERT, "critvals.phi", "critvals.phi_jacobian", LU_SOLVE, "critvals.chebyshev_init")
)


class Tracer:
    """Collects spans while active (``with Tracer() as t:``)."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, sequence, note]
        self.stack = []
        self.sequence = None
        self.evals = Counter()  # Polynomial evaluations by enclosing span name
        self._undo = []

    def _spanned(self, name, fn):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.sequence, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if name == INVERT:
                span[5] = result.iterations
            return result

        return wrapper

    def _counted(self, fn):
        spans, stack, evals = self.spans, self.stack, self.evals

        def wrapper(poly, x):
            evals[spans[stack[-1]][0] if stack else None] += 1
            return fn(poly, x)

        return wrapper

    def _patch_class(self, cls, attr, wrapper):
        own = cls.__dict__.get(attr)
        setattr(cls, attr, wrapper)
        self._undo.append((cls, attr, own))

    def __enter__(self):
        for home, names in SPANNED.items():
            layer = home.__name__.rsplit(".", 1)[-1]
            for attr in names:
                # A function the package no longer has simply counts 0 calls.
                original = getattr(home, attr, None)
                if original is None:
                    continue
                wrapper = self._spanned(f"{layer}.{attr}", original)
                for module in MODULES:
                    if getattr(module, attr, None) is original:
                        setattr(module, attr, wrapper)
                        self._undo.append((module, attr, original))
        self._patch_class(MPContext, "lu_solve", self._spanned(LU_SOLVE, MPContext.lu_solve))
        call = mpnum.Polynomial.__call__
        self._patch_class(mpnum.Polynomial, "__call__", self._counted(call))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()
        return False

    def summary(self) -> dict:
        """Per-function calls and self time, and the inversion counters."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        calls, self_s = Counter(), Counter()
        iters = stalls = trials = 0
        for i, (name, start, end, parent, _, note) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
            if name == INVERT:
                if note == "NewtonStalled":
                    stalls += 1
                elif isinstance(note, int):
                    iters += note
            elif name == "critvals.phi" and parent >= 0 and self.spans[parent][0] == INVERT:
                trials += 1
        # The first residual of each inversion is not a trial step.
        trials -= calls[INVERT]
        return {
            "calls": calls,
            "self_s": self_s,
            "newton_iters": iters,
            "newton_stalls": stalls,
            "newton_trials": trials,
            "poly_evals": sum(self.evals.values()),
            "solve_evals": self.evals["mpnum.solve_monotone"],
        }

    def write(self, path, pass_index: int, mode: str = "w"):
        """Write the spans as CSV (mode "a" adds a later pass); times in seconds."""
        with open(path, mode, newline="") as fh:
            out = csv.writer(fh)
            if mode == "w":
                out.writerow(["pass", "index", "name", "start", "end", "parent", "sequence", "note"])
            for i, span in enumerate(self.spans):
                name, start, end, parent, seq, note = span
                out.writerow([pass_index, i, name, f"{start:.9f}", f"{end:.9f}", parent, seq,
                              "" if note is None else note])


def layer_metrics(summaries: list, traced_wall: float) -> dict:
    """Per-layer metrics over traced passes: counts from the first pass
    (they repeat exactly), times as medians across passes."""
    first = summaries[0]
    calls = first["calls"]

    def med(name):
        return statistics.median(s["self_s"][name] for s in summaries)

    def layer_self(layer):
        return statistics.median(
            sum(v for k, v in s["self_s"].items() if k.startswith(layer + "."))
            for s in summaries
        )

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in ("critvals.invert_phi", "critvals.phi", "critvals.phi_jacobian",
                 LU_SOLVE, "critvals.realize_critical_values", "critvals.chebyshev_init",
                 "mpnum.solve_monotone", "mpnum.affine_substitute", "combinatorics.validate"):
        m[f"{name}.calls"] = (calls[name], "count")
        m[f"{name}.self_s"] = (med(name), "s")
    m["critvals.continuation_invert.calls"] = (calls["critvals.continuation_invert"], "count")
    m["critvals.newton_stalls"] = (first["newton_stalls"], "count")
    m["critvals.newton_iters"] = (first["newton_iters"], "count")
    m["critvals.newton_iters_per_step"] = (
        ratio(first["newton_iters"], calls["critvals.invert_phi"]), "iter/step")
    m["critvals.newton_accept_ratio"] = (
        ratio(first["newton_iters"], first["newton_trials"]), "ratio")
    m["mpnum.poly_evals"] = (first["poly_evals"], "count")
    m["mpnum.poly_evals_per_solve"] = (
        ratio(first["solve_evals"], calls["mpnum.solve_monotone"]), "eval/solve")
    for name in ("mapmake", "normalize", "pullback_step", "fit_error", "detect_collapse", "run"):
        m[f"pullback.{name}.self_s"] = (med(f"pullback.{name}"), "s")
    m["combinatorics.laps.calls"] = (calls["combinatorics.laps"], "count")
    m["combinatorics.simplify.calls"] = (calls["combinatorics.simplify"], "count")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self(layer), "s")
        m[f"{layer}.share"] = (ratio(layer_self(layer), traced_wall), "ratio")
    m["mpnum.solve_monotone.share"] = (ratio(med("mpnum.solve_monotone"), traced_wall), "ratio")
    return m
