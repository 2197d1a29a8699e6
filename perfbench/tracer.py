"""Per-layer spans and counters for one walg job, recorded from outside.

`install()` wraps the attribute each caller actually resolves at call
time, so nothing under src/ changes:

- pbw:       walg.backend.mul_terms
- linalg:    walg.backend.rref_sparse / rref_dense, and `solve` wherever a
             module imported it by name
- context:   walg.cli.build_context, walg.liealg.complete_sl2_triple
- whittaker: walg.cli.h_basis, walg.whittaker.ad_action_matrix /
             h_multiply / verify_theorem / whittaker_vectors /
             ce_cohomology / ell_comparison, HBasis.express /
             multiplication_table
- poisson:   walg.poisson.invariant_lift / slice_poisson_bracket
- cli:       walg.cli.describe_case and the report's json.dump

A span is (name, start, end, parent index); the job is single-threaded,
so spans nest as a stack.  Spans stay in memory until `dump`.
"""

import functools
import json
import time
import types

SPANS = (
    "context.build", "liealg.complete_triple", "pbw.mul_terms", "linalg.rref",
    "linalg.solve", "whittaker.h_basis", "whittaker.ad_matrix",
    "whittaker.express", "whittaker.h_multiply", "whittaker.mult_table",
    "whittaker.verify_theorem", "whittaker.whittaker_vectors",
    "whittaker.ce_cohomology", "whittaker.ell_comparison",
    "poisson.invariant_lift", "poisson.slice_bracket", "cli.report",
)


def _bits(x):
    return max(x.numerator.bit_length(), x.denominator.bit_length())


class Recorder:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = {"linalg.rref_cells": 0, "linalg.rref_dense_calls": 0,
                         "linalg.rref_max_bits": 0, "whittaker.q_dim": 0,
                         "whittaker.h_dim": 0}
        self.caches = {}

    def wrap(self, name, fn, after=None):
        """`fn` recorded as span `name`; `after(result, args)` adds counts."""
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if after is not None:
                after(out, args)
            return out

        return traced

    def bump(self, key, value):
        self.counters[key] += value

    def peak(self, key, value):
        self.counters[key] = max(self.counters[key], value)

    def dump(self, path):
        cache_entries = sum(len(c) for c in self.caches.values())
        doc = {"spans": self.spans,
               "counters": dict(self.counters, **{"pbw.cache_entries": cache_entries})}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def install():
    """Patch walg's layer boundaries; returns the Recorder."""
    from walg import backend, cli, liealg, linalg, poisson, whittaker

    rec = Recorder()

    def on_mul(out, args):
        cache = args[3]
        if cache is not None:
            rec.caches[id(cache)] = cache

    def on_rref(dense):
        def after(out, args):
            rows, ncols = args
            rec.bump("linalg.rref_cells", len(rows) * ncols)
            if dense:
                rec.bump("linalg.rref_dense_calls", 1)
            bits = max((_bits(v) for row in out[1] for v in row.values()),
                       default=0)
            rec.peak("linalg.rref_max_bits", bits)
        return after

    def on_h_basis(hb, args):
        rec.peak("whittaker.q_dim", len(hb.qb.monomials))
        rec.peak("whittaker.h_dim", len(hb.elements))

    backend.mul_terms = rec.wrap("pbw.mul_terms", backend.mul_terms, on_mul)
    backend.rref_sparse = rec.wrap("linalg.rref", backend.rref_sparse,
                                   on_rref(False))
    backend.rref_dense = rec.wrap("linalg.rref", backend.rref_dense,
                                  on_rref(True))
    solve = rec.wrap("linalg.solve", linalg.solve)
    for mod in (linalg, liealg, poisson, whittaker):
        mod.solve = solve
    cli.build_context = rec.wrap("context.build", cli.build_context)
    liealg.complete_sl2_triple = rec.wrap("liealg.complete_triple",
                                          liealg.complete_sl2_triple)
    cli.h_basis = rec.wrap("whittaker.h_basis", cli.h_basis, on_h_basis)
    for attr, name in (("ad_action_matrix", "whittaker.ad_matrix"),
                       ("h_multiply", "whittaker.h_multiply"),
                       ("verify_theorem", "whittaker.verify_theorem"),
                       ("whittaker_vectors", "whittaker.whittaker_vectors"),
                       ("ce_cohomology", "whittaker.ce_cohomology"),
                       ("ell_comparison", "whittaker.ell_comparison")):
        setattr(whittaker, attr, rec.wrap(name, getattr(whittaker, attr)))
    hb_cls = whittaker.HBasis
    hb_cls.express = rec.wrap("whittaker.express", hb_cls.express)
    hb_cls.multiplication_table = rec.wrap("whittaker.mult_table",
                                           hb_cls.multiplication_table)
    poisson.invariant_lift = rec.wrap("poisson.invariant_lift",
                                      poisson.invariant_lift)
    poisson.slice_poisson_bracket = rec.wrap("poisson.slice_bracket",
                                             poisson.slice_poisson_bracket)
    cli.describe_case = rec.wrap("cli.report", cli.describe_case)
    cli.json = types.SimpleNamespace(
        dump=rec.wrap("cli.report", json.dump), dumps=json.dumps)
    return rec


def summarize(doc):
    """Inclusive time, self time and call count per span name."""
    spans = doc["spans"]
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {name: {"s": 0.0, "self_s": 0.0, "calls": 0} for name in SPANS}
    for idx, (name, start, end, parent) in enumerate(spans):
        agg = out[name]
        agg["calls"] += 1
        agg["self_s"] += (end - start) - child[idx]
        # inclusive time counts a recursive span only at its outermost call
        if not _has_ancestor(spans, parent, name):
            agg["s"] += end - start
    return out


def _has_ancestor(spans, parent, name):
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
