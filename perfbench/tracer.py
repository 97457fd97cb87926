"""Span tracing of qzm's public layer functions, installed from outside.

Nothing here changes qzm itself: ``Tracer.install`` replaces module and
class attributes with timing wrappers and ``Tracer.uninstall`` puts the
originals back.  Every wrapped call leaves one
span ``[id, name, parent, start, end, busy, attrs]`` in memory; spans are
written out as JSONL only when the run ends.

Relation-row generators are consumed lazily by the elimination loop, so a
generator span records ``busy`` (the summed time of its ``next()`` calls)
instead of covering its whole lifetime.  A span's self time is its duration
minus what its direct children cover: ``busy`` for a generator, the full
duration otherwise.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

import qzm.basis
import qzm.bilinears
import qzm.cache
import qzm.qalgebra
import qzm.scalars
from qzm.fock import TEMPLATE_EXCHANGE

ID, NAME, PARENT, START, END, BUSY, ATTRS = range(7)

GENERATORS = ("exchange_rows", "determinant_rows")
BILINEARS = ("apply_bilinear", "decompose_QQ", "check_split_completeness",
             "check_symmetry_relabeling", "check_dynamical_AS",
             "check_diagonal_simple", "check_contraction_vanishing",
             "check_QQ_split")
# (class, method, counter name): scalar calls are counted, not spanned
SCALAR_COUNTS = ((qzm.scalars.RootScalar, "__mul__", "scalars.root.mul.calls"),
                 (qzm.scalars.RootScalar, "invert", "scalars.root.invert.calls"),
                 (qzm.scalars.GenericScalar, "__mul__",
                  "scalars.generic.mul.calls"))


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = [None]
        self.counts = {name: [0] for _, _, name in SCALAR_COUNTS}
        self._saved = []

    # -- span recording -------------------------------------------------------

    def open(self, name):
        rec = [len(self.spans), name, self.stack[-1], 0.0, 0.0, None, None]
        self.spans.append(rec)
        self.stack.append(rec[ID])
        rec[START] = perf_counter()
        return rec

    def close(self, rec):
        rec[END] = perf_counter()
        self.stack.pop()

    def call(self, name, fn, *args):
        """Run fn(*args) inside a span named ``name``."""
        rec = self.open(name)
        try:
            return fn(*args)
        finally:
            self.close(rec)

    def _span(self, name, fn, on_result=None):
        def wrapper(*args, **kwargs):
            rec = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if on_result is not None:
                rec[ATTRS] = on_result(args, out)
            return out
        return wrapper

    def _generator(self, name, fn):
        """Wrap a row generator, timing each next() and counting rows."""
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            now = perf_counter()
            rec = [len(self.spans), name, self.stack[-1], now, now, 0.0,
                   {"short": 0, "long": 0, "other": 0}]
            self.spans.append(rec)

            def rows():
                busy = 0.0
                counts = rec[ATTRS]
                try:
                    while True:
                        t = perf_counter()
                        try:
                            inst = next(it)
                        except StopIteration:
                            busy += perf_counter() - t
                            return
                        busy += perf_counter() - t
                        if name == "fock.exchange_rows":
                            counts["long" if inst.template == TEMPLATE_EXCHANGE
                                   else "short"] += 1
                        else:
                            counts["other"] += 1
                        yield inst
                finally:
                    rec[BUSY] = busy
                    rec[END] = perf_counter()
            return rows()
        return wrapper

    # -- installation -----------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        basis, qa, bl, cache = (qzm.basis, qzm.qalgebra, qzm.bilinears,
                                qzm.cache)
        self._patch(basis, "build_block",
                    self._span("basis.build_block", basis.build_block,
                               _block_attrs))
        # the generators and class_words are imported into qzm.basis by name
        for g in GENERATORS:
            self._patch(basis, g, self._generator(f"fock.{g}",
                                                  getattr(basis, g)))
        self._patch(basis, "class_words",
                    self._span("fock.class_words", basis.class_words))
        self._patch(basis.FockContext, "reduce_state",
                    self._span("basis.reduce_state",
                               basis.FockContext.reduce_state))
        store = cache.DiskCache.store_block
        load = cache.DiskCache.load_block
        self._patch(cache.DiskCache, "store_block",
                    self._span("cache.store_block", store))
        self._patch(cache.DiskCache, "load_block",
                    self._span("cache.load_block", load,
                               lambda args, out: {"hit": out is not None}))
        self._patch(qa, "reduced_coordinates",
                    self._span("qalgebra.reduced_coordinates",
                               qa.reduced_coordinates,
                               lambda args, out: {"terms": len(args[1].terms)}))
        apply_q = self._span("qalgebra.apply_Q", qa.apply_Q)
        self._patch(qa, "apply_Q", apply_q)
        self._patch(bl, "apply_Q", apply_q)
        for f in BILINEARS:
            self._patch(bl, f, self._span(f"bilinears.{f}", getattr(bl, f)))
        for cls, meth, counter in SCALAR_COUNTS:
            self._patch(cls, meth, _counted(getattr(cls, meth),
                                            self.counts[counter]))

    def uninstall(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    def write_jsonl(self, path):
        keys = ("id", "name", "parent", "start", "end", "busy", "attrs")
        t0 = min((s[START] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                rec = dict(zip(keys, s))
                rec["start"] -= t0
                rec["end"] -= t0
                fh.write(json.dumps(rec) + "\n")


def _counted(fn, cell):
    def wrapper(*args):
        cell[0] += 1
        return fn(*args)
    return wrapper


def _block_attrs(args, bb):
    return {"total_words": bb.total_words, "live_words": bb.live_words,
            "pivots": len(bb.rref)}


# ---------------------------------------------------------------------------
# per-layer metrics from the spans
# ---------------------------------------------------------------------------

def _cover(s):
    return s[BUSY] if s[BUSY] is not None else s[END] - s[START]


def self_times(spans):
    """Self time of every span: duration minus what its children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] is not None:
            child[s[PARENT]] += _cover(s)
    return [_cover(s) - c for s, c in zip(spans, child)]


def _ancestors(spans, s):
    p = s[PARENT]
    while p is not None:
        yield spans[p]
        p = spans[p][PARENT]


def _pct(values, p):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def layer_metrics(tracer, cli_labels, wall_s):
    """Per-layer metrics (name -> (value, unit)) of one traced sequence."""
    spans = tracer.spans
    selfs = self_times(spans)
    by_name = {}
    for s, st in zip(spans, selfs):
        by_name.setdefault(s[NAME], []).append((s, st))

    def group(name):
        return by_name.get(name, [])

    def total(name):
        return sum(_cover(s) for s, _ in group(name))

    m = {}
    blocks = group("basis.build_block")
    block_ms = [(s[END] - s[START]) * 1e3 for s, _ in blocks]
    block_s = sum(block_ms) / 1e3
    live = sum(s[ATTRS]["live_words"] for s, _ in blocks)
    pivots = sum(s[ATTRS]["pivots"] for s, _ in blocks)
    block_ids = {s[ID] for s, _ in blocks}
    rows_into_blocks = sum(sum(s[ATTRS].values())
                           for g in GENERATORS for s, _ in group(f"fock.{g}")
                           if s[PARENT] in block_ids)
    warm = sum(1 for s, _ in blocks
               if any(a[NAME].startswith("cli.") and a[NAME].endswith("_warm")
                      for a in _ancestors(spans, s)))
    m["basis.build_block.calls"] = (len(blocks), "count")
    m["basis.build_block.self_s"] = (sum(st for _, st in blocks), "s")
    m["basis.build_block.p50_ms"] = (_pct(block_ms, 50), "ms")
    m["basis.build_block.p95_ms"] = (_pct(block_ms, 95), "ms")
    m["basis.build_block.warm_calls"] = (warm, "count")
    m["basis.words_live"] = (live, "count")
    m["basis.pivots"] = (pivots, "count")
    m["basis.pivot_yield"] = (pivots / rows_into_blocks
                              if rows_into_blocks else 0.0, "ratio")
    m["basis.words_per_s"] = (live / block_s if block_s else 0.0, "1/s")
    m["basis.max_block_words"] = (max((s[ATTRS]["total_words"]
                                       for s, _ in blocks), default=0), "count")
    reductions = group("basis.reduce_state")
    m["basis.reduce_state.calls"] = (len(reductions), "count")
    m["basis.reduce_state.self_s"] = (sum(st for _, st in reductions), "s")

    ex = group("fock.exchange_rows")
    det = group("fock.determinant_rows")
    m["fock.exchange_rows.short.rows"] = (sum(s[ATTRS]["short"] for s, _ in ex),
                                          "count")
    m["fock.exchange_rows.long.rows"] = (sum(s[ATTRS]["long"] for s, _ in ex),
                                         "count")
    m["fock.exchange_rows.s"] = (total("fock.exchange_rows"), "s")
    m["fock.determinant_rows.rows"] = (sum(s[ATTRS]["other"] for s, _ in det),
                                       "count")
    m["fock.determinant_rows.s"] = (total("fock.determinant_rows"), "s")
    m["fock.class_words.s"] = (total("fock.class_words"), "s")
    # build_block self time plus the fock spans under it, over the sequence
    m["basis.build_share"] = (block_s / wall_s, "ratio")

    for _, _, counter in SCALAR_COUNTS:
        m[counter] = (tracer.counts[counter][0], "count")

    loads = group("cache.load_block")
    m["cache.store_block.calls"] = (len(group("cache.store_block")), "count")
    m["cache.store_block.s"] = (total("cache.store_block"), "s")
    m["cache.load_block.calls"] = (len(loads), "count")
    m["cache.load_block.s"] = (total("cache.load_block"), "s")
    m["cache.load_block.hit_frac"] = (
        sum(s[ATTRS]["hit"] for s, _ in loads) / len(loads) if loads else 0.0,
        "ratio")

    rc = group("qalgebra.reduced_coordinates")
    m["qalgebra.reduced_coordinates.calls"] = (len(rc), "count")
    m["qalgebra.reduced_coordinates.self_s"] = (sum(st for _, st in rc), "s")
    m["qalgebra.reduced_coordinates.terms"] = (sum(s[ATTRS]["terms"]
                                                   for s, _ in rc), "count")
    m["qalgebra.apply_Q.calls"] = (len(group("qalgebra.apply_Q")), "count")
    m["qalgebra.apply_Q.s"] = (total("qalgebra.apply_Q"), "s")

    bil = [(s, st) for s, st in zip(spans, selfs)
           if s[NAME].startswith("bilinears.")]
    outer = [s for s, _ in bil
             if not any(a[NAME].startswith("bilinears.")
                        for a in _ancestors(spans, s))]
    m["bilinears.calls"] = (len(bil), "count")
    m["bilinears.s"] = (sum(_cover(s) for s in outer), "s")
    m["bilinears.self_s"] = (sum(st for _, st in bil), "s")

    for label in cli_labels:
        m[f"cli.{label}.s"] = (total(f"cli.{label}"), "s")
    return m
