"""Span tracer installed from outside around gf2to1's public functions.

A span wrapper replaces a function at every name the package's modules bind
it to (``gf2to1.search.qm_canonical``, ``gf2to1.two2one.resultant_eliminate``
and so on), or replaces a method on ``FieldCtx``.  Each call records
(name, parent span, start, end) in memory.  ``FieldCtx.mul`` and
``FieldCtx.pow`` run tens of millions of times, so they only bump a counter,
and ``qm_transforms`` counts the transforms it yields.  ``uninstall`` puts
every original back.
"""

from __future__ import annotations

import functools
import importlib
import time

MODULES = (
    "gf2to1",
    "gf2to1.field",
    "gf2to1.poly",
    "gf2to1.lowdeg",
    "gf2to1.two2one",
    "gf2to1.search",
    "gf2to1.cli",
    "gf2to1.tabledata",
)

# span name -> (defining module, attribute); several functions may share a name
SPANNED = (
    ("field.make_field", "gf2to1.field", "make_field"),
    ("tabledata.load", "gf2to1.tabledata", "table1"),
    ("tabledata.load", "gf2to1.tabledata", "table2"),
    ("tabledata.load", "gf2to1.tabledata", "table3"),
    ("poly.resultant_eliminate", "gf2to1.poly", "resultant_eliminate"),
    ("poly.count_bivariate_zeros", "gf2to1.poly", "count_bivariate_zeros"),
    ("lowdeg.lemma_quadratic", "gf2to1.lowdeg", "lemma_quadratic_agreement"),
    ("lowdeg.lemma_cubic", "gf2to1.lowdeg", "lemma_cubic_agreement"),
    ("lowdeg.lemma_quartic", "gf2to1.lowdeg", "lemma_quartic_agreement"),
    ("two2one.is_two_to_one", "gf2to1.two2one", "is_two_to_one"),
    ("two2one.make_family", "gf2to1.two2one", "make_family"),
    ("two2one.verify_resultant_identity", "gf2to1.two2one", "verify_resultant_identity"),
    ("two2one.qm_canonical", "gf2to1.two2one", "qm_canonical"),
    ("two2one.qm_shape_orbit", "gf2to1.two2one", "qm_shape_orbit"),
    ("search.search_sparse", "gf2to1.search", "search_sparse"),
    ("search.search_degree5", "gf2to1.search", "search_degree5"),
    ("search.compare_with_table", "gf2to1.search", "compare_with_table"),
    ("cli.main", "gf2to1.cli", "main"),
)
SEARCH_SPANS = ("search.search_sparse", "search.search_degree5")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.counts = {"mul": 0, "pow": 0, "true_verdicts": 0, "candidates": 0, "classes": 0,
                       "inputs_checked": 0}
        self.yields: dict[int, int] = {}  # span index -> qm_transforms yields inside it
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        from gf2to1.field import FieldCtx

        mods = [importlib.import_module(m) for m in MODULES]
        for name, home, attr in SPANNED:
            orig = getattr(importlib.import_module(home), attr)
            wrapped = self._span(name, orig)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, key, wrapped)
        for key in ("mul", "pow"):
            self._set(FieldCtx, key, self._counter(key, getattr(FieldCtx, key)))
        self._set(FieldCtx, "mul_table", self._span("field.mul_table", FieldCtx.mul_table))
        two2one = importlib.import_module("gf2to1.two2one")
        self._set(two2one, "qm_transforms", self._yield_counter(two2one.qm_transforms))

    def uninstall(self) -> None:
        while self._undo:
            obj, key, orig = self._undo.pop()
            setattr(obj, key, orig)

    def _set(self, obj, key, value) -> None:
        self._undo.append((obj, key, getattr(obj, key)))
        setattr(obj, key, value)

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(rec)
            stack.append(len(spans) - 1)
            rec[2] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
            self._observe(name, out)
            return out

        return wrapped

    def _counter(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapped(*args):
            counts[key] += 1
            return fn(*args)

        return wrapped

    def _yield_counter(self, fn):
        stack, yields = self._stack, self.yields

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            n = 0
            try:
                for item in fn(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                top = stack[-1] if stack else -1
                yields[top] = yields.get(top, 0) + n

        return wrapped

    def _observe(self, name, out) -> None:
        c = self.counts
        if name == "two2one.is_two_to_one":
            c["true_verdicts"] += bool(out)
        elif name in SEARCH_SPANS:
            c["candidates"] += out.candidates_scanned
            if out.dedupe == "qm":  # a dedupe="none" report lists raw hits, not classes
                c["classes"] += len(out.hits)
        elif name.startswith("lowdeg.lemma_"):
            c["inputs_checked"] += out.checked

    # -- summaries --------------------------------------------------------------

    def by_name(self) -> dict[str, dict]:
        """calls, inclusive seconds and self seconds for each span name."""
        child_s = [0.0] * len(self.spans)
        for name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
        out: dict[str, dict] = {}
        for i, (name, _, t0, t1) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += t1 - t0
            agg["self_s"] += t1 - t0 - child_s[i]
        return out

    def layer_metrics(self) -> dict[str, float]:
        agg = self.by_name()

        def get(name, key):
            return agg.get(name, {}).get(key, 0)

        spans = self.spans
        from_search = [
            (name, t1 - t0)
            for name, parent, t0, t1 in spans
            if parent >= 0 and spans[parent][0] in SEARCH_SPANS
        ]
        raw_hits = sum(1 for name, _ in from_search if name == "two2one.qm_canonical")
        canon_ix = [i for i, s in enumerate(spans) if s[0] == "two2one.qm_canonical"]
        canon_yields = sum(self.yields.get(i, 0) for i in canon_ix)
        c = self.counts
        calls_21 = get("two2one.is_two_to_one", "calls")
        return {
            "field.mul_calls": c["mul"],
            "field.mul_table_calls": get("field.mul_table", "calls"),
            "field.mul_table_s": get("field.mul_table", "total_s"),
            "field.pow_calls": c["pow"],
            "field.make_field_s": get("field.make_field", "total_s"),
            "tabledata.load_calls": get("tabledata.load", "calls"),
            "tabledata.load_s": get("tabledata.load", "total_s"),
            "poly.resultant_eliminate_calls": get("poly.resultant_eliminate", "calls"),
            "poly.resultant_eliminate_s": get("poly.resultant_eliminate", "total_s"),
            "poly.count_bivariate_zeros_s": get("poly.count_bivariate_zeros", "total_s"),
            "lowdeg.lemma_quadratic_s": get("lowdeg.lemma_quadratic", "total_s"),
            "lowdeg.lemma_cubic_s": get("lowdeg.lemma_cubic", "total_s"),
            "lowdeg.lemma_quartic_s": get("lowdeg.lemma_quartic", "total_s"),
            "lowdeg.inputs_checked": c["inputs_checked"],
            "two2one.is_two_to_one_calls": calls_21,
            "two2one.is_two_to_one_s": get("two2one.is_two_to_one", "total_s"),
            "two2one.true_ratio": c["true_verdicts"] / calls_21 if calls_21 else 0.0,
            "two2one.make_family_s": get("two2one.make_family", "total_s"),
            "two2one.verify_resultant_identity_self_s": get(
                "two2one.verify_resultant_identity", "self_s"
            ),
            "two2one.qm_canonical_calls": len(canon_ix),
            "two2one.qm_canonical_s": get("two2one.qm_canonical", "total_s"),
            "two2one.qm_transforms_per_canonical": (
                canon_yields / len(canon_ix) if canon_ix else 0.0
            ),
            "two2one.qm_shape_orbit_calls": get("two2one.qm_shape_orbit", "calls"),
            "two2one.qm_shape_orbit_s": get("two2one.qm_shape_orbit", "total_s"),
            "search.candidates": c["candidates"],
            "search.scan_s": sum(get(n, "self_s") for n in SEARCH_SPANS),
            "search.finalize_s": sum(d for name, d in from_search if name.startswith("two2one.")),
            "search.raw_hits": raw_hits,
            "search.classes": c["classes"],
            "search.class_ratio": c["classes"] / raw_hits if raw_hits else 0.0,
            "search.compare_s": get("search.compare_with_table", "total_s"),
            "cli.main_self_s": get("cli.main", "self_s"),
        }
