import itertools
import json

import pytest

from gf2to1.field import make_field
from gf2to1.poly import SparsePoly
from gf2to1.search import (
    Hit,
    SearchReport,
    compare_with_table,
    report_from_json,
    report_to_csv,
    report_to_json,
    search_degree5,
    search_sparse,
    shape_predicate,
)
from gf2to1.two2one import is_two_to_one, qm_canonical, qm_shape_orbit

F8 = make_field(3)
F16 = make_field(4)


def brute_degree5(ctx):
    hits = set()
    for a3, a2, a1 in itertools.product(ctx.elements(), repeat=3):
        f = SparsePoly.make(ctx, [(5, 1), (3, a3), (2, a2), (1, a1)])
        if is_two_to_one(f):
            hits.add(f.terms)
    return hits


def brute_sparse(ctx, shape):
    """Literal loop oracle with no pruning, mirroring the shape template."""
    N = ctx.order - 1
    pred = shape_predicate(shape, ctx.order)
    hits = set()
    if shape == "binomial":
        cands = (
            ((k, 1), (l, a))
            for k in range(2, N)
            for l in range(1, k)
            for a in ctx.nonzero()
        )
    elif shape == "trinomial":
        cands = (
            ((k, 1), (l, b), (1, a))
            for k in range(3, N)
            for l in range(2, k)
            for b in ctx.nonzero()
            for a in ctx.nonzero()
        )
    else:
        cands = (
            ((k, 1), (l, 1), (d, 1), (1, 1))
            for k in range(4, N)
            for l in range(3, k)
            for d in range(2, l)
        )
    for terms in cands:
        if not pred(terms):
            continue
        if is_two_to_one(SparsePoly(ctx, terms)):
            hits.add(terms)
    return hits


def per_hit_hits(ctx, shape, dedupe, raw):
    """Report hits by the per-hit formula: canonicalize every raw hit, and size
    the shape orbit of each reported polynomial on its own."""
    pred = shape_predicate(shape, ctx.order)
    polys = [SparsePoly(ctx, t) for t in raw]
    if dedupe == "qm":
        polys = list({c.terms: c for c in map(qm_canonical, polys)}.values())
    polys.sort(key=lambda p: p.sort_key())
    return tuple(Hit(p, len(qm_shape_orbit(p, pred))) for p in polys)


class TestDegree5:
    def test_gf8_exact_structure(self):
        rep = search_degree5(F8)
        assert len(rep.hits) == 35
        assert rep.candidates_scanned == 8**3
        triples = set()
        for h in rep.hits:
            d = dict(h.poly.terms)
            triples.add((d.get(3, 0), d.get(2, 0), d.get(1, 0)))
        a3_family = {t for t in triples if t[1] == 0 and t[2] == 0}
        a2_family = {t for t in triples if t[0] == 0 and t[2] == 0}
        assert len(a3_family) == 7 and len(a2_family) == 7
        assert len(triples - a3_family - a2_family) == 21

    def test_matches_brute_force(self):
        rep = search_degree5(F8)
        assert {h.poly.terms for h in rep.hits} == brute_degree5(F8)

    def test_hits_reverify(self):
        rep = search_degree5(F16)
        assert rep.notes  # new data beyond the bundled table
        for h in rep.hits:
            assert is_two_to_one(h.poly)

    def test_hits_sorted(self):
        rep = search_degree5(F8)
        keys = [h.poly.sort_key() for h in rep.hits]
        assert keys == sorted(keys)

    def test_budget(self):
        with pytest.raises(ValueError, match="n=7"):
            search_degree5(make_field(8))

    @pytest.mark.parametrize("dedupe", ["none", "qm"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_orbit_sizes_match_per_hit_formula(self, n, dedupe):
        # at n = 2 the raw quintics are unreduced and lie outside their own orbit
        ctx = make_field(n)
        raw = [h.poly.terms for h in search_degree5(ctx).hits]
        assert search_degree5(ctx, dedupe=dedupe).hits == per_hit_hits(ctx, "degree5", dedupe, raw)

    def test_seven_element_families_are_single_classes(self):
        rep = search_degree5(F8, dedupe="qm")
        # 21 sporadic = 3 classes of 7, plus one class per free-coefficient family
        assert len(rep.hits) == 5


class TestSparseSearches:
    @pytest.mark.parametrize("shape", ["binomial", "trinomial", "quadrinomial"])
    @pytest.mark.parametrize("n", [3, 4])
    def test_completeness_against_literal_loops(self, shape, n):
        ctx = make_field(n)
        rep = search_sparse(ctx, shape, dedupe="none")
        assert {h.poly.terms for h in rep.hits} == brute_sparse(ctx, shape)
        pred = shape_predicate(shape, ctx.order)
        for h in rep.hits:
            assert h.orbit_size == len(qm_shape_orbit(h.poly, pred))

    @pytest.mark.parametrize("shape", ["binomial", "trinomial", "quadrinomial"])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_dedupe_orbits_cover_raw_hits(self, shape, n):
        ctx = make_field(n)
        raw = {h.poly.terms for h in search_sparse(ctx, shape, dedupe="none").hits}
        deduped = search_sparse(ctx, shape, dedupe="qm").hits
        pred = shape_predicate(shape, ctx.order)
        union = set()
        for h in deduped:
            orbit = qm_shape_orbit(h.poly, pred)
            assert h.orbit_size == len(orbit)
            assert not (union & orbit)  # classes are disjoint
            union |= orbit
        assert union == raw

    def test_no_two_qm_hits_equivalent(self):
        from gf2to1.two2one import qm_canonical

        rep = search_sparse(make_field(4), "trinomial", dedupe="qm")
        canons = [qm_canonical(h.poly).terms for h in rep.hits]
        assert len(canons) == len(set(canons))
        assert [h.poly.terms for h in rep.hits] == canons  # hits are canonicals

    def test_hits_reverify_in_second_pass(self):
        for shape in ("binomial", "trinomial"):
            rep = search_sparse(make_field(5), shape, dedupe="qm")
            for h in rep.hits:
                assert is_two_to_one(h.poly)

    def test_budget_needs_long_flag(self):
        with pytest.raises(ValueError, match="long-run"):
            search_sparse(make_field(7), "trinomial")
        with pytest.raises(ValueError, match="n=7"):
            search_sparse(make_field(8), "trinomial", long_run=True)

    def test_bad_arguments(self):
        with pytest.raises(ValueError, match="shape"):
            search_sparse(F8, "pentanomial")
        with pytest.raises(ValueError, match="dedupe"):
            search_sparse(F8, "binomial", dedupe="frobenius")

    @pytest.mark.parametrize("workers", [0, -1])
    def test_worker_count_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
            search_sparse(F8, "binomial", workers=workers)
        with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
            search_degree5(F8, workers=workers)


class TestDeterminism:
    def test_worker_count_does_not_change_reports(self):
        a = search_degree5(F8, workers=1)
        b = search_degree5(F8, workers=2)
        assert report_to_json(a, include_timing=False) == report_to_json(b, include_timing=False)

    def test_sparse_worker_invariance(self):
        a = search_sparse(make_field(4), "trinomial", workers=1)
        b = search_sparse(make_field(4), "trinomial", workers=3)
        assert report_to_json(a, include_timing=False) == report_to_json(b, include_timing=False)
        assert a.candidates_scanned == b.candidates_scanned


class TestTableComparison:
    def test_table1_alignment_records_gamma(self):
        d = compare_with_table(search_degree5(F8), "I")
        assert d.ok and d.aligned == "gamma=0x2"

    def test_table1_alignment_under_other_modulus(self):
        # the other cubic modulus relabels elements; relabeling fallback must find it
        ctx = make_field(3, 0b1101)
        d = compare_with_table(search_degree5(ctx), "I")
        assert d.ok and d.aligned is not None

    def test_injected_fault_shows_in_diff(self):
        rep = search_degree5(F8)
        broken = SearchReport(
            rep.ctx,
            rep.shape,
            rep.dedupe,
            rep.hits[1:],
            rep.candidates_scanned,
            rep.elapsed_ms,
        )
        d = compare_with_table(broken, "I")
        assert not d.ok and len(d.missing) == 1 and not d.extra
        assert str(rep.hits[0].poly) in d.missing[0]

    def test_shape_mismatch_rejected(self):
        rep = search_degree5(F8)
        with pytest.raises(ValueError, match="table II"):
            compare_with_table(rep, "II")

    def test_unknown_table(self):
        with pytest.raises(ValueError, match="unknown table"):
            compare_with_table(search_degree5(F8), "IV")

    def test_table2_empty_rows(self):
        for n in (3, 5):
            rep = search_sparse(make_field(n), "trinomial", dedupe="qm")
            assert not rep.hits
            assert compare_with_table(rep, "II").ok

    def test_table2_n4(self):
        rep = search_sparse(F16, "trinomial", dedupe="qm")
        assert compare_with_table(rep, "II").ok
        patterns = {h.poly.exponents() for h in rep.hits}
        assert len(rep.hits) == 2 and len(patterns) == 1

    def test_table3_membership_small_n(self):
        rep = search_sparse(F8, "quadrinomial", dedupe="qm")
        assert compare_with_table(rep, "III").ok


class TestSerialization:
    def test_json_round_trip(self):
        rep = search_sparse(F16, "binomial", dedupe="qm")
        back = report_from_json(report_to_json(rep))
        assert back.ctx == rep.ctx
        assert back.hits == rep.hits
        assert back.candidates_scanned == rep.candidates_scanned

    def test_csv(self):
        rep = search_sparse(F16, "binomial", dedupe="qm")
        lines = report_to_csv(rep).strip().split("\n")
        assert lines[0] == "poly,orbit_size"
        assert len(lines) == 1 + len(rep.hits)

    def test_not_a_report(self):
        with pytest.raises(ValueError):
            report_from_json(json.dumps({"kind": "something"}))


class TestShapePredicates:
    def test_degree5(self):
        ok = shape_predicate("degree5", 8)
        assert ok(((5, 1), (3, 2), (2, 1), (1, 7)))
        assert ok(((5, 1),))
        assert not ok(((5, 2), (1, 1)))
        assert not ok(((6, 1), (1, 1)))

    def test_binomial_excludes_linearized_class(self):
        ok = shape_predicate("binomial", 16)
        assert ok(((14, 1), (1, 3)))
        assert not ok(((2, 1), (1, 1)))  # literally linearized
        assert not ok(((14, 1), (7, 3)))  # 14/7 = 2: equivalent to x^2 + cx
        assert not ok(((15, 1), (1, 1)))  # exponent 2^n - 1 excluded

    def test_trinomial(self):
        ok = shape_predicate("trinomial", 16)
        assert ok(((12, 1), (11, 1), (1, 2)))
        assert not ok(((8, 1), (2, 1), (1, 2)))  # linearized exponents
        assert not ok(((12, 2), (11, 1), (1, 2)))  # not monic
        assert not ok(((12, 1), (11, 1), (2, 2)))  # lowest exponent must be 1

    def test_quadrinomial(self):
        ok = shape_predicate("quadrinomial", 16)
        assert ok(((12, 1), (9, 1), (2, 1), (1, 1)))
        assert not ok(((12, 1), (9, 1), (2, 2), (1, 1)))  # coefficients all 1
