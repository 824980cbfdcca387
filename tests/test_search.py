import hashlib
import itertools
import json
import math
import os
import random
from collections import Counter
from importlib import resources
from operator import xor

import pytest

from gf2to1 import search
from gf2to1.field import FieldCtx, make_field
from gf2to1.poly import SparsePoly
from gf2to1.tabledata import table1, table2, table3
from gf2to1.search import (
    SHAPES,
    Hit,
    SearchReport,
    compare_with_table,
    report_from_json,
    report_to_csv,
    report_to_json,
    search_degree5,
    search_sparse,
)
from gf2to1.two2one import fibers_two_to_one, is_two_to_one, qm_canonical, qm_shape_orbit, qm_transforms

F8 = make_field(3)
F16 = make_field(4)


def shape_predicate(shape, order):
    """Membership test for a term tuple in a search template, written from the
    template's definition: the oracle for the scans and their orbit sizes."""
    N = order - 1
    pow2 = {1 << i for i in range(N.bit_length())}

    def ok(terms):
        exps = [e for e, _ in terms]
        if terms[0][1] != 1 or exps[0] > N - 1 or exps[-1] < 1:
            return False
        if shape == "degree5":
            return exps[0] == 5 and all(e in (3, 2, 1) for e in exps[1:])
        if shape == "binomial":
            # no unit d sends both exponents to powers of two: x^k + c*x^l is
            # not equivalent to a linearized binomial
            return len(terms) == 2 and not any(
                math.gcd(d, N) == 1 and all(e * d % N in pow2 for e in exps) for d in range(1, N)
            )
        if shape == "trinomial":
            return len(terms) == 3 and exps[2] == 1 and exps[1] > 1 and not set(exps[:2]) <= pow2
        return len(terms) == 4 and exps[3] == 1 and all(c == 1 for _, c in terms)

    return ok


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


def trinomial_orbits(N):
    """(k, l, units) for the least pair (k, l) of every unit-relabelling
    orbit, as the trinomial shards list them, over every leading exponent k."""
    return [(k, l, units) for k in range(3, N) for l, units in search._trinomial_leaders(N, k)]


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
        with pytest.raises(ValueError, match="long-run"):
            search_degree5(make_field(7))
        with pytest.raises(ValueError, match="capped at n=7"):
            search_sparse(make_field(8), "degree5", long_run=True)

    @pytest.mark.parametrize(
        "shape,dedupe",
        [pytest.param("degree5", d, id=d) for d in ("none", "qm")]
        + [(s, d) for s in ("binomial", "trinomial", "quadrinomial") for d in ("none", "qm")],
    )
    def test_n_below_3_rejected(self, shape, dedupe):
        # on GF(4) x^5 = x^2, so the degree-5 template is not a quintic there;
        # the sparse templates' items, SHAPES[shape](3), hold no exponents
        with pytest.raises(ValueError, match="needs n >= 3"):
            search_sparse(make_field(2), shape, dedupe=dedupe)

    @pytest.mark.parametrize("dedupe", ["none", "qm"])
    @pytest.mark.parametrize("n", [3])
    def test_orbit_sizes_match_per_hit_formula(self, n, dedupe):
        ctx = make_field(n)
        raw = [h.poly.terms for h in search_degree5(ctx).hits]
        assert search_degree5(ctx, dedupe=dedupe).hits == per_hit_hits(ctx, "degree5", dedupe, raw)

    def test_one_driver_for_both_entry_points(self):
        assert report_to_json(search_sparse(F8, "degree5", "none"), include_timing=False) == (
            report_to_json(search_degree5(F8), include_timing=False)
        )

    @pytest.mark.long
    def test_no_hits_at_n7(self):
        rep = search_sparse(make_field(7), "degree5", "none", long_run=True, workers=2)
        assert not rep.hits and rep.candidates_scanned == 2**21

    def test_seven_element_families_are_single_classes(self):
        rep = search_degree5(F8, dedupe="qm")
        # 21 sporadic = 3 classes of 7, plus one class per free-coefficient family
        assert len(rep.hits) == 5


class TestSparseSearches:
    @pytest.mark.parametrize(
        "n,shape",
        [
            *itertools.product([3, 4], ["binomial", "quadrinomial", "trinomial"]),
            (5, "binomial"),
            (5, "quadrinomial"),
            pytest.param(5, "trinomial", marks=pytest.mark.long),  # the oracle takes ~12 s
        ],
    )
    def test_completeness_against_literal_loops(self, n, shape):
        ctx = make_field(n)
        rep = search_sparse(ctx, shape, dedupe="none", workers=2)
        assert {h.poly.terms for h in rep.hits} == brute_sparse(ctx, shape)
        pred = shape_predicate(shape, ctx.order)
        sizes = {}  # a shape orbit is one set seen from each of its members: one walk per orbit
        for h in rep.hits:
            if h.poly.terms not in sizes:
                orbit = qm_shape_orbit(h.poly, pred)
                sizes.update(dict.fromkeys(orbit, len(orbit)))
            assert h.orbit_size == sizes[h.poly.terms]

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

    @pytest.mark.parametrize("shape", ["binomial", "trinomial"])
    def test_weight_is_the_rescaling_orbit_size(self, shape, monkeypatch):
        # every candidate a hit, so the shard lists each representative it scans;
        # N = 15 is composite, so some orbits are short
        monkeypatch.setattr(search, "fibers_two_to_one", lambda *args: True)
        monkeypatch.setattr(search, "_fiber_sieve", lambda ctx, tabs, powers: lambda terms, alphas, key=None: alphas)
        ctx = F16
        N = ctx.order - 1
        hits, scanned, _ = search._shard((4, ctx.modulus, shape, "qm", SHAPES[shape](N)))
        assert len(hits) == scanned
        per_exponents = Counter()
        for terms, weight in hits:
            k = terms[0][0]
            orbit = {  # f(b*x) / b^k, by field multiplication
                tuple((e, ctx.div(ctx.mul(c, ctx.pow(b, e)), ctx.pow(b, k))) for e, c in terms)
                for b in ctx.nonzero()
            }
            assert weight == len(orbit), terms
            per_exponents[tuple(e for e, _ in terms)] += weight
        # the weights of one (k, l) add up to its literal candidate count
        assert set(per_exponents.values()) == {N if shape == "binomial" else N * N}
        assert min(w for _, w in hits) < N

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
    @pytest.mark.parametrize("dedupe", ["none", "qm"])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_worker_count_does_not_change_reports(self, shape, dedupe):
        ctx = make_field(3 if shape == "degree5" else 4)
        reps = [search_sparse(ctx, shape, dedupe, workers=w) for w in (1, 2, 3)]
        docs = {report_to_json(r, include_timing=False) for r in reps}
        assert len(docs) == 1
        assert len({r.candidates_scanned for r in reps}) == 1

    @pytest.mark.parametrize("n,shape", [(n, s) for n in (3, 4, 5) for s in SHAPES])
    def test_shards_partition_the_exponent_range(self, n, shape, monkeypatch):
        # trinomial shards partition the k that hold an orbit's least pair,
        # whose members partition the exponent pairs (TestUnitRelabelling)
        ctx = make_field(n)
        N = ctx.order - 1
        scanned = set(SHAPES[shape](N))
        shards = []

        def record(fn, shard_args, pool=None):  # keeps the shard items, scans nothing
            shards.append([set(a[-1]) for a in shard_args])
            return [([], 0, 0)] * len(shard_args)

        monkeypatch.setattr(search, "_run_shards", record)
        for workers in range(1, N + 2):
            search_sparse(ctx, shape, "none", workers=workers)
            parts = shards.pop()
            assert len(parts) == min(workers, len(scanned))
            assert all(parts)
            assert sum(map(len, parts)) == len(scanned)  # disjoint
            assert set().union(*parts) == scanned

    def test_pool_sized_to_the_shards(self, forks):
        sizes = []

        def forked():  # the workers forked since the last call
            sizes.append(len(forks))
            forks.clear()

        a = search_sparse(F8, "binomial", workers=64)
        forked()
        b = search_degree5(F8, workers=64)
        forked()
        c = search_sparse(F8, "trinomial", workers=64)
        forked()
        with search.worker_pool(64, "trinomial", 3):
            forked()
        # exponents 3..6, a3 in GF(8) and the trinomial k = 3, 4, 5 that hold
        # an orbit's least pair, the first shard in the calling process
        assert len(SHAPES["trinomial"](7)) == 3
        assert sizes == [3, 7, 2, 2]
        assert report_to_json(c, include_timing=False) == report_to_json(
            search_sparse(F8, "trinomial"), include_timing=False
        )
        assert report_to_json(a, include_timing=False) == report_to_json(
            search_sparse(F8, "binomial"), include_timing=False
        )
        assert report_to_json(b, include_timing=False) == report_to_json(
            search_degree5(F8), include_timing=False
        )

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("n", [3, 4])
    def test_every_shard_scans_a_candidate(self, n, shape):
        ctx = make_field(n)
        outer = SHAPES[shape](ctx.order - 1)
        for workers in range(1, len(outer) + 1):
            for stride in search._strides(outer, workers):
                _, scanned, _ = search._shard((n, ctx.modulus, shape, "qm", stride))
                assert scanned > 0, (workers, stride)


def open_fds(_):
    return len(os.listdir("/proc/self/fd"))


def pid_of(_):
    return os.getpid()


PID = os.getpid()


def parent_fails_shard(args):
    """A shard that fails in the calling process and, in a worker, returns
    a result no search could give."""
    if os.getpid() == PID:
        raise ZeroDivisionError
    return [(((9, 1), (1, 1)), 1)], 999, 0


class TestForkPool:
    def test_results_in_order(self, forks):
        # more items than workers: the extras run in the calling process,
        # always the first, and each worker takes one of the last items
        with search._Pool(2) as pool:
            assert pool.run(abs, [-i for i in range(5)]) == [0, 1, 2, 3, 4]
            assert pool.run(pid_of, [None] * 5) == [PID, PID, PID, *forks]
            assert pool.run(pid_of, [None] * 2) == [PID, forks[0]]

    def test_task_exception_reraised(self, forks):
        # a failed run kills and reaps the workers; later runs go in process
        with search._Pool(1) as pool:
            with pytest.raises(ValueError, match="math domain error"):
                pool.run(math.sqrt, [4, -1])
            with pytest.raises(ChildProcessError):
                os.waitpid(forks[0], os.WNOHANG)
            assert pool.run(math.sqrt, [4, 9]) == [2.0, 3.0]
            assert pool.run(pid_of, [None] * 2) == [PID, PID]

    def test_unread_result_stays_with_its_search(self, monkeypatch):
        # the first search fails in the calling process and never reads its
        # worker's result; the next search on the pool must not take it
        plain = report_to_json(search_sparse(F16, "binomial"), include_timing=False)
        with search.worker_pool(2, "binomial", 4) as pool:
            with monkeypatch.context() as m:
                m.setattr(search, "_shard", parent_fails_shard)
                with pytest.raises(ZeroDivisionError):
                    search_sparse(F16, "binomial", workers=2, pool=pool)
            rep = search_sparse(F16, "binomial", workers=2, pool=pool)
        assert report_to_json(rep, include_timing=False) == plain

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_failed_fork_leaves_nothing_open(self, monkeypatch, forks):
        # the second fork fails: the first worker is reaped and every pipe closed
        recording_fork = os.fork

        def fork():
            if forks:
                raise OSError("no more processes")
            return recording_fork()

        before = open_fds(None)
        monkeypatch.setattr(os, "fork", fork)
        with pytest.raises(OSError, match="no more processes"):
            search._Pool(2)
        assert open_fds(None) == before
        with pytest.raises(ChildProcessError):
            os.waitpid(forks[0], os.WNOHANG)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_workers_hold_only_their_own_pipes(self):
        # a worker forked later must not keep an earlier worker's pipes open
        with search._Pool(3) as pool:
            counts = pool.run(open_fds, [None] * 4)[1:]
        assert len(set(counts)) == 1, counts


def shard_tables(ctx):
    """The table set a search shard builds: the multiply table of every
    element, and x^e at x = g^i for every exponent e below 2^n - 1."""
    N = ctx.order - 1
    EXP = ctx.log_tables()[0]
    return [ctx.mul_table(c) for c in ctx.elements()], [[EXP[i * e % N] for i in range(N)] for e in range(N)]


def literal_sieve(ctx, terms):
    """The alphas for which h + alpha*x, h the sum of c*x^e over terms, has a
    fiber of exactly two points through each of 0, 1 and the generator:
    fibers counted literally with ctx.mul and ctx.pow."""
    h = {y: 0 for y in ctx.elements()}
    for y in h:
        for e, c in terms:
            h[y] ^= ctx.mul(c, ctx.pow(y, e))
    points = (0, 1, ctx.generator)
    return {
        alpha
        for alpha in ctx.elements()
        if all(
            sum(h[y] ^ ctx.mul(alpha, y) == h[x0] ^ ctx.mul(alpha, x0) for y in ctx.elements()) == 2
            for x0 in points
        )
    }


# (shape, dedupe, n) of the searches checked against the kernel-only scan
SIEVE_CASES = [
    *(("degree5", dedupe, n) for dedupe in ("none", "qm") for n in (3, 4)),
    *(("trinomial", "qm", n) for n in (3, 4, 5, 6)),
    *(("trinomial", "none", n) for n in (3, 4, 5)),
]


def whole_domain_quadrinomial_shard(args):
    """The orbit-off oracle of search._shard for quadrinomials: x^k + x^l + x
    as a value list over x = g^i, and x^d as the coefficient stream of the
    whole-domain kernel, one fibers_two_to_one call per candidate."""
    n, modulus, shape, dedupe, items = args
    assert shape == "quadrinomial"
    ctx = FieldCtx(n, modulus)
    EXP = ctx.log_tables()[0]
    tabs, powers = shard_tables(ctx)
    hits, scanned = [], 0
    for k in items:
        for l in range(3, k):
            KL = [a ^ b ^ c for a, b, c in zip(powers[k], powers[l], powers[1])]
            for d in range(2, l):
                scanned += 1
                if fibers_two_to_one(ctx.order, 0, KL, 1, tabs[EXP[d]]):
                    hits.append((((k, 1), (l, 1), (d, 1), (1, 1)), 1))
    return hits, scanned, 0


class TestOrbitScan:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize(
        "n,dedupe",
        [(n, d) for n in (3, 4, 5, 6) for d in ("qm", "none")] + [pytest.param(7, "qm", marks=pytest.mark.long)],
    )
    def test_reports_match_the_orbit_off_scan(self, n, dedupe, workers, monkeypatch):
        ctx = make_field(n)
        orbits = search_sparse(ctx, "quadrinomial", dedupe, long_run=True, workers=workers)
        monkeypatch.setattr(search, "_shard", whole_domain_quadrinomial_shard)
        plain = search_sparse(ctx, "quadrinomial", dedupe, long_run=True, workers=workers)
        assert report_to_json(orbits, include_timing=False) == report_to_json(plain, include_timing=False)
        assert orbits.candidates_scanned == plain.candidates_scanned
        assert orbits.sieve_rejected == 0


class TestFiberSieve:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_matches_literal_fiber_count(self, n):
        # at n = 8 the field fills the 256-entry translate tables exactly
        ctx = make_field(n)
        rng = random.Random(n)
        N = ctx.order - 1
        cases = [[(2, 1)], [(5, 1), (3, 1)]]  # x^2 + alpha*x is 2-to-1 for every alpha != 0
        cases += [
            [(rng.randrange(2, N + 1), rng.randrange(1, ctx.order)) for _ in range(rng.randrange(1, 4))]
            for _ in range(12 if n <= 6 else 3)
        ]
        sieve = search._fiber_sieve(ctx, *shard_tables(ctx))
        survived = 0
        for terms in cases:
            got = sieve(terms, list(ctx.elements()))
            assert len(got) == len(set(got))
            assert set(got) == literal_sieve(ctx, terms), terms
            survived += bool(got)
        assert 0 < survived < len(cases)

    def test_elements_must_fit_in_a_byte(self):
        with pytest.raises(ValueError, match="n <= 8, got n=9"):
            search._fiber_sieve(make_field(9), *shard_tables(make_field(9)))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("shape,dedupe,n", SIEVE_CASES)
    def test_reports_match_the_kernel_only_scan(self, shape, dedupe, n, workers, monkeypatch):
        ctx = make_field(n)
        sieved = search_sparse(ctx, shape, dedupe, workers=workers)
        monkeypatch.setattr(search, "_fiber_sieve", lambda ctx, tabs, powers: lambda terms, alphas, key=None: alphas)
        plain = search_sparse(ctx, shape, dedupe, workers=workers)
        assert report_to_json(sieved, include_timing=False) == report_to_json(plain, include_timing=False)
        assert sieved.candidates_scanned == plain.candidates_scanned
        assert plain.sieve_rejected == 0

    @pytest.mark.parametrize("shape", SHAPES)
    def test_rejection_count(self, shape):
        ctx = make_field(4)
        reps = [search_sparse(ctx, shape, "qm", workers=w) for w in (1, 2)]
        assert reps[0].sieve_rejected == reps[1].sieve_rejected <= reps[0].candidates_scanned
        if shape in ("degree5", "trinomial"):
            assert reps[0].sieve_rejected > 0
        else:  # binomials and quadrinomials run the kernel on every candidate
            assert reps[0].sieve_rejected == 0

    @pytest.mark.parametrize("n", [5, 6])
    def test_one_kernel_call_per_quadrinomial(self, n, monkeypatch):
        # the orbit kernel decides every candidate; the whole-domain kernel none
        ctx = make_field(n)
        scanned = search_sparse(ctx, "quadrinomial").candidates_scanned
        assert kernel_calls(ctx, monkeypatch, "quadrinomial", "orbits_two_to_one") == scanned
        assert kernel_calls(ctx, monkeypatch, "quadrinomial") == 0

    def test_rejection_count_is_run_statistics(self):
        rep = search_sparse(F16, "trinomial", "qm")
        doc = json.loads(report_to_json(rep))
        assert doc["sieve_rejected"] == rep.sieve_rejected
        assert report_from_json(report_to_json(rep)).sieve_rejected == rep.sieve_rejected
        assert "sieve_rejected" not in report_to_json(rep, include_timing=False)
        assert report_from_json(report_to_json(rep, include_timing=False)).sieve_rejected == 0


def zero_quotients(ctx):
    """e -> y^e over y = g^0 .. g^(N-1) by ctx.pow: the x0 = 0 quotient of
    x^(e+1) is y^e, so these are the strings the sieve's x0 = 0 stage reads."""
    N = ctx.order - 1
    ys = [ctx.pow(ctx.generator, i) for i in range(N)]
    return [[ctx.pow(y, e) for y in ys] for e in range(N)]


def closure_cell(fn, name):
    return fn.__closure__[fn.__code__.co_freevars.index(name)].cell_contents


class TestZeroClass:
    """The fiber sieve decides its x0 = 0 stage once per class key of the
    trinomial scan; the oracles count the quotient strings afresh."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_pairs_of_one_class_share_their_quotient_counts(self, n):
        # D = q_k + beta*q_l is a function of the pair (q_k, q_l) at each y, so
        # equal multisets of the pairs, each packed as q_k*256 + q_l and
        # compared sorted, give equal counts of D for every beta
        ctx = make_field(n)
        N = ctx.order - 1
        q = zero_quotients(ctx)
        high = [[v << 8 for v in s] for s in q]
        pairs = [(k, l) for k, l, _ in trinomial_orbits(N)]
        joint = {}
        no_unit = 0
        for k, l in pairs:
            key = search._zero_class(N, k, l)
            values = sorted(map(xor, high[k - 1], q[l - 1]))
            assert joint.setdefault(key, values) == values, (k, l, key)
            if math.gcd(k - 1, N) != 1 and math.gcd(l - 1, N) != 1:
                assert key == (k - 1, l - 1)  # t = 1
                no_unit += 1
        assert len(joint) < len(pairs) or n == 3  # N = 7 has three pairs, each its own class
        assert bool(no_unit) == (n in (4, 6, 8))  # N = 15, 63 and 255 are composite

    @pytest.mark.parametrize(
        "n,dedupe",
        [(n, "qm") for n in (3, 4, 5, 6, 7)]
        + [(n, "none") for n in (3, 4, 5)]
        + [pytest.param(n, d, marks=pytest.mark.long) for n, d in ((6, "none"), (8, "qm"))],
    )
    def test_stored_survivors_equal_a_fresh_pass(self, n, dedupe, monkeypatch):
        ctx = make_field(n)
        N = ctx.order - 1
        sieves, calls = [], []
        make_sieve = search._fiber_sieve

        def recording(ctx, tabs, powers):
            sieve = make_sieve(ctx, tabs, powers)
            sieves.append(sieve)

            def record(terms, alphas, key=None):
                calls.append((terms, alphas, key))
                return sieve(terms, alphas, key)

            return record

        monkeypatch.setattr(search, "_fiber_sieve", recording)
        search._shard((n, ctx.modulus, "trinomial", dedupe, SHAPES["trinomial"](N)))
        (sieve,) = sieves
        stored = closure_cell(sieve, "zero")
        assert all(key is not None for *_, key in calls)  # every trinomial call passes its key
        assert stored.keys() == {key for *_, key in calls}
        q = zero_quotients(ctx)
        for ((k, _), (l, beta)), alphas, key in calls:
            T = ctx.mul_table(beta)
            counts = Counter(a ^ T[b] for a, b in zip(q[k - 1], q[l - 1]))
            assert stored[key] == [a for a in alphas if counts[a] == 1], (k, l, beta, key)


def trinomial_exponent_pairs(N):
    """The (k, l) of the trinomial template, linearized pairs left out."""
    pow2 = {1 << i for i in range(N.bit_length())}
    return [(k, l) for k in range(3, N) for l in range(2, k) if not {k, l} <= pow2]


def squared_representatives(ctx, k, l, dedupe):
    """(B, A) -> the scanned logs of the representative of (beta^2, alpha^2),
    for every scanned (beta, alpha) = (g^B, g^A) of the trinomial (k, l):
    found by field multiplication over the literal rescaling orbit
    f(b*x) / b^k, which dedupe="none" leaves out."""
    N = ctx.order - 1
    EXP = ctx.log_tables()[0]
    u, w, _ = search._rescaling_reps(N, k, l, dedupe)
    scanned = {(EXP[B], EXP[A]): (B, A) for B in range(u) for A in range(w)}
    rep_of = {}  # every (beta, alpha) -> the scanned logs of its orbit
    for b in ctx.nonzero() if dedupe == "qm" else (1,):
        sb = ctx.div(ctx.pow(b, l), ctx.pow(b, k))
        sa = ctx.div(b, ctx.pow(b, k))
        for (beta, alpha), rep in scanned.items():
            rep_of[ctx.mul(beta, sb), ctx.mul(alpha, sa)] = rep
    assert len(rep_of) == N * N  # the orbits of the scanned pairs cover every pair
    return {rep: rep_of[ctx.mul(beta, beta), ctx.mul(alpha, alpha)] for (beta, alpha), rep in scanned.items()}


class TestFrobeniusStep:
    @pytest.mark.parametrize("dedupe", ["none", "qm"])
    @pytest.mark.parametrize("n", [4, 5, pytest.param(6, marks=pytest.mark.long)])
    def test_sigma_is_squaring_on_representatives(self, n, dedupe):
        ctx = make_field(n)
        N = ctx.order - 1
        expected = None
        for k, l in trinomial_exponent_pairs(N):
            if dedupe == "qm" or expected is None:  # without rescaling, one map serves every (k, l)
                expected = squared_representatives(ctx, k, l, dedupe)
            rescale = search._rescaling_reps(N, k, l, dedupe)[2]
            image = {(B, A): rescale(2 * B, 2 * A) for B, A in expected}
            assert image == expected, (k, l)
            assert set(image.values()) == image.keys()  # a permutation of the representatives
            seen = set()
            for rep in image:  # sigma^n is the identity: every cycle length divides n
                if rep in seen:
                    continue
                cycle = [rep]
                while (m := image[cycle[-1]]) != rep:
                    cycle.append(m)
                seen.update(cycle)
                assert n % len(cycle) == 0, (k, l, cycle)

    @pytest.mark.parametrize("n,calls", [(4, 2), (5, 3), (6, 49)])
    def test_one_kernel_call_per_orbit_of_survivors(self, n, calls, monkeypatch):
        assert kernel_calls(make_field(n), monkeypatch, "trinomial") == calls

    @pytest.mark.parametrize("n,counts", [(5, (12_400, 11_764)), (6, (155_484, 148_779))])
    def test_scan_counts_pinned(self, n, counts):
        rep = search_sparse(make_field(n), "trinomial")
        assert (rep.candidates_scanned, rep.sieve_rejected) == counts


def kernel_calls(ctx, monkeypatch, shape, name="fibers_two_to_one"):
    """The calls a qm search of shape at one worker makes to the kernel that
    search imports as name."""
    spy = Counter()
    kernel = getattr(search, name)

    def counting(*args):
        spy["calls"] += 1
        return kernel(*args)

    monkeypatch.setattr(search, name, counting)
    search_sparse(ctx, shape)
    return spy["calls"]


def pairs_as_own_orbits(N, k):
    """A least-pair lister under which every exponent pair is its own orbit."""
    return ((l, (1,)) for k2, l in trinomial_exponent_pairs(N) if k2 == k)


def literal_orbit(N, pairs, k, l):
    """The template pairs among the unit multiples t*{k, l, 1} that hold 1,
    found by trying every unit t mod N."""
    out = set()
    for t in range(1, N):
        if math.gcd(t, N) == 1:
            image = sorted((k * t % N, l * t % N, t), reverse=True)
            if image[2] == 1 and tuple(image[:2]) in pairs:
                out.add(tuple(image[:2]))
    return out


class TestUnitRelabelling:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_members_partition_the_exponent_pairs(self, n):
        N = 2**n - 1
        orbits = trinomial_orbits(N)
        assert [(k, l) for k, l, _ in orbits] == sorted((k, l) for k, l, _ in orbits)  # template order
        members = {(k, l): [search._relabel(N, k, l, e, "none")[:2] for e in units] for k, l, units in orbits}
        flat = [m for ms in members.values() for m in ms]
        assert len(flat) == len(set(flat))
        assert sorted(flat) == trinomial_exponent_pairs(N)
        pairs = set(flat)
        for k, l, units in orbits:
            assert units[0] == 1 and all(e in (k, l) and math.gcd(e, N) == 1 for e in units[1:])
            assert min(members[k, l]) == (k, l)
            if n <= 7:  # one relabelling orbit, and its least pair
                assert set(members[k, l]) == literal_orbit(N, pairs, k, l), (k, l)
        # the shard items are the k that hold a least pair; a prime N leaves
        # the row k = N - 1 without one, and a stride that held it alone
        # would scan nothing
        rows = SHAPES["trinomial"](N)
        assert rows == sorted({k for k, _, _ in orbits}) and (N - 1 not in rows) == (n in (3, 5, 7))

    @pytest.mark.parametrize("dedupe", ["none", "qm"])
    @pytest.mark.parametrize("n", [4, 5, pytest.param(6, marks=pytest.mark.long)])
    def test_image_is_the_literal_substitution(self, n, dedupe):
        # x^k + g^B*x^l + g^A*x at x -> x^(1/e), divided by its leading
        # coefficient, then reduced over the literal rescaling orbit
        ctx = make_field(n)
        N = ctx.order - 1
        EXP = ctx.log_tables()[0]
        reps = {}  # (k', l') -> every (beta, alpha) -> the scanned logs of its orbit

        def rep_of(k, l):
            key = (k, l) if dedupe == "qm" else None  # without rescaling one table serves every (k, l)
            if key not in reps:
                u, w, _ = search._rescaling_reps(N, k, l, dedupe)
                table = {}
                for b in ctx.nonzero() if dedupe == "qm" else (1,):
                    sb = ctx.div(ctx.pow(b, l), ctx.pow(b, k))
                    sa = ctx.div(b, ctx.pow(b, k))
                    for B in range(u):
                        for A in range(w):
                            table[ctx.mul(EXP[B], sb), ctx.mul(EXP[A], sa)] = (B, A)
                assert len(table) == N * N
                reps[key] = table
            return reps[key]

        for k, l, units in trinomial_orbits(N):
            u, w, _ = search._rescaling_reps(N, k, l, dedupe)
            for e in units:
                k2, l2, image = search._relabel(N, k, l, e, dedupe)
                u2, w2, _ = search._rescaling_reps(N, k2, l2, dedupe)
                assert u2 * w2 == u * w  # the shard counts u*w candidates per member
                v = pow(e, -1, N)
                assert ctx.pow(ctx.pow(ctx.generator, e), v) == ctx.generator  # x^(1/e)
                xk, xl, x1 = k * v % N, l * v % N, v  # where x^k, x^l and x land
                assert sorted((xk, xl, x1)) == [1, l2, k2]
                table = rep_of(k2, l2)
                for B in range(u):
                    for A in range(w):
                        coeffs = {xk: 1, xl: EXP[B], x1: EXP[A]}
                        lead = coeffs[k2]
                        want = table[ctx.div(coeffs[l2], lead), ctx.div(coeffs[1], lead)]
                        assert image(B, A) == want, (k, l, e, B, A)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize(
        "n,dedupe",
        [(n, d) for n in (3, 4, 5) for d in ("qm", "none")]
        + [(6, "qm"), pytest.param(6, "none", marks=pytest.mark.long)],
    )
    def test_reports_match_the_relabel_off_scan(self, n, dedupe, workers, monkeypatch):
        ctx = make_field(n)
        relabelled = search_sparse(ctx, "trinomial", dedupe, workers=workers)
        monkeypatch.setattr(search, "_trinomial_leaders", pairs_as_own_orbits)
        plain = search_sparse(ctx, "trinomial", dedupe, workers=workers)
        assert report_to_json(relabelled, include_timing=False) == report_to_json(plain, include_timing=False)
        assert relabelled.candidates_scanned == plain.candidates_scanned
        if dedupe == "qm" and n in RELABEL_OFF_REJECTED:
            assert plain.sieve_rejected == RELABEL_OFF_REJECTED[n]

    @pytest.mark.parametrize("n,calls", [(4, 3), (5, 8), (6, 87)])
    def test_relabel_off_kernel_calls_pinned(self, n, calls, monkeypatch):
        monkeypatch.setattr(search, "_trinomial_leaders", pairs_as_own_orbits)
        assert kernel_calls(make_field(n), monkeypatch, "trinomial") == calls


class TestUnitWalk:
    """_finalize walks only the unit relabellings of each class when every raw
    hit has coefficients 1; the full qm_transforms walk is its oracle."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize(
        "shape,n,dedupe",
        [("quadrinomial", n, d) for n in (3, 4, 5, 6) for d in ("qm", "none")]
        + [("binomial", n, "qm") for n in (5, 6)],
    )
    def test_reports_match_the_full_walk(self, shape, n, dedupe, workers, monkeypatch):
        ctx = make_field(n)
        unit = search_sparse(ctx, shape, dedupe, workers=workers)
        assert unit.hits
        monkeypatch.setattr(search, "qm_unit_transforms", qm_transforms)
        full = search_sparse(ctx, shape, dedupe, workers=workers)
        assert report_to_json(unit, include_timing=False) == report_to_json(full, include_timing=False)
        assert (unit.candidates_scanned, unit.sieve_rejected) == (full.candidates_scanned, full.sieve_rejected)

    @pytest.mark.parametrize(
        "shape,n,dedupe,taken",
        [("quadrinomial", 5, "none", "qm_unit_transforms"), ("binomial", 5, "qm", "qm_unit_transforms")]
        + [("binomial", n, "none", "qm_transforms") for n in (5, 6)],
    )
    def test_raw_coefficients_pick_the_walk(self, shape, n, dedupe, taken, monkeypatch):
        ctx = make_field(n)
        classes = len(search_sparse(ctx, shape, "qm").hits)
        walks = Counter()
        for name in ("qm_unit_transforms", "qm_transforms"):

            def counted(f, name=name, walk=getattr(search, name)):
                walks[name] += 1
                return walk(f)

            monkeypatch.setattr(search, name, counted)
        rep = search_sparse(ctx, shape, dedupe)
        # binomial dedupe="none" raw hits carry every alpha, not only 1
        mixed = any(c != 1 for h in rep.hits for _, c in h.poly.terms)
        assert mixed == (taken == "qm_transforms")
        assert walks == {taken: classes}  # one walk per class


# the sieve rejections of the qm trinomial scan of every exponent pair
RELABEL_OFF_REJECTED = {4: 1_294, 5: 11_807, 6: 148_939}


# (shape, SHA-256 of report_to_json(include_timing=False), classes, candidates)
N7_PINS = [
    ("quadrinomial", "79c53b7708d96aafe5d39397941df3b0310834957f1e905168f9e7224e975411", 120, 317_750),
    ("binomial", "1db7584da64ca7edb1143facac1dfb5643fa5862c20b932a155c7fdf7c727cd7", 9, 7_497),
]


@pytest.mark.long
@pytest.mark.parametrize("shape,digest,classes,scanned", N7_PINS, ids=[p[0] for p in N7_PINS])
def test_n7_long_run_pinned(shape, digest, classes, scanned):
    rep = search_sparse(make_field(7), shape, long_run=True, workers=2)
    doc = report_to_json(rep, include_timing=False)
    assert hashlib.sha256(doc.encode()).hexdigest() == digest
    assert (len(rep.hits), rep.candidates_scanned) == (classes, scanned)


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

    @pytest.mark.parametrize("shape,which", [("trinomial", "II"), ("quadrinomial", "III")])
    def test_dedupe_mismatch_rejected(self, shape, which):
        # a none report lists raw hits, not the canonicals the diff reads
        rep = search_sparse(F16, shape, dedupe="none")
        with pytest.raises(ValueError, match=f"table {which} .*dedupe='qm', got .*dedupe='none'"):
            compare_with_table(rep, which)

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

    def test_negative_modulus_label(self, deadline):
        deadline(5)
        doc = {"kind": "search_report", "field": "gf2_3/-0xb", "shape": "binomial", "dedupe": "qm", "hits": [], "scanned": 0}
        with pytest.raises(ValueError, match="negative"):
            report_from_json(json.dumps(doc))


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


@pytest.mark.parametrize("name,load", [("table1.json", table1), ("table2.json", table2), ("table3.json", table3)])
def test_table_documents_are_parsed_once(name, load):
    first = load()
    assert load() is first  # cached for the process
    assert first == json.loads(resources.files("gf2to1.data").joinpath(name).read_text())
