"""Exhaustive enumeration engines for 2-to-1 polynomial searches, with
deterministic reporting and comparison against the bundled reference tables.

Candidates are verified by the fiber kernel of two2one, fed precomputed
power lists and at most two coefficient streams; it stops at the first fiber
of size 3.  The candidate space is split into contiguous exponent ranges for
worker processes; partial hit lists are merged and globally sorted, so a
report is byte-identical for any worker count.
"""

from __future__ import annotations

import json
import math
import multiprocessing as mp
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .field import FieldCtx, field_from_label, fmt_elem, parse_elem
from .poly import SparsePoly, parse_poly
from .tabledata import table1_triples, table2, table3
from .two2one import (
    admissible_family_tags,
    fibers_two_to_one,
    make_family,
    qm_canonical,
    qm_shape_orbit,
)

DEGREE5_MAX_N = 7
SPARSE_MAX_N = 6
SPARSE_LONG_MAX_N = 7

SHAPES = ("degree5", "binomial", "trinomial", "quadrinomial")

__all__ = [
    "Hit",
    "SearchReport",
    "TableDiff",
    "search_degree5",
    "search_sparse",
    "compare_with_table",
    "shape_predicate",
    "report_to_json",
    "report_from_json",
    "report_to_csv",
]


@dataclass(frozen=True)
class Hit:
    poly: SparsePoly
    orbit_size: int


@dataclass(frozen=True)
class SearchReport:
    ctx: FieldCtx
    shape: str
    dedupe: str
    hits: tuple[Hit, ...]
    candidates_scanned: int
    elapsed_ms: int
    notes: tuple[str, ...] = ()

    def hit_polys(self) -> list[SparsePoly]:
        return [h.poly for h in self.hits]


# ---------------------------------------------------------------------------
# shape templates


def _is_pow2(v: int) -> bool:
    return v & (v - 1) == 0


def _pow2_residues(N: int) -> frozenset[int]:
    out = set()
    v = 1
    while v not in out:
        out.add(v)
        v = 2 * v % N
    return frozenset(out)


def _binomial_is_linearized_class(k: int, l: int, N: int, pow2: frozenset[int]) -> bool:
    """Whether x^k + c*x^l is equivalent to a linearized binomial.

    Substituting x^d multiplies both exponents by d mod N; the pair lands on
    two powers of two exactly when k/l is itself a power of two mod N (both
    exponents must be units for that to happen at all).
    """
    if math.gcd(k, N) != 1 or math.gcd(l, N) != 1:
        return False
    return k * pow(l, -1, N) % N in pow2


def shape_predicate(shape: str, order: int):
    """Membership test for a term tuple in a search template.

    Used both to filter QM-orbit members when counting how many raw
    candidates a class explains, and in tests for dedupe correctness.
    """
    N = order - 1
    if shape == "degree5":

        def ok(terms):
            return terms[0] == (5, 1) and all(e in (3, 2, 1) for e, _ in terms[1:])

    elif shape == "binomial":
        pow2 = _pow2_residues(N)

        def ok(terms):
            if len(terms) != 2 or terms[0][1] != 1:
                return False
            k, l = terms[0][0], terms[1][0]
            if l < 1 or k > N - 1:
                return False
            return not _binomial_is_linearized_class(k, l, N, pow2)

    elif shape == "trinomial":

        def ok(terms):
            if len(terms) != 3 or terms[0][1] != 1:
                return False
            k, l = terms[0][0], terms[1][0]
            if terms[2][0] != 1 or l <= 1 or k > N - 1:
                return False
            return not (_is_pow2(k) and _is_pow2(l))

    elif shape == "quadrinomial":

        def ok(terms):
            if len(terms) != 4 or any(c != 1 for _, c in terms):
                return False
            k, l, d, one = (e for e, _ in terms)
            return one == 1 and d > 1 and k <= N - 1

    else:
        raise ValueError(f"unknown shape {shape!r}; expected one of {SHAPES}")
    return ok


# ---------------------------------------------------------------------------
# worker internals


def _degree5_shard(args) -> tuple[list[tuple], int]:
    n, modulus, lo, hi = args
    ctx = FieldCtx(n, modulus)
    order = ctx.order
    N = order - 1
    P = ctx.powers()
    A5 = _power_array(P, 5)
    A3 = _power_array(P, 3)
    A2 = _power_array(P, 2)
    tg = ctx.mul_table(ctx.generator)
    hits: list[tuple] = []
    scanned = 0
    for a3 in range(lo, hi):
        T3 = ctx.mul_table(a3)
        for a2 in range(order):
            T2 = ctx.mul_table(a2)
            W = [A5[i] ^ T3[A3[i]] ^ T2[A2[i]] for i in range(N)]
            for a1 in range(order):
                scanned += 1
                if fibers_two_to_one(order, 0, W, a1, tg, 0, (0,)):
                    hits.append(tuple(t for t in ((5, 1), (3, a3), (2, a2), (1, a1)) if t[1]))
    return hits, scanned


def _power_array(P: list[int], e: int) -> list[int]:
    """[x^e for x = g^i], read from the power table P = ctx.powers()."""
    N = len(P)
    return [P[i * e % N] for i in range(N)]


def _coeff_reps_binomial(P: list[int], k: int, l: int, dedupe: str):
    """One alpha per scaling orbit: monic rescaling sends alpha to
    alpha*b^(l-k), so representatives are g^A with A below gcd(k-l, 2^n-1)."""
    N = len(P)
    if dedupe != "qm":
        return range(1, N + 1)
    return P[: math.gcd(k - l, N)]


def _coeff_reps_trinomial(P: list[int], k: int, l: int, dedupe: str):
    """(beta, alpha) orbit representatives under monic rescaling.

    Rescaling by b maps (beta, alpha) to (beta*b^(l-k), alpha*b^(1-k)); in
    exponent coordinates the orbit is (B, A) + j*(p, q) mod N, so unique
    representatives are B below u = gcd(p, N) and, for the residual
    stabilizer j in (N/u)Z, A below gcd((N/u)*q, N).
    """
    N = len(P)
    if dedupe != "qm":
        return [(b, a) for b in range(1, N + 1) for a in range(1, N + 1)]
    p = (l - k) % N
    q = (1 - k) % N
    u = math.gcd(p, N)
    s = (N // u) * q % N
    w = math.gcd(s, N) if s else N
    return [(P[B], P[A]) for B in range(u) for A in range(w)]


def _sparse_shard(args) -> tuple[list[tuple], int]:
    n, modulus, shape, dedupe, lo, hi = args
    ctx = FieldCtx(n, modulus)
    order = ctx.order
    N = order - 1
    P = ctx.powers()
    hits: list[tuple] = []
    scanned = 0
    if shape == "binomial":
        pow2 = _pow2_residues(N)
        for k in range(max(lo, 2), hi):
            AK = _power_array(P, k)
            for l in range(1, k):
                if _binomial_is_linearized_class(k, l, N, pow2):
                    continue  # the linearized class is set aside
                TL = ctx.mul_table(P[l])
                for alpha in _coeff_reps_binomial(P, k, l, dedupe):
                    scanned += 1
                    if fibers_two_to_one(order, 0, AK, alpha, TL, 0, (0,)):
                        hits.append(((k, 1), (l, alpha)))
    elif shape == "trinomial":
        tg = ctx.mul_table(ctx.generator)
        for k in range(max(lo, 3), hi):
            AK = _power_array(P, k)
            k_pow2 = _is_pow2(k)
            for l in range(2, k):
                if k_pow2 and _is_pow2(l):
                    continue  # linearized shapes are excluded from the template
                TL = ctx.mul_table(P[l])
                for beta, alpha in _coeff_reps_trinomial(P, k, l, dedupe):
                    scanned += 1
                    if fibers_two_to_one(order, 0, AK, beta, TL, alpha, tg):
                        hits.append(((k, 1), (l, beta), (1, alpha)))
    elif shape == "quadrinomial":
        tabs = [ctx.mul_table(P[e]) for e in range(N - 1)]
        for k in range(max(lo, 4), hi):
            AK = _power_array(P, k)
            base = [AK[i] ^ P[i] for i in range(N)]  # x^k + x
            for l in range(3, k):
                for d in range(2, l):
                    scanned += 1
                    if fibers_two_to_one(order, 0, base, 1, tabs[l], 1, tabs[d]):
                        hits.append(((k, 1), (l, 1), (d, 1), (1, 1)))
    else:
        raise ValueError(f"unknown sparse shape {shape!r}")
    return hits, scanned


def _run_shards(fn, shard_args, workers: int):
    if workers <= 1 or len(shard_args) <= 1:
        return [fn(a) for a in shard_args]
    try:
        ctx = mp.get_context("fork")
    except ValueError:
        ctx = mp.get_context()
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as ex:
        return list(ex.map(fn, shard_args))


def _split_range(lo: int, hi: int, parts: int) -> list[tuple[int, int]]:
    total = hi - lo
    parts = max(1, min(parts, total))
    out = []
    base = total // parts
    rem = total % parts
    at = lo
    for i in range(parts):
        size = base + (1 if i < rem else 0)
        out.append((at, at + size))
        at += size
    return [(a, b) for a, b in out if b > a]


# ---------------------------------------------------------------------------
# search drivers


def _finalize(
    ctx: FieldCtx,
    shape: str,
    dedupe: str,
    raw_terms: list[tuple],
    scanned: int,
    t0: float,
    notes: tuple[str, ...] = (),
) -> SearchReport:
    """One canonical and one shape-orbit walk per class: each orbit member, and the
    raw tuple itself (unreduced at n = 2), maps to the class's canonical Hit."""
    pred = shape_predicate(shape, ctx.order)
    classes: dict[tuple, Hit] = {}
    for t in raw_terms:
        if t not in classes:
            p = SparsePoly(ctx, t)
            orbit = qm_shape_orbit(p, pred)
            cls = Hit(qm_canonical(p), len(orbit))
            classes.update(dict.fromkeys(orbit | {t}, cls))
    if dedupe == "qm":
        chosen = set(classes.values())
    else:
        chosen = [Hit(SparsePoly(ctx, t), classes[t].orbit_size) for t in raw_terms]
    hits = tuple(sorted(chosen, key=lambda h: h.poly.sort_key()))
    elapsed_ms = int((time.monotonic() - t0) * 1000)
    return SearchReport(ctx, shape, dedupe, hits, scanned, elapsed_ms, notes)


def _check_options(dedupe: str, workers: int) -> None:
    if dedupe not in ("qm", "none"):
        raise ValueError(f"dedupe must be 'qm' or 'none', got {dedupe!r}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")


def search_degree5(ctx: FieldCtx, workers: int = 1, dedupe: str = "none") -> SearchReport:
    """All (a3, a2, a1) whose normalized quintic x^5+a3x^3+a2x^2+a1x is 2-to-1.

    Cost 2^(3n) candidates with early exit; capped at n <= 7.  The raw triple
    list (dedupe="none") is the reference-table form.
    """
    if ctx.n > DEGREE5_MAX_N:
        raise ValueError(f"degree5 search capped at n={DEGREE5_MAX_N}, got n={ctx.n}")
    _check_options(dedupe, workers)
    t0 = time.monotonic()
    shards = [
        (ctx.n, ctx.modulus, lo, hi) for lo, hi in _split_range(0, ctx.order, workers)
    ]
    raw: list[tuple] = []
    scanned = 0
    for hits, cnt in _run_shards(_degree5_shard, shards, workers):
        raw.extend(hits)
        scanned += cnt
    notes = ()
    if ctx.n != 3:
        notes = (f"no bundled reference table covers degree5 hits at n={ctx.n}; new data",)
    return _finalize(ctx, "degree5", dedupe, raw, scanned, t0, notes)


def search_sparse(
    ctx: FieldCtx,
    shape: str,
    dedupe: str = "qm",
    long_run: bool = False,
    workers: int = 1,
) -> SearchReport:
    """Exhaustive search over a sparse shape template.

    binomial: x^k + alpha*x^l, k > l >= 1, alpha != 0.
    trinomial: x^k + beta*x^l + alpha*x, k > l > 1, alpha, beta != 0.
    quadrinomial: x^k + x^l + x^d + x, k > l > d > 1.
    Candidates equivalent to a linearized polynomial are excluded from the
    binomial and trinomial templates (a linearized map is 2-to-1 exactly when
    its kernel has size 2; the classification sets that trivial class aside):
    for trinomials this means k and l both powers of two, for binomials that
    k/l mod 2^n - 1 is a power of two.  dedupe="qm" reports one
    representative per equivalence class and prunes coefficient orbits during
    enumeration; dedupe="none" is the literal loop.
    """
    if shape not in ("binomial", "trinomial", "quadrinomial"):
        raise ValueError(f"unknown sparse shape {shape!r}")
    _check_options(dedupe, workers)
    cap = SPARSE_LONG_MAX_N if long_run else SPARSE_MAX_N
    if ctx.n > cap:
        hint = "" if long_run else " (pass the long-run flag for n=7)"
        raise ValueError(f"sparse search capped at n={cap}, got n={ctx.n}{hint}")
    t0 = time.monotonic()
    N = ctx.order - 1
    shards = [
        (ctx.n, ctx.modulus, shape, dedupe, lo, hi)
        for lo, hi in _split_range(2, N, workers)
    ]
    raw: list[tuple] = []
    scanned = 0
    for hits, cnt in _run_shards(_sparse_shard, shards, workers):
        raw.extend(hits)
        scanned += cnt
    return _finalize(ctx, shape, dedupe, raw, scanned, t0)


# ---------------------------------------------------------------------------
# table comparison


@dataclass(frozen=True)
class TableDiff:
    table: str
    aligned: str | None
    missing: tuple[str, ...]
    extra: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.missing and not self.extra


def _hit_triples(report: SearchReport) -> set[tuple[int, int, int]]:
    out = set()
    for h in report.hits:
        d = dict(h.poly.terms)
        if d.get(5) != 1:
            raise ValueError(f"hit {h.poly} is not a normalized quintic")
        out.add((d.get(3, 0), d.get(2, 0), d.get(1, 0)))
    return out


def _diff_strings(ctx, missing_triples, extra_triples) -> tuple[tuple[str, ...], tuple[str, ...]]:
    def s(t):
        a3, a2, a1 = t
        return str(SparsePoly.make(ctx, [(5, 1), (3, a3), (2, a2), (1, a1)]))

    return tuple(sorted(map(s, missing_triples))), tuple(sorted(map(s, extra_triples)))


def _compare_table1(report: SearchReport) -> TableDiff:
    ctx = report.ctx
    if ctx.n != 3:
        raise ValueError("table I is GF(2^3) data; run the degree5 search at n=3")
    got = _hit_triples(report)
    candidates = [2] if ctx.modulus == 0b1011 else []  # the class of x first
    for g in ctx.nonzero():
        if g not in candidates and ctx.is_primitive(g):
            candidates.append(g)
    for gamma in candidates:
        expected = table1_triples(ctx, gamma)
        if expected == got:
            return TableDiff("I", f"gamma={fmt_elem(gamma)}", (), ())
    expected = table1_triples(ctx, candidates[0])
    missing, extra = _diff_strings(ctx, expected - got, got - expected)
    return TableDiff("I", None, missing, extra)


def expected_table2_classes(ctx: FieldCtx) -> set[tuple]:
    """Expected trinomial classes at ctx.n: each table row expands over every
    root of its alpha equation, since conjugate parameters form distinct
    equivalence classes."""
    data = table2()
    expected: set[tuple] = set()
    for row in data["rows"]:
        if row["n"] != ctx.n:
            continue
        beta = parse_elem(ctx, row["beta"])
        if beta != 1:
            raise ValueError("table II rows are expected to carry beta = 1")
        cond = parse_poly(ctx, row["alpha_roots_of"])
        roots = [a for a in ctx.elements() if cond.eval(a) == 0]
        if not roots:
            raise ValueError(f"no roots of {row['alpha_roots_of']} in {ctx.label()}")
        for a in roots:
            f = SparsePoly.make(ctx, [(row["k"], 1), (row["l"], 1), (1, a)])
            expected.add(qm_canonical(f).terms)
    return expected


def _compare_table2(report: SearchReport) -> TableDiff:
    ctx = report.ctx
    data = table2()
    covered = {row["n"] for row in data["rows"]} | set(data["empty_n"])
    if ctx.n not in covered:
        raise ValueError(f"table II covers n in {sorted(covered)}, got n={ctx.n}")
    expected = expected_table2_classes(ctx)
    got = {qm_canonical(h.poly).terms for h in report.hits}
    missing = tuple(sorted(str(SparsePoly(ctx, t)) for t in expected - got))
    extra = tuple(sorted(str(SparsePoly(ctx, t)) for t in got - expected))
    return TableDiff("II", None, missing, extra)


def _compare_table3(report: SearchReport) -> TableDiff:
    ctx = report.ctx
    got = {qm_canonical(h.poly).terms for h in report.hits}
    missing = []
    for tag in table3()["families"]:
        if tag not in admissible_family_tags(ctx.n):
            continue
        canon = qm_canonical(make_family(tag, ctx))
        if canon.terms not in got:
            missing.append(f"{tag}: {make_family(tag, ctx)}")
    return TableDiff("III", None, tuple(sorted(missing)), ())


_TABLE_SHAPES = {"I": "degree5", "II": "trinomial", "III": "quadrinomial"}


def compare_with_table(report: SearchReport, which: str) -> TableDiff:
    """Empty diff exactly when the report reproduces the reference table.

    Table I: triple-set equality, first literally (modulus 0xb, gamma = the
    class of x), then across every primitive-element relabeling, recording
    the alignment that matched.  Table II: equivalence-class equality, each
    row expanded over all roots of its parameter equation.  Table III:
    membership of every family admissible at the report's n.
    """
    if which not in _TABLE_SHAPES:
        raise ValueError(f"unknown table {which!r}; expected I, II or III")
    if report.shape != _TABLE_SHAPES[which]:
        raise ValueError(
            f"table {which} compares {_TABLE_SHAPES[which]} reports, got {report.shape!r}"
        )
    if which == "I":
        return _compare_table1(report)
    if which == "II":
        return _compare_table2(report)
    return _compare_table3(report)


# ---------------------------------------------------------------------------
# serialization


def report_to_dict(report: SearchReport, include_timing: bool = True) -> dict:
    doc = {
        "kind": "search_report",
        "field": report.ctx.label(),
        "shape": report.shape,
        "dedupe": report.dedupe,
        "hits": [
            {"poly": str(h.poly), "orbit_size": h.orbit_size} for h in report.hits
        ],
        "scanned": report.candidates_scanned,
    }
    if include_timing:
        doc["elapsed_ms"] = report.elapsed_ms
    if report.notes:
        doc["notes"] = list(report.notes)
    return doc


def report_to_json(report: SearchReport, include_timing: bool = True) -> str:
    return json.dumps(report_to_dict(report, include_timing), indent=2) + "\n"


def report_from_json(text: str) -> SearchReport:
    doc = json.loads(text)
    if doc.get("kind") != "search_report":
        raise ValueError("not a search report document")
    ctx = field_from_label(doc["field"])
    hits = tuple(
        Hit(parse_poly(ctx, h["poly"]), int(h["orbit_size"])) for h in doc["hits"]
    )
    return SearchReport(
        ctx,
        doc["shape"],
        doc["dedupe"],
        hits,
        int(doc["scanned"]),
        int(doc.get("elapsed_ms", 0)),
        tuple(doc.get("notes", ())),
    )


def report_to_csv(report: SearchReport) -> str:
    lines = ["poly,orbit_size"]
    lines.extend(f"{h.poly},{h.orbit_size}" for h in report.hits)
    return "\n".join(lines) + "\n"


def diff_to_dict(diff: TableDiff) -> dict:
    return {
        "table": diff.table,
        "aligned": diff.aligned,
        "missing": list(diff.missing),
        "extra": list(diff.extra),
        "ok": diff.ok,
    }
