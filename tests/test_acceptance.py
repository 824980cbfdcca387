"""Acceptance suite: one test per criterion, each ending with a PASS line.

Run `pytest tests/test_acceptance.py -v` (add `-s` to see the PASS lines, and
`-m long` for the n=7 trinomial long-run criterion, budgeted at one hour).
Stated runtime budgets are asserted where the criterion pins one.
"""

import hashlib
import math
import time

import pytest

from gf2to1.cli import main
from gf2to1.field import make_field
from gf2to1.lowdeg import (
    lemma_cubic_agreement,
    lemma_quadratic_agreement,
    lemma_quartic_agreement,
)
from gf2to1.poly import (
    DensePoly,
    SparsePoly,
    count_bivariate_zeros,
    dickson,
    dickson_eval,
    dickson_inverse_exponent,
)
from gf2to1.search import (
    compare_with_table,
    expected_table2_classes,
    search_degree5,
    search_sparse,
)
from gf2to1.tabledata import table2
from gf2to1.two2one import (
    is_two_to_one,
    make_family,
    o_orbit,
    point_count_curve,
    point_count_lower_bound,
    qm_canonical,
    verify_resultant_identity,
)

WORKERS = 2


@pytest.fixture(scope="session")
def degree5_n3():
    return search_degree5(make_field(3), workers=WORKERS)


@pytest.fixture(scope="session")
def trinomial_reports():
    t0 = time.monotonic()
    reports = {
        n: search_sparse(make_field(n), "trinomial", dedupe="qm", workers=WORKERS)
        for n in (3, 4, 5, 6)
    }
    return reports, time.monotonic() - t0


def _ok(line):
    print(f"ACCEPTANCE {line}: PASS")


# -- criterion 1 -------------------------------------------------------------


def test_criterion_01_table1_reproduction(degree5_n3):
    t0 = time.monotonic()
    rep = search_degree5(make_field(3), workers=WORKERS)
    elapsed = time.monotonic() - t0
    triples = set()
    for h in rep.hits:
        d = dict(h.poly.terms)
        triples.add((d.get(3, 0), d.get(2, 0), d.get(1, 0)))
    assert len(triples) == 35
    fam_a3 = {t for t in triples if t[1] == 0 and t[2] == 0}
    fam_a2 = {t for t in triples if t[0] == 0 and t[2] == 0}
    assert len(fam_a3) == 7 and len(fam_a2) == 7
    assert len(triples - fam_a3 - fam_a2) == 21
    diff = compare_with_table(rep, "I")
    assert diff.ok, (diff.missing, diff.extra)
    assert diff.aligned == "gamma=0x2"
    assert elapsed < 1.0, f"degree5 n=3 took {elapsed:.2f}s, budget 1s"
    _ok("criterion 1 (degree-5 table reproduction, 35 triples, <1s)")


# -- criterion 2 -------------------------------------------------------------


def test_criterion_02_trinomial_tables(trinomial_reports):
    reports, elapsed = trinomial_reports
    assert elapsed < 600, f"n<=6 trinomial searches took {elapsed:.0f}s, budget 600s"
    for n in (3, 5):
        assert reports[n].hits == (), f"expected no trinomial hits at n={n}"
        assert compare_with_table(reports[n], "II").ok
    for n, row_count in ((4, 1), (6, 2)):
        rep = reports[n]
        ctx = rep.ctx
        assert compare_with_table(rep, "II").ok
        got = {h.poly.terms for h in rep.hits}
        assert got == expected_table2_classes(ctx)
        # each class is explained by exactly one table row; the row's alpha
        # equation expands over conjugate parameters (inequivalent under
        # a*g(b*x^d) alone), so "one class per row" is counted at row level
        rows = [r for r in table2()["rows"] if r["n"] == n]
        assert len(rows) == row_count
        covered = set()
        for row in rows:
            from gf2to1.poly import parse_poly

            cond = parse_poly(ctx, row["alpha_roots_of"])
            members = {
                qm_canonical(
                    SparsePoly.make(ctx, [(row["k"], 1), (row["l"], 1), (1, a)])
                ).terms
                for a in ctx.elements()
                if cond.eval(a) == 0
            }
            assert members & got, f"row {row} has no representative among the hits"
            covered |= members
        assert covered == got
    _ok("criterion 2 (trinomial classes: none at n=3,5; row families 1@n=4, 2@n=6)")


@pytest.mark.long
def test_criterion_02_trinomial_n7_long_run():
    t0 = time.monotonic()
    rep = search_sparse(make_field(7), "trinomial", dedupe="qm", long_run=True, workers=WORKERS)
    elapsed = time.monotonic() - t0
    assert rep.hits == ()
    assert compare_with_table(rep, "II").ok
    assert elapsed < 3600, f"n=7 trinomial run took {elapsed:.0f}s, budget 1h"
    _ok("criterion 2 long run (no trinomial classes at n=7)")


# -- criterion 3 -------------------------------------------------------------


def _hyperoval_exponents(n):
    """Prop-4.2 families plus the translation o-monomials 2^j.

    x^(2^j) with gcd(j, n) = 1 is an o-polynomial (x^(2^j) + ax always has
    kernel size 2), and at n = 7 its orbit companions are inequivalent to the
    four named families, so they appear among the hits.
    """
    sigma = (n + 1) // 2
    named = [2, 6, (1 << sigma) + (1 << pow(4, -1, n)), 3 * (1 << sigma) + 4]
    translations = [1 << j for j in range(2, n - 1) if math.gcd(j, n) == 1]
    return named, translations


def test_criterion_03_binomial_classification():
    t0 = time.monotonic()
    for n in (3, 5, 7):
        ctx = make_field(n)
        rep = search_sparse(ctx, "binomial", dedupe="qm", long_run=(n == 7), workers=WORKERS)
        got = {h.poly.terms for h in rep.hits}
        named, translations = _hyperoval_exponents(n)

        def orbit_classes(k0s):
            classes = set()
            for k0 in k0s:
                for m in o_orbit(k0, n):
                    classes.add(qm_canonical(SparsePoly.make(ctx, [(m, 1), (1, 1)])).terms)
            return classes

        named_classes = orbit_classes(named)
        extra = got - named_classes
        assert extra <= orbit_classes(translations), (
            f"n={n}: hits outside every known monomial-hyperoval orbit: "
            f"{[str(SparsePoly(ctx, t)) for t in extra - orbit_classes(translations)]}"
        )
        if n in (3, 5):
            # the four named families alone explain everything here; the
            # translation companions only separate from them at n = 7
            assert not extra
        else:
            assert extra, "expected translation-orbit classes at n=7"
        for h in rep.hits:
            assert is_two_to_one(h.poly)
    for n in (4, 6):
        ctx = make_field(n)
        rep = search_sparse(ctx, "binomial", dedupe="qm", workers=WORKERS)
        inverse_class = qm_canonical(
            SparsePoly.make(ctx, [(ctx.order - 2, 1), (1, 1)])
        ).terms
        assert {h.poly.terms for h in rep.hits} == {inverse_class}
    elapsed = time.monotonic() - t0
    assert elapsed < 300, f"binomial classification took {elapsed:.0f}s, budget 300s"
    _ok("criterion 3 (binomial hits classified by monomial-hyperoval orbits)")


# -- criterion 4 -------------------------------------------------------------


def test_criterion_04_family_verification():
    t0 = time.monotonic()
    grid = [("tri_I", n) for n in (4, 6, 8, 10, 12, 14, 16)]
    grid += [("tri_II", n) for n in (6, 10, 14)]
    grid += [(f"quad_{i:02d}", n) for i in range(1, 11) for n in range(3, 18, 2)]
    grid += [("quad_11", n) for n in (3, 6, 9, 12, 15)]
    grid += [("quad_12", n) for n in (6, 9, 15)]
    fields = {n: make_field(n) for n in {n for _, n in grid}}  # one set of orbit tables per n
    failures = []
    for tag, n in grid:
        if not is_two_to_one(make_family(tag, fields[n])):
            failures.append((tag, n))
    elapsed = time.monotonic() - t0
    assert not failures, failures
    assert elapsed < 120, f"family grid took {elapsed:.0f}s, budget 120s"
    _ok(f"criterion 4 (all {len(grid)} family instances verify, <2min)")


# -- criterion 5 -------------------------------------------------------------


def test_criterion_05_resultant_identities():
    t0 = time.monotonic()
    for n in (3, 5, 7, 9):
        ctx = make_field(n)
        for theorem in range(1, 7):
            chk = verify_resultant_identity(theorem, ctx)
            assert chk.ok, f"identity {theorem} fails at n={n}, a={chk.failing_a:#x}"
    elapsed = time.monotonic() - t0
    assert elapsed < 60, f"identity checks took {elapsed:.0f}s, budget 60s"
    _ok("criterion 5 (elimination identities 1-6 hold for n=3,5,7,9, <1min)")


# -- criterion 6 -------------------------------------------------------------


def test_criterion_06_lemma_equivalences():
    for n in range(2, 9):
        rep = lemma_quadratic_agreement(make_field(n))
        assert rep.ok and rep.checked == (2**n - 1) * 2**n
    for n in range(2, 9):
        rep = lemma_cubic_agreement(make_field(n))
        assert rep.ok and rep.checked == (2**n - 1) * 2**n
    for n in range(2, 7):
        rep = lemma_quartic_agreement(make_field(n))
        assert rep.ok and rep.checked == (2**n - 1) ** 2 * 2**n
    _ok("criterion 6 (low-degree criteria match scan oracles exhaustively)")


# -- criterion 7 -------------------------------------------------------------


def test_criterion_07_dickson_round_trip():
    for m in (3, 5, 7):
        ctx = make_field(m)
        t = dickson_inverse_exponent(5, m)
        assert 5 * t % ((1 << (2 * m)) - 1) == 1
        for x in ctx.elements():
            assert dickson_eval(ctx, t, 1, dickson_eval(ctx, 5, 1, x)) == x
    ctx = make_field(3)
    assert dickson(ctx, 5, 1) == DensePoly.make(ctx, (0, 1, 0, 1, 0, 1))
    _ok("criterion 7 (Dickson inverse round trip on GF(2^m), m=3,5,7)")


# -- criterion 8 -------------------------------------------------------------


def test_criterion_08_degree5_desk_scale(degree5_n3):
    for n in (4, 5, 6):
        rep = search_degree5(make_field(n), workers=WORKERS)
        assert rep.candidates_scanned == 2 ** (3 * n)
        assert not rep.hits  # the Hasse-Weil point-count bound is non-vacuous from n = 4 on
    assert compare_with_table(degree5_n3, "I").ok
    _ok("criterion 8 (degree-5 searches complete at n=4,5,6 with no hits; n=3 matches the table)")


# -- criterion 9 -------------------------------------------------------------


def _curve_value_oracle(ctx, a3, a2, a1, x, y):
    """Pointwise evaluation of L2(y)^2 (x^2+x) + L1(y) straight from the
    coefficient formulas, independent of the BivarPoly construction."""
    mul, pw = ctx.mul, ctx.pow
    l1 = (
        pw(y, 12)
        ^ mul(pw(a3, 2), pw(y, 8))
        ^ mul(pw(a3, 3), pw(y, 6))
        ^ mul(mul(a2, pw(a3, 2)), pw(y, 5))
        ^ mul(pw(a1, 2) ^ pw(a3, 4) ^ mul(pw(a2, 2), a3), pw(y, 4))
        ^ mul(pw(a2, 3), pw(y, 3))
        ^ mul(pw(a3, 5), pw(y, 2))
        ^ mul(mul(a2, pw(a3, 4)), y)
        ^ pw(a2, 4)
        ^ pw(a3, 6)
    )
    l2 = (
        pw(y, 6)
        ^ mul(a3, pw(y, 4))
        ^ mul(a1, pw(y, 2))
        ^ mul(mul(a2, a3), y)
        ^ pw(a2, 2)
    )
    return mul(pw(l2, 2), pw(x, 2) ^ x) ^ l1


def test_criterion_09_point_count_consistency(degree5_n3):
    ctx = make_field(3)
    bound = point_count_lower_bound(3)
    assert bound == -2  # vacuous at n = 3
    for h in degree5_n3.hits:
        d = dict(h.poly.terms)
        a3, a2, a1 = d.get(3, 0), d.get(2, 0), d.get(1, 0)
        curve = point_count_curve(ctx, a3, a2, a1)
        count = count_bivariate_zeros(curve)
        oracle = sum(
            1
            for x in ctx.elements()
            for y in ctx.elements()
            if _curve_value_oracle(ctx, a3, a2, a1, x, y) == 0
        )
        assert count == oracle
        assert count >= bound
    _ok("criterion 9 (curve point counts match the oracle on all 35 triples)")


# -- criterion 10 ------------------------------------------------------------


def test_criterion_10_determinism(capsys):
    def run(argv):
        code = main(argv)
        out = capsys.readouterr().out
        return code, out.encode()

    runs = [
        run(["tables", "--which", "II", "--n-max", "4", "--workers", str(w), "--format", "json"])
        for w in (1, 2, 1)
    ]
    assert all(code == 0 for code, _ in runs)
    assert runs[0][1] == runs[1][1] == runs[2][1]
    code1, doc1 = run(["tables", "--which", "I", "--workers", "1", "--format", "json"])
    code2, doc2 = run(["tables", "--which", "I", "--workers", "2", "--format", "json"])
    assert code1 == code2 == 0 and doc1 == doc2
    _ok("criterion 10 (table reports byte-identical across worker counts)")


# SHA-256 of each `tables --format json` document: they pin every hit and every
# orbit size, the n = 6 trinomial classes included
@pytest.mark.parametrize(
    "argv,digest",
    [
        (["--which", "I"], "5077aa6acb6efc5cc27d92960e81a06e6cdde0a218e3481aa70fb3b33b75214a"),
        (["--which", "II"], "9dde8f607a50c9f9bc2ed9a13fd42c5452d447aac19e071b43fded4c6f6aa674"),
        (["--which", "III"], "1bc6a8ebee5931ac04a7a947b39c27eacef80540da45cb0735046773178c6ebf"),
        pytest.param(
            ["--which", "II", "--long"],
            "e3b64de8583a2203a3c1dd860d1273eb21debafb094e7895929484fdc77491eb",
            marks=pytest.mark.long,
        ),
        pytest.param(
            ["--which", "III", "--long"],
            "83e0fbbc2d64f13d2c0fe8528682a83c5fff9b161ce8957762984d35fd5be5c4",
            marks=pytest.mark.long,
        ),
    ],
)
def test_criterion_10_pinned_table_digests(capsys, argv, digest):
    for workers in (1, 2, 3):
        assert main(["tables", *argv, "--workers", str(workers), "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (argv, workers)
    _ok(f"criterion 10 (tables {' '.join(argv)} matches its pinned SHA-256 at 1, 2 and 3 workers)")
