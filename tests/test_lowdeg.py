import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from gf2to1 import lowdeg
from gf2to1.field import LOG_TABLE_MAX_N, FieldCtx, make_field
from gf2to1.lowdeg import (
    FactorPattern,
    cubic_has_unique_root,
    lemma_cubic_agreement,
    lemma_quadratic_agreement,
    lemma_quartic_agreement,
    quadratic_solutions,
    quartic_pattern,
    roots_by_scan,
    solve_artin_schreier,
)
from gf2to1.poly import DensePoly

F4 = make_field(2)
F8 = make_field(3, 0b1011)
F16 = make_field(4)


def cubic_pattern(ctx, a, b):
    """Factor pattern of x^3 + ax + b (b != 0, so squarefree) from its root count by scan."""
    if b == 0:
        raise ValueError("b = 0 is out of scope")
    r = len(roots_by_scan(DensePoly.make(ctx, (b, a, 0, 1))))
    return {0: FactorPattern.C3, 1: FactorPattern.C12, 3: FactorPattern.C111}[r]


def quartic_pattern_scan(ctx, a2, a1, a0):
    """Scan oracle for quartic_pattern: root count, then a search over all
    monic quadratic divisors to separate (2,2) from (4).

    x^4 + a2 x^2 + a1 x + a0 mod (x^2 + ux + v) reduces to
    (u^3 + a2 u + a1) x + (u^2 v + v^2 + a2 v + a0), so divisibility is a
    two-coefficient test per candidate divisor.
    """
    if a0 == 0 or a1 == 0:
        raise ValueError("quartic classification requires a0 != 0 and a1 != 0")
    f = DensePoly.make(ctx, (a0, a1, a2, 0, 1))
    r = len(roots_by_scan(f))
    if r == 4:
        return FactorPattern.Q1111
    if r == 2:
        return FactorPattern.Q112
    if r == 1:
        return FactorPattern.Q13
    if r != 0:
        raise AssertionError(f"squarefree quartic with {r} roots")
    for u in ctx.elements():
        if ctx.mul(ctx.sqr(u), u) ^ ctx.mul(a2, u) ^ a1 != 0:
            continue
        for v in ctx.elements():
            if ctx.mul(ctx.sqr(u) ^ a2, v) ^ ctx.sqr(v) ^ a0 == 0:
                return FactorPattern.Q22
    return FactorPattern.Q4


# Slow per-element oracles for the engines' list and table forms: one field
# method call per element, as the engines ran before they read whole lists.


def value_histogram(ctx, values):
    hist = [0] * ctx.order
    for v in values:
        hist[v] += 1
    return hist


def artin_schreier_loop(ctx, c):
    """The trace-dual sum of theta_i c^(2^i), i = 1..n-1, in n - 1 steps."""
    delta = ctx.trace_one
    z, theta, t = 0, delta, c
    for _ in range(ctx.n - 1):
        t = ctx.sqr(t)
        z ^= ctx.mul(theta, t)
        theta = ctx.sqr(theta) ^ delta
    return z


def divisor_sweep(ctx, w):
    """divisible[a] is whether v -> w v + v^2 takes a."""
    divisible = [False] * ctx.order
    for v in ctx.elements():
        divisible[ctx.mul(w, v) ^ ctx.sqr(v)] = True
    return divisible


def classify_by_traces(ctx, a2, a1, a0):
    """Factor pattern of x^4 + a2 x^2 + a1 x + a0 from trace_abs(a0 r^2 / a1^2)
    over the resolvent roots r, one mul and one trace per root."""
    roots = [r for r in ctx.elements() if ctx.mul(ctx.sqr(r), r) ^ ctx.mul(a2, r) == a1]
    scale = ctx.inv(ctx.sqr(a1))
    traces = [ctx.trace_abs(ctx.mul(a0, ctx.mul(ctx.sqr(r), scale))) for r in roots]
    if len(traces) == 3:
        return {3: FactorPattern.Q1111, 1: FactorPattern.Q22}[traces.count(0)]
    if not traces:
        return FactorPattern.Q13
    return FactorPattern.Q112 if traces[0] == 0 else FactorPattern.Q4


def check_split_solver(ctx, sample):
    # the split-table solver against the loop on every c of the sample; a
    # trace-1 c still raises
    for c in sample:
        if ctx.trace_abs(c) == 0:
            z = solve_artin_schreier(ctx, c)
            assert z == artin_schreier_loop(ctx, c), c
            assert ctx.sqr(z) ^ z == c, c
        else:
            with pytest.raises(ValueError):
                solve_artin_schreier(ctx, c)


class TestListOracles:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_artin_schreier_split_equals_loop_exhaustive(self, n):
        ctx = make_field(n)
        check_split_solver(ctx, ctx.elements())

    @pytest.mark.parametrize("n", range(LOG_TABLE_MAX_N + 1, 17))
    def test_artin_schreier_split_equals_loop_above_log_table_cap(self, n):
        ctx = make_field(n)
        rng = random.Random(n)
        check_split_solver(ctx, [rng.randrange(ctx.order) for _ in range(200)])

    def test_artin_schreier_split_belongs_to_the_context(self):
        # the default n = 8 field builds its table first; 0x11d must get its own
        default, other = make_field(8), FieldCtx(8, 0x11D)
        assert default.modulus != other.modulus
        check_split_solver(default, default.elements())
        check_split_solver(other, other.elements())
        assert default.artin_schreier_split() != other.artin_schreier_split()

    @pytest.mark.parametrize("n", range(2, 9))
    def test_quadratic_histograms(self, n):
        ctx = make_field(n)
        for u in ctx.elements():
            count = Counter(lowdeg._additive_values(ctx, u, 1, 0)).get
            slow = value_histogram(ctx, (ctx.sqr(x) ^ ctx.mul(u, x) for x in ctx.elements()))
            assert [count(v, 0) for v in ctx.elements()] == slow, u

    @pytest.mark.parametrize("n", range(2, 9))
    def test_cubic_histograms(self, n):
        ctx = make_field(n)
        seen = []
        for a, values in lowdeg._cubic_value_lists(ctx):
            seen.append(a)
            count = Counter(values).get
            slow = value_histogram(
                ctx, (ctx.mul(ctx.sqr(x), x) ^ ctx.mul(a, x) for x in ctx.elements())
            )
            assert [count(v, 0) for v in ctx.elements()] == slow, a
        assert seen == list(ctx.elements())

    @pytest.mark.parametrize("n", range(2, 9))
    def test_quartic_histograms(self, n):
        # every (a2, a1) up to n = 6; above, every a2 against a seeded sample
        # of a1 and every a1 against a seeded sample of a2
        ctx = make_field(n)
        if n <= 6:
            pairs = [(a2, a1) for a2 in ctx.elements() for a1 in ctx.elements()]
        else:
            rng = random.Random(n)
            pairs = [(c, rng.randrange(ctx.order)) for c in ctx.elements()]
            pairs += [(rng.randrange(ctx.order), c) for c in ctx.elements()]
        for a2, a1 in pairs:
            count = Counter(lowdeg._additive_values(ctx, a1, a2, 1)).get
            slow = value_histogram(
                ctx,
                (
                    ctx.sqr(ctx.sqr(x)) ^ ctx.mul(a2, ctx.sqr(x)) ^ ctx.mul(a1, x)
                    for x in ctx.elements()
                ),
            )
            assert [count(v, 0) for v in ctx.elements()] == slow, (a2, a1)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_divisor_sweep(self, n):
        ctx = make_field(n)
        for w in ctx.elements():
            slow = {v for v, hit in enumerate(divisor_sweep(ctx, w)) if hit}
            assert set(lowdeg._additive_values(ctx, w, 1, 0)) == slow, w

    @pytest.mark.parametrize("n", range(2, 6))
    def test_trace_masks_classify_as_mul_and_trace(self, n):
        ctx = make_field(n)
        for a2 in ctx.elements():
            for a1 in ctx.nonzero():
                roots = [r for r in ctx.elements() if ctx.mul(ctx.sqr(r), r) ^ ctx.mul(a2, r) == a1]
                masks = lowdeg._resolvent_scaled(ctx, a1, roots)
                for a0 in ctx.nonzero():
                    assert lowdeg._classify_quartic(a0, masks) is classify_by_traces(
                        ctx, a2, a1, a0
                    ), (a2, a1, a0)


class TestQuadratic:
    def test_no_solutions_odd_n(self):
        assert quadratic_solutions(F8, 1, 1) == set()

    def test_split_case(self):
        assert quadratic_solutions(F8, 1, 0) == {0, 1}

    def test_gf16_against_scan(self):
        sols = quadratic_solutions(F16, 1, 1)
        scan = {x for x in F16.elements() if F16.sqr(x) ^ x ^ 1 == 0}
        assert sols == scan and len(sols) == 2

    def test_degenerate_u_rejected(self):
        with pytest.raises(ValueError, match="sqrt"):
            quadratic_solutions(F8, 0, 5)

    def test_one_trace_per_input(self, monkeypatch):
        # the solvability check is the only trace read: the root comes from
        # the split table without solve_artin_schreier's own check
        calls = []
        real = FieldCtx.trace_abs
        monkeypatch.setattr(FieldCtx, "trace_abs", lambda self, x: calls.append(x) or real(self, x))
        for v in F16.elements():
            quadratic_solutions(F16, 3, v)
        assert len(calls) == F16.order

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_artin_schreier_even_n_exhaustive(self, n):
        ctx = make_field(n)
        for c in ctx.elements():
            if ctx.trace_abs(c) == 0:
                z = solve_artin_schreier(ctx, c)
                assert ctx.sqr(z) ^ z == c
            else:
                with pytest.raises(ValueError):
                    solve_artin_schreier(ctx, c)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_quadratic_solutions_match_scan_for_every_u_v(self, n):
        ctx = make_field(n)
        for u in ctx.nonzero():
            roots = {}
            for x in ctx.elements():
                roots.setdefault(ctx.sqr(x) ^ ctx.mul(u, x), set()).add(x)
            for v in ctx.elements():
                assert quadratic_solutions(ctx, u, v) == roots.get(v, set()), (u, v)

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13])
    def test_artin_schreier_odd_n_is_the_half_trace(self, n):
        # the one trace-dual formula against the half trace; n = 13, above
        # LOG_TABLE_MAX_N, runs on the bit loop over a seeded sample
        ctx = make_field(n)
        rng = random.Random(n)
        sample = ctx.elements() if n <= 11 else (rng.randrange(ctx.order) for _ in range(600))
        for c in sample:
            if ctx.trace_abs(c) == 0:
                half_trace = 0
                for j in range(0, n, 2):
                    half_trace ^= ctx.frobenius(c, j)
                assert solve_artin_schreier(ctx, c) == half_trace


class TestCubic:
    def test_power_map_bijective(self):
        assert cubic_has_unique_root(F8, 0, 1) is True

    def test_three_roots_in_gf4(self):
        scan = {x for x in F4.elements() if F4.mul(F4.sqr(x), x) ^ 1 == 0}
        assert len(scan) == 3
        assert cubic_has_unique_root(F4, 0, 1) is False

    def test_criterion_value_zero(self):
        # a = b = 1 over GF(8): trace(1 + 1) = 0
        assert cubic_has_unique_root(F8, 1, 1) is False

    def test_b_zero_rejected(self):
        with pytest.raises(ValueError):
            cubic_has_unique_root(F8, 1, 0)

    def test_pattern_matches_root_count(self):
        for a in F8.elements():
            for b in F8.nonzero():
                pat = cubic_pattern(F8, a, b)
                f = DensePoly.make(F8, (b, a, 0, 1))
                assert pat.value.count(1) == len(roots_by_scan(f))
                assert (pat is FactorPattern.C12) == cubic_has_unique_root(F8, a, b)


class TestQuartic:
    def test_gf4_split_resolvent(self):
        w = F4.generator
        assert quartic_pattern(F4, 0, 1, w) is quartic_pattern_scan(F4, 0, 1, w)

    def test_root_count_semantics(self):
        for a2 in F8.elements():
            for a1 in F8.nonzero():
                for a0 in F8.nonzero():
                    pat = quartic_pattern(F8, a2, a1, a0)
                    f = DensePoly.make(F8, (a0, a1, a2, 0, 1))
                    assert pat.value.count(1) == len(roots_by_scan(f))

    def test_degenerate_coefficients_rejected(self):
        with pytest.raises(ValueError):
            quartic_pattern(F8, 1, 0, 1)
        with pytest.raises(ValueError):
            quartic_pattern(F8, 1, 1, 0)
        with pytest.raises(ValueError):
            quartic_pattern_scan(F8, 1, 0, 1)

    @given(st.integers(0, 15), st.integers(1, 15), st.integers(1, 15))
    def test_criterion_matches_scan_oracle_gf16(self, a2, a1, a0):
        assert quartic_pattern(F16, a2, a1, a0) is quartic_pattern_scan(F16, a2, a1, a0)

    @given(st.integers(0, 63), st.integers(1, 63), st.integers(1, 63))
    def test_criterion_matches_scan_oracle_gf64(self, a2, a1, a0):
        ctx = make_field(6)
        assert quartic_pattern(ctx, a2, a1, a0) is quartic_pattern_scan(ctx, a2, a1, a0)


class TestRootScan:
    def test_kernel_of_artin_schreier(self):
        f = DensePoly.make(F8, (0, 1, 1))
        assert roots_by_scan(f) == {0, 1}

    def test_all_nonzero(self):
        f = DensePoly.make(F8, tuple([1] + [0] * 6 + [1]))  # x^7 + 1
        assert roots_by_scan(f) == set(F8.nonzero())

    def test_modulus_splits_in_its_own_field(self):
        f = DensePoly.make(F8, (1, 1, 0, 1))  # x^3 + x + 1
        g = F8.generator
        assert roots_by_scan(f) == {g, F8.sqr(g), F8.pow(g, 4)} == {2, 4, 6}

    def test_zero_poly_rejected(self):
        with pytest.raises(ValueError):
            roots_by_scan(DensePoly.zero(F8))


class TestAgreementEngines:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_quadratic(self, n):
        rep = lemma_quadratic_agreement(make_field(n))
        assert rep.ok and rep.checked == (2**n - 1) * 2**n

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_cubic(self, n):
        rep = lemma_cubic_agreement(make_field(n))
        assert rep.ok and rep.checked == (2**n - 1) * 2**n

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_quartic(self, n):
        rep = lemma_quartic_agreement(make_field(n))
        assert rep.ok and rep.checked == (2**n - 1) ** 2 * 2**n

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_quartic_grouped_oracle_matches_single_triple_oracle(self, n):
        # quartic_pattern, the criterion the engine runs in grouped form, must
        # agree with the one-triple-at-a-time scan oracle on every input
        ctx = make_field(n)
        for a2 in ctx.elements():
            for a1 in ctx.nonzero():
                for a0 in ctx.nonzero():
                    assert quartic_pattern(ctx, a2, a1, a0) is quartic_pattern_scan(
                        ctx, a2, a1, a0
                    )

    def test_cubic_engine_reports_a_planted_criterion_fault(self, monkeypatch):
        # the engine must run cubic_has_unique_root itself, so a fault planted
        # in it at one input is reported there and nowhere else
        real = lowdeg.cubic_has_unique_root
        bad = (3, 5)
        monkeypatch.setattr(
            lowdeg, "cubic_has_unique_root", lambda ctx, a, b: real(ctx, a, b) != ((a, b) == bad)
        )
        assert lemma_cubic_agreement(F16).mismatches == (bad,)

    def test_quartic_resolvent_fault_reaches_criterion_and_engine(self, monkeypatch):
        # quartic_pattern and the engine share one resolvent step: dropping all
        # but the first resolvent root must make both disagree with the scan
        # oracle, on the same inputs
        real = lowdeg._resolvent_scaled
        monkeypatch.setattr(
            lowdeg, "_resolvent_scaled", lambda ctx, a1, roots: real(ctx, a1, roots)[:1]
        )
        wrong = tuple(
            (a2, a1, a0)
            for a2 in F16.elements()
            for a1 in F16.nonzero()
            for a0 in F16.nonzero()
            if quartic_pattern(F16, a2, a1, a0) is not quartic_pattern_scan(F16, a2, a1, a0)
        )
        assert wrong
        assert lemma_quartic_agreement(F16).mismatches == wrong

    def test_quadratic_engine_reports_a_planted_criterion_fault(self, monkeypatch):
        # the engine must run quadratic_solutions itself; a root set of size 1
        # is wrong for every (u, v), so the fault is reported there alone
        real = lowdeg.quadratic_solutions
        bad = (3, 5)
        monkeypatch.setattr(
            lowdeg, "quadratic_solutions", lambda ctx, u, v: {0} if (u, v) == bad else real(ctx, u, v)
        )
        assert lemma_quadratic_agreement(F16).mismatches == (bad,)

    def test_artin_schreier_table_fault_fails_solver_check_and_engine(self):
        # one wrong basis image in a fresh context's split table: the image of
        # 2^1 is off by 2, so z^2 + z misses c by 4 ^ 2 wherever bit 1 of c is set
        ctx = make_field(6)
        lo, _ = ctx.artin_schreier_split()
        for i in range(len(lo)):
            if i & 2:
                lo[i] ^= 2
        with pytest.raises(AssertionError):
            check_split_solver(ctx, ctx.elements())
        with pytest.raises(AssertionError, match="non-root"):
            lemma_quadratic_agreement(ctx)
