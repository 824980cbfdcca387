import math
import random
from collections import Counter

import pytest
from hypothesis import assume, given, strategies as st

from gf2to1 import two2one
from gf2to1.field import LOG_TABLE_MAX_N, linear_table, make_field
from gf2to1.poly import (
    GF2Poly,
    SparsePoly,
    count_bivariate_zeros,
    equal_up_to_scalar,
    reduce_exponents,
    resultant_eliminate,
    sylvester_resultant,
)
from gf2to1.search import search_sparse
from gf2to1.two2one import (
    FAMILY_TAGS,
    IdentityCheck,
    admissible_family_tags,
    alpha_roots,
    fibers_two_to_one,
    is_o_polynomial,
    is_two_to_one,
    make_family,
    o_orbit,
    orbits_two_to_one,
    point_count_curve,
    point_count_lower_bound,
    preimage_histogram,
    qm_canonical,
    qm_shape_orbit,
    qm_transforms,
    qm_unit_transforms,
    verify_resultant_identity,
    _elimination_pair,
)

F8 = make_field(3)
F16 = make_field(4)
F32 = make_field(5)

# the quadrinomial families quad_01..06 whose eliminant identities the library proves
ELIMINATION_IDENTITIES = (1, 2, 3, 4, 5, 6)


def sp(ctx, *pairs):
    return SparsePoly.make(ctx, pairs)


@st.composite
def random_sparse(draw, n_min=2, n_max=6, max_terms=4, any_exponent=False):
    """A nonzero sparse polynomial; exponents in [1, 2^n - 1], or with
    any_exponent in [0, 3 * 2^n] so constants and unreduced terms occur."""
    n = draw(st.integers(n_min, n_max))
    ctx = make_field(n)
    exps = st.integers(0, 3 * ctx.order) if any_exponent else st.integers(1, ctx.order - 1)
    terms = draw(
        st.lists(st.tuples(exps, st.integers(1, ctx.order - 1)), min_size=1, max_size=max_terms)
    )
    f = SparsePoly.make(ctx, terms)
    assume(not reduce_exponents(f).is_zero)
    return f


@st.composite
def gf2_coefficient_poly(draw, n_max=14):
    """A polynomial with every coefficient 1 over GF(2^n), n <= n_max; its
    exponents lean on 0, 2^n - 1 and powers of 2 (so linearized 2-to-1 maps
    occur) and range up to 3 * 2^n.  Equal exponents cancel, so f may be 0."""
    n = draw(st.integers(2, n_max))
    ctx = make_field(n)
    special = st.sampled_from([0, ctx.order - 1]) | st.integers(0, n - 1).map(lambda j: 1 << j)
    exp = st.one_of(special, special, st.integers(0, 3 * ctx.order))
    exps = draw(st.lists(exp, min_size=1, max_size=5))
    return SparsePoly.make(ctx, [(e, 1) for e in exps])


def kernel_two_to_one(f):
    """The oracle for the orbit path: fibers_two_to_one over the whole domain walk."""
    const, streams = two2one._streams(f)
    return fibers_two_to_one(f.ctx.order, const, two2one._walk(f.ctx.order, const, streams), 0, (0,))


def shift_criterion(f):
    """Whether f(x+a) + f(a) = 0 has exactly two roots for every a.

    Equivalent to is_two_to_one (the count is the size of a's own fiber), and a
    literally different pass, so it cross-checks the fiber kernel.
    """
    ctx = f.ctx
    V = [f.eval(x) for x in ctx.elements()]
    for a in ctx.elements():
        va = V[a]
        cnt = 0
        for x in ctx.elements():
            if V[x ^ a] == va:
                cnt += 1
                if cnt > 2:
                    return False
        if cnt != 2:
            return False
    return True


def qm_transforms_by_mul(f):
    """Reference for qm_transforms with field multiplications: term j is
    stepped by g^(e_j) per b, and each transform is divided by its leading
    coefficient.  Same yield order: d ascending, then b = g^0, g^1, ..."""
    ctx = f.ctx
    fr = reduce_exponents(f)
    N = ctx.order - 1
    exps = fr.exponents()
    k = len(exps)
    tabs = [ctx.mul_table(ctx.pow(ctx.generator, e % N)) for e in exps]
    for d in range(1, N + 1):
        if math.gcd(d, N) != 1:
            continue
        new_exps = tuple((e * d - 1) % N + 1 if e > 0 else 0 for e in exps)
        order_ix = sorted(range(k), key=lambda j: -new_exps[j])
        cur = list(fr.coeffs())
        for _ in range(N):
            a = ctx.inv(cur[order_ix[0]])
            yield tuple((new_exps[j], ctx.mul(a, cur[j])) for j in order_ix)
            cur = [tabs[j][cur[j]] for j in range(k)]


def assert_unit_walk_is_the_all_ones_part(f):
    """qm_unit_transforms against the full walk: its tuples are exactly the
    transforms whose coefficients are all 1, and the canonical of f is the
    least transform.  A polynomial that reduces to zero has neither."""
    if reduce_exponents(f).is_zero:
        for call in (qm_canonical, lambda f: list(qm_unit_transforms(f))):
            with pytest.raises(ValueError, match="zero polynomial"):
                call(f)
        return
    full = list(qm_transforms(f))
    assert qm_canonical(f) == SparsePoly(f.ctx, min(full))
    assert set(qm_unit_transforms(f)) == {t for t in full if all(c == 1 for _, c in t)}


class TestHistogram:
    def test_identity_all_fibers_one(self):
        h = preimage_histogram(sp(F8, (1, 1)))
        assert set(h.counts.values()) == {1} and h.image_size == 8

    def test_kernel_two_linearized(self):
        h = preimage_histogram(sp(F8, (2, 1), (1, 1)))
        assert h.is_two_to_one and set(h.counts.values()) == {2}

    def test_cube_fiber_matches_gcd(self):
        h = preimage_histogram(sp(F16, (3, 1)))
        assert h.counts[1] == 3  # gcd(3, 15)

    def test_fibers_sum_to_field_size(self):
        for terms in [((5, 1), (3, 3)), ((7, 2), (1, 1)), ((0, 5),)]:
            h = preimage_histogram(SparsePoly.make(F16, terms))
            assert sum(h.counts.values()) == F16.order

    def test_histogram_matches_eval(self):
        f = sp(F16, (9, 7), (3, 2), (0, 1))
        assert preimage_histogram(f).counts == Counter(f.eval(x) for x in F16.elements())

    def test_budget(self):
        big = make_field(25)
        with pytest.raises(ValueError, match="n=24"):
            is_two_to_one(sp(big, (2, 1), (1, 1)))

    def test_five_term_polynomials_use_generic_scan(self):
        # _walk steps the last two terms at its top level and folds the other
        # three into a nested walk, the first of them one level deeper
        f = sp(F16, (9, 3), (7, 1), (5, 2), (3, 1), (1, 1))
        h = preimage_histogram(f)
        assert is_two_to_one(f) == h.is_two_to_one

    @pytest.mark.parametrize(
        "n, terms, verdict",
        [
            (14, ((3, 1),), False),  # 3 divides 2^14 - 1: a 1-fiber and 5461 fibers of size 3
            (13, ((6, 1), (3, 1), (1, 3)), False),  # three streams, one walked by the nested level
            (13, ((6, 1), (5, 1), (3, 1), (1, 1), (0, 1)), True),  # quad_10 + 1: four streams and f(0)
        ],
    )
    def test_scans_match_literal_eval_above_log_cap(self, n, terms, verdict):
        """Above LOG_TABLE_MAX_N every stream is stepped by split_table halves;
        the verdict and the histogram must match a literal f.eval over the
        whole field."""
        assert n > LOG_TABLE_MAX_N
        f = sp(make_field(n), *terms)
        V = [f.eval(x) for x in f.ctx.elements()]
        counts = Counter(V)
        assert all(c == 2 for c in counts.values()) == verdict
        assert is_two_to_one(f) == verdict
        assert preimage_histogram(f).counts == counts


class TestIsTwoToOne:
    def test_linearized_yes(self):
        for n in (2, 3, 4, 6, 9):
            ctx = make_field(n)
            assert is_two_to_one(sp(ctx, (2, 1), (1, 1)))

    def test_quadrinomial_over_gf32(self):
        assert is_two_to_one(sp(F32, (6, 1), (4, 1), (3, 1), (1, 1)))

    def test_cube_no(self):
        assert not is_two_to_one(sp(F16, (3, 1)))

    def test_permutation_no(self):
        assert not is_two_to_one(sp(F8, (1, 1)))

    @given(random_sparse())
    def test_histogram_characterization(self, f):
        # half-size image is necessary but not sufficient: fiber profiles like
        # (3, 1, 2, ..., 2) also reach 2^(n-1) values (e.g. x^15+x^13+x^11
        # over GF(16)), so the verdict must come from fiber sizes
        h = preimage_histogram(f)
        assert is_two_to_one(f) == h.is_two_to_one
        if is_two_to_one(f):
            assert h.image_size == f.ctx.order // 2

    def test_half_image_without_two_to_one(self):
        f = sp(F16, (15, 1), (13, 1), (11, 1))
        h = preimage_histogram(f)
        assert h.image_size == F16.order // 2 and not is_two_to_one(f)

    @given(random_sparse())
    def test_shift_criterion_equivalent(self, f):
        assert shift_criterion(f) == is_two_to_one(f)

    def test_shift_criterion_on_permutation(self):
        assert not shift_criterion(sp(F8, (1, 1)))


class TestFiberKernel:
    """fibers_two_to_one with a live coefficient stream, against a literal
    Counter over f0 and base[i] ^ u*s^i, the stream built with ctx.mul and
    ctx.pow."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_matches_literal_fiber_count(self, n):
        ctx = make_field(n)
        rng = random.Random(n)
        N = ctx.order - 1
        verdicts = Counter()
        for case in range(24):
            # values: every one twice (2-to-1), one pair broken by an unused
            # value (no fiber of 3, yet not 2-to-1), or uniform at random
            pairs = rng.sample(range(ctx.order), ctx.order // 2)
            values = pairs * 2
            if case % 3 == 1:
                values[0] = next(v for v in range(ctx.order) if v not in pairs)
            elif case % 3 == 2:
                values = [rng.randrange(ctx.order) for _ in values]
            rng.shuffle(values)
            s = rng.randrange(1, ctx.order)
            u = rng.randrange(1, ctx.order) if case % 4 else 0
            t = ctx.mul_table(s) if u else (0,)
            f0 = values[0]
            base = [v ^ ctx.mul(u, ctx.pow(s, i)) for i, v in enumerate(values[1:])]
            counts = Counter([f0] + [base[i] ^ ctx.mul(u, ctx.pow(s, i)) for i in range(N)])
            expected = all(c == 2 for c in counts.values())
            assert fibers_two_to_one(ctx.order, f0, base, u, t) == expected, case
            verdicts[expected] += 1
            # a lazy base is read up to the first point that makes a fiber of 3
            read = []
            lazy = (read.append(w) or w for w in base)
            assert fibers_two_to_one(ctx.order, f0, lazy, u, t) == expected
            seen = Counter([f0])
            for i, v in enumerate(values[1:], 1):
                seen[v] += 1
                if seen[v] == 3:
                    assert len(read) == i, case
                    break
            else:
                assert len(read) == N
        assert verdicts[True] and verdicts[False]


class TestOrbitKernel:
    """orbits_two_to_one fed f(0) and f at each orbit leader by f.eval, for
    polynomials with GF(2) coefficients, against a literal Counter of f.eval
    over the whole field."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_matches_literal_fiber_count(self, n):
        ctx = make_field(n)
        rng = random.Random(n)
        N = ctx.order - 1
        antilog, key, leaders, sizes = ctx.orbit_tables()
        units = [e for e in range(1, N) if math.gcd(e, N) == 1]
        cases = []
        for _ in range(8):
            # (x^2 + x)^e for a unit e is 2-to-1, with f(0) = 0 and, plus 1,
            # f(0) = 1; by Lucas' theorem its terms are x^(e + j), j a submask
            # of e.  x^e is a permutation, so no orbit overfills; a random
            # polynomial mostly overfills one early.
            e = rng.choice(units)
            two = [(e + j, 1) for j in range(e + 1) if j & e == j]
            cases += [two, two + [(0, 1)], [(e, 1)]]
            cases.append([(rng.randrange(N + 1), 1) for _ in range(rng.randrange(1, 5))])
        verdicts = Counter()
        for terms in cases:
            f = SparsePoly.make(ctx, terms)
            expected = all(c == 2 for c in Counter(map(f.eval, ctx.elements())).values())
            values = [f.eval(0)] + [f.eval(antilog[L]) for L in leaders]
            assert orbits_two_to_one(values, key, sizes) == expected, terms
            verdicts[expected] += 1
            # a lazy values is read up to the first orbit that overfills its value orbit
            read = []
            lazy = (read.append(v) or v for v in values)
            assert orbits_two_to_one(lazy, key, sizes) == expected
            counts = Counter()
            for i, (v, s) in enumerate(zip(values, sizes), 1):
                counts[key[v]] += s
                if counts[key[v]] > 2 * sizes[key[v]]:
                    assert len(read) == i, terms
                    break
            else:
                assert len(read) == len(values)
        assert verdicts[True] and verdicts[False]


class TestOrbitPath:
    """is_two_to_one on GF(2)-coefficient polynomials up to n = 17 takes one
    point per Frobenius orbit; the whole-domain kernel is its oracle."""

    @given(gf2_coefficient_poly())
    def test_matches_the_kernel(self, f):
        assert is_two_to_one(f) == kernel_two_to_one(f)
        assert f.ctx._orbits is not None  # the verdict came from the orbit path

    @pytest.mark.parametrize("n, hits", [(5, 320), (6, 57)])
    def test_quadrinomial_template_hits_match_the_search(self, n, hits):
        ctx = make_field(n)
        N = ctx.order - 1
        found = {
            t
            for k in range(4, N)
            for l in range(3, k)
            for d in range(2, l)
            if is_two_to_one(SparsePoly(ctx, t := ((k, 1), (l, 1), (d, 1), (1, 1))))
        }
        raw = {h.poly.terms for h in search_sparse(ctx, "quadrinomial", dedupe="none").hits}
        assert found == raw and len(found) == hits

    def test_tables_only_for_gf2_coefficients_up_to_n17(self):
        # x^N is 1 on every nonzero x, so both paths exit after three points
        big = make_field(18)
        assert not is_two_to_one(sp(big, (big.order - 1, 1)))
        assert big._orbits is None
        ctx = make_field(13)
        assert not is_two_to_one(sp(ctx, (ctx.order - 1, 3)))
        assert ctx._orbits is None
        assert not is_two_to_one(sp(ctx, (ctx.order - 1, 1)))
        assert ctx._orbits is not None


class TestMonomial:
    def test_binary_always_false(self):
        # gcd(d, 2^n - 1) is odd, so x^d is never 2-to-1 over GF(2^n)
        assert not is_two_to_one(sp(F16, (6, 1)))  # cross-check by histogram
        assert not preimage_histogram(sp(F16, (6, 1))).is_two_to_one


class TestOPolynomial:
    def test_square_is_o_polynomial_odd_n(self):
        for n in (3, 5):
            ctx = make_field(n)
            assert is_o_polynomial(sp(ctx, (2, 1)))

    def test_identity_is_not(self):
        assert not is_o_polynomial(sp(F8, (1, 1)))

    def test_nonzero_at_zero_is_not(self):
        assert not is_o_polynomial(sp(F8, (2, 1), (0, 1)))

    def test_segre_monomial_gf32(self):
        assert is_o_polynomial(sp(F32, (6, 1)))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_definition_on_monomials_and_binomials(self, n):
        # the literal definition: f(0) = 0 and every f + a*x has all fibers of size 2
        ctx = make_field(n)
        N = ctx.order - 1
        polys = [sp(ctx, (k, 1)) for k in range(1, N + 1)]
        polys += [
            sp(ctx, (k, 1), (l, c))
            for k in range(1, N + 1)
            for l in range(k)
            for c in ctx.nonzero()
        ]
        for f in polys:
            literal = f.eval(0) == 0 and all(
                preimage_histogram(sp(ctx, *f.terms, (1, a))).is_two_to_one
                for a in ctx.nonzero()
            )
            assert is_o_polynomial(f) == literal, f

    @pytest.mark.parametrize("k,n", [(2, 5), (6, 5)])
    def test_monomial_cross_check_slope_permutation(self, k, n):
        # the slope map x -> (f(x+s) + f(s))/x (value k*s^(k-1) at 0) must
        # permute the field for every s; sampled s
        ctx = make_field(n)
        f = sp(ctx, (k, 1))
        for s in [0, 1, ctx.generator, ctx.order - 1]:
            fs = f.eval(s)
            values = {ctx.mul(ctx.pow(s, k - 1), k % 2)}
            for x in ctx.nonzero():
                values.add(ctx.mul(f.eval(x ^ s) ^ fs, ctx.inv(x)))
            assert len(values) == ctx.order


class TestOOrbit:
    def test_collapses_to_three(self):
        assert o_orbit(2, 5) == {2, 16, 30}

    def test_contains_k_and_closed(self):
        orb = o_orbit(6, 5)
        assert 6 in orb
        assert {o_orbit(m, 5) == orb for m in orb} == {True}

    def test_boundary_k1_rejected(self):
        with pytest.raises(ValueError, match="gcd"):
            o_orbit(1, 5)

    def test_gcd_k_rejected(self):
        with pytest.raises(ValueError, match="gcd"):
            o_orbit(7, 3)  # gcd(7, 7) = 7

    def test_members_give_two_to_one_binomials(self):
        for m in o_orbit(6, 5):
            assert is_two_to_one(sp(F32, (m, 1), (1, 1)))


class TestQmEquivalence:
    @given(random_sparse(n_max=6, any_exponent=True))
    def test_transforms_match_multiplication_reference(self, f):
        assert list(qm_transforms(f)) == list(qm_transforms_by_mul(f))

    @given(random_sparse(n_max=5), st.data())
    def test_canonical_is_orbit_invariant(self, f, data):
        ctx = f.ctx
        N = ctx.order - 1
        units = [d for d in range(1, N + 1) if math.gcd(d, N) == 1]
        d = data.draw(st.sampled_from(units))
        a = data.draw(st.integers(1, N))
        b = data.draw(st.integers(1, N))
        g = SparsePoly.make(
            ctx,
            (((e * d - 1) % N + 1, ctx.mul(a, ctx.mul(c, ctx.pow(b, e)))) for e, c in f.terms),
        )
        assert qm_canonical(g) == qm_canonical(f)

    @given(random_sparse(n_max=5), st.data())
    def test_two_to_one_is_qm_invariant(self, f, data):
        ctx = f.ctx
        N = ctx.order - 1
        units = [d for d in range(1, N + 1) if math.gcd(d, N) == 1]
        d = data.draw(st.sampled_from(units))
        a = data.draw(st.integers(1, N))
        b = data.draw(st.integers(1, N))
        g = SparsePoly.make(
            ctx,
            (((e * d - 1) % N + 1, ctx.mul(a, ctx.mul(c, ctx.pow(b, e)))) for e, c in f.terms),
        )
        assert is_two_to_one(g) == is_two_to_one(f)

    @given(st.integers(1, 6), st.integers(1, 6))
    def test_composition_with_permutation_monomial(self, k, d_ix):
        # h = x^d with gcd(d, 7) = 1 permutes GF(8); g(h(x)) is 2-to-1 iff g is
        ctx = F8
        g = sp(ctx, (k, 1), (1, 1))
        d = d_ix  # every d in [1, 6] is a unit mod 7
        comp = reduce_exponents(
            SparsePoly.make(ctx, (((e * d), c) for e, c in g.terms))
        )
        assert is_two_to_one(comp) == is_two_to_one(g)

    def test_monomial_canonical_is_minimal_orbit_exponent(self):
        for k in range(1, 8):
            f = sp(F8, (k, 5))
            kmin = min((k * d - 1) % 7 + 1 for d in range(1, 7))
            assert qm_canonical(f) == sp(F8, (kmin, 1))

    def test_canonical_compares_term_pairs_from_the_lead(self):
        # the least term tuple ranks the second coefficient before the third
        # exponent, so it is not the least exponent sequence
        f = sp(F16, (13, 0x4), (10, 0xD), (4, 0xD))
        assert qm_canonical(f).terms == ((10, 1), (7, 1), (4, 3))
        exponent_first = min(qm_transforms(f), key=lambda t: ([e for e, _ in t], [c for _, c in t]))
        assert exponent_first == ((10, 1), (7, 2), (1, 12))

    def test_canonical_idempotent(self):
        f = sp(F16, (12, 1), (11, 1), (1, 2))
        c = qm_canonical(f)
        assert qm_canonical(c) == c

    def test_orbit_size_with_shape_filter(self):
        f = sp(F8, (2, 1), (1, 1))
        full = qm_shape_orbit(f)
        binom = qm_shape_orbit(f, lambda terms: len(terms) == 2)
        assert binom <= full and len(binom) >= 1

    @given(gf2_coefficient_poly(n_max=6))
    def test_unit_walk_on_gf2_coefficients(self, f):
        assert_unit_walk_is_the_all_ones_part(f)

    @pytest.mark.parametrize("n", [7, 8])
    def test_unit_walk_on_gf2_coefficients_sampled(self, n):
        # exponents from 0 to 3 * 2^n, leaning on 0 and on those that reduce to 1 or N
        rng = random.Random(n)
        ctx = make_field(n)
        special = [0, 1, ctx.order - 1, ctx.order, 2 * ctx.order - 1]
        for _ in range(4):
            exps = [rng.choice(special) if rng.random() < 0.3 else rng.randrange(3 * ctx.order) for _ in range(4)]
            assert_unit_walk_is_the_all_ones_part(SparsePoly.make(ctx, [(e, 1) for e in exps]))

    def test_unit_walk_guards(self):
        with pytest.raises(ValueError, match="zero polynomial"):
            next(qm_unit_transforms(sp(F8, (8, 1), (1, 1))))
        with pytest.raises(ValueError, match=f"up to n={LOG_TABLE_MAX_N}"):
            next(qm_unit_transforms(sp(make_field(LOG_TABLE_MAX_N + 1), (3, 1), (1, 1))))

    def test_zero_poly_rejected(self):
        with pytest.raises(ValueError):
            list(qm_transforms(SparsePoly.make(F8, [])))

    def test_rejected_above_the_log_cap(self, deadline):
        # the walk reads FieldCtx.log_tables(); at n = 13 it would be 8191 * 8190 transforms
        deadline(5)
        f = sp(make_field(LOG_TABLE_MAX_N + 1), (3, 1), (1, 1))
        for call in (qm_canonical, qm_shape_orbit):
            with pytest.raises(ValueError, match=f"up to n={LOG_TABLE_MAX_N}"):
                call(f)


def square_map(f):
    """The reduced polynomial inducing x -> f(x)^2.

    Post-composing with the squaring bijection preserves fiber sizes, so f
    and square_map(f) are 2-to-1 together; families stated via f^2 are
    therefore verified on f itself.
    """
    ctx = f.ctx
    return reduce_exponents(SparsePoly.make(ctx, ((2 * e, ctx.sqr(c)) for e, c in f.terms)))


class TestSquareMap:
    def test_square_exponents_and_coeffs(self):
        f = sp(F8, (3, 3), (1, 2))
        g = square_map(f)
        for x in F8.elements():
            assert g.eval(x) == F8.sqr(f.eval(x))

    @given(random_sparse(n_max=5))
    def test_two_to_one_transfers_through_squaring(self, f):
        assert is_two_to_one(square_map(f)) == is_two_to_one(f)

    def test_family_stated_via_square(self):
        # quad_07 is proved through its square; the literal f must verify
        f = make_family("quad_07", F32)
        assert is_two_to_one(f) and is_two_to_one(square_map(f))


class TestFamilies:
    def test_tri_I_n4_shape(self):
        f = make_family("tri_I", F16)
        d = dict(f.terms)
        assert set(d) == {12, 11, 1} and d[12] == d[11] == 1
        alpha = d[1]
        assert F16.pow(alpha, 4) ^ alpha ^ 1 == 0

    def test_tri_II_n6_shape(self):
        ctx = make_field(6)
        f = make_family("tri_II", ctx)
        d = dict(f.terms)
        assert set(d) == {13, 8, 1}
        omega = d[1]
        assert ctx.sqr(omega) ^ omega ^ 1 == 0

    def test_quad01_smallest_n(self):
        f = make_family("quad_01", F8)
        assert f.exponents() == (6, 4, 2, 1)

    def test_glynn_exponents(self):
        assert dict(make_family("bin_glynn1", F32).terms) == {24: 1, 1: 1}
        assert dict(make_family("bin_glynn2", F32).terms) == {28: 1, 1: 1}

    def test_inadmissible_messages(self):
        with pytest.raises(ValueError, match="m not congruent"):
            make_family("quad_12", make_field(12))
        with pytest.raises(ValueError, match="odd"):
            make_family("quad_03", F16)
        assert "quad_12" in admissible_family_tags(15)
        with pytest.raises(ValueError, match="not admissible"):
            make_family("tri_II", F16)  # m = 2 even

    def test_unknown_tag(self):
        with pytest.raises(ValueError, match="unknown family"):
            make_family("quad_99", F8)

    def test_tag_normalization(self):
        assert make_family("quad_1", F8) == make_family("quad_01", F8)

    @pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
    def test_alpha_roots_match_frobenius_scan(self, n):
        ctx = make_field(n)
        for m in range(1, n + 1):
            scan = [z for z in ctx.elements() if ctx.frobenius(z, m) ^ z ^ 1 == 0]
            assert alpha_roots(ctx, m) == scan

    @pytest.mark.parametrize("n", range(2, 17))
    def test_alpha_roots_match_the_value_table(self, n):
        # the value table of z -> z^(2^m) + z over the whole field, read at 1
        ctx = make_field(n)
        for m in sorted({1, n // 2}):
            T = linear_table([ctx.frobenius(1 << b, m) ^ (1 << b) for b in range(n)])
            assert alpha_roots(ctx, m) == [z for z, v in enumerate(T) if v == 1]

    def test_tri_I_parameter_at_n32(self, deadline):
        deadline(10)
        ctx = make_field(32)
        (_, alpha), = [t for t in make_family("tri_I", ctx).terms if t[0] == 1]
        assert ctx.frobenius(alpha, 16) ^ alpha ^ 1 == 0
        assert len(alpha_roots(ctx, 16)) == 1 << 16

    def test_all_parameter_roots_give_two_to_one(self):
        for a in alpha_roots(F16, 2):
            assert is_two_to_one(make_family("tri_I", F16, param=a))
        ctx = make_field(6)
        roots = alpha_roots(ctx, 3)
        assert len(roots) == 8
        for a in roots:
            assert is_two_to_one(make_family("tri_I", ctx, param=a))
        omegas = alpha_roots(ctx, 1)
        assert [next(t for t in range(1, ctx.order) if ctx.pow(w, t) == 1) for w in omegas] == [3, 3]
        for w in omegas:
            assert is_two_to_one(make_family("tri_II", ctx, param=w))

    def test_deg5_rows_fixed_to_n3(self):
        assert "deg5_row_01" not in admissible_family_tags(4)
        for r in (1, 7, 21):
            assert is_two_to_one(make_family(f"deg5_row_{r:02d}", F8))

    def test_deg5_free_coefficient_rows(self):
        for c in F8.nonzero():
            assert is_two_to_one(make_family("deg5_row_22", F8, param=c))
            assert is_two_to_one(make_family("deg5_row_23", F8, param=c))

    def test_binomial_families_verify_up_to_n17(self):
        for tag in ("bin_singer", "bin_segre", "bin_glynn1", "bin_glynn2"):
            for n in range(3, 18, 2):
                assert is_two_to_one(make_family(tag, make_field(n))), (tag, n)
        for n in range(4, 17, 2):
            assert is_two_to_one(make_family("bin_even_inv", make_field(n))), n

    def test_bin_singer_verifies_at_n19(self):
        # a 2^19-point scan, each stream stepped by split tables of 2^10 and 2^9 entries
        assert is_two_to_one(make_family("bin_singer", make_field(19)))

    def test_every_family_verifies_at_smallest_admissible_n(self):
        smallest = {}
        for tag in FAMILY_TAGS:
            for n in range(2, 13):
                if tag in admissible_family_tags(n):
                    smallest[tag] = n
                    break
        assert set(smallest) == set(FAMILY_TAGS)
        for tag, n in smallest.items():
            assert is_two_to_one(make_family(tag, make_field(n))), tag


ONE, X, A = (GF2Poly.monomial(*m) for m in ((0, 0, 0), (1, 0, 0), (0, 1, 0)))


def pointwise_identity_check(theorem, ctx):
    """The oracle for verify_resultant_identity: the literal loop over every
    a outside {0, 1}, b = a^(2^(m+1)), that eliminates y at each point."""
    m1 = 1 << ((ctx.n + 1) // 2)
    for a in range(2, ctx.order):
        F, G, closed = two2one._elimination_pair(theorem, ctx, a, ctx.pow(a, m1))
        if not equal_up_to_scalar(resultant_eliminate(F, G), closed):
            return IdentityCheck(theorem, ctx.n, False, a)
    return IdentityCheck(theorem, ctx.n, True)


def swapped(eliminant):
    """Each theorem's eliminant replaced by the next one's (6 by 1's)."""
    return lambda theorem: eliminant(theorem % 6 + 1)


def perturbed(eliminant):
    """One x+a factor changed to x+a+1, in the eliminants 3..6 that have one."""

    def mutated(theorem):
        closed = eliminant(theorem)
        return closed if theorem < 3 else closed.exact_div(X + A) * (X + A + ONE)

    return mutated


class TestEliminationIdentities:
    def test_one_identity_per_quadrinomial_lift(self):
        assert ELIMINATION_IDENTITIES == tuple(two2one._QUAD_LIFTS)

    @pytest.mark.parametrize("theorem", range(1, 7))
    def test_holds_over_gf8(self, theorem):
        assert verify_resultant_identity(theorem, F8)

    def test_identity_one_carries_squared_factor(self):
        # the eliminant has degree 4: x * (x+a+1)^2 * (linear), not degree 3
        a = F8.generator
        F, G, closed = _elimination_pair(1, F8, a, F8.pow(a, 4))
        elim = resultant_eliminate(F, G)
        assert elim.degree == 4 == closed.degree

    @pytest.mark.parametrize("n", (3, 5, 7))
    def test_pair_vanishes_on_the_graph_exactly_on_the_fiber(self, n):
        # on y = x^(2^(m+1)), F and G vanish exactly where f(x+a) = f(a), f the
        # family make_family builds; x = a is excluded, since F carries the
        # factor (x+a)^p that clears the negative powers of quad_04..06
        ctx = make_field(n)
        m1 = 1 << ((n + 1) // 2)
        for t in ELIMINATION_IDENTITIES:
            f = make_family(f"quad_{t:02d}", ctx)
            V = [f.eval(x) for x in ctx.elements()]
            for a in range(2, ctx.order):
                F, G, _ = _elimination_pair(t, ctx, a, ctx.pow(a, m1))
                for x in ctx.elements():
                    if x != a:
                        y = ctx.pow(x, m1)
                        on_fiber = V[x ^ a] == V[a]
                        assert (F.eval(x, y) == 0) == on_fiber == (G.eval(x, y) == 0), (t, a, x)

    def test_holds_at_b_independent_of_a(self):
        ctx = make_field(11)
        rng = random.Random(11)
        for t in ELIMINATION_IDENTITIES:
            for _ in range(6):
                a, b = rng.randrange(2, ctx.order), rng.randrange(2, ctx.order)
                F, G, closed = _elimination_pair(t, ctx, a, b)
                assert equal_up_to_scalar(resultant_eliminate(F, G), closed), (t, a, b)

    def test_fails_against_another_theorems_eliminant(self, monkeypatch):
        monkeypatch.setattr(two2one, "_eliminant", swapped(two2one._eliminant))
        chk = verify_resultant_identity(4, F32)
        assert not chk.ok and chk.failing_a is not None

    def test_fails_with_one_factor_perturbed(self, monkeypatch):
        # theorem 3's product with one x+a factor changed to x+a+1
        monkeypatch.setattr(two2one, "_eliminant", perturbed(two2one._eliminant))
        chk = verify_resultant_identity(3, F32)
        assert not chk.ok and chk.failing_a is not None

    @pytest.mark.parametrize("theorem", ELIMINATION_IDENTITIES)
    def test_proved_over_gf2_ab(self, theorem):
        proved, guard = two2one._prove_identity(theorem)
        assert proved and not guard.is_zero
        # the pinned product is the resultant itself, not only a multiple of it
        F, G = two2one._RELATIONS[theorem]
        assert sylvester_resultant(F, G, ONE) == two2one._eliminant(theorem)

    @pytest.mark.parametrize("mutation", [swapped, perturbed])
    def test_mutations_fail_symbolically(self, mutation, monkeypatch):
        monkeypatch.setattr(two2one, "_eliminant", mutation(two2one._eliminant))
        mutated = range(1, 7) if mutation is swapped else range(3, 7)
        assert not any(two2one._prove_identity(t)[0] for t in mutated)

    @pytest.mark.parametrize("mutation", [None, swapped, perturbed])
    @pytest.mark.parametrize("n", (3, 5, 7, 9))
    def test_matches_pointwise_oracle(self, n, mutation, monkeypatch):
        if mutation is not None:
            monkeypatch.setattr(two2one, "_eliminant", mutation(two2one._eliminant))
        ctx = make_field(n)
        for theorem in ELIMINATION_IDENTITIES:
            assert verify_resultant_identity(theorem, ctx) == pointwise_identity_check(theorem, ctx)

    @pytest.mark.parametrize("theorem, n", [(4, 3), (6, 3), (6, 9)])
    def test_degree_drop_points_checked_pointwise(self, theorem, n, monkeypatch):
        # F's leading y-coefficient times a^3 + a + 1 drops F's y-degree at the
        # three roots, which lie in GF(8).  The pinned eliminant becomes the new
        # resultant, so the identity is still proved over GF(2)[a, b]; at the
        # roots the Sylvester matrix shrinks, and the eliminants there agree for
        # theorem 4 but not for theorem 6, so only the pointwise check there
        # finds theorem 6's failure.
        ctx = make_field(n)
        s = A**3 + A + ONE
        F, G = two2one._RELATIONS[theorem]
        F = F[:-1] + [F[-1] * s]
        monkeypatch.setitem(two2one._RELATIONS, theorem, (F, G))
        monkeypatch.setattr(two2one, "_eliminant", lambda t: sylvester_resultant(F, G, ONE))
        pair, checked = two2one._elimination_pair, []

        def spy(t, ctx, a, b):
            checked.append(a)
            return pair(t, ctx, a, b)

        assert two2one._prove_identity(theorem)[0]
        oracle = pointwise_identity_check(theorem, ctx)
        monkeypatch.setattr(two2one, "_elimination_pair", spy)
        chk = verify_resultant_identity(theorem, ctx)
        roots = [a for a in ctx.elements() if s.at(ctx, a, 0).is_zero]
        assert len(roots) == 3 and chk == oracle
        if theorem == 4:
            assert chk.ok and set(roots) <= set(checked)
        else:
            assert chk == IdentityCheck(theorem, n, False, roots[0]) and checked == roots[:1]

    def test_even_n_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            verify_resultant_identity(1, F16)

    def test_unknown_identity(self):
        with pytest.raises(ValueError):
            verify_resultant_identity(7, F8)


class TestPointCountCurve:
    def test_matches_direct_scan(self):
        g = F8.generator
        for a3, a2, a1 in [(1, g, F8.pow(g, 5)), (0, 0, 0), (g, 0, 1)]:
            G = point_count_curve(F8, a3, a2, a1)
            mul, pw = F8.mul, F8.pow
            direct = 0
            for x in F8.elements():
                for y in F8.elements():
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
                    if mul(pw(l2, 2), pw(x, 2) ^ x) ^ l1 == 0:
                        direct += 1
            assert count_bivariate_zeros(G) == direct

    def test_lower_bound_values(self):
        assert point_count_lower_bound(3) == -2
        assert point_count_lower_bound(10) == 2 * (1024 - 9)
