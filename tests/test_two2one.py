import math

import pytest
from hypothesis import assume, given, strategies as st

from gf2to1.field import make_field
from gf2to1.poly import SparsePoly, count_bivariate_zeros, reduce_exponents, resultant_eliminate
from gf2to1.two2one import (
    FAMILY_TAGS,
    admissible_family_tags,
    alpha_roots,
    family_admissibility_error,
    is_o_polynomial,
    is_two_to_one,
    make_family,
    o_orbit,
    omega_roots,
    point_count_curve,
    point_count_lower_bound,
    preimage_histogram,
    qm_canonical,
    qm_shape_orbit,
    qm_transforms,
    shift_criterion,
    square_map,
    step_table,
    value_table,
    verify_resultant_identity,
    _elimination_pair,
)

F8 = make_field(3)
F16 = make_field(4)
F32 = make_field(5)


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
    assume(not f.reduced().is_zero)
    return f


def qm_transforms_by_mul(f):
    """Reference for qm_transforms with field multiplications: term j is
    stepped by g^(e_j) per b, and each transform is divided by its leading
    coefficient.  Same yield order: d ascending, then b = g^0, g^1, ..."""
    ctx = f.ctx
    fr = reduce_exponents(f)
    N = ctx.order - 1
    exps = fr.exponents()
    k = len(exps)
    tabs = [step_table(ctx, ctx.pow(ctx.generator, e % N)) for e in exps]
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


class TestHistogram:
    def test_identity_all_fibers_one(self):
        h = preimage_histogram(sp(F8, (1, 1)))
        assert set(h.counts.values()) == {1} and h.image_size == 8

    def test_kernel_two_linearized(self):
        h = preimage_histogram(sp(F8, (2, 1), (1, 1)))
        assert h.is_two_to_one and set(h.counts.values()) == {2}

    def test_cube_fiber_matches_gcd(self):
        h = preimage_histogram(sp(F16, (3, 1)))
        assert h.fiber_of(1) == 3  # gcd(3, 15)

    def test_fibers_sum_to_field_size(self):
        for terms in [((5, 1), (3, 3)), ((7, 2), (1, 1)), ((0, 5),)]:
            h = preimage_histogram(SparsePoly.make(F16, terms))
            assert sum(h.counts.values()) == F16.order

    def test_value_table_matches_eval(self):
        f = sp(F16, (9, 7), (3, 2), (0, 1))
        V = value_table(f)
        for x in F16.elements():
            assert V[x] == f.eval(x)

    def test_budget(self):
        big = make_field(25)
        with pytest.raises(ValueError, match="n=24"):
            is_two_to_one(sp(big, (2, 1), (1, 1)))

    def test_five_term_polynomials_use_generic_scan(self):
        # the last two terms are the kernel's streams; _walk folds the other
        # three into its base, the first of them one generator level deeper
        f = sp(F16, (9, 3), (7, 1), (5, 2), (3, 1), (1, 1))
        h = preimage_histogram(f)
        assert is_two_to_one(f) == h.is_two_to_one

    def test_table_free_paths_agree(self, monkeypatch):
        import gf2to1.two2one as t

        f = sp(F16, (12, 1), (11, 1), (1, 2))
        o = sp(F16, (2, 1))  # an o-polynomial; f is not one

        def run():
            return (
                value_table(f),
                is_two_to_one(f),
                qm_canonical(f),
                preimage_histogram(f),
                is_o_polynomial(o),
                is_o_polynomial(f),
            )

        with_tables = run()
        monkeypatch.setattr(t, "MUL_TABLE_MAX_N", 0)
        assert run() == with_tables


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

    def test_canonical_idempotent(self):
        f = sp(F16, (12, 1), (11, 1), (1, 2))
        c = qm_canonical(f)
        assert qm_canonical(c) == c

    def test_orbit_size_with_shape_filter(self):
        f = sp(F8, (2, 1), (1, 1))
        full = qm_shape_orbit(f)
        binom = qm_shape_orbit(f, lambda terms: len(terms) == 2)
        assert binom <= full and len(binom) >= 1

    def test_zero_poly_rejected(self):
        with pytest.raises(ValueError):
            list(qm_transforms(SparsePoly.make(F8, [])))


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
        assert "m not congruent" in family_admissibility_error("quad_12", 12)
        assert "odd" in family_admissibility_error("quad_03", 4)
        assert family_admissibility_error("quad_12", 15) is None
        with pytest.raises(ValueError, match="not admissible"):
            make_family("tri_II", F16)  # m = 2 even

    def test_unknown_tag(self):
        with pytest.raises(ValueError, match="unknown family"):
            make_family("quad_99", F8)

    def test_tag_normalization(self):
        assert make_family("quad_1", F8) == make_family("quad_01", F8)

    def test_family_id_value_type(self):
        from gf2to1.two2one import FamilyId

        fid = FamilyId("quad_01", 3)
        assert fid.admissibility_error() is None
        assert make_family(fid, F8) == make_family("quad_01", F8)
        assert FamilyId("quad_12", 12).admissibility_error() is not None
        with pytest.raises(ValueError, match="does not match"):
            make_family(FamilyId("quad_01", 5), F8)

    def test_all_parameter_roots_give_two_to_one(self):
        ctx = make_field(6)
        roots = alpha_roots(ctx, 3)
        assert len(roots) == 8
        for a in roots:
            assert is_two_to_one(make_family("tri_I", ctx, param=a))
        for w in omega_roots(ctx):
            assert is_two_to_one(make_family("tri_II", ctx, param=w))

    def test_deg5_rows_fixed_to_n3(self):
        assert family_admissibility_error("deg5_row_01", 4) is not None
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

    def test_every_family_verifies_at_smallest_admissible_n(self):
        smallest = {}
        for tag in FAMILY_TAGS:
            for n in range(2, 13):
                if family_admissibility_error(tag, n) is None:
                    smallest[tag] = n
                    break
        assert set(smallest) == set(FAMILY_TAGS)
        for tag, n in smallest.items():
            assert is_two_to_one(make_family(tag, make_field(n))), tag


class TestEliminationIdentities:
    @pytest.mark.parametrize("theorem", range(1, 7))
    def test_holds_over_gf8(self, theorem):
        assert verify_resultant_identity(theorem, F8)

    def test_identity_one_carries_squared_factor(self):
        # the eliminant has degree 4: x * (x+a+1)^2 * (linear), not degree 3
        a = F8.generator
        F, G, closed = _elimination_pair(1, F8, a)
        elim = resultant_eliminate(F, G)
        assert elim.degree == 4 == closed.degree

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
