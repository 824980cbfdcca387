import math
import random
import re

import pytest
from hypothesis import given, strategies as st

from gf2to1.field import make_field
from gf2to1.poly import (
    BivarPoly,
    DensePoly,
    GF2Poly,
    SparsePoly,
    count_bivariate_zeros,
    dickson,
    dickson_eval,
    dickson_inverse_exponent,
    equal_up_to_scalar,
    parse_poly,
    reduce_exponents,
    resultant,
    resultant_eliminate,
    sylvester_matrix,
    sylvester_resultant,
)

F8 = make_field(3, 0b1011)


def det_cofactor(ctx, rows):
    """Determinant by cofactor expansion: exponential, the oracle for fraction-free elimination."""
    size = len(rows)
    if size == 1:
        return rows[0][0]
    acc = DensePoly.zero(ctx)
    for j in range(size):
        if rows[0][j].is_zero:
            continue
        minor = [[rows[i][jj] for jj in range(size) if jj != j] for i in range(1, size)]
        acc = acc + rows[0][j] * det_cofactor(ctx, minor)
    return acc


def dickson_coeff_sum(ctx, r, a):
    """Defining-sum form of D_r(x, a), the oracle for the recurrence in dickson.

    The integer coefficient r/(r-i) * C(r-i, i) is computed exactly and then
    reduced mod 2.
    """
    if r == 0:
        return DensePoly.zero(ctx)
    coeffs = [0] * (r + 1)
    for i in range(r // 2 + 1):
        c = r * math.comb(r - i, i) // (r - i)
        if c % 2:
            coeffs[r - 2 * i] = ctx.pow(a, i)
    return DensePoly.make(ctx, coeffs)


class TestEval:
    def test_x2_plus_x_at_one(self):
        f = SparsePoly.make(F8, [(2, 1), (1, 1)])
        assert f.eval(1) == 0

    def test_inverse_realizing_exponent_at_zero(self):
        f = SparsePoly.make(F8, [(6, 1), (1, 1)])  # x^(2^3-2) + x
        assert f.eval(0) == 0

    def test_at_generator(self):
        g = F8.generator
        f = SparsePoly.make(F8, [(6, 1), (1, 1)])
        assert f.eval(g) == F8.pow(g, 6) ^ g

    def test_constant_term_uses_zero_pow_zero(self):
        f = SparsePoly.make(F8, [(0, 5)])
        assert f.eval(0) == 5


class TestReduceExponents:
    def test_frobenius_identity(self):
        f = reduce_exponents(SparsePoly.make(F8, [(8, 1)]))
        assert f.terms == ((1, 1),)

    def test_full_cycle_exponent_stays(self):
        f = reduce_exponents(SparsePoly.make(F8, [(7, 1)]))
        assert f.terms == ((7, 1),)

    def test_cancellation_to_zero(self):
        f = reduce_exponents(SparsePoly.make(F8, [(9, 1), (2, 1)]))
        assert f.is_zero

    @given(st.lists(st.tuples(st.integers(0, 40), st.integers(1, 7)), min_size=1, max_size=5))
    def test_function_preserved(self, pairs):
        f = SparsePoly.make(F8, pairs)
        r = reduce_exponents(f)
        assert all(e <= 7 for e, _ in r.terms)
        for x in F8.elements():
            assert r.eval(x) == f.eval(x)


class TestResultant:
    def test_linear_pair(self):
        for a in F8.elements():
            for b in F8.elements():
                u = DensePoly.make(F8, (a, 1))
                v = DensePoly.make(F8, (b, 1))
                assert resultant(u, v) == a ^ b

    def test_shared_root(self):
        u = DensePoly.make(F8, (1, 0, 1))  # x^2 + 1 = (x+1)^2
        v = DensePoly.make(F8, (1, 1))
        assert resultant(u, v) == 0

    def test_evaluation_form(self):
        g = F8.generator
        u = DensePoly.make(F8, (1, g, 1))  # x^2 + g*x + 1
        v = DensePoly.make(F8, (g, 1))  # x + g, root g
        assert resultant(u, v) == u.eval(g) == 1

    def test_zero_poly_rejected(self):
        with pytest.raises(ValueError):
            resultant(DensePoly.zero(F8), DensePoly.make(F8, (1, 1)))

    @given(
        st.lists(st.integers(0, 7), min_size=2, max_size=5),
        st.lists(st.integers(0, 7), min_size=2, max_size=5),
    )
    def test_zero_iff_common_factor(self, uc, vc):
        u = DensePoly.make(F8, uc)
        v = DensePoly.make(F8, vc)
        if u.is_zero or v.is_zero or u.degree < 1 or v.degree < 1:
            return
        assert (resultant(u, v) == 0) == (u.gcd(v).degree > 0)


def bivar(ctx, terms):
    """The BivarPoly with (x_exp, y_exp, coeff) terms; like terms add."""
    cols = [[0] * (1 + max((xe for xe, _, _ in terms), default=0))
            for _ in range(1 + max((ye for _, ye, _ in terms), default=0))]
    for xe, ye, c in terms:
        cols[ye][xe] ^= c
    return BivarPoly.make(ctx, cols)


def zeros_by_scan(G):
    """The affine zero count by the literal 2^(2n) double loop over G.eval."""
    ctx = G.ctx
    return sum(1 for x in ctx.elements() for y in ctx.elements() if G.eval(x, y) == 0)


class TestEliminant:
    def test_linear_elimination(self):
        # F = y + x, G = y + x^2  ->  x^2 + x
        F = bivar(F8, [(0, 1, 1), (1, 0, 1)])
        G = bivar(F8, [(0, 1, 1), (2, 0, 1)])
        r = resultant_eliminate(F, G)
        assert r == DensePoly.make(F8, (0, 1, 1))

    def test_common_component_gives_zero(self):
        #  (y + x) * x   and   (y + x) * y
        F = bivar(F8, [(1, 1, 1), (2, 0, 1)])
        G = bivar(F8, [(0, 2, 1), (1, 1, 1)])
        assert resultant_eliminate(F, G).is_zero

    def test_degree_zero_in_y_rejected(self):
        F = bivar(F8, [(1, 0, 1)])
        G = bivar(F8, [(0, 1, 1)])
        with pytest.raises(ValueError):
            resultant_eliminate(F, G)

    @given(st.data())
    def test_bareiss_matches_cofactor_oracle(self, data):
        terms = st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(1, 7)),
            min_size=1,
            max_size=5,
        )
        F = bivar(F8, data.draw(terms))
        G = bivar(F8, data.draw(terms))
        if F.deg_y < 1 or G.deg_y < 1:
            return
        rows = sylvester_matrix(list(F.ycoeffs), list(G.ycoeffs), DensePoly.zero(F8))
        assert resultant_eliminate(F, G) == det_cofactor(F8, rows)

    @given(st.data())
    def test_soundness_on_common_zeros(self, data):
        terms = st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(1, 7)),
            min_size=2,
            max_size=4,
        )
        F = bivar(F8, data.draw(terms))
        G = bivar(F8, data.draw(terms))
        if F.deg_y < 1 or G.deg_y < 1:
            return
        r = resultant_eliminate(F, G)
        for x0 in F8.elements():
            if any(F.eval(x0, y0) == 0 and G.eval(x0, y0) == 0 for y0 in F8.elements()):
                assert r.eval(x0) == 0


class TestEliminantSoundnessLargerField:
    def test_full_scan_at_n6(self):
        ctx = make_field(6)
        g = ctx.generator
        F = bivar(ctx, [(2, 1, 1), (0, 2, g), (1, 0, 1), (0, 0, 3)])
        G = bivar(ctx, [(1, 2, 1), (2, 0, ctx.pow(g, 5)), (0, 1, 1)])
        r = resultant_eliminate(F, G)
        assert not r.is_zero
        for x0 in ctx.elements():
            if any(F.eval(x0, y0) == 0 and G.eval(x0, y0) == 0 for y0 in ctx.elements()):
                assert r.eval(x0) == 0


gf2_polys = st.frozensets(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)), max_size=5
).map(GF2Poly)
ONE, X, A = (GF2Poly.monomial(*m) for m in ((0, 0, 0), (1, 0, 0), (0, 1, 0)))


class TestGF2Poly:
    @given(gf2_polys, gf2_polys, st.integers(3, 6), st.data())
    def test_specialising_is_a_ring_map(self, p, q, n, data):
        ctx = make_field(n)
        a, b = (data.draw(st.integers(0, ctx.order - 1)) for _ in range(2))
        assert (p + q).at(ctx, a, b) == p.at(ctx, a, b) + q.at(ctx, a, b)
        assert (p * q).at(ctx, a, b) == p.at(ctx, a, b) * q.at(ctx, a, b)
        assert (p**3).at(ctx, a, b) == p.at(ctx, a, b) * p.at(ctx, a, b) * p.at(ctx, a, b)

    @given(gf2_polys, gf2_polys)
    def test_exact_div_undoes_mul(self, p, q):
        if not q.is_zero:
            assert (p * q).exact_div(q) == p

    def test_inexact_division_raises(self):
        with pytest.raises(ArithmeticError):
            (X + ONE).exact_div(X + A)
        with pytest.raises(ZeroDivisionError):
            X.exact_div(GF2Poly(frozenset()))

    def test_lead_x(self):
        p = (A + ONE) * X**2 + A * X + ONE
        assert p.lead_x() == A + ONE
        assert GF2Poly(frozenset()).lead_x().is_zero

    @given(st.lists(gf2_polys, min_size=2, max_size=3), st.lists(gf2_polys, min_size=2, max_size=3),
           st.integers(0, 7), st.integers(0, 7))
    def test_resultant_specialises_where_leading_coefficients_survive(self, u, v, a, b):
        # the symbolic Sylvester determinant at (a, b) is the one of the
        # specialised pair whenever both leading y-coefficients stay nonzero
        F, G = (BivarPoly.make(F8, [c.at(F8, a, b) for c in w]) for w in (u, v))
        if F.deg_y == len(u) - 1 and G.deg_y == len(v) - 1:
            assert sylvester_resultant(u, v, ONE).at(F8, a, b) == resultant_eliminate(F, G)


class TestDickson:
    def test_first_few(self):
        x = DensePoly.make(F8, (0, 1))
        assert dickson(F8, 1, 1) == x
        assert dickson(F8, 2, 5) == DensePoly.make(F8, (0, 0, 1))
        assert dickson(F8, 0, 1).is_zero

    def test_degree_five_unit_parameter(self):
        assert dickson(F8, 5, 1) == DensePoly.make(F8, (0, 1, 0, 1, 0, 1))  # x^5 + x^3 + x

    @pytest.mark.parametrize("r", range(11))
    def test_recurrence_matches_coefficient_sum(self, r):
        for ctx in (F8, make_field(4)):
            for a in (1, ctx.generator):
                assert dickson(ctx, r, a) == dickson_coeff_sum(ctx, r, a)

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_defining_functional_identity(self, n):
        ctx = make_field(n)
        for r in range(1, 11):
            for z in list(ctx.nonzero())[:12]:
                for a in (1, ctx.generator):
                    w = ctx.div(a, z)
                    lhs = dickson_eval(ctx, r, a, z ^ w)
                    assert lhs == ctx.pow(z, r) ^ ctx.pow(w, r)

    def test_eval_matches_polynomial(self):
        for r in range(8):
            p = dickson(F8, r, F8.generator)
            for x in F8.elements():
                assert dickson_eval(F8, r, F8.generator, x) == p.eval(x)


class TestDicksonInverse:
    def test_identity_exponent(self):
        assert dickson_inverse_exponent(1, 4) == 1

    def test_extended_euclid_oracle(self):
        want = next(t for t in range(1, 63) if 5 * t % 63 == 1)
        assert want == 38
        assert dickson_inverse_exponent(5, 3) == 38

    def test_round_trip_on_subfield(self):
        ctx = make_field(3)
        t = dickson_inverse_exponent(5, 3)
        for x in ctx.elements():
            assert dickson_eval(ctx, t, 1, dickson_eval(ctx, 5, 1, x)) == x

    def test_gcd_violation_rejected(self):
        with pytest.raises(ValueError, match="gcd"):
            dickson_inverse_exponent(3, 3)  # gcd(3, 63) = 3


class TestBivarCount:
    def test_graph_of_function(self):
        G = bivar(F8, [(1, 0, 1), (0, 1, 1)])  # x + y
        assert count_bivariate_zeros(G) == 8

    def test_constant_one(self):
        G = bivar(F8, [(0, 0, 1)])
        assert count_bivariate_zeros(G) == 0

    def test_matches_direct_scan(self):
        G = bivar(F8, [(2, 2, 1), (1, 0, F8.generator), (0, 1, 1), (0, 0, 3)])
        assert count_bivariate_zeros(G) == zeros_by_scan(G)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_matches_scan_on_random_quadratics(self, n):
        # every case of the count: c1 and c2 live, c1 = 0 (x^2 = c0), c2 = 0
        # (linear in x), both zero (c0 only, 2^n roots wherever c0 = 0), and G = 0
        ctx = make_field(n)
        rng = random.Random(n)
        shapes = [(0, 1, 2), (0, 2), (0, 1), (0,), (1, 2)]
        for xs in shapes:
            for _ in range(4):
                terms = [(xe, ye, rng.randrange(ctx.order)) for xe in xs for ye in range(rng.randrange(1, 5))]
                G = bivar(ctx, terms)
                assert count_bivariate_zeros(G) == zeros_by_scan(G), (xs, terms)
        # c0 = y + g: at y = g every x is a root
        G = bivar(ctx, [(0, 1, 1), (0, 0, ctx.generator)])
        assert count_bivariate_zeros(G) == zeros_by_scan(G) == ctx.order
        zero = BivarPoly.make(ctx, [])
        assert count_bivariate_zeros(zero) == zeros_by_scan(zero) == ctx.order**2

    def test_x_degree_above_two_rejected(self):
        with pytest.raises(ValueError, match="x-degree 3"):
            count_bivariate_zeros(bivar(F8, [(3, 0, 1), (0, 1, 1)]))

    def test_budget(self):
        big = make_field(13)
        with pytest.raises(ValueError, match="n=12"):
            count_bivariate_zeros(bivar(big, [(0, 1, 1)]))


class TestGrammar:
    @pytest.mark.parametrize(
        "text,terms",
        [
            ("x^2+x", ((2, 1), (1, 1))),
            ("0x3*x^5+0x2*x+0x1", ((5, 3), (1, 2), (0, 1))),
            ("x", ((1, 1),)),
            ("0x5", ((0, 5),)),
            ("x^9", ((9, 1),)),
        ],
    )
    def test_parse(self, text, terms):
        assert parse_poly(F8, text).terms == terms

    def test_round_trip(self):
        for f in (
            SparsePoly.make(F8, [(12, 1), (11, 1), (1, 4)]),
            SparsePoly.make(F8, [(0, 7)]),
            SparsePoly.make(F8, []),
        ):
            assert parse_poly(F8, str(f)) == f

    def test_merging_like_terms(self):
        assert parse_poly(F8, "x^2+x^2").is_zero
        assert parse_poly(F8, "0x2*x^2+0x1*x^2").terms == ((2, 3),)

    def test_errors(self):
        with pytest.raises(ValueError):
            parse_poly(F8, "x^2+y")
        with pytest.raises(ValueError):
            parse_poly(F8, "2*x")
        with pytest.raises(ValueError):
            parse_poly(F8, "")
        with pytest.raises(ValueError):
            parse_poly(F8, "0x9*x")  # coefficient out of range

    @pytest.mark.parametrize(
        "text,factor",
        [
            ("x^1_0", "x^1_0"),  # int() reads x^10
            ("0x_1*x^3+x", "0x_1"),  # int() reads 0x1
            ("x^ 3", "x^ 3"),  # int() reads x^3
            ("x^+3 + x", "x^"),
            ("x^-3", "x^-3"),
            ("x^\u0663", "x^\u0663"),  # ARABIC-INDIC DIGIT THREE, int() reads x^3
        ],
    )
    def test_strict_number_grammar(self, text, factor):
        with pytest.raises(ValueError, match=re.escape(f"bad factor {factor!r} in polynomial text")):
            parse_poly(F8, text)


class TestScalarComparison:
    def test_equal_up_to_scalar(self):
        p = DensePoly.make(F8, (1, 3, 1))
        assert equal_up_to_scalar(p, p.scale(5))
        assert not equal_up_to_scalar(p, p * DensePoly.make(F8, (0, 1)))
        assert equal_up_to_scalar(DensePoly.zero(F8), DensePoly.zero(F8))
