import random
import re
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from gf2to1.field import (
    LOG_TABLE_MAX_N,
    FieldCtx,
    field_from_label,
    fmt_elem,
    irreducible_factor_degree,
    make_field,
    parse_elem,
    read_int,
    smallest_irreducible,
)


def brute_irreducibles(n):
    """All irreducible degree-n polynomials over GF(2), by trial division."""
    def divides(d, m):
        # polynomial long division over GF(2) on int encodings
        while m.bit_length() >= d.bit_length():
            m ^= d << (m.bit_length() - d.bit_length())
        return m == 0

    out = []
    for m in range(1 << n, 1 << (n + 1)):
        if all(not divides(d, m) for d in range(2, 1 << n) if d.bit_length() >= 2):
            out.append(m)
    return out


def mul_ref(f, a, b):
    """Shift-and-xor product in f: the tests' own multiply, independent of the field's tables."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a & f.order:
            a ^= f.modulus
    return r


def pow_ref(f, a, e):
    """a^e for e >= 0 by square-and-multiply on mul_ref, with no reduction of e."""
    r = 1
    while e:
        if e & 1:
            r = mul_ref(f, r, a)
        a = mul_ref(f, a, a)
        e >>= 1
    return r


def mult_order_ref(f, a):
    """The least t >= 1 with a^t = 1, by repeated mul_ref; a != 0."""
    t, x = 1, a
    while x != 1:
        t, x = t + 1, mul_ref(f, x, a)
    return t


def squarings(f, x, count):
    """[x, x^2, x^4, ...], count + 1 entries, by repeated mul_ref."""
    out = [x]
    for _ in range(count):
        out.append(mul_ref(f, out[-1], out[-1]))
    return out


def xor_all(values):
    acc = 0
    for v in values:
        acc ^= v
    return acc


class TestConstruction:
    def test_default_modulus_gf8(self):
        # oracle: smallest irreducible cubic by exhaustive trial division
        assert min(brute_irreducibles(3)) == 0b1011
        assert make_field(3).modulus == 0b1011

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_default_modulus_is_smallest_irreducible(self, n):
        assert smallest_irreducible(n) == min(brute_irreducibles(n))

    def test_generator_has_full_order_by_repeated_multiplication(self):
        f = make_field(3, 0b1011)
        g = f.generator
        assert g == 2  # the class of x
        seen = set()
        t = 1
        for _ in range(7):
            t = f.mul(t, g)
            seen.add(t)
        assert t == 1 and len(seen) == 7

    def test_generator_is_not_a_parameter(self):
        # the label must determine the generator, so there is no way to pass one
        with pytest.raises(TypeError):
            FieldCtx(3, 0xB, 3)

    def test_reducible_modulus_rejected_naming_factor_degree(self):
        with pytest.raises(ValueError, match="degree 2"):
            make_field(4, 0b10101)  # (x^2+x+1)^2

    def test_degree_out_of_range(self):
        with pytest.raises(ValueError):
            make_field(1)
        with pytest.raises(ValueError):
            make_field(33)

    def test_modulus_wrong_degree(self):
        with pytest.raises(ValueError, match="degree"):
            FieldCtx(4, 0b1011)

    def test_irreducible_factor_degree(self):
        assert irreducible_factor_degree(0b1011) is None
        assert irreducible_factor_degree(0b10101) == 2
        assert irreducible_factor_degree(0b110) == 1  # x^2 + x = x(x+1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_irreducible_factor_degree_matches_trial_division(self, n):
        got = [m for m in range(1 << n, 1 << (n + 1)) if irreducible_factor_degree(m) is None]
        assert got == brute_irreducibles(n)

    def test_negative_modulus_rejected(self, deadline):
        # bit_length ignores the sign, so -0xb passes a degree check as a cubic
        deadline(5)
        for call in (
            lambda: FieldCtx(3, -0xB),
            lambda: make_field(3, -0xB),
            lambda: field_from_label("gf2_3/-0xb"),
            lambda: irreducible_factor_degree(-0xB),
        ):
            with pytest.raises(ValueError, match="negative"):
                call()


class TestArithmetic:
    def test_mul_one_reduction_step(self):
        f = make_field(3, 0b1011)
        assert f.mul(0b010, 0b100) == 0b011  # x * x^2 = x + 1

    def test_inv_by_scan(self):
        f = make_field(3, 0b1011)
        want = next(y for y in f.nonzero() if f.mul(2, y) == 1)
        assert want == 0b101  # x^2 + 1
        assert f.inv(2) == want

    def test_inv_zero_rejected(self):
        f = make_field(4)
        with pytest.raises(ValueError):
            f.inv(0)

    def test_pow_zero_conventions(self):
        for n in (3, 5):
            f = make_field(n)
            assert f.pow(0, 0) == 1
            assert f.pow(0, f.order - 2) == 0
            with pytest.raises(ValueError):
                f.pow(0, -1)

    def test_pow_negative(self):
        f = make_field(5)
        for a in list(f.nonzero())[:8]:
            assert f.mul(f.pow(a, -3), f.pow(a, 3)) == 1

    def test_div(self):
        f = make_field(4)
        for a in f.nonzero():
            assert f.div(a, a) == 1


class TestTraceFrobenius:
    def test_trace_of_one_depends_on_parity(self):
        assert make_field(3).trace_abs(1) == 1
        assert make_field(4).trace_abs(1) == 0

    def test_trace_of_x_gf8(self):
        f = make_field(3, 0b1011)
        x = 0b010
        direct = x ^ f.mul(x, x) ^ f.pow(x, 4)
        assert direct == 0
        assert f.trace_abs(x) == 0

    def test_trace_fibers_balanced(self):
        for n in (3, 4, 6):
            f = make_field(n)
            counts = Counter(f.trace_abs(x) for x in f.elements())
            assert counts[0] == counts[1] == f.order // 2

    @pytest.mark.parametrize("n", range(2, 13))
    def test_trace_one_is_the_lowest_basis_element_of_trace_one(self, n):
        f = make_field(n)
        assert f.trace_one == next(1 << b for b in range(n) if f.trace_abs(1 << b) == 1)

    def test_frobenius_full_orbit(self):
        f = make_field(3)
        for x in f.elements():
            assert f.frobenius(x, 3) == x

    def test_sqrt_exhaustive_gf16(self):
        f = make_field(4)
        roots = set()
        for a in f.elements():
            s = f.sqrt(a)
            assert f.mul(s, s) == a
            roots.add(s)
        assert len(roots) == f.order  # bijection
        assert f.sqrt(0) == 0 and f.sqrt(1) == 1


ALL_SMALL_MODULI = [(n, m) for n in range(2, 7) for m in brute_irreducibles(n)]
CAP_FIELDS = [make_field(LOG_TABLE_MAX_N), make_field(LOG_TABLE_MAX_N + 1)]


class TestTablesAgainstShiftXor:
    """Every table-read operation against literal loops on mul_ref: exhaustive over
    every irreducible modulus at n = 2..6, by hypothesis on both sides of the cap."""

    @pytest.mark.parametrize("n,modulus", ALL_SMALL_MODULI)
    def test_exhaustive(self, n, modulus):
        f = FieldCtx(n, modulus)
        N = f.order - 1
        els = list(f.elements())
        M = [[mul_ref(f, a, b) for b in els] for a in els]
        for a in els:
            assert [f.mul(a, b) for b in els] == M[a]
            assert f.sqr(a) == M[a][a]
        for a in f.nonzero():
            a_inv = M[a].index(1)
            assert f.inv(a) == a_inv
            assert [f.div(b, a) for b in els] == [M[b][a_inv] for b in els]
            t = 1
            for e in range(3 * N + 2):  # past the group order, where e is reduced
                assert f.pow(a, e) == t
                t = M[t][a]
            t = 1
            for e in range(0, -(3 * N + 2), -1):
                assert f.pow(a, e) == t
                t = M[t][a_inv]
        assert f.pow(0, 0) == 1
        assert all(f.pow(0, e) == 0 for e in range(1, 3 * N + 2))
        for bad in (lambda: f.pow(0, -1), lambda: f.inv(0), lambda: f.div(1, 0)):
            with pytest.raises(ValueError):
                bad()
        for x in els:
            sq = squarings(f, x, 2 * n)
            assert [f.frobenius(x, j) for j in range(2 * n + 1)] == sq
            assert M[f.sqrt(x)][f.sqrt(x)] == x
            assert f.trace_abs(x) == xor_all(sq[:n])

    @given(st.data())
    def test_random_across_the_cap(self, data):
        f = data.draw(st.sampled_from(CAP_FIELDS))
        n = f.n
        N = f.order - 1
        a, b = (data.draw(st.integers(0, N)) for _ in range(2))
        e = data.draw(st.integers(-3 * N, 3 * N))
        j = data.draw(st.integers(0, 2 * n))
        assert f.mul(a, b) == mul_ref(f, a, b)
        assert f.sqr(a) == mul_ref(f, a, a)
        if a == 0:
            if e < 0:
                with pytest.raises(ValueError):
                    f.pow(a, e)
            else:
                assert f.pow(a, e) == (1 if e == 0 else 0)
        else:
            assert mul_ref(f, a, f.inv(a)) == 1
            if e >= 0:
                assert f.pow(a, e) == pow_ref(f, a, e)
            else:
                assert mul_ref(f, f.pow(a, e), pow_ref(f, a, -e)) == 1
        if b:
            assert mul_ref(f, f.div(a, b), b) == a
        sq = squarings(f, a, max(j, n))
        assert f.frobenius(a, j) == sq[j]
        s = f.sqrt(a)
        assert mul_ref(f, s, s) == a
        assert f.trace_abs(a) == xor_all(sq[:n])

    def test_tables_only_up_to_the_cap(self):
        small = make_field(LOG_TABLE_MAX_N)
        assert small._exp is None  # nothing is built until used
        assert small.mul(3, 5) == mul_ref(small, 3, 5)
        N = small.order - 1
        assert len(small._exp) == 4 * N + 1 and len(small._log) == small.order
        assert small._exp[2 * N :] == [0] * (2 * N + 1) and small._log[0] == 2 * N
        big = make_field(LOG_TABLE_MAX_N + 1)
        assert big.mul(3, 5) == mul_ref(big, 3, 5)
        assert big._exp is None and big._log is None


@st.composite
def field_and_elems(draw, k=2):
    n = draw(st.integers(min_value=2, max_value=9))
    f = make_field(n)
    xs = [draw(st.integers(min_value=0, max_value=f.order - 1)) for _ in range(k)]
    return (f, *xs)


class TestFieldAxioms:
    @given(field_and_elems(k=2))
    def test_freshman_dream(self, fab):
        f, a, b = fab
        assert f.sqr(a ^ b) == f.sqr(a) ^ f.sqr(b)

    @given(field_and_elems(k=1))
    def test_inverse_and_fermat(self, fa):
        f, a = fa
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1
            assert f.pow(a, f.order - 1) == 1
        assert f.pow(a, f.order) == a

    @given(field_and_elems(k=3))
    def test_distributive(self, fabc):
        f, a, b, c = fabc
        assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)

    @given(field_and_elems(k=2))
    def test_trace_linear_and_frobenius_invariant(self, fab):
        f, a, b = fab
        assert f.trace_abs(a ^ b) == f.trace_abs(a) ^ f.trace_abs(b)
        assert f.trace_abs(f.sqr(a)) == f.trace_abs(a)

    @given(field_and_elems(k=1))
    def test_mul_table_agrees(self, fa):
        f, c = fa
        T = f.mul_table(c)
        for x in (0, 1, f.order - 1, f.generator):
            assert T[x] == f.mul(c, x)

    @pytest.mark.parametrize("n", [*range(2, 11), 13, 17, 24, 31, 32])
    def test_split_table_matches_shift_and_xor(self, n):
        """lo[x & m] ^ hi[x >> h] is c*x for every x up to n = 10 and for sampled
        x above, where the halves differ in size at odd n and the field has no
        log tables beyond LOG_TABLE_MAX_N."""
        f = make_field(n)
        rng = random.Random(n)
        h = (n + 1) // 2
        m = (1 << h) - 1
        xs = f.elements()
        if n > 10:
            xs = [0, 1, f.order - 1, *(rng.randrange(f.order) for _ in range(500))]
        for c in (0, 1, f.generator, rng.randrange(2, f.order)):
            lo, hi = f.split_table(c)
            assert (len(lo), len(hi)) == (1 << h, 1 << (n - h))
            assert [lo[x & m] ^ hi[x >> h] for x in xs] == [mul_ref(f, c, x) for x in xs]

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 12, 13, 18])
    def test_orbit_tables_match_squaring_orbits(self, n):
        """orbit_tables() against the orbits of x -> x^2 walked by mul_ref: the
        antilog array is the generator's power walk, key[v] is 0 for {0} and one
        index per orbit, the sizes are the orbits' and each leader is the least
        log in its orbit.  Above n = 17 there are no tables."""
        f = make_field(n)
        if n > 17:
            assert f.orbit_tables() is None
            return
        antilog, key, leaders, sizes = f.orbit_tables()
        powers = [1]
        while len(powers) < f.order - 1:
            powers.append(mul_ref(f, powers[-1], f.generator))
        assert list(antilog) == powers
        log = {v: i for i, v in enumerate(powers)}
        orbits = {}  # key -> the orbit of the first element with that key
        for v in f.elements():
            if key[v] not in orbits:
                orbit, w = {v}, mul_ref(f, v, v)
                while w != v:
                    orbit.add(w)
                    w = mul_ref(f, w, w)
                orbits[key[v]] = orbit
            assert v in orbits[key[v]]
        assert key[0] == 0 and sorted(orbits) == list(range(len(sizes)))
        assert list(sizes) == [len(orbits[k]) for k in range(len(sizes))]
        assert list(leaders) == [min(log[v] for v in orbits[k]) for k in range(1, len(sizes))]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, LOG_TABLE_MAX_N + 1])
    def test_powers_match_pow(self, n):
        """log_tables() for every modulus: EXP[:N] is the power walk of the
        generator, and EXP[LOG[a] + LOG[b]] is a*b for every pair, zero included."""
        if n > LOG_TABLE_MAX_N:
            with pytest.raises(ValueError, match=f"n={LOG_TABLE_MAX_N}"):
                make_field(n).log_tables()
            return
        for m in brute_irreducibles(n):
            f = FieldCtx(n, m)
            N = f.order - 1
            EXP, LOG = f.log_tables()
            assert EXP[:N] == [pow_ref(f, f.generator, i) for i in range(N)]
            assert sorted(EXP[:N]) == list(f.nonzero())  # every nonzero element once
            for a in f.elements():
                assert [EXP[LOG[a] + LOG[b]] for b in f.elements()] == [mul_ref(f, a, b) for b in f.elements()]


class TestIsomorphismAcrossModuli:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_order_multiset_independent_of_modulus(self, n):
        moduli = [m for m in range(1 << n, 1 << (n + 1)) if irreducible_factor_degree(m) is None]
        assert len(moduli) >= 2
        multisets = []
        for m in moduli:
            f = FieldCtx(n, m)
            multisets.append(Counter(mult_order_ref(f, a) for a in f.nonzero()))
        assert all(ms == multisets[0] for ms in multisets)


class TestSerialization:
    def test_label_round_trip(self):
        f = make_field(3)
        assert f.label() == "gf2_3/0xb"
        assert field_from_label("gf2_3/0xb") == f

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_label_round_trip_keeps_generator(self, n):
        # the deg5_row_* families and the power table depend on the generator
        for m in brute_irreducibles(n):
            ctx = FieldCtx(n, m)
            assert field_from_label(ctx.label()).generator == ctx.generator

    def test_elem_round_trip(self):
        f = make_field(5)
        for x in (0, 1, 30, 31):
            assert parse_elem(f, fmt_elem(x)) == x
        assert fmt_elem(11) == "0xb"

    def test_bad_label(self):
        with pytest.raises(ValueError):
            field_from_label("gf_3@0xb")

    def test_elem_out_of_range(self):
        with pytest.raises(ValueError):
            parse_elem(make_field(3), "0x9")


class TestStrictNumbers:
    """read_int takes only [0-9]+ in base 10 and an optional 0x/0X then
    [0-9a-fA-F]+ in base 16, ASCII only; int() alone takes more."""

    @pytest.mark.parametrize(
        "s,base,value",
        [("0xb", 16, 11), ("0XB", 16, 11), ("b", 16, 11), ("00", 16, 0), ("10", 10, 10), ("007", 10, 7)],
    )
    def test_accepted(self, s, base, value):
        assert read_int(s, base, "number") == value

    @pytest.mark.parametrize(
        "s,base",
        [
            ("0x_b", 16),
            ("0x1_3", 16),
            (" 0xb", 16),
            ("0xb\n", 16),
            ("+0xb", 16),
            ("0x", 16),
            ("", 16),
            ("0xg", 16),
            ("1_0", 10),
            (" 3", 10),
            ("+3", 10),
            ("0x3", 10),
            ("\u0663", 10),  # ARABIC-INDIC DIGIT THREE
            ("", 10),
        ],
    )
    def test_rejected_naming_the_token(self, s, base):
        with pytest.raises(ValueError, match=re.escape(f"bad number {s!r}")):
            read_int(s, base, "number")

    def test_minus_reads_as_negative(self):
        with pytest.raises(ValueError, match="modulus -0xb is negative"):
            read_int("-0xb", 16, "modulus")

    @pytest.mark.parametrize("s", ["0x_3", "0x 3", "+0x3", "3_"])
    def test_parse_elem(self, s):
        with pytest.raises(ValueError, match=re.escape(f"bad element {s!r}")):
            parse_elem(make_field(3), s)

    @pytest.mark.parametrize(
        "label,message",
        [
            ("gf2_3/0x_b", "bad modulus '0x_b'"),
            ("gf2_3/0xb ", "bad modulus '0xb '"),
            ("gf2_+3/0xb", "bad degree '+3'"),
            ("gf2_3_/0xb", "bad degree '3_'"),
            ("3/0xb", "bad field label '3/0xb'"),
        ],
    )
    def test_field_from_label(self, label, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            field_from_label(label)
