"""GF(2^n) contexts and exact element arithmetic.

Field elements are plain ints: the bits of an element are its coordinates in
the polynomial basis {1, x, ..., x^(n-1)} modulo a fixed irreducible
polynomial over GF(2).  Addition is xor, 0 and 1 are the additive and
multiplicative identities.  A FieldCtx is immutable after construction and
every operation is a pure function of its inputs, so contexts can be shared
freely across threads and worker processes.

A field is written ``gf2_N/0xMOD`` (e.g. ``gf2_3/0xb``); elements serialize
as lowercase hex of their bit value.
"""

from __future__ import annotations

MIN_DEGREE = 2
MAX_DEGREE = 32

__all__ = [
    "FieldCtx",
    "make_field",
    "field_from_label",
    "fmt_elem",
    "parse_elem",
    "smallest_irreducible",
    "irreducible_factor_degree",
]


# ---------------------------------------------------------------------------
# GF(2)[x] arithmetic on int-encoded polynomials (bit i = coefficient of x^i).
# Used only for modulus bookkeeping, never in element hot paths.


def p2_degree(a: int) -> int:
    return a.bit_length() - 1


def p2_mod(a: int, m: int) -> int:
    dm = m.bit_length()
    while a.bit_length() >= dm:
        a ^= m << (a.bit_length() - dm)
    return a


def p2_mulmod(a: int, b: int, m: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
    return p2_mod(r, m)


def p2_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, p2_mod(a, b)
    return a


def irreducible_factor_degree(m: int) -> int | None:
    """Smallest degree of an irreducible factor of m, or None if m is irreducible.

    Uses the fact that x^(2^d) - x is the product of all irreducibles of
    degree dividing d: m of degree n is irreducible iff it shares no factor
    with x^(2^d) - x for every d <= n/2.
    """
    n = p2_degree(m)
    if n < 1:
        return 0
    t = 2  # the polynomial x
    for d in range(1, n // 2 + 1):
        t = p2_mulmod(t, t, m)
        if p2_gcd(m, t ^ 2) != 1:
            return d
    return None


def smallest_irreducible(n: int) -> int:
    """Irreducible degree-n polynomial over GF(2) with the smallest bit encoding."""
    for m in range((1 << n) | 1, 1 << (n + 1), 2):
        if irreducible_factor_degree(m) is None:
            return m
    raise AssertionError(f"no irreducible polynomial of degree {n}")


def _prime_factors(v: int) -> list[int]:
    out = []
    d = 2
    while d * d <= v:
        if v % d == 0:
            out.append(d)
            while v % d == 0:
                v //= d
        d += 1 if d == 2 else 2
    if v > 1:
        out.append(v)
    return out


class FieldCtx:
    """An instance of GF(2^n): extension degree, modulus bits and a fixed generator."""

    __slots__ = ("n", "modulus", "order", "generator", "_group_primes")

    def __init__(self, n: int, modulus: int, generator: int | None = None):
        if not MIN_DEGREE <= n <= MAX_DEGREE:
            raise ValueError(f"extension degree n={n} out of supported range [{MIN_DEGREE}, {MAX_DEGREE}]")
        if p2_degree(modulus) != n:
            raise ValueError(f"modulus {modulus:#x} has degree {p2_degree(modulus)}, expected {n}")
        d = irreducible_factor_degree(modulus)
        if d is not None:
            raise ValueError(f"modulus {modulus:#x} is reducible: it has an irreducible factor of degree {d}")
        self.n = n
        self.modulus = modulus
        self.order = 1 << n
        self._group_primes = tuple(_prime_factors(self.order - 1))
        self.generator = self._find_generator() if generator is None else generator
        if self.mult_order(self.generator) != self.order - 1:
            raise ValueError(f"element {self.generator:#x} is not a generator of gf2_{n}/{modulus:#x}")

    # -- core arithmetic ----------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        """Carry-less multiply with interleaved reduction."""
        m = self.modulus
        top = self.order
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a & top:
                a ^= m
        return r

    def sqr(self, a: int) -> int:
        return self.mul(a, a)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ValueError("0 has no multiplicative inverse")
        return self.pow(a, self.order - 2)

    def pow(self, a: int, e: int) -> int:
        """a^e with the conventions 0^0 = 1 and 0^e = 0 for e > 0.

        Negative e requires a != 0; x^(2^n - 2) therefore realizes 1/x with
        1/0 = 0, which several constructions below rely on.
        """
        if e < 0:
            if a == 0:
                raise ValueError("negative power of 0")
            a = self.inv(a)
            e = -e
        if e == 0:
            return 1
        if a == 0:
            return 0
        e %= self.order - 1
        if e == 0:
            return 1
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    # -- traces and Frobenius -----------------------------------------------

    def trace_abs(self, x: int) -> int:
        """Absolute trace x + x^2 + ... + x^(2^(n-1)), as a bit."""
        acc = x
        t = x
        for _ in range(self.n - 1):
            t = self.mul(t, t)
            acc ^= t
        return acc

    def trace_rel(self, m: int, x: int) -> int:
        """Relative trace onto the subfield GF(2^m); m must divide n."""
        if self.n % m != 0:
            raise ValueError(f"m={m} does not divide n={self.n}")
        acc = x
        t = x
        for _ in range(self.n // m - 1):
            for _ in range(m):
                t = self.mul(t, t)
            acc ^= t
        return acc

    def frobenius(self, x: int, j: int) -> int:
        """x^(2^j)."""
        for _ in range(j % self.n):
            x = self.mul(x, x)
        return x

    def sqrt(self, x: int) -> int:
        """The unique square root x^(2^(n-1))."""
        return self.frobenius(x, self.n - 1)

    # -- group structure ----------------------------------------------------

    def mult_order(self, a: int) -> int:
        if a == 0:
            raise ValueError("0 has no multiplicative order")
        t = self.order - 1
        for p in self._group_primes:
            while t % p == 0 and self.pow(a, t // p) == 1:
                t //= p
        return t

    def _find_generator(self) -> int:
        full = self.order - 1
        for g in range(2, self.order):
            if self.mult_order(g) == full:
                return g
        raise AssertionError("no generator found (broken modulus?)")

    def is_primitive(self, a: int) -> bool:
        return a != 0 and self.mult_order(a) == self.order - 1

    # -- enumeration and hot-loop support ------------------------------------

    def elements(self) -> range:
        return range(self.order)

    def nonzero(self) -> range:
        return range(1, self.order)

    def mul_table(self, c: int) -> list[int]:
        """Lookup table T with T[x] = c*x, built from the n basis products.

        Multiplication by a fixed element is GF(2)-linear, so the table is the
        xor-closure of the basis images: T[x + 2^b] = T[x] ^ c*2^b for x < 2^b.
        Intended for hot loops at moderate n; memory is order * wordsize.
        """
        T = [0]
        for b in range(self.n):
            cb = self.mul(c, 1 << b)
            T += [t ^ cb for t in T]
        return T

    # -- identity and serialization -------------------------------------------

    def label(self) -> str:
        return f"gf2_{self.n}/{self.modulus:#x}"

    def __repr__(self) -> str:
        return f"FieldCtx({self.label()})"

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldCtx) and self.n == other.n and self.modulus == other.modulus

    def __hash__(self) -> int:
        return hash((self.n, self.modulus))


def make_field(n: int, modulus: int | None = None) -> FieldCtx:
    """Construct GF(2^n).

    Without an explicit modulus the irreducible degree-n polynomial with the
    numerically smallest bit encoding is used, and the generator is the
    element of smallest bit encoding with full multiplicative order; both
    choices are deterministic across runs.
    """
    if not MIN_DEGREE <= n <= MAX_DEGREE:
        raise ValueError(f"extension degree n={n} out of supported range [{MIN_DEGREE}, {MAX_DEGREE}]")
    if modulus is None:
        modulus = smallest_irreducible(n)
    return FieldCtx(n, modulus)


def fmt_elem(x: int) -> str:
    return format(x, "#x")


def parse_elem(ctx: FieldCtx, s: str) -> int:
    v = int(s, 16)
    if not 0 <= v < ctx.order:
        raise ValueError(f"element {s} out of range for {ctx.label()}")
    return v


def field_from_label(label: str) -> FieldCtx:
    """Parse 'gf2_N/0xMOD' back into a context."""
    try:
        head, mod = label.split("/")
        n = int(head.removeprefix("gf2_"))
        modulus = int(mod, 16)
    except (ValueError, AttributeError) as exc:
        raise ValueError(f"bad field label {label!r}, expected gf2_N/0xMOD") from exc
    return FieldCtx(n, modulus)
