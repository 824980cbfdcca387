"""GF(2^n) contexts and exact element arithmetic.

Field elements are plain ints: the bits of an element are its coordinates in
the polynomial basis {1, x, ..., x^(n-1)} modulo a fixed irreducible
polynomial over GF(2).  Addition is xor, 0 and 1 are the additive and
multiplicative identities.  A FieldCtx is fixed by its degree and modulus;
the lookup tables it fills on first use are a pure function of them, and
every operation is a pure function of its inputs, so contexts can be shared
freely across threads and worker processes.

A field is written ``gf2_N/0xMOD`` (e.g. ``gf2_3/0xb``); elements serialize
as lowercase hex of their bit value.
"""

from __future__ import annotations

import re
from array import array

MIN_DEGREE = 2
MAX_DEGREE = 32
# Fields up to this degree keep log/antilog tables, about 380 KB at n = 12
# (as lists, n = 17 would need about 11 MB); it covers every field the lemmas,
# the identities, the point counts, the searches and QM classing use.
# Multiplying by a fixed element needs no cap: mul_table is a 2^n-entry list
# for the small fields the searches scan, and split_table two halves of about
# 2^(n/2) entries each for the verifier's scans at every n.  The orbit tables
# are compact arrays, about 0.8 MB at n = 17.
LOG_TABLE_MAX_N = 12
# Fields up to this degree build orbit_tables() on first use.  At n = 17 the
# build costs about one kernel scan of the field (0.09 s, against 0.08 s for
# bin_segre and 0.14 s for quad_01 on a 2-vCPU Xeon), and each orbit scan on
# the same context then takes about 0.01 s.  At n = 19 the build takes 0.52 s
# against a 0.38 s scan, so a single verification would get slower and 3 MB
# heavier; from n = 21 on the orbit indices outgrow the 2-byte key array.
_ORBIT_TABLE_MAX_N = 17

__all__ = [
    "FieldCtx",
    "LOG_TABLE_MAX_N",
    "linear_table",
    "make_field",
    "field_from_label",
    "fmt_elem",
    "parse_elem",
    "read_int",
    "smallest_irreducible",
    "irreducible_factor_degree",
]


# ---------------------------------------------------------------------------
# GF(2)[x] arithmetic on int-encoded polynomials (bit i = coefficient of x^i).
# Used only for modulus bookkeeping, never in element hot paths.


def p2_degree(a: int) -> int:
    if a < 0:  # bit_length ignores the sign, and p2_mod never ends on a negative int
        raise ValueError(f"modulus {a:#x} is negative; a polynomial is encoded by its bits, >= 0")
    return a.bit_length() - 1


def p2_mod(a: int, m: int) -> int:
    dm = m.bit_length()
    while a.bit_length() >= dm:
        a ^= m << (a.bit_length() - dm)
    return a


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
    t = 2  # the polynomial x, reduced since n >= 2 whenever the loop runs
    for d in range(1, n // 2 + 1):
        t = _mul_bits(t, t, m, 1 << n)
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


def _mul_bits(a: int, b: int, m: int, top: int) -> int:
    """Carry-less multiply with interleaved reduction modulo m, top = 2^deg(m)."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= m
    return r


def _pow_bits(a: int, e: int, m: int, top: int) -> int:
    """a^e for e >= 0 by square-and-multiply on the shift-and-xor loop."""
    r = 1
    while e:
        if e & 1:
            r = _mul_bits(r, a, m, top)
        a = _mul_bits(a, a, m, top)
        e >>= 1
    return r


def linear_table(images: list[int]) -> list[int]:
    """Value table T of the GF(2)-linear map sending 2^b to images[b].

    T is the xor-closure of the basis images: T[x + 2^b] = T[x] ^ images[b]
    for x < 2^b.
    """
    T = [0]
    for v in images:
        T += [t ^ v for t in T]
    return T


def _split_linear(images: list[int]) -> tuple[list[int], list[int]]:
    """The linear_tables of the first ceil(n/2) and the last floor(n/2) basis images."""
    h = (len(images) + 1) // 2
    return linear_table(images[:h]), linear_table(images[h:])


class FieldCtx:
    """An instance of GF(2^n): extension degree, modulus bits and the generator they determine.

    Up to LOG_TABLE_MAX_N the context keeps the discrete-log pair that
    log_tables() returns, and mul, sqr and pow are lookups; above the cap
    they run the shift-and-xor loop.  The other operations go through them.
    Up to n = 17 it also keeps the Frobenius-orbit tables that orbit_tables()
    returns, which the verifier and the quadrinomial search read for
    polynomials with coefficients in GF(2).  The tables, the trace mask and
    the Artin-Schreier split pair are built on first use, so a context that
    is only built, compared or labelled costs what it did without them; they
    are not part of the field's identity.
    """

    __slots__ = (
        "n", "modulus", "order", "generator", "_exp", "_log", "_orbits", "_tmask", "_as_split"
    )

    def __init__(self, n: int, modulus: int):
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
        self.generator = self._find_generator()
        # Built on first use by _tables(), not by a __getattr__ hook: on CPython
        # 3.11 a class with __getattr__ makes every attribute read several times slower.
        self._exp = self._log = self._orbits = self._as_split = None
        self._tmask = 0  # built by _trace_mask() on first use; never 0 once built

    def _find_generator(self) -> int:
        # runs before any table exists: g generates iff g^(N/p) != 1 for each prime p | N
        N = self.order - 1
        m, top, primes = self.modulus, self.order, _prime_factors(N)
        for g in range(2, self.order):
            if all(_pow_bits(g, N // p, m, top) != 1 for p in primes):
                return g
        raise AssertionError("no generator found (broken modulus?)")

    def _power_walk(self, powers):
        """Fill powers[i] = g^i for i < N = 2^n - 1 and return it: the one walk
        of the generator's powers, behind the log and the orbit tables.

        It steps by the split_table pair of g, built on _mul_bits because
        split_table reads the log tables this walk builds.
        """
        m, top = self.modulus, self.order
        lo, hi = _split_linear([_mul_bits(self.generator, 1 << b, m, top) for b in range(self.n)])
        mask = len(lo) - 1
        h = mask.bit_length()
        u = 1
        for i in range(top - 1):
            powers[i] = u
            u = lo[u & mask] ^ hi[u >> h]
        return powers

    def _tables(self) -> list[int] | None:
        """The LOG table, with EXP beside it, built on first use; None above the cap."""
        if self._log is None and self.n <= LOG_TABLE_MAX_N:
            N = self.order - 1
            powers = self._power_walk([0] * N)
            log = [2 * N] * self.order  # log[0] = 2N: the start of the zero run
            for i, v in enumerate(powers):
                log[v] = i
            self._exp = powers + powers + [0] * (2 * N + 1)
            self._log = log
        return self._log

    def orbit_tables(self) -> tuple[array, array, array, bytes] | None:
        """The Frobenius-orbit tables (antilog, key, leaders, sizes), built on
        first use for n <= 17; None above.

        The orbits of x -> x^2 are {0} and, for each cyclotomic coset C of
        i -> 2i mod N, N = 2^n - 1, the set of g^i with i in C.  Orbit 0 is
        {0}; orbits 1, 2, ... are the cosets in order of their least element.
        antilog[i] = g^i for i < N (array 'I'); key[v] is the orbit index of
        the field element v (array 'H'); leaders[k - 1] is the least log in
        orbit k >= 1 (array 'I'); sizes[k] is the size of orbit k, so
        sizes[0] = 1.  The verifier and the quadrinomial search read these
        arrays, which are the context's own: read, never write.
        """
        if self._orbits is None and self.n <= _ORBIT_TABLE_MAX_N:
            N = self.order - 1
            antilog = self._power_walk(array("I", [0]) * N)
            key = array("H", [0]) * self.order  # key[0] = 0 for the orbit {0}
            leaders = array("I")
            sizes = bytearray([1])
            for i, v in enumerate(antilog):
                if key[v]:
                    continue
                # g^i has no key yet, so i is the least log of a new orbit
                k = len(sizes)
                leaders.append(i)
                j, size = i, 0
                while True:
                    key[antilog[j]] = k
                    size += 1
                    j = 2 * j % N
                    if j == i:
                        break
                sizes.append(size)
            self._orbits = antilog, key, leaders, bytes(sizes)
        return self._orbits

    def log_tables(self) -> tuple[list[int], list[int]]:
        """The antilog and log tables (EXP, LOG) for n <= LOG_TABLE_MAX_N.

        EXP holds g^0 .. g^(N-1) twice, N = 2^n - 1, then a run of 2N + 1
        zeros; LOG[g^i] = i and LOG[0] = 2N.  So EXP[LOG[a] + LOG[b]] = a*b
        for every a and b, zero included, and EXP[:N] is the power walk of
        the generator.  Both lists are the context's own: read, never write.
        Raises ValueError above the cap.
        """
        if self._tables() is None:
            raise ValueError(
                f"log/antilog tables are kept up to n={LOG_TABLE_MAX_N} (LOG_TABLE_MAX_N), got n={self.n}"
            )
        return self._exp, self._log

    def _trace_mask(self) -> int:
        """Bit b is the trace of 2^b; the trace is GF(2)-linear, so these n bits fix it."""
        n, m, top = self.n, self.modulus, self.order
        mask = 0
        for b in range(n):
            acc = t = 1 << b
            for _ in range(n - 1):
                t = _mul_bits(t, t, m, top)
                acc ^= t
            mask |= acc << b
        self._tmask = mask
        return mask

    # -- core arithmetic ----------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        """a*b: log/antilog lookup up to LOG_TABLE_MAX_N, the shift-and-xor loop above."""
        L = self._log or self._tables()
        if L is None:
            return _mul_bits(a, b, self.modulus, self.order)
        return self._exp[L[a] + L[b]]

    def sqr(self, a: int) -> int:
        L = self._log or self._tables()
        if L is None:
            return _mul_bits(a, a, self.modulus, self.order)
        return self._exp[2 * L[a]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ValueError("0 has no multiplicative inverse")
        return self.pow(a, -1)

    def pow(self, a: int, e: int) -> int:
        """a^e with the conventions 0^0 = 1 and 0^e = 0 for e > 0.

        Negative e requires a != 0; x^(2^n - 2) therefore realizes 1/x with
        1/0 = 0, which several constructions below rely on.
        """
        if a == 0:
            if e < 0:
                raise ValueError("negative power of 0")
            return 1 if e == 0 else 0
        N = self.order - 1
        L = self._log or self._tables()
        if L is None:
            return _pow_bits(a, e % N, self.modulus, self.order)  # a^N = 1, so e may be reduced
        return self._exp[L[a] * e % N]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    # -- traces and Frobenius -----------------------------------------------

    def trace_abs(self, x: int) -> int:
        """Absolute trace x + x^2 + ... + x^(2^(n-1)), as a bit: the parity of x & mask."""
        return (x & (self._tmask or self._trace_mask())).bit_count() & 1

    @property
    def trace_one(self) -> int:
        """The lowest basis element 2^b of trace 1: the lowest set bit of the mask."""
        mask = self._tmask or self._trace_mask()
        return mask & -mask

    def artin_schreier_split(self) -> tuple[list[int], list[int]]:
        """(lo, hi) with z = lo[c & m] ^ hi[c >> h] solving z^2 + z = c for
        every c of trace 0, h and m as in split_table; built on first use.

        z is the trace-dual sum of theta_i c^(2^i) over i = 1..n-1, theta_i =
        delta + delta^2 + ... + delta^(2^(i-1)), delta = trace_one.  The sum
        is GF(2)-linear in c, so its n basis images fix it; at odd n, delta =
        1 and the sum is the half trace.  The lists are the context's own:
        read, never write.
        """
        if self._as_split is None:
            delta = self.trace_one
            images = []
            for b in range(self.n):
                z, theta, t = 0, delta, 1 << b
                for _ in range(self.n - 1):
                    t = self.sqr(t)
                    z ^= self.mul(theta, t)
                    theta = self.sqr(theta) ^ delta
                images.append(z)
            self._as_split = _split_linear(images)
        return self._as_split

    def frobenius(self, x: int, j: int) -> int:
        """x^(2^j)."""
        return self.pow(x, 1 << (j % self.n))

    def sqrt(self, x: int) -> int:
        """The unique square root x^(2^(n-1))."""
        return self.frobenius(x, self.n - 1)

    # -- enumeration and hot-loop support ------------------------------------

    def elements(self) -> range:
        return range(self.order)

    def nonzero(self) -> range:
        return range(1, self.order)

    def mul_table(self, c: int) -> list[int]:
        """T with T[x] = c*x, a list of 2^n entries: multiplication by a fixed
        element is GF(2)-linear, so T is the linear_table of the n basis products.
        Sized for the small fields the searches scan; split_table serves every n.
        """
        return linear_table([self.mul(c, 1 << b) for b in range(self.n)])

    def split_table(self, c: int) -> tuple[list[int], list[int]]:
        """(lo, hi) with c*x = lo[x & m] ^ hi[x >> h], h = ceil(n/2), m = 2^h - 1.

        The split-table form of GF-Complete (Plank, Greenan and Miller, FAST
        2013): x is the xor of its low h bits and its high n - h bits, so lo
        and hi are the linear_tables of the first h and the last n - h of the
        basis products mul_table closes over, 2^h and 2^(n-h) entries.
        """
        return _split_linear([self.mul(c, 1 << b) for b in range(self.n)])

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


def read_int(s: str, base: int, what: str) -> int:
    """The number s in base 16 or 10, read strictly.

    Hex is an optional 0x or 0X and then [0-9a-fA-F]+, decimal is [0-9]+, both
    ASCII only.  int() alone also takes signs, underscores, other scripts'
    digits and surrounding whitespace, and would read 'x^1_0' as x^10; any
    text outside the grammar raises ValueError naming what and s.
    """
    digits = "(?:0[xX])?[0-9a-fA-F]+" if base == 16 else "[0-9]+"
    if re.fullmatch(digits, s):
        return int(s, base)
    if s.startswith("-") and re.fullmatch(digits, s[1:]):
        raise ValueError(f"{what} {s} is negative")
    raise ValueError(f"bad {what} {s!r}")


def parse_elem(ctx: FieldCtx, s: str) -> int:
    v = read_int(s, 16, "element")
    if v >= ctx.order:
        raise ValueError(f"element {s} out of range for {ctx.label()}")
    return v


def field_from_label(label: str) -> FieldCtx:
    """Parse 'gf2_N/0xMOD' back into a context."""
    parts = label.split("/") if isinstance(label, str) else ()
    if len(parts) != 2 or not parts[0].startswith("gf2_"):
        raise ValueError(f"bad field label {label!r}, expected gf2_N/0xMOD")
    return FieldCtx(read_int(parts[0][4:], 10, "degree"), read_int(parts[1], 16, "modulus"))
