"""The 2-to-1 verifier, equivalence machinery, constructive families and
pointwise checks of the elimination identities behind the quadrinomial
families.

A mapping f on GF(2^n) is 2-to-1 when every fiber has size 0 or 2 (a
half-size image is necessary but not sufficient: fiber profiles like
(3, 1, 2, ..., 2) also reach 2^(n-1) values).  Verification is a single pass
over the domain with early exit on the first fiber of size 3; the domain is
walked multiplicatively (x = g^i) so each sparse term advances by one fixed
multiplication per point.  One kernel, fibers_two_to_one, does the counting
for the verifier, the o-polynomial test and every search.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import repeat

from .field import FieldCtx
from .poly import (
    BivarPoly,
    DensePoly,
    SparsePoly,
    equal_up_to_scalar,
    poly_product,
    reduce_exponents,
    resultant_eliminate,
)
from .tabledata import table1

HISTOGRAM_MAX_N = 24
OPOLY_MAX_N = 16
MUL_TABLE_MAX_N = 18

__all__ = [
    "PreimageHistogram",
    "preimage_histogram",
    "value_table",
    "is_two_to_one",
    "fibers_two_to_one",
    "step_table",
    "shift_criterion",
    "is_o_polynomial",
    "o_orbit",
    "square_map",
    "qm_transforms",
    "qm_canonical",
    "qm_shape_orbit",
    "FamilyId",
    "FAMILY_TAGS",
    "family_admissibility_error",
    "admissible_family_tags",
    "make_family",
    "alpha_roots",
    "omega_roots",
    "IdentityCheck",
    "verify_resultant_identity",
    "ELIMINATION_IDENTITIES",
    "point_count_curve",
    "point_count_lower_bound",
]


# ---------------------------------------------------------------------------
# domain scans


@dataclass(frozen=True)
class PreimageHistogram:
    """Fiber sizes of a mapping: image value -> number of preimages."""

    n: int
    counts: dict[int, int]

    @property
    def image_size(self) -> int:
        return len(self.counts)

    @property
    def is_two_to_one(self) -> bool:
        return all(c == 2 for c in self.counts.values())

    def fiber_of(self, v: int) -> int:
        return self.counts.get(v, 0)


def step_table(ctx: FieldCtx, s: int):
    """T with T[u] = s*u: the lookup table up to n = MUL_TABLE_MAX_N, above it
    an object that multiplies on each lookup."""
    if ctx.n <= MUL_TABLE_MAX_N:
        return ctx.mul_table(s)
    return _MulBy(ctx, s)


class _MulBy:
    def __init__(self, ctx: FieldCtx, s: int):
        self.mul, self.s = ctx.mul, s

    def __getitem__(self, u: int) -> int:
        return self.mul(u, self.s)


def fibers_two_to_one(order: int, f0: int, base, u0: int, t0, u1: int, t1) -> bool:
    """The fiber kernel: whether f0 and the values base[i] ^ u0*s0^i ^ u1*s1^i
    together fill only fibers of size 0 or 2.

    t0 and t1 are the step tables of the two coefficient streams (t[u] = s*u);
    a stream that is always zero is (0, (0,)).  Returns at the first fiber of
    size 3, so a lazy base is consumed only that far.
    """
    counts = bytearray(order)
    counts[f0] = 1
    for w in base:
        v = w ^ u0 ^ u1
        c = counts[v]
        if c == 2:
            return False
        counts[v] = c + 1
        u0 = t0[u0]
        u1 = t1[u1]
    return 1 not in counts


def _streams(f: SparsePoly):
    """Split a reduced polynomial into f(0) and one (start, step table)
    stream per positive-exponent term.

    The term c*x^e takes the value c*g^(i*e) at x = g^i, so advancing i is one
    multiplication by g^e.  The constant part is also f(0): reduced positive
    exponents vanish at 0 and exponent 0 contributes everywhere.
    """
    ctx = f.ctx
    const = 0
    streams = []
    for e, c in f.terms:
        if e == 0:
            const ^= c
        else:
            streams.append((c, step_table(ctx, ctx.pow(ctx.generator, e))))
    return const, streams


def _split(order: int, const: int, streams: list):
    """(base, stream, stream): the last two streams, with const and any earlier
    streams folded into base by _walk."""
    *early, s0, s1 = [(0, (0,))] * (2 - len(streams)) + streams
    base = _walk(order, const, early) if early else repeat(const, order - 1)
    return base, s0, s1


def _walk(order: int, const: int, streams: list):
    """Yield const plus every stream at x = g^i for i = 0..order-2, lazily, so
    a scan that exits early steps no stream past the point it reached."""
    base, (u0, t0), (u1, t1) = _split(order, const, streams)
    for w in base:
        yield w ^ u0 ^ u1
        u0 = t0[u0]
        u1 = t1[u1]


def _budget_check(ctx: FieldCtx, cap: int, what: str) -> None:
    if ctx.n > cap:
        raise ValueError(f"{what} capped at n={cap}, got n={ctx.n}")


def value_table(f: SparsePoly) -> list[int]:
    """V with V[x] = f(x) for every field element x."""
    ctx = f.ctx
    _budget_check(ctx, HISTOGRAM_MAX_N, "full-domain scan")
    const, streams = _streams(reduce_exponents(f))
    V = [0] * ctx.order
    V[0] = const
    tg = step_table(ctx, ctx.generator)
    p = 1
    for v in _walk(ctx.order, const, streams):
        V[p] = v
        p = tg[p]
    return V


def preimage_histogram(f: SparsePoly) -> PreimageHistogram:
    """Exact fiber sizes by one pass over the domain (n <= 24)."""
    return PreimageHistogram(f.ctx.n, dict(Counter(value_table(f))))


def is_two_to_one(f: SparsePoly) -> bool:
    """Whether every fiber of f has size 0 or 2; early exit on a size-3 fiber."""
    ctx = f.ctx
    _budget_check(ctx, HISTOGRAM_MAX_N, "full-domain scan")
    const, streams = _streams(reduce_exponents(f))
    base, (u0, t0), (u1, t1) = _split(ctx.order, const, streams)
    return fibers_two_to_one(ctx.order, const, base, u0, t0, u1, t1)


def shift_criterion(f: SparsePoly) -> bool:
    """Whether f(x+a) + f(a) = 0 has exactly two roots for every a.

    Equivalent to is_two_to_one (the count is the size of a's own fiber);
    kept as a literally different pass for cross-checking.
    """
    ctx = f.ctx
    V = value_table(f)
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


def is_o_polynomial(f: SparsePoly) -> bool:
    """f(0) = 0 and f(x) + a*x is 2-to-1 for every nonzero a.

    f is walked once; each a then runs as the stream a*x beside it.
    """
    ctx = f.ctx
    _budget_check(ctx, OPOLY_MAX_N, "o-polynomial test")
    const, streams = _streams(reduce_exponents(f))
    if const != 0:
        return False
    base = list(_walk(ctx.order, 0, streams))
    tg = step_table(ctx, ctx.generator)
    return all(fibers_two_to_one(ctx.order, 0, base, a, tg, 0, (0,)) for a in ctx.nonzero())


def square_map(f: SparsePoly) -> SparsePoly:
    """The reduced polynomial inducing x -> f(x)^2.

    Post-composing with the squaring bijection preserves fiber sizes, so f
    and square_map(f) are 2-to-1 together; families stated via f^2 are
    therefore verified on f itself.
    """
    ctx = f.ctx
    return reduce_exponents(SparsePoly.make(ctx, ((2 * e, ctx.sqr(c)) for e, c in f.terms)))


# ---------------------------------------------------------------------------
# o-monomial orbits and quasi-multiplicative equivalence


def o_orbit(k: int, n: int) -> set[int]:
    """The six fractional-exponent companions of x^k, mod 2^n - 1.

    {k, 1/k, 1-k, 1/(1-k), k/(k-1), (k-1)/k}; requires both k and k-1 prime
    to 2^n - 1 so every entry exists.
    """
    N = (1 << n) - 1
    g = math.gcd(k, N)
    if g != 1:
        raise ValueError(f"gcd(k, 2^n-1) = {g} != 1")
    g = math.gcd(k - 1, N)
    if g != 1:
        raise ValueError(f"gcd(k-1, 2^n-1) = {g} != 1")
    ik = pow(k, -1, N)
    ik1 = pow((k - 1) % N, -1, N)
    orbit = {
        k % N,
        ik,
        (1 - k) % N,
        pow((1 - k) % N, -1, N),
        k * ik1 % N,
        (k - 1) * ik % N,
    }
    assert all(1 <= e <= N - 1 for e in orbit)
    return orbit


def qm_transforms(f: SparsePoly):
    """Yield the term tuple of every monic transform of a*f(b*x^d).

    d runs over the units mod N = 2^n - 1, then b = g^B over B = 0..N-1, and
    a normalizes the leading coefficient to 1.  Exponents are reduced, so
    they stay distinct under every d.  The walk is in discrete-log
    coordinates: for c_j = g^(L_j) and reduced exponents e_j, coefficient j
    is g^(L_j - L_lead + B*(e_j - e_lead)), so d only reorders the terms and
    no field multiplication is needed.
    """
    ctx = f.ctx
    fr = reduce_exponents(f)
    if fr.is_zero:
        raise ValueError("the zero polynomial has no transforms")
    N = ctx.order - 1
    P = ctx.powers()
    LOG = {p: i for i, p in enumerate(P)}
    exps = fr.exponents()
    logs = [LOG[c] for c in fr.coeffs()]
    for d in range(1, N + 1):
        if math.gcd(d, N) != 1:
            continue
        new_exps = [(e * d - 1) % N + 1 if e > 0 else 0 for e in exps]
        order_ix = sorted(range(len(exps)), key=lambda j: -new_exps[j])
        lead = order_ix[0]
        sorted_exps = [new_exps[j] for j in order_ix]
        columns = [
            [P[(logs[j] - logs[lead] + B * (exps[j] - exps[lead])) % N] for B in range(N)]
            for j in order_ix
        ]
        for row in zip(*columns):
            yield tuple(zip(sorted_exps, row))


def qm_canonical(f: SparsePoly) -> SparsePoly:
    """The minimum transform under (exponent sequence, coefficient bits) order.

    Two polynomials are QM-equivalent exactly when their canonicals agree.
    Cost is (2^n - 1) * phi(2^n - 1) transforms; intended for dedupe, never
    for verification hot loops.
    """
    best = min(qm_transforms(f))
    return SparsePoly(f.ctx, best)


def qm_shape_orbit(f: SparsePoly, shape_ok=None) -> set[tuple]:
    """Distinct monic transforms of f, optionally filtered by a shape predicate."""
    out = set()
    for terms in qm_transforms(f):
        if shape_ok is None or shape_ok(terms):
            out.add(terms)
    return out


# ---------------------------------------------------------------------------
# constructive families


@dataclass(frozen=True)
class FamilyId:
    tag: str
    n: int

    def admissibility_error(self) -> str | None:
        return family_admissibility_error(self.tag, self.n)

    def __str__(self) -> str:
        return f"{self.tag}@n={self.n}"


def alpha_roots(ctx: FieldCtx, m: int) -> list[int]:
    """All roots of z^(2^m) + z + 1 in the field (the n = 2m trinomial parameter)."""
    return [z for z in ctx.elements() if ctx.frobenius(z, m) ^ z ^ 1 == 0]


def omega_roots(ctx: FieldCtx) -> list[int]:
    """The two elements of order 3 (roots of z^2 + z + 1); requires n even."""
    return [z for z in ctx.elements() if ctx.sqr(z) ^ z ^ 1 == 0]


def _smallest(roots: list[int], what: str) -> int:
    if not roots:
        raise ValueError(f"no root found for {what}: admissibility predicate is broken")
    return min(roots)


def _deg5_rows() -> list[tuple[int, int, int]]:
    return [tuple(r) for r in table1()["sporadic"]]


def _odd(n: int) -> str | None:
    return None if n % 2 == 1 else f"requires odd n, got n={n}"


def _even_ge4(n: int) -> str | None:
    return None if n % 2 == 0 and n >= 4 else f"requires even n >= 4, got n={n}"


def _n2m_modd(n: int) -> str | None:
    if n % 2 != 0 or (n // 2) % 2 != 1 or n < 6:
        return f"requires n = 2m with m odd and m >= 3, got n={n}"
    return None


def _n3m(n: int) -> str | None:
    return None if n % 3 == 0 else f"requires n = 3m, got n={n}"


def _n3m_m_not_1_mod_3(n: int) -> str | None:
    if n % 3 != 0:
        return f"requires n = 3m, got n={n}"
    if (n // 3) % 3 == 1:
        return f"requires m not congruent to 1 mod 3, got m={n // 3}"
    return None


def _n3(n: int) -> str | None:
    return None if n == 3 else f"fixed GF(2^3) data, got n={n}"


def _bin(k_of):
    def build(ctx: FieldCtx, param=None):
        return [(k_of(ctx.n), 1), (1, 1)]

    return build


def _glynn_pi(n: int) -> int:
    return pow(4, -1, n)


def _tri_1(ctx: FieldCtx, param=None):
    m = ctx.n // 2
    alpha = _smallest(alpha_roots(ctx, m), f"z^(2^{m}) + z + 1") if param is None else param
    return [((1 << ctx.n) - (1 << m), 1), ((1 << ctx.n) - (1 << m) - 1, 1), (1, alpha)]


def _tri_2(ctx: FieldCtx, param=None):
    n = ctx.n
    m = n // 2
    omega = _smallest(omega_roots(ctx), "z^2 + z + 1") if param is None else param
    k = ((1 << (n - 1)) + (1 << m) - 1) // 3
    return [(k, 1), (1 << m, 1), (1, omega)]


def _quad(exps_of):
    def build(ctx: FieldCtx, param=None):
        return [(e, 1) for e in exps_of(ctx.n)]

    return build


def _deg5_sporadic(row: int):
    def build(ctx: FieldCtx, param=None):
        e3, e2, e1 = _deg5_rows()[row - 1]
        g = ctx.generator
        return [(5, 1), (3, ctx.pow(g, e3)), (2, ctx.pow(g, e2)), (1, ctx.pow(g, e1))]

    return build


def _deg5_family(exp: int):
    def build(ctx: FieldCtx, param=None):
        c = 1 if param is None else param
        if c == 0:
            raise ValueError("free coefficient of a degree-5 family row must be nonzero")
        return [(5, 1), (exp, c)]

    return build


def _quad01(n):
    m1 = 1 << ((n + 1) // 2)  # 2^(m+1) for n = 2m+1
    return (m1 + 2, m1, 2, 1)


def _quad02(n):
    m1 = 1 << ((n + 1) // 2)
    return (m1 + 2, m1 + 1, 2, 1)


def _quad03(n):
    m1 = 1 << ((n + 1) // 2)
    return (2 * m1 + 4, m1 + 2, 2, 1)


def _quad04(n):
    m1 = 1 << ((n + 1) // 2)
    return ((1 << n) - m1 + 2, m1, 2, 1)


def _quad05(n):
    m1 = 1 << ((n + 1) // 2)
    return ((1 << n) - 2, (1 << n) - m1, (1 << n) - m1 - 2, 1)


def _quad06(n):
    m1 = 1 << ((n + 1) // 2)
    return ((1 << n) - 2, (1 << n) - m1, m1 - 1, 1)


def _quad07(n):
    return ((1 << n) - 2, (1 << (n - 1)) + 1, (1 << (n - 1)) - 2, 1)


def _quad11(n):
    m = n // 3
    return ((1 << 2 * m) + (1 << m), (1 << 2 * m) + 1, (1 << m) + 1, 1)


def _quad12(n):
    m = n // 3
    return ((1 << 2 * m) + 1, 1 << (m + 1), (1 << m) + 1, 1)


_FAMILIES: dict[str, tuple] = {
    "bin_singer": (_odd, _bin(lambda n: 2)),
    "bin_segre": (_odd, _bin(lambda n: 6)),
    "bin_glynn1": (_odd, _bin(lambda n: (1 << ((n + 1) // 2)) + (1 << _glynn_pi(n)))),
    "bin_glynn2": (_odd, _bin(lambda n: 3 * (1 << ((n + 1) // 2)) + 4)),
    "bin_even_inv": (
        lambda n: None if n % 2 == 0 else f"requires even n, got n={n}",
        _bin(lambda n: (1 << n) - 2),
    ),
    "tri_I": (_even_ge4, _tri_1),
    "tri_II": (_n2m_modd, _tri_2),
    "quad_01": (_odd, _quad(_quad01)),
    "quad_02": (_odd, _quad(_quad02)),
    "quad_03": (_odd, _quad(_quad03)),
    "quad_04": (_odd, _quad(_quad04)),
    "quad_05": (_odd, _quad(_quad05)),
    "quad_06": (_odd, _quad(_quad06)),
    "quad_07": (_odd, _quad(_quad07)),
    "quad_08": (_odd, _quad(lambda n: ((1 << n) - 2, (1 << n) - 4, 3, 1))),
    "quad_09": (_odd, _quad(lambda n: (6, 4, 3, 1))),
    "quad_10": (_odd, _quad(lambda n: (6, 5, 3, 1))),
    "quad_11": (_n3m, _quad(_quad11)),
    "quad_12": (_n3m_m_not_1_mod_3, _quad(_quad12)),
}


for _r in range(1, 22):
    _FAMILIES[f"deg5_row_{_r:02d}"] = (_n3, _deg5_sporadic(_r))
_FAMILIES["deg5_row_22"] = (_n3, _deg5_family(3))
_FAMILIES["deg5_row_23"] = (_n3, _deg5_family(2))

FAMILY_TAGS = tuple(_FAMILIES)


def _normalize_tag(tag: str) -> str:
    if tag in _FAMILIES:
        return tag
    head, _, num = tag.rpartition("_")
    if num.isdigit():
        padded = f"{head}_{int(num):02d}"
        if padded in _FAMILIES:
            return padded
    raise ValueError(f"unknown family {tag!r}; known: {', '.join(FAMILY_TAGS)}")


def family_admissibility_error(tag: str, n: int) -> str | None:
    adm, _ = _FAMILIES[_normalize_tag(tag)]
    return adm(n)


def admissible_family_tags(n: int) -> list[str]:
    return [t for t in FAMILY_TAGS if _FAMILIES[t][0](n) is None]


def make_family(tag: str | FamilyId, ctx: FieldCtx, param: int | None = None) -> SparsePoly:
    """The literal polynomial of the named family over ctx.

    Element parameters (alpha, omega) are the lexicographically smallest
    admissible root unless overridden via param; inadmissible n is rejected
    with the violated condition.
    """
    if isinstance(tag, FamilyId):
        if tag.n != ctx.n:
            raise ValueError(f"{tag} does not match the field degree n={ctx.n}")
        tag = tag.tag
    tag = _normalize_tag(tag)
    adm, build = _FAMILIES[tag]
    err = adm(ctx.n)
    if err is not None:
        raise ValueError(f"family {tag} is not admissible: {err}")
    return SparsePoly.make(ctx, build(ctx, param))


# ---------------------------------------------------------------------------
# point-count curve for the degree-5 falsification argument


def point_count_curve(ctx: FieldCtx, a3: int, a2: int, a1: int) -> BivarPoly:
    """The degree-14 plane curve attached to the normalized quintic
    x^5 + a3 x^3 + a2 x^2 + a1 x.

    G(X, Y) = L2(Y)^2 (X^2 + X) + L1(Y), where L1/L2^2 is the trace argument
    of the resolvent-cubic condition for the shifted quartic at a = Y.  Each
    admissible shift contributes two points, so a 2-to-1 quintic forces at
    least 2 (2^n - 9) affine points.
    """
    mul, pw = ctx.mul, ctx.pow
    a2_2, a2_3, a2_4 = pw(a2, 2), pw(a2, 3), pw(a2, 4)
    a3_2, a3_3, a3_4, a3_5, a3_6 = (pw(a3, i) for i in range(2, 7))
    l1 = [
        a2_4 ^ a3_6,
        mul(a2, a3_4),
        a3_5,
        a2_3,
        pw(a1, 2) ^ a3_4 ^ mul(a2_2, a3),
        mul(a2, a3_2),
        a3_3,
        0,
        a3_2,
        0,
        0,
        0,
        1,
    ]
    l2 = DensePoly.make(ctx, (a2_2, mul(a2, a3), a1, 0, a3, 0, 1))
    l2sq = l2 * l2
    ycoeffs = [
        DensePoly.make(ctx, (l1[j], l2sq.coeff(j), l2sq.coeff(j))) for j in range(13)
    ]
    return BivarPoly.make(ctx, ycoeffs)


def point_count_lower_bound(n: int) -> int:
    """2 (2^n - 9); vacuous below n = 4."""
    return 2 * ((1 << n) - 9)


# ---------------------------------------------------------------------------
# elimination identities behind the quadrinomial families 1..6
#
# Each family proof eliminates y (= x^(2^(m+1)) linked to x) from a pair of
# bivariate relations F, G derived from f(x+a) + f(a) = 0 and its Frobenius
# image.  The closed-form eliminants are pinned here, with exact factor
# multiplicities confirmed against both the fraction-free and the cofactor
# determinant; identities 1 and 2 carry (x+a+1) squared.


@dataclass(frozen=True)
class IdentityCheck:
    theorem: int
    n: int
    ok: bool
    failing_a: int | None = None

    def __bool__(self) -> bool:
        return self.ok


def _elimination_pair(theorem: int, ctx: FieldCtx, a: int):
    m = (ctx.n - 1) // 2
    b = ctx.pow(a, 1 << (m + 1))
    mul, pw = ctx.mul, ctx.pow
    a2, a3, a4, a6 = pw(a, 2), pw(a, 3), pw(a, 4), pw(a, 6)
    b2, b3, b4 = pw(b, 2), pw(b, 3), pw(b, 4)
    ab = mul(a, b)

    def D(*coeffs):
        return DensePoly.make(ctx, coeffs)

    def lin(c1, c0):
        return DensePoly.make(ctx, (c0, c1))

    if theorem == 1:
        F = BivarPoly.make(ctx, [D(0, 1, b ^ 1), D(a2 ^ 1, 0, 1)])
        G = BivarPoly.make(ctx, [D(0, 0, b2 ^ 1), D(1), D(a2 ^ 1, 0, 1)])
        closed = [
            lin(1, 0),
            lin(1, a ^ 1),
            lin(1, a ^ 1),
            lin(mul(a2, b2) ^ a2 ^ b2 ^ b ^ 1, 1),
        ]
    elif theorem == 2:
        F = BivarPoly.make(ctx, [D(0, b ^ 1, b ^ 1), D(a2 ^ a, 1, 1)])
        G = BivarPoly.make(ctx, [D(0, 0, b2 ^ b), D(a2 ^ 1, 0, 1), D(a2 ^ 1, 0, 1)])
        closed = [
            D(mul(a ^ 1, b ^ 1)),
            lin(1, 0),
            lin(1, a ^ 1),
            lin(1, a ^ 1),
            lin(ab ^ a ^ b, a),
        ]
    elif theorem == 3:
        F = BivarPoly.make(ctx, [D(0, 1, b ^ 1, 0, b2), D(a2, 0, 1), D(a4, 0, 0, 0, 1)])
        G = BivarPoly.make(
            ctx,
            [
                D(0, 0, b2, 0, b4),
                D(1),
                D(a2 ^ 1, 0, 1),
                DensePoly.zero(ctx),
                D(a4, 0, 0, 0, 1),
            ],
        )
        closed = (
            [lin(1, 0)] * 2
            + [lin(1, a)] * 8
            + [lin(b, 1)] * 2
            + [lin(mul(a2, b) ^ 1, a2)] * 2
            + [lin(mul(a2, b2) ^ b ^ 1, 1)] * 2
        )
    elif theorem == 4:
        F = BivarPoly.make(
            ctx,
            [
                D(0, mul(a2, b) ^ b2, ab ^ b2, b),
                D(a3 ^ b2, b, b),
                D(b),
            ],
        )
        G = BivarPoly.make(
            ctx,
            [
                D(0, 0, a4 ^ b3, 0, a2),
                D(mul(b2, a2) ^ a4, 0, a2),
                D(mul(a2, b) ^ a4, 0, a2),
                D(a2),
            ],
        )
        closed = [
            D(mul(pw(a ^ b, 3), pw(a2 ^ b, 2))),
            lin(1, 0),
            lin(1, a),
            lin(1, a),
            lin(b, a2),
            lin(a, b),
            lin(ab, a3 ^ ab ^ b2),
        ]
    elif theorem == 5:
        F = BivarPoly.make(
            ctx,
            [
                D(0, mul(a2, b2) ^ mul(a2, b) ^ b2 ^ b, mul(a, b2) ^ ab),
                D(a3 ^ a, mul(a2, b) ^ a2 ^ b ^ 1, ab),
            ],
        )
        G = BivarPoly.make(
            ctx,
            [
                D(0, 0, b3 ^ b),
                D(mul(a4, b2) ^ mul(a2, b2) ^ a4 ^ a2, 0, mul(a2, b2) ^ b2 ^ a2 ^ 1),
                D(mul(a4, b) ^ mul(a2, b), 0, mul(a2, b)),
            ],
        )
        closed = [
            D(mul(ab, mul(pw(a ^ 1, 2), pw(b ^ 1, 2)))),
            lin(1, 0),
            lin(1, a),
            lin(1, a),
            lin(1, a ^ 1),
            lin(1, a ^ 1),
            lin(ab, mul(a2, b) ^ a2 ^ b ^ 1),
        ]
    elif theorem == 6:
        F = BivarPoly.make(
            ctx,
            [
                D(0, mul(a2, b2) ^ mul(a2, b) ^ b3 ^ b2, mul(a, b2) ^ ab),
                D(a3 ^ mul(a, b2), mul(a2, b) ^ a2 ^ b2 ^ b, ab),
                D(ab),
            ],
        )
        G = BivarPoly.make(
            ctx,
            [
                D(0, 0, b3 ^ mul(a4, b), 0, mul(a2, b)),
                D(mul(a4, b2) ^ mul(a2, b2) ^ a6 ^ a4, 0, mul(a2, b2) ^ b2 ^ a4 ^ a2),
                D(mul(a4, b) ^ mul(a2, b), 0, mul(a2, b)),
            ],
        )
        closed = (
            [D(mul(a2, b2))]
            + [lin(1, 0)] * 2
            + [lin(1, a)] * 2
            + [lin(b, ab ^ a)] * 2
            + [lin(a, a2 ^ 1)] * 2
            + [lin(a, a2 ^ b)] * 2
        )
    else:
        raise ValueError(f"identity {theorem} unknown; expected 1..6")
    return F, G, poly_product(ctx, closed)


ELIMINATION_IDENTITIES = (1, 2, 3, 4, 5, 6)


def verify_resultant_identity(theorem: int, ctx: FieldCtx) -> IdentityCheck:
    """Pointwise check of the closed-form eliminant for quadrinomial family
    1..6: for every a outside {0, 1} (the degenerate values the derivations
    exclude), the Sylvester eliminant of the pair (F, G) must equal the pinned
    product up to a nonzero scalar.
    """
    if ctx.n % 2 == 0 or ctx.n > 9:
        raise ValueError(f"identity checks run over odd n <= 9, got n={ctx.n}")
    for a in ctx.elements():
        if a in (0, 1):
            continue
        F, G, closed = _elimination_pair(theorem, ctx, a)
        if not equal_up_to_scalar(resultant_eliminate(F, G), closed):
            return IdentityCheck(theorem, ctx.n, False, a)
    return IdentityCheck(theorem, ctx.n, True)
