"""The 2-to-1 verifier, equivalence machinery, constructive families and
the elimination identities behind quad_01..06: each is proved over
GF(2)[a, b], and the degree-drop points are checked pointwise.  Their
relation pairs are derived from the lift table that builds those families.

A mapping f on GF(2^n) is 2-to-1 when every fiber has size 0 or 2 (a
half-size image is necessary but not sufficient: fiber profiles like
(3, 1, 2, ..., 2) also reach 2^(n-1) values).  The verifier has two paths,
each with an early-exit kernel that the searches share.  When every
coefficient of f is 1 and n <= 17, f(x^2) = f(x)^2, so fiber sizes are
constant on the Frobenius orbits x -> x^2, and orbits_two_to_one decides f
from one point per orbit (about 2^n/n points), counted per value orbit by
the FieldCtx.orbit_tables of the field; the quadrinomial search calls it too.
Otherwise fibers_two_to_one makes one pass over the domain, walked
multiplicatively (x = g^i) with the split tables of FieldCtx.split_table, so
each term advances by one lookup pair per point, and exits on the first fiber
of size 3; it takes one coefficient stream u*s^i beside the values, which the
o-polynomial test and the other searches use.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import product, repeat

from .field import FieldCtx, linear_table
from .poly import (
    BivarPoly,
    DensePoly,
    GF2Poly,
    SparsePoly,
    equal_up_to_scalar,
    reduce_exponents,
    resultant_eliminate,
    sylvester_resultant,
)
from .tabledata import table1

HISTOGRAM_MAX_N = 24
OPOLY_MAX_N = 16

__all__ = [
    "PreimageHistogram",
    "preimage_histogram",
    "is_two_to_one",
    "fibers_two_to_one",
    "orbits_two_to_one",
    "is_o_polynomial",
    "o_orbit",
    "qm_transforms",
    "qm_unit_transforms",
    "qm_canonical",
    "qm_shape_orbit",
    "FAMILY_TAGS",
    "admissible_family_tags",
    "make_family",
    "alpha_roots",
    "IdentityCheck",
    "verify_resultant_identity",
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


def fibers_two_to_one(order: int, f0: int, base, u: int, t) -> bool:
    """The fiber kernel: whether f0 and the values base[i] ^ u*s^i together
    fill only fibers of size 0 or 2.

    t is the mul_table step table of the one coefficient stream (t[u] = s*u);
    the verifier passes its split-table _walk as base with the zero stream
    (0, (0,)).  Returns at the first fiber of size 3, so a lazy base is
    consumed only that far.
    """
    counts = bytearray(order)
    counts[f0] = 1
    for w in base:
        v = w ^ u
        c = counts[v]
        if c == 2:
            return False
        counts[v] = c + 1
        u = t[u]
    return 1 not in counts


def _streams(f: SparsePoly, cap: int = HISTOGRAM_MAX_N, what: str = "full-domain scan"):
    """Reduce f and split it into f(0) and one (start, lo, hi) stream per
    positive-exponent term; raises ValueError above n = cap.

    The term c*x^e takes the value c*g^(i*e) at x = g^i, so advancing i is one
    multiplication by g^e, u -> lo[u & m] ^ hi[u >> h] with the split_table
    pair of g^e.  The constant part is also f(0): reduced positive exponents
    vanish at 0 and exponent 0 contributes everywhere.
    """
    ctx = f.ctx
    if ctx.n > cap:
        raise ValueError(f"{what} capped at n={cap}, got n={ctx.n}")
    const = 0
    streams = []
    for e, c in reduce_exponents(f).terms:
        if e == 0:
            const ^= c
        else:
            streams.append((c, *ctx.split_table(ctx.pow(ctx.generator, e))))
    return const, streams


def _walk(order: int, const: int, streams: list):
    """Yield const plus every stream at x = g^i for i = 0..order-2, lazily, so
    a scan that exits early steps no stream past the point it reached.

    Each level steps the last two streams and takes const and the earlier
    streams from a nested walk."""
    *early, (u0, lo0, hi0), (u1, lo1, hi1) = [(0, (0,), (0,))] * (2 - len(streams)) + streams
    base = _walk(order, const, early) if early else repeat(const, order - 1)
    m = len(lo1) - 1  # 2^h - 1: zero streams pad in front, so lo1 is a real stream's
    h = m.bit_length()
    for w in base:
        yield w ^ u0 ^ u1
        u0 = lo0[u0 & m] ^ hi0[u0 >> h]
        u1 = lo1[u1 & m] ^ hi1[u1 >> h]


def preimage_histogram(f: SparsePoly) -> PreimageHistogram:
    """Exact fiber sizes by one pass over the domain (n <= 24)."""
    const, streams = _streams(f)
    counts = Counter((const,))
    counts.update(_walk(f.ctx.order, const, streams))
    return PreimageHistogram(f.ctx.n, dict(counts))


def is_two_to_one(f: SparsePoly) -> bool:
    """Whether every fiber of f has size 0 or 2, with early exit.

    When every reduced coefficient of f is 1 and n <= 17, orbits_two_to_one
    decides it from one point per Frobenius orbit, evaluated lazily;
    otherwise fibers_two_to_one walks the whole domain.
    """
    terms = reduce_exponents(f).terms
    tables = f.ctx.orbit_tables() if all(c == 1 for _, c in terms) else None
    if tables is not None:
        antilog, key, leaders, sizes = tables
        return orbits_two_to_one(_leader_values(terms, antilog, leaders), key, sizes)
    const, streams = _streams(f)
    walk = _walk(f.ctx.order, const, streams)
    return fibers_two_to_one(f.ctx.order, const, walk, 0, (0,))


def _leader_values(terms, antilog, leaders):
    """Yield f(0), then f(g^L) at each orbit leader L; every coefficient is 1."""
    N = len(antilog)
    exps = [e for e, _ in terms if e]
    const = len(terms) - len(exps)  # f(0): 1 exactly when x^0 is a term
    yield const
    for L in leaders:
        v = const
        for e in exps:
            v ^= antilog[L * e % N]
        yield v


def orbits_two_to_one(values, key, sizes) -> bool:
    """The orbit kernel: whether f with f(x^2) = f(x)^2 is 2-to-1, from
    values[0] = f(0) and values[k] = f(g^L), L the leader of orbit k, with key
    and sizes from FieldCtx.orbit_tables.

    f maps the orbit of x onto the orbit V of f(x), and every point of V has
    the same fiber size c, so the orbits mapped into V hold c*|V| points.  f
    is 2-to-1 exactly when every V collects 0 or 2*|V|; returns as soon as a
    count passes 2*|V|, so a lazy values is read only that far.
    """
    counts = [0] * len(sizes)
    for v, s in zip(values, sizes):
        V = key[v]
        c = counts[V] + s
        if c > 2 * sizes[V]:
            return False
        counts[V] = c
    return all(c == 0 or c == 2 * s for c, s in zip(counts, sizes))


def is_o_polynomial(f: SparsePoly) -> bool:
    """f(0) = 0 and f(x) + a*x is 2-to-1 for every nonzero a.

    f is walked once; each a then runs as the stream a*x beside it.
    """
    ctx = f.ctx
    const, streams = _streams(f, OPOLY_MAX_N, "o-polynomial test")
    if const != 0:
        return False
    base = list(_walk(ctx.order, 0, streams))
    tg = ctx.mul_table(ctx.generator)
    return all(fibers_two_to_one(ctx.order, 0, base, a, tg) for a in ctx.nonzero())


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
    no field multiplication is needed.  The logs and powers come from
    FieldCtx.log_tables(), so n > LOG_TABLE_MAX_N raises ValueError at the
    first step, before any transform is walked.
    """
    ctx = f.ctx
    fr = reduce_exponents(f)
    if fr.is_zero:
        raise ValueError("the zero polynomial has no transforms")
    EXP, LOG = ctx.log_tables()
    N = ctx.order - 1
    exps = fr.exponents()
    logs = [LOG[c] for c in fr.coeffs()]
    for order_ix, sorted_exps in _unit_relabellings(exps, N):
        lead = order_ix[0]
        columns = [
            [EXP[(logs[j] - logs[lead] + B * (exps[j] - exps[lead])) % N] for B in range(N)]
            for j in order_ix
        ]
        for row in zip(*columns):
            yield tuple(zip(sorted_exps, row))


def qm_unit_transforms(f: SparsePoly):
    """Yield the term tuple of f(x^d) for every unit d mod N = 2^n - 1, with
    the reduced exponents in descending order and every coefficient 1.

    When every reduced coefficient of f is 1, these are exactly the transforms
    of f whose coefficients are all 1: coefficient j of the monic transform
    a*f(b*x^d) is b^(e_j - e_lead), so it is 1 for every j only when b fixes
    every term, and the transform is then the b = 1 one.  It guards like qm_transforms:
    the zero polynomial and n > LOG_TABLE_MAX_N raise ValueError.
    """
    ctx = f.ctx
    fr = reduce_exponents(f)
    if fr.is_zero:
        raise ValueError("the zero polynomial has no transforms")
    ctx.log_tables()
    for _, sorted_exps in _unit_relabellings(fr.exponents(), ctx.order - 1):
        yield tuple((e, 1) for e in sorted_exps)


def _unit_relabellings(exps, N: int):
    """For each unit d mod N, ascending: the term order of x -> x^d applied
    to terms with these reduced exponents (indices into exps, leading term
    first) and the new exponents in that order."""
    for d in range(1, N + 1):
        if math.gcd(d, N) == 1:
            new_exps = [(e * d - 1) % N + 1 if e > 0 else 0 for e in exps]
            order_ix = sorted(range(len(exps)), key=lambda j: -new_exps[j])
            yield order_ix, [new_exps[j] for j in order_ix]


def qm_canonical(f: SparsePoly) -> SparsePoly:
    """The least transform term tuple: (exponent, coefficient) pairs compared
    lexicographically from the leading term down, so a coefficient ranks
    before every lower exponent.

    Two polynomials are QM-equivalent exactly when their canonicals agree.
    When every reduced coefficient is 1 the canonical is the least of the
    phi(2^n - 1) exponent tuples of qm_unit_transforms: every transform has
    lead coefficient 1, and for each d the exponents are fixed and b = 1 sets
    every other coefficient to 1, the least nonzero element.  Otherwise the
    cost is (2^n - 1) * phi(2^n - 1) transforms; intended for dedupe, never
    for verification hot loops.
    """
    fr = reduce_exponents(f)
    walk = qm_unit_transforms if all(c == 1 for c in fr.coeffs()) else qm_transforms
    return SparsePoly(f.ctx, min(walk(fr)))


def qm_shape_orbit(f: SparsePoly, shape_ok=None) -> set[tuple]:
    """Distinct monic transforms of f, optionally filtered by shape_ok, any
    membership test on a term tuple (such as the __contains__ of a hit set)."""
    out = set()
    for terms in qm_transforms(f):
        if shape_ok is None or shape_ok(terms):
            out.add(terms)
    return out


# ---------------------------------------------------------------------------
# constructive families


def alpha_roots(ctx: FieldCtx, m: int) -> list[int]:
    """All roots of z^(2^m) + z + 1 in the field, ascending: the tri_I
    parameter at n = 2m, and at m = 1 the elements of order 3 that tri_II takes.

    L(z) = z^(2^m) + z is GF(2)-linear.  Elimination on the images of the n
    basis elements, each carried with its preimage, gives one solution z0 of
    L(z) = 1 and a basis of the kernel of L, which is at most 2^m elements;
    the roots are z0 plus the kernel.  Nothing of size 2^n is built.
    """
    pivots = {}  # leading bit -> (image, preimage); one image per leading bit

    def reduce(v, z):
        while v and v.bit_length() in pivots:
            pv, pz = pivots[v.bit_length()]
            v, z = v ^ pv, z ^ pz
        return v, z

    kernel = []
    for b in range(ctx.n):
        v, z = reduce(ctx.frobenius(1 << b, m) ^ (1 << b), 1 << b)
        if v:
            pivots[v.bit_length()] = v, z
        else:
            kernel.append(z)
    rest, z0 = reduce(1, 0)
    return [] if rest else sorted(z0 ^ k for k in linear_table(kernel))


def _root_param(roots: list[int], what: str, param: int | None) -> int:
    """param, which must be one of roots; by default the smallest root."""
    if param is None:
        if not roots:
            raise ValueError(f"no root found for {what}: admissibility predicate is broken")
        return min(roots)
    if param not in roots:
        raise ValueError(f"param {param:#x} is not a root of {what}")
    return param


def _no_param(param: int | None) -> None:
    if param is not None:
        raise ValueError(f"this family has no element parameter, got param {param:#x}")


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


def _glynn_pi(n: int) -> int:
    return pow(4, -1, n)


def _tri_1(ctx: FieldCtx, param=None):
    m = ctx.n // 2
    alpha = _root_param(alpha_roots(ctx, m), f"z^(2^{m}) + z + 1", param)
    return [((1 << ctx.n) - (1 << m), 1), ((1 << ctx.n) - (1 << m) - 1, 1), (1, alpha)]


def _tri_2(ctx: FieldCtx, param=None):
    n = ctx.n
    m = n // 2
    omega = _root_param(alpha_roots(ctx, 1), "z^2 + z + 1", param)
    k = ((1 << (n - 1)) + (1 << m) - 1) // 3
    return [(k, 1), (1 << m, 1), (1, omega)]


def _quad(exps_of):
    """The builder of a family whose coefficients are all 1: x^e for e in exps_of(n)."""

    def build(ctx: FieldCtx, param=None):
        _no_param(param)
        return [(e, 1) for e in exps_of(ctx.n)]

    return build


def _deg5_sporadic(row: int):
    def build(ctx: FieldCtx, param=None):
        _no_param(param)
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


# quad_01..06 for n = 2m+1: (i, j) is the monomial x^i * y^j, y = x^(2^(m+1)),
# a negative power an inverse.  make_family reads the exponents off this table,
# and the elimination identities below derive their relation pairs from it.
_QUAD_LIFTS = {
    1: ((2, 1), (0, 1), (2, 0), (1, 0)),
    2: ((2, 1), (1, 1), (2, 0), (1, 0)),
    3: ((4, 2), (2, 1), (2, 0), (1, 0)),
    4: ((3, -1), (0, 1), (2, 0), (1, 0)),
    5: ((-1, 0), (1, -1), (-1, -1), (1, 0)),
    6: ((-1, 0), (1, -1), (-1, 1), (1, 0)),
}


def _lift_exps(t: int):
    def exps_of(n):
        m1 = 1 << ((n + 1) // 2)  # 2^(m+1) for n = 2m+1
        es = (i + j * m1 for i, j in _QUAD_LIFTS[t])
        return tuple(e if e > 0 else e + (1 << n) - 1 for e in es)

    return exps_of


def _quad07(n):
    return ((1 << n) - 2, (1 << (n - 1)) + 1, (1 << (n - 1)) - 2, 1)


def _quad11(n):
    m = n // 3
    return ((1 << 2 * m) + (1 << m), (1 << 2 * m) + 1, (1 << m) + 1, 1)


def _quad12(n):
    m = n // 3
    return ((1 << 2 * m) + 1, 1 << (m + 1), (1 << m) + 1, 1)


_FAMILIES: dict[str, tuple] = {
    "bin_singer": (_odd, _quad(lambda n: (2, 1))),
    "bin_segre": (_odd, _quad(lambda n: (6, 1))),
    "bin_glynn1": (_odd, _quad(lambda n: ((1 << ((n + 1) // 2)) + (1 << _glynn_pi(n)), 1))),
    "bin_glynn2": (_odd, _quad(lambda n: (3 * (1 << ((n + 1) // 2)) + 4, 1))),
    "bin_even_inv": (
        lambda n: None if n % 2 == 0 else f"requires even n, got n={n}",
        _quad(lambda n: ((1 << n) - 2, 1)),
    ),
    "tri_I": (_even_ge4, _tri_1),
    "tri_II": (_n2m_modd, _tri_2),
    "quad_01": (_odd, _quad(_lift_exps(1))),
    "quad_02": (_odd, _quad(_lift_exps(2))),
    "quad_03": (_odd, _quad(_lift_exps(3))),
    "quad_04": (_odd, _quad(_lift_exps(4))),
    "quad_05": (_odd, _quad(_lift_exps(5))),
    "quad_06": (_odd, _quad(_lift_exps(6))),
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


def admissible_family_tags(n: int) -> list[str]:
    return [t for t in FAMILY_TAGS if _FAMILIES[t][0](n) is None]


def make_family(tag: str, ctx: FieldCtx, param: int | None = None) -> SparsePoly:
    """The literal polynomial of the named family over ctx.

    Element parameters (alpha, omega) are the lexicographically smallest
    admissible root unless overridden via param, which must then be a root;
    the degree-5 family rows take any nonzero param, and the other families
    none.  Inadmissible n or param is rejected with the violated condition.
    """
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
# Each family proof eliminates y = x^(2^(m+1)) from F, the lift of
# f(x+a) + f(a) = 0, and G, its Frobenius image.  F and G are derived from
# _QUAD_LIFTS; only the closed-form eliminants, the paper's result, are
# pinned, with exact factor multiplicities confirmed against both the
# fraction-free and the cofactor determinant; identities 1 and 2 carry
# (x+a+1) squared.  All three are GF2Poly values over GF(2)[a, b][x], so one
# Sylvester determinant proves an identity for every field at once.


@dataclass(frozen=True)
class IdentityCheck:
    theorem: int
    n: int
    ok: bool
    failing_a: int | None = None

    def __bool__(self) -> bool:
        return self.ok


def _ycoeffs(mono) -> list[GF2Poly]:
    """The coefficients, ascending in y, of the sum of the monomials
    x^k y^l a^u b^v listed as (k, l, u, v) in mono."""
    top = max(l for _, l, _, _ in mono)
    return [GF2Poly(frozenset((k, u, v) for k, l, u, v in mono if l == j)) for j in range(top + 1)]


def _relation_pair(lift) -> tuple[list, list]:
    """F and G for one lift, over GF(2)[a, b][x] and ascending in y.

    F = (f(x+a, y+b) + f(a, b)) (x+a)^p (y+b)^q a^p b^q; p and q clear the
    lift's negative x- and y-powers, so F takes only sums and products.
    G is F under z -> z^(2^(m+1)), which sends x, y, a, b to y, x^2, b, a^2.
    """
    p = -min(0, *(i for i, _ in lift))
    q = -min(0, *(j for _, j in lift))
    mono = set()
    for i, j in lift:
        # (x+a)^I (y+b)^J a^s b^t for the shifted term, then for f(a, b)'s;
        # by Lucas' theorem C(I, k) is odd exactly when k is a submask of I
        for I, J, s, t in ((i + p, j + q, p, q), (p, q, i + p, j + q)):
            for k, l in product(range(I + 1), range(J + 1)):
                if k | I == I and l | J == J:
                    mono ^= {(k, l, I - k + s, J - l + t)}
    return _ycoeffs(mono), _ycoeffs({(2 * l, k, 2 * v, u) for k, l, u, v in mono})


_RELATIONS = {t: _relation_pair(lift) for t, lift in _QUAD_LIFTS.items()}


def _relations(theorem: int) -> tuple[list, list]:
    if theorem not in _RELATIONS:
        raise ValueError(f"identity {theorem} unknown; expected 1..{len(_RELATIONS)}")
    return _RELATIONS[theorem]


def _eliminant(theorem: int) -> GF2Poly:
    """The pinned closed-form eliminant of quadrinomial family 1..6."""
    one, x, a, b = (GF2Poly.monomial(*m) for m in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)))
    if theorem == 1:
        return x * (x + a + one) ** 2 * ((a**2 * b**2 + a**2 + b**2 + b + one) * x + one)
    if theorem == 2:
        return (a + one) * (b + one) * x * (x + a + one) ** 2 * ((a * b + a + b) * x + a)
    if theorem == 3:
        return (
            x**2
            * (x + a) ** 8
            * (b * x + one) ** 2
            * ((a**2 * b + one) * x + a**2) ** 2
            * ((a**2 * b**2 + b + one) * x + one) ** 2
        )
    if theorem == 4:
        return (
            (a + b) ** 3
            * (a**2 + b) ** 2
            * x
            * (x + a) ** 2
            * (b * x + a**2)
            * (a * x + b)
            * (a * b * x + a**3 + a * b + b**2)
        )
    if theorem == 5:
        return (
            a * b * (a + one) ** 2 * (b + one) ** 2
            * x
            * (x + a) ** 2
            * (x + a + one) ** 2
            * (a * b * x + a**2 * b + a**2 + b + one)
        )
    # theorem 6
    return (
        a**2 * b**2
        * x**2
        * (x + a) ** 2
        * (b * x + a * b + a) ** 2
        * (a * x + a**2 + one) ** 2
        * (a * x + a**2 + b) ** 2
    )


def _elimination_pair(theorem: int, ctx: FieldCtx, a: int, b: int):
    """(F, G, closed) of quadrinomial family 1..6 at the point (a, b): the
    relation pair derived from the family's lift and the pinned eliminant.

    The families have b = a^(2^(m+1)); the tests also check
    Res_y(F, G) ~ closed at b independent of a.
    """
    F, G = (BivarPoly.make(ctx, [c.at(ctx, a, b) for c in rel]) for rel in _relations(theorem))
    return F, G, _eliminant(theorem).at(ctx, a, b)


def _prove_identity(theorem: int) -> tuple[bool, GF2Poly]:
    """Whether Res_y(F, G) * lc_x(C) = C * lc_x(Res_y(F, G)) holds over
    GF(2)[a, b][x], C the pinned eliminant, and the guard: lc_x of the leading
    y-coefficients of F and G, times lc_x(C), times lc_x(Res_y(F, G)).

    At an (a, b) where the guard is nonzero, F and G keep their y-degrees, so
    the Sylvester matrix of the specialised pair is the specialised matrix;
    both eliminants keep their x-degrees too, so the identity gives the
    pointwise one with the nonzero scalar lc_x(Res)/lc_x(C).
    """
    F, G = _relations(theorem)
    closed = _eliminant(theorem)
    res = sylvester_resultant(F, G, GF2Poly.monomial(0, 0, 0))
    lc, lr = closed.lead_x(), res.lead_x()
    return res * lc == closed * lr, F[-1].lead_x() * G[-1].lead_x() * lc * lr


def verify_resultant_identity(theorem: int, ctx: FieldCtx) -> IdentityCheck:
    """The closed-form eliminant of quadrinomial family 1..6, proved over
    GF(2)[a, b]; degree-drop points are checked pointwise.

    The claim: for every a outside {0, 1} (the degenerate values the
    derivations exclude) and b = a^(2^(m+1)), the Sylvester eliminant of the
    derived pair (F, G) equals the pinned product up to a nonzero scalar.
    Once _prove_identity holds, the pointwise check runs only at the a where
    its guard vanishes, where a y- or x-degree may drop; if the proof fails,
    it runs at every a.  Either way the first failing a is reported.
    """
    if ctx.n % 2 == 0 or ctx.n > 9:
        raise ValueError(f"identity checks run over odd n <= 9, got n={ctx.n}")
    proved, guard = _prove_identity(theorem)
    m1 = 1 << ((ctx.n + 1) // 2)
    for a in range(2, ctx.order):
        b = ctx.pow(a, m1)
        if proved and not guard.at(ctx, a, b).is_zero:
            continue
        F, G, closed = _elimination_pair(theorem, ctx, a, b)
        if not equal_up_to_scalar(resultant_eliminate(F, G), closed):
            return IdentityCheck(theorem, ctx.n, False, a)
    return IdentityCheck(theorem, ctx.n, True)
