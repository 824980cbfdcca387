"""Solution counting and factorization classification for quadratic, cubic
and quartic equations over GF(2^n).

Each trace-based criterion is paired with a brute-force scan oracle; the
``lemma_*_agreement`` engines run the criterion against the oracle over the
whole input space and are what the CLI ``lemma`` subcommand reports on.
An engine whose input space exceeds LEMMA_MAX_INPUTS raises ValueError before
it checks anything.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from operator import xor

from .field import FieldCtx, linear_table
from .poly import DensePoly

ROOT_SCAN_MAX_N = 20
LEMMA_MAX_INPUTS = 1 << 24  # n <= 12 for the quadratic and cubic engines, n <= 8 for the quartic

__all__ = [
    "FactorPattern",
    "quadratic_solutions",
    "solve_artin_schreier",
    "cubic_has_unique_root",
    "quartic_pattern",
    "roots_by_scan",
    "lemma_quadratic_agreement",
    "lemma_cubic_agreement",
    "lemma_quartic_agreement",
    "AgreementReport",
    "LEMMA_MAX_INPUTS",
]


class FactorPattern(Enum):
    """Multiset of irreducible-factor degrees of a cubic or quartic."""

    Q1111 = (1, 1, 1, 1)
    Q22 = (2, 2)
    Q13 = (1, 3)
    Q112 = (1, 1, 2)
    Q4 = (4,)
    C111 = (1, 1, 1)
    C12 = (1, 2)
    C3 = (3,)


# ---------------------------------------------------------------------------
# quadratics


def solve_artin_schreier(ctx: FieldCtx, c: int) -> int:
    """One solution of z^2 + z = c; requires trace_abs(c) = 0."""
    if ctx.trace_abs(c) != 0:
        raise ValueError("z^2 + z = c is unsolvable: trace(c) = 1")
    return _artin_schreier_root(ctx, c)


def _artin_schreier_root(ctx: FieldCtx, c: int) -> int:
    """z with z^2 + z = c for a c of trace 0, unchecked: the trace-dual sum
    of FieldCtx.artin_schreier_split, read as two lookups, since the sum is
    GF(2)-linear in c."""
    lo, hi = ctx.artin_schreier_split()
    h = (ctx.n + 1) >> 1
    return lo[c & ((1 << h) - 1)] ^ hi[c >> h]


def quadratic_solutions(ctx: FieldCtx, u: int, v: int) -> set[int]:
    """Roots of x^2 + ux + v in the field; empty exactly when trace(v/u^2) = 1.

    u = 0 is rejected: the degenerate x^2 = v has the single root sqrt(v) and
    is handled by callers through ctx.sqrt.
    """
    if u == 0:
        raise ValueError("u = 0 is degenerate: x^2 = v has the unique root sqrt(v)")
    c = ctx.mul(v, ctx.inv(ctx.sqr(u)))
    if ctx.trace_abs(c) == 1:
        return set()
    z = _artin_schreier_root(ctx, c)
    s = ctx.mul(u, z)
    roots = {s, s ^ u}
    for r in roots:
        if ctx.sqr(r) ^ ctx.mul(u, r) ^ v != 0:
            raise AssertionError("quadratic solver produced a non-root")
    return roots


# ---------------------------------------------------------------------------
# cubics


def cubic_has_unique_root(ctx: FieldCtx, a: int, b: int) -> bool:
    """Whether x^3 + ax + b (b != 0) has exactly one root in the field."""
    if b == 0:
        raise ValueError("b = 0 is out of scope: x^3 + ax = x(x^2 + a)")
    w = ctx.mul(ctx.pow(a, 3), ctx.inv(ctx.sqr(b)))
    return ctx.trace_abs(w ^ 1) != 0


# ---------------------------------------------------------------------------
# quartics


def _resolvent_scaled(ctx: FieldCtx, a1: int, roots) -> list[int]:
    """Trace masks of s = r^2 / a1^2 over the sorted field roots r of the
    resolvent y^3 + a2 y + a1: bit b of the mask of s is trace(s * 2^b), so
    trace(a0 * s) is the parity of a0 & mask."""
    scale = ctx.inv(ctx.sqr(a1))
    masks = []
    for r in sorted(roots):
        s = ctx.mul(ctx.sqr(r), scale)
        masks.append(sum(ctx.trace_abs(ctx.mul(s, 1 << b)) << b for b in range(ctx.n)))
    return masks


def _classify_quartic(a0: int, masks: list[int]) -> FactorPattern:
    """Case analysis from the resolvent data: masks are the trace masks of
    r_i^2 / a1^2 for the field roots r_i of the resolvent cubic, so the
    trace of w_i = a0 r_i^2 / a1^2 is the parity of a0 & masks[i].

    When the resolvent splits, the three w_i sum to zero (the r_i themselves
    do), so either all traces vanish or exactly one does; the classification
    is labelling-invariant.
    """
    if not masks:
        return FactorPattern.Q13
    if len(masks) != 3:
        return FactorPattern.Q4 if (a0 & masks[0]).bit_count() & 1 else FactorPattern.Q112
    m0, m1, m2 = masks
    ones = ((a0 & m0).bit_count() & 1) + ((a0 & m1).bit_count() & 1) + ((a0 & m2).bit_count() & 1)
    if ones == 0:
        return FactorPattern.Q1111
    if ones == 2:
        return FactorPattern.Q22
    raise AssertionError(f"impossible trace pattern: {ones} of 3 traces are 1 for a split resolvent")


def quartic_pattern(ctx: FieldCtx, a2: int, a1: int, a0: int) -> FactorPattern:
    """Factor pattern of x^4 + a2 x^2 + a1 x + a0 with a0 a1 != 0.

    Classified through the resolvent cubic f1(y) = y^3 + a2 y + a1 and the
    traces of w_i = a0 r_i^2 / a1^2 at its field roots r_i.
    """
    if a0 == 0 or a1 == 0:
        raise ValueError("quartic classification requires a0 != 0 and a1 != 0")
    f1 = DensePoly.make(ctx, (a1, a2, 0, 1))
    return _classify_quartic(a0, _resolvent_scaled(ctx, a1, roots_by_scan(f1)))


def roots_by_scan(f: DensePoly) -> set[int]:
    """Exact root set in the field by evaluating at all 2^n points."""
    if f.is_zero:
        raise ValueError("the zero polynomial has every element as a root")
    ctx = f.ctx
    if ctx.n > ROOT_SCAN_MAX_N:
        raise ValueError(f"root scan capped at n={ROOT_SCAN_MAX_N}, got n={ctx.n}")
    return {x for x in ctx.elements() if f.eval(x) == 0}


# ---------------------------------------------------------------------------
# exhaustive criterion-vs-oracle engines


@dataclass(frozen=True)
class AgreementReport:
    which: str
    n: int
    checked: int
    mismatches: tuple[tuple[int, ...], ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _check_input_cap(which: str, ctx: FieldCtx, inputs: int) -> None:
    """Reject up front an engine run that would check more than LEMMA_MAX_INPUTS inputs."""
    if inputs > LEMMA_MAX_INPUTS:
        raise ValueError(
            f"the {which} lemma engine checks at most LEMMA_MAX_INPUTS = {LEMMA_MAX_INPUTS} inputs; "
            f"n={ctx.n} would need {inputs}"
        )


def _additive_values(ctx: FieldCtx, c1: int, c2: int, c4: int) -> list[int]:
    """The values of x -> c4 x^4 + c2 x^2 + c1 x at x = 0 .. 2^n - 1: the map
    is GF(2)-linear, so the list is the linear_table of its n basis images."""
    images = []
    for b in range(ctx.n):
        x = 1 << b
        x2 = ctx.sqr(x)
        images.append(ctx.mul(c1, x) ^ ctx.mul(c2, x2) ^ ctx.mul(c4, ctx.sqr(x2)))
    return linear_table(images)


def _cubic_value_lists(ctx: FieldCtx):
    """(a, values) for a = 0 .. 2^n - 1, values[x] = x^3 + ax; x^3 is tabled once."""
    cube = [ctx.mul(ctx.sqr(x), x) for x in ctx.elements()]
    for a in ctx.elements():
        yield a, list(map(xor, cube, ctx.mul_table(a)))


def lemma_quadratic_agreement(ctx: FieldCtx) -> AgreementReport:
    """quadratic_solutions vs a grouped root scan, over every (u != 0, v);
    the oracle is the value histogram of x^2 + ux."""
    _check_input_cap("quadratic", ctx, (ctx.order - 1) * ctx.order)
    mismatches = []
    checked = 0
    for u in ctx.nonzero():
        count = Counter(_additive_values(ctx, u, 1, 0)).get
        for v in ctx.elements():
            sols = quadratic_solutions(ctx, u, v)
            if len(sols) != count(v, 0):
                mismatches.append((u, v))
            elif sols and (max(sols) ^ min(sols)) != u:
                mismatches.append((u, v))
        checked += ctx.order
    return AgreementReport("quadratic", ctx.n, checked, tuple(mismatches))


def lemma_cubic_agreement(ctx: FieldCtx) -> AgreementReport:
    """cubic_has_unique_root vs a grouped root scan, over every (a, b != 0);
    the oracle is the value histogram of x^3 + ax."""
    _check_input_cap("cubic", ctx, ctx.order * (ctx.order - 1))
    mismatches = []
    checked = 0
    for a, values in _cubic_value_lists(ctx):
        count = Counter(values).get
        for b in ctx.nonzero():
            if cubic_has_unique_root(ctx, a, b) != (count(b) == 1):
                mismatches.append((a, b))
        checked += ctx.order - 1
    return AgreementReport("cubic", ctx.n, checked, tuple(mismatches))


# quartic pattern by the root count of x^4 + a2 x^2 + a1 x + a0; 0 roots is Q22 or Q4
_PATTERN_BY_ROOTS = {4: FactorPattern.Q1111, 2: FactorPattern.Q112, 1: FactorPattern.Q13}


def lemma_quartic_agreement(ctx: FieldCtx) -> AgreementReport:
    """quartic_pattern vs the scan oracle, over every (a2, a1 != 0, a0 != 0).

    Both sides are evaluated in grouped form per (a2, a1): the criterion runs
    quartic_pattern's own two steps, _resolvent_scaled once per a1 and
    _classify_quartic per a0, with the resolvent roots of every a1 read from
    the values of u^3 + a2 u grouped per a2; the oracle takes quartic root
    counts from the value histogram of x^4 + a2 x^2 + a1 x and marks
    divisor-admitting a0 by the values of the quadratic sweep
    v -> (u^2 + a2) v + v^2 over the resolvent roots u: x^2 + ux + v
    divides the quartic exactly when u is one and the sweep takes a0 at v.
    """
    _check_input_cap("quartic", ctx, ctx.order * (ctx.order - 1) ** 2)
    mismatches = []
    checked = 0
    for a2, resolvent in _cubic_value_lists(ctx):
        roots_of: dict[int, list[int]] = {}
        for u, value in enumerate(resolvent):
            roots_of.setdefault(value, []).append(u)
        for a1 in ctx.nonzero():
            count = Counter(_additive_values(ctx, a1, a2, 1)).get
            roots = roots_of.get(a1, [])
            masks = _resolvent_scaled(ctx, a1, roots)
            divisible = set()
            for u in roots:
                divisible.update(_additive_values(ctx, ctx.sqr(u) ^ a2, 1, 0))
            for a0 in ctx.nonzero():
                oracle = _PATTERN_BY_ROOTS.get(count(a0))
                if oracle is None:
                    oracle = FactorPattern.Q22 if a0 in divisible else FactorPattern.Q4
                if _classify_quartic(a0, masks) is not oracle:
                    mismatches.append((a2, a1, a0))
            checked += ctx.order - 1
    return AgreementReport("quartic", ctx.n, checked, tuple(mismatches))
