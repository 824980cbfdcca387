"""Solution counting and factorization classification for quadratic, cubic
and quartic equations over GF(2^n).

Each trace-based criterion is paired with a brute-force scan oracle; the
``lemma_*_agreement`` engines run the criterion against the oracle over the
whole input space and are what the CLI ``lemma`` subcommand reports on.
An engine whose input space exceeds LEMMA_MAX_INPUTS raises ValueError before
it checks anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .field import FieldCtx
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
    """One solution of z^2 + z = c; requires trace_abs(c) = 0.

    The trace-dual sum of theta_i c^(2^i) over i = 1..n-1, theta_i = delta +
    delta^2 + ... + delta^(2^(i-1)), with delta = ctx.trace_one, the lowest
    basis element of trace 1.  At odd n, delta = 1 and theta_i alternates 1, 0,
    so the sum runs over odd i; as trace(c) = 0 it equals the half trace.
    """
    if ctx.trace_abs(c) != 0:
        raise ValueError("z^2 + z = c is unsolvable: trace(c) = 1")
    delta = ctx.trace_one
    z, theta, t = 0, delta, c
    for _ in range(ctx.n - 1):
        t = ctx.sqr(t)
        z ^= ctx.mul(theta, t)
        theta = ctx.sqr(theta) ^ delta
    return z


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
    z = solve_artin_schreier(ctx, c)
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
    """r^2 / a1^2 over the sorted field roots r of the resolvent y^3 + a2 y + a1."""
    scale = ctx.inv(ctx.sqr(a1))
    return [ctx.mul(ctx.sqr(r), scale) for r in sorted(roots)]


def _classify_quartic(ctx: FieldCtx, a0: int, scaled_roots: list[int]) -> FactorPattern:
    """Case analysis from the resolvent data: scaled_roots are r_i^2 / a1^2
    for the field roots r_i of the resolvent cubic, so w_i = a0 * scaled_roots[i].

    When the resolvent splits, the three w_i sum to zero (the r_i themselves
    do), so either all traces vanish or exactly one does; the classification
    is labelling-invariant.
    """
    traces = [ctx.trace_abs(ctx.mul(a0, sr)) for sr in scaled_roots]
    if len(traces) == 3:
        zeros = traces.count(0)
        if zeros == 3:
            return FactorPattern.Q1111
        if zeros == 1:
            return FactorPattern.Q22
        raise AssertionError(f"impossible trace pattern {traces} for a split resolvent")
    if len(traces) == 0:
        return FactorPattern.Q13
    return FactorPattern.Q112 if traces[0] == 0 else FactorPattern.Q4


def quartic_pattern(ctx: FieldCtx, a2: int, a1: int, a0: int) -> FactorPattern:
    """Factor pattern of x^4 + a2 x^2 + a1 x + a0 with a0 a1 != 0.

    Classified through the resolvent cubic f1(y) = y^3 + a2 y + a1 and the
    traces of w_i = a0 r_i^2 / a1^2 at its field roots r_i.
    """
    if a0 == 0 or a1 == 0:
        raise ValueError("quartic classification requires a0 != 0 and a1 != 0")
    f1 = DensePoly.make(ctx, (a1, a2, 0, 1))
    return _classify_quartic(ctx, a0, _resolvent_scaled(ctx, a1, roots_by_scan(f1)))


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


def _value_histogram(ctx: FieldCtx, values) -> list[int]:
    hist = [0] * ctx.order
    for v in values:
        hist[v] += 1
    return hist


def lemma_quadratic_agreement(ctx: FieldCtx) -> AgreementReport:
    """quadratic_solutions vs a grouped root scan, over every (u != 0, v)."""
    _check_input_cap("quadratic", ctx, (ctx.order - 1) * ctx.order)
    mismatches = []
    checked = 0
    for u in ctx.nonzero():
        hist = _value_histogram(ctx, (ctx.sqr(x) ^ ctx.mul(u, x) for x in ctx.elements()))
        for v in ctx.elements():
            checked += 1
            sols = quadratic_solutions(ctx, u, v)
            if len(sols) != hist[v]:
                mismatches.append((u, v))
            elif sols and (max(sols) ^ min(sols)) != u:
                mismatches.append((u, v))
    return AgreementReport("quadratic", ctx.n, checked, tuple(mismatches))


def lemma_cubic_agreement(ctx: FieldCtx) -> AgreementReport:
    """cubic_has_unique_root vs a grouped root scan, over every (a, b != 0);
    the oracle is the value histogram of x^3 + ax."""
    _check_input_cap("cubic", ctx, ctx.order * (ctx.order - 1))
    mismatches = []
    checked = 0
    for a in ctx.elements():
        hist = _value_histogram(
            ctx, (ctx.mul(ctx.sqr(x), x) ^ ctx.mul(a, x) for x in ctx.elements())
        )
        for b in ctx.nonzero():
            checked += 1
            if cubic_has_unique_root(ctx, a, b) != (hist[b] == 1):
                mismatches.append((a, b))
    return AgreementReport("cubic", ctx.n, checked, tuple(mismatches))


def lemma_quartic_agreement(ctx: FieldCtx) -> AgreementReport:
    """quartic_pattern vs the scan oracle, over every (a2, a1 != 0, a0 != 0).

    Both sides are evaluated in grouped form per (a2, a1): the criterion runs
    quartic_pattern's own two steps, _resolvent_scaled once per a1 and
    _classify_quartic per a0, with the resolvent roots of every a1 read from
    one pass over u per a2 (u^3 + a2 u grouped by value); the oracle takes
    quartic root counts from the value histogram of x^4 + a2 x^2 + a1 x and
    marks divisor-admitting a0 by the quadratic sweep v -> (u^2 + a2) v + v^2
    over the resolvent roots u: x^2 + ux + v divides the quartic exactly when
    u is one and the sweep takes a0 at v.
    """
    _check_input_cap("quartic", ctx, ctx.order * (ctx.order - 1) ** 2)
    mismatches = []
    checked = 0
    for a2 in ctx.elements():
        roots_of: dict[int, list[int]] = {}
        for u in ctx.elements():
            roots_of.setdefault(ctx.mul(ctx.sqr(u), u) ^ ctx.mul(a2, u), []).append(u)
        for a1 in ctx.nonzero():
            hist = _value_histogram(
                ctx,
                (
                    ctx.sqr(ctx.sqr(x)) ^ ctx.mul(a2, ctx.sqr(x)) ^ ctx.mul(a1, x)
                    for x in ctx.elements()
                ),
            )
            roots = roots_of.get(a1, [])
            scaled = _resolvent_scaled(ctx, a1, roots)
            divisible = [False] * ctx.order
            for u in roots:
                w = ctx.sqr(u) ^ a2
                for v in ctx.elements():
                    divisible[ctx.mul(w, v) ^ ctx.sqr(v)] = True
            for a0 in ctx.nonzero():
                checked += 1
                r = hist[a0]
                if r == 4:
                    oracle = FactorPattern.Q1111
                elif r == 2:
                    oracle = FactorPattern.Q112
                elif r == 1:
                    oracle = FactorPattern.Q13
                elif divisible[a0]:
                    oracle = FactorPattern.Q22
                else:
                    oracle = FactorPattern.Q4
                if _classify_quartic(ctx, a0, scaled) is not oracle:
                    mismatches.append((a2, a1, a0))
    return AgreementReport("quartic", ctx.n, checked, tuple(mismatches))
