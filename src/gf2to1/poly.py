"""Polynomial arithmetic over a FieldCtx.

Three representations, all immutable:

* SparsePoly -- (exponent, coefficient) terms, strictly decreasing exponents.
  The working representation of every searched or constructed mapping;
  exponents may exceed 2^n - 1 until reduce_exponents is applied.
* DensePoly  -- coefficients indexed by degree; proof-side polynomials,
  resultants, low-degree equation work.
* BivarPoly  -- a dense polynomial in y whose coefficients are DensePoly
  values in x.  It has two jobs: the point-count curve of a quintic, whose
  affine zeros count_bivariate_zeros counts, and the pair F, G that
  resultant_eliminate reduces to one polynomial in x.

GF2Poly, a polynomial over GF(2) in x and two parameters a and b, carries the
same Sylvester determinant, so an elimination identity is proved once over
GF(2)[a, b] rather than at every point of a field.

Text grammar (CLI and reports): terms joined by '+', each term ``x^K``,
``0xC*x^K`` or ``0xC``, exponents decimal, coefficients lowercase hex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .field import LOG_TABLE_MAX_N, FieldCtx, fmt_elem, read_int

__all__ = [
    "SparsePoly",
    "DensePoly",
    "BivarPoly",
    "reduce_exponents",
    "resultant",
    "resultant_eliminate",
    "sylvester_matrix",
    "sylvester_resultant",
    "GF2Poly",
    "dickson",
    "dickson_eval",
    "dickson_inverse_exponent",
    "count_bivariate_zeros",
    "parse_poly",
    "equal_up_to_scalar",
]


# ---------------------------------------------------------------------------
# sparse polynomials


@dataclass(frozen=True)
class SparsePoly:
    ctx: FieldCtx
    terms: tuple[tuple[int, int], ...]

    @staticmethod
    def make(ctx: FieldCtx, pairs) -> "SparsePoly":
        acc: dict[int, int] = {}
        for e, c in pairs:
            if e < 0:
                raise ValueError(f"negative exponent {e}")
            acc[e] = acc.get(e, 0) ^ c
        terms = tuple(sorted(((e, c) for e, c in acc.items() if c), reverse=True))
        return SparsePoly(ctx, terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def exponents(self) -> tuple[int, ...]:
        return tuple(e for e, _ in self.terms)

    def coeffs(self) -> tuple[int, ...]:
        return tuple(c for _, c in self.terms)

    def sort_key(self):
        """Exponent sequence, then coefficients: the order of report hits.
        qm_canonical compares term tuples pair by pair instead."""
        return (self.exponents(), self.coeffs())

    def eval(self, x: int) -> int:
        ctx = self.ctx
        acc = 0
        for e, c in self.terms:
            acc ^= ctx.mul(c, ctx.pow(x, e))
        return acc

    def __str__(self) -> str:
        if not self.terms:
            return "0x0"
        return "+".join(_fmt_term(c, e) for e, c in self.terms)


def _fmt_term(c: int, e: int) -> str:
    factors = []
    if c != 1 or e == 0:
        factors.append(fmt_elem(c))
    if e:
        factors.append("x" if e == 1 else f"x^{e}")
    return "*".join(factors)


def reduce_exponents(f: SparsePoly) -> SparsePoly:
    """Reduce modulo x^(2^n) - x, preserving the induced function.

    Positive exponents map to their representative of e mod (2^n - 1) in
    [1, 2^n - 1]; exponent 0 is fixed (x^0 and x^(2^n - 1) differ at 0).
    """
    N = f.ctx.order - 1
    return SparsePoly.make(f.ctx, (((e - 1) % N + 1 if e > 0 else 0, c) for e, c in f.terms))


# ---------------------------------------------------------------------------
# dense polynomials


@dataclass(frozen=True)
class DensePoly:
    ctx: FieldCtx
    coeffs: tuple[int, ...]

    @staticmethod
    def make(ctx: FieldCtx, coeffs) -> "DensePoly":
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        return DensePoly(ctx, tuple(cs))

    @staticmethod
    def zero(ctx: FieldCtx) -> "DensePoly":
        return DensePoly(ctx, ())

    @staticmethod
    def const(ctx: FieldCtx, c: int) -> "DensePoly":
        return DensePoly(ctx, (c,) if c else ())

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def lead(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def eval(self, x: int) -> int:
        mul = self.ctx.mul
        acc = 0
        for c in reversed(self.coeffs):
            acc = mul(acc, x) ^ c
        return acc

    def __add__(self, other: "DensePoly") -> "DensePoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] ^= c
        return DensePoly.make(self.ctx, out)

    def __mul__(self, other: "DensePoly") -> "DensePoly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return DensePoly.zero(self.ctx)
        mul = self.ctx.mul
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            if ca == 1:
                for j, cb in enumerate(b):
                    out[i + j] ^= cb
            else:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] ^= mul(ca, cb)
        return DensePoly.make(self.ctx, out)

    def scale(self, c: int) -> "DensePoly":
        if c == 0:
            return DensePoly.zero(self.ctx)
        if c == 1:
            return self
        mul = self.ctx.mul
        return DensePoly(self.ctx, tuple(mul(c, v) for v in self.coeffs))

    def divmod(self, d: "DensePoly") -> tuple["DensePoly", "DensePoly"]:
        if d.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        ctx = self.ctx
        inv_lead = ctx.inv(d.lead)
        r = list(self.coeffs)
        dd = d.degree
        q = [0] * max(len(r) - dd, 0)
        mul = ctx.mul
        for i in range(len(r) - 1, dd - 1, -1):
            c = r[i]
            if c == 0:
                continue
            f = mul(c, inv_lead)
            q[i - dd] = f
            for j, dc in enumerate(d.coeffs):
                r[i - dd + j] ^= mul(f, dc)
        return DensePoly.make(ctx, q), DensePoly.make(ctx, r)

    def exact_div(self, d: "DensePoly") -> "DensePoly":
        q, r = self.divmod(d)
        if not r.is_zero:
            raise ArithmeticError("division was not exact")
        return q


def equal_up_to_scalar(p: DensePoly, q: DensePoly) -> bool:
    if p.is_zero or q.is_zero:
        return p.is_zero and q.is_zero
    if p.degree != q.degree:
        return False
    lam = p.ctx.div(p.lead, q.lead)
    return p == q.scale(lam)


# ---------------------------------------------------------------------------
# resultants


def sylvester_matrix(u, v, zero):
    """Sylvester matrix of u, v given as coefficient lists ascending by
    degree, with zero the zero of their ring; resultant passes constant
    DensePolys, resultant_eliminate DensePolys in x.

    u rows are repeated deg(v) times, v rows deg(u) times.
    """
    m, n = len(u) - 1, len(v) - 1
    rows = []
    urow = list(reversed(u))
    vrow = list(reversed(v))
    for i in range(n):
        rows.append([zero] * i + urow + [zero] * (n - 1 - i))
    for i in range(m):
        rows.append([zero] * i + vrow + [zero] * (m - 1 - i))
    return rows


def resultant(u: DensePoly, v: DensePoly) -> int:
    """Sylvester resultant of two nonzero polynomials over the field.

    Zero exactly when u and v share a root in the algebraic closure.
    """
    if u.is_zero or v.is_zero:
        raise ValueError("resultant of the zero polynomial is undefined")
    ctx = u.ctx
    m, n = u.degree, v.degree
    if m == 0:
        return ctx.pow(u.coeffs[0], n)
    u_col, v_col = ([DensePoly.const(ctx, c) for c in w.coeffs] for w in (u, v))
    return sylvester_resultant(u_col, v_col, DensePoly.const(ctx, 1)).coeff(0)


def sylvester_resultant(u: list, v: list, one):
    """The determinant of sylvester_matrix(u, v) over an exact ring: DensePoly,
    or GF2Poly for an identity over GF(2)[x, a, b].  one is the ring's unit;
    its elements need +, *, exact_div and is_zero."""
    return _det_bareiss(one, sylvester_matrix(u, v, one + one))


def _det_bareiss(one, rows: list[list]):
    """Fraction-free determinant over the ring of one.

    Bareiss' one-step elimination; every division is exact.  Characteristic 2
    makes row-swap signs irrelevant.
    """
    size = len(rows)
    zero = one + one
    prev = one
    for k in range(size - 1):
        piv = next((i for i in range(k, size) if not rows[i][k].is_zero), None)
        if piv is None:
            return zero
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
        pk = rows[k][k]
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                num = rows[i][j] * pk + rows[i][k] * rows[k][j]
                rows[i][j] = num.exact_div(prev)
            rows[i][k] = zero
        prev = pk
    return rows[-1][-1]


def resultant_eliminate(F: "BivarPoly", G: "BivarPoly") -> DensePoly:
    """Eliminate y: the resultant of F and G taken as polynomials in y.

    The result is a polynomial in x alone; it vanishes at x0 whenever some y0
    satisfies F(x0, y0) = G(x0, y0) = 0.
    """
    if F.deg_y < 1 or G.deg_y < 1:
        raise ValueError("both inputs must have positive degree in y")
    return sylvester_resultant(list(F.ycoeffs), list(G.ycoeffs), DensePoly.const(F.ctx, 1))


# ---------------------------------------------------------------------------
# polynomials over GF(2) in x and two parameters


@dataclass(frozen=True)
class GF2Poly:
    """A polynomial over GF(2) in x and two parameters a, b: the set of its
    monomials (k, u, v) = x^k a^u b^v.

    It is ring enough for a Sylvester determinant, so an elimination identity
    in a and b is proved once for every field; at specialises it to a point.
    """

    monos: frozenset

    @staticmethod
    def monomial(k: int, u: int, v: int) -> "GF2Poly":
        return GF2Poly(frozenset({(k, u, v)}))

    @property
    def is_zero(self) -> bool:
        return not self.monos

    def __add__(self, other: "GF2Poly") -> "GF2Poly":
        return GF2Poly(self.monos ^ other.monos)

    def __mul__(self, other: "GF2Poly") -> "GF2Poly":
        acc = set()
        for k, u, v in self.monos:
            acc ^= {(k + k2, u + u2, v + v2) for k2, u2, v2 in other.monos}
        return GF2Poly(frozenset(acc))

    def __pow__(self, e: int) -> "GF2Poly":
        out = GF2Poly.monomial(0, 0, 0)
        for _ in range(e):
            out = out * self
        return out

    def exact_div(self, d: "GF2Poly") -> "GF2Poly":
        """The quotient by d, by leading monomials in lex order on (k, u, v)."""
        if d.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        dk, du, dv = max(d.monos)
        r, q = set(self.monos), set()
        while r:
            k, u, v = max(r)
            if k < dk or u < du or v < dv:
                raise ArithmeticError("division was not exact")
            k, u, v = k - dk, u - du, v - dv
            q.add((k, u, v))
            r ^= {(k + k2, u + u2, v + v2) for k2, u2, v2 in d.monos}
        return GF2Poly(frozenset(q))

    def lead_x(self) -> "GF2Poly":
        """The coefficient of the highest power of x, a polynomial in a and b;
        zero for zero."""
        top = max((k for k, _, _ in self.monos), default=0)
        return GF2Poly(frozenset((0, u, v) for k, u, v in self.monos if k == top))

    def at(self, ctx: FieldCtx, a: int, b: int) -> DensePoly:
        """The polynomial in x over ctx at the parameters (a, b)."""
        mul, pw = ctx.mul, ctx.pow
        coeffs = [0] * (1 + max((k for k, _, _ in self.monos), default=-1))
        for k, u, v in self.monos:
            coeffs[k] ^= mul(pw(a, u), pw(b, v))
        return DensePoly.make(ctx, coeffs)


# ---------------------------------------------------------------------------
# bivariate polynomials


@dataclass(frozen=True)
class BivarPoly:
    ctx: FieldCtx
    ycoeffs: tuple[DensePoly, ...]

    @staticmethod
    def make(ctx: FieldCtx, ycoeffs) -> "BivarPoly":
        cs = [c if isinstance(c, DensePoly) else DensePoly.make(ctx, c) for c in ycoeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        return BivarPoly(ctx, tuple(cs))

    @property
    def deg_y(self) -> int:
        return len(self.ycoeffs) - 1

    def eval(self, x: int, y: int) -> int:
        mul = self.ctx.mul
        acc = 0
        for c in reversed(self.ycoeffs):
            acc = mul(acc, y) ^ c.eval(x)
        return acc


def count_bivariate_zeros(G: BivarPoly) -> int:
    """Cardinality of the affine zero set of G, of x-degree at most 2, by one
    pass over y.

    At each y, G is c2*x^2 + c1*x + c0.  With c1 and c2 both nonzero it has 2
    roots when Tr(c0*c2/c1^2) = 0 and none otherwise (Artin-Schreier, as in
    lowdeg.quadratic_solutions); with exactly one of them zero, 1 root; with
    both zero, 2^n roots when c0 = 0 and none otherwise.  An x-degree above 2
    raises ValueError, and so does n > LOG_TABLE_MAX_N, where mul stops being
    a table lookup.
    """
    ctx = G.ctx
    if ctx.n > LOG_TABLE_MAX_N:
        raise ValueError(f"bivariate zero count capped at n={LOG_TABLE_MAX_N}, got n={ctx.n}")
    deg_x = max((c.degree for c in G.ycoeffs), default=-1)
    if deg_x > 2:
        raise ValueError(f"bivariate zero count needs x-degree at most 2, got x-degree {deg_x}")
    c0s, c1s, c2s = (DensePoly.make(ctx, [c.coeff(i) for c in G.ycoeffs]) for i in range(3))
    mul, trace = ctx.mul, ctx.trace_abs
    count = 0
    for y in ctx.elements():
        c0, c1, c2 = c0s.eval(y), c1s.eval(y), c2s.eval(y)
        if c1 and c2:
            count += 0 if trace(ctx.div(mul(c0, c2), mul(c1, c1))) else 2
        elif c1 or c2:
            count += 1
        elif c0 == 0:
            count += ctx.order
    return count


# ---------------------------------------------------------------------------
# Dickson polynomials


def dickson(ctx: FieldCtx, r: int, a: int) -> DensePoly:
    """r-th Dickson polynomial of the first kind over the field.

    Built by the recurrence D_0 = 2 (= 0 in characteristic 2), D_1 = x,
    D_r = x*D_(r-1) + a*D_(r-2).
    """
    if r < 0:
        raise ValueError("Dickson index must be nonnegative")
    d_prev = DensePoly.zero(ctx)  # D_0 = 2 = 0
    if r == 0:
        return d_prev
    d_cur = DensePoly.make(ctx, (0, 1))  # D_1 = x
    x = DensePoly.make(ctx, (0, 1))
    for _ in range(r - 1):
        d_prev, d_cur = d_cur, x * d_cur + d_prev.scale(a)
    return d_cur

def dickson_eval(ctx: FieldCtx, r: int, a: int, x: int) -> int:
    """D_r(x, a) evaluated at a point by the value recurrence (O(r) multiplies)."""
    if r < 0:
        raise ValueError("Dickson index must be nonnegative")
    if r == 0:
        return 0
    mul = ctx.mul
    prev, cur = 0, x
    for _ in range(r - 1):
        prev, cur = cur, mul(x, cur) ^ mul(a, prev)
    return cur


def dickson_inverse_exponent(r: int, m: int) -> int:
    """t with r*t = 1 mod (2^(2m) - 1); D_t(x, a^r) then inverts D_r(x, a) on GF(2^m)."""
    N = (1 << (2 * m)) - 1
    g = math.gcd(r, N)
    if g != 1:
        raise ValueError(f"gcd({r}, 2^(2m)-1) = {g} != 1, Dickson map is not invertible")
    return pow(r, -1, N)


# ---------------------------------------------------------------------------
# text grammar


def _parse_factor(tok: str):
    tok = tok.strip()
    if not tok:
        raise ValueError("empty factor in polynomial text")
    if tok == "x":
        return ("x", 1)
    try:
        if tok[:2] in ("0x", "0X"):
            return ("coeff", read_int(tok, 16, "coefficient"))
        if tok[:2] == "x^":
            return ("x", read_int(tok[2:], 10, "exponent"))
        raise ValueError("expected 0xC, x or x^K")
    except ValueError as exc:
        raise ValueError(f"bad factor {tok!r} in polynomial text: {exc}") from None


def parse_poly(ctx: FieldCtx, text: str) -> SparsePoly:
    """Read the term grammar of the module docstring."""
    if not text.strip():
        raise ValueError("empty polynomial text")
    pairs = []
    for term in text.split("+"):
        c, e = 1, 0
        for tok in term.split("*"):
            kind, v = _parse_factor(tok)
            if kind == "x":
                e += v
            elif v >= ctx.order:
                raise ValueError(f"coefficient {v:#x} out of range for {ctx.label()}")
            else:
                c = ctx.mul(c, v)
        pairs.append((e, c))
    return SparsePoly.make(ctx, pairs)
