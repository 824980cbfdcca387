"""Polynomial arithmetic over a FieldCtx.

Three representations, all immutable:

* SparsePoly -- (exponent, coefficient) terms, strictly decreasing exponents.
  The working representation of every searched or constructed mapping;
  exponents may exceed 2^n - 1 until reduce_exponents is applied.
* DensePoly  -- coefficients indexed by degree; proof-side polynomials,
  resultants, low-degree equation work.
* BivarPoly  -- a dense polynomial in y whose coefficients are DensePoly
  values in x; resultant elimination and zero counting.

Text grammar (CLI and reports): terms joined by '+', each term ``x^K``,
``0xC*x^K`` or ``0xC``, exponents decimal, coefficients lowercase hex.
Bivariate uses the same shape with variables x and y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .field import FieldCtx, fmt_elem, read_int

BIVAR_SCAN_MAX_N = 12
DENSE_DEGREE_CAP = 1 << 16

__all__ = [
    "SparsePoly",
    "DensePoly",
    "BivarPoly",
    "reduce_exponents",
    "resultant",
    "resultant_eliminate",
    "sylvester_matrix",
    "dickson",
    "dickson_eval",
    "dickson_inverse_exponent",
    "count_bivariate_zeros",
    "parse_poly",
    "parse_bivar",
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

    @property
    def degree(self) -> int:
        return self.terms[0][0] if self.terms else -1

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

    def reduced(self) -> "SparsePoly":
        return reduce_exponents(self)

    def to_dense(self) -> "DensePoly":
        if self.degree > DENSE_DEGREE_CAP:
            raise ValueError(f"degree {self.degree} too large for a dense conversion")
        coeffs = [0] * (self.degree + 1)
        for e, c in self.terms:
            coeffs[e] ^= c
        return DensePoly.make(self.ctx, coeffs)

    def __str__(self) -> str:
        if not self.terms:
            return "0x0"
        return "+".join(_fmt_term(e, c) for e, c in self.terms)


def _fmt_term(e: int, c: int) -> str:
    if e == 0:
        return fmt_elem(c)
    xpart = "x" if e == 1 else f"x^{e}"
    return xpart if c == 1 else f"{fmt_elem(c)}*{xpart}"


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

    def monic(self) -> "DensePoly":
        return self.scale(self.ctx.inv(self.lead))

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

    def gcd(self, other: "DensePoly") -> "DensePoly":
        a, b = self, other
        while not b.is_zero:
            a, b = b, a.divmod(b)[1]
        return a if a.is_zero else a.monic()

    def to_sparse(self) -> SparsePoly:
        return SparsePoly.make(self.ctx, ((i, c) for i, c in enumerate(self.coeffs) if c))

    def __str__(self) -> str:
        return str(self.to_sparse())


def poly_product(ctx: FieldCtx, factors) -> DensePoly:
    out = DensePoly.const(ctx, 1)
    for f in factors:
        out = out * f
    return out


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
    """Sylvester matrix of u, v given as coefficient lists ascending by degree.

    Entries are whatever the coefficient type is (field ints or DensePoly);
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


def _det_field(ctx: FieldCtx, rows: list[list[int]]) -> int:
    """Determinant over the field by Gaussian elimination (char 2: no signs)."""
    size = len(rows)
    det = 1
    for k in range(size):
        piv = next((i for i in range(k, size) if rows[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
        pk = rows[k][k]
        det = ctx.mul(det, pk)
        inv = ctx.inv(pk)
        mul = ctx.mul
        for i in range(k + 1, size):
            f = rows[i][k]
            if f == 0:
                continue
            f = mul(f, inv)
            ri, rk = rows[i], rows[k]
            for j in range(k, size):
                ri[j] ^= mul(f, rk[j])
    return det


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
    if n == 0:
        return ctx.pow(v.coeffs[0], m)
    rows = sylvester_matrix(list(u.coeffs), list(v.coeffs), 0)
    return _det_field(ctx, rows)


def _det_bareiss(ctx: FieldCtx, rows: list[list[DensePoly]]) -> DensePoly:
    """Fraction-free determinant over the polynomial ring.

    Bareiss' one-step elimination; every division is exact.  Characteristic 2
    makes row-swap signs irrelevant.
    """
    size = len(rows)
    prev = DensePoly.const(ctx, 1)
    for k in range(size - 1):
        piv = next((i for i in range(k, size) if not rows[i][k].is_zero), None)
        if piv is None:
            return DensePoly.zero(ctx)
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
        pk = rows[k][k]
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                num = rows[i][j] * pk + rows[i][k] * rows[k][j]
                rows[i][j] = num.exact_div(prev)
            rows[i][k] = DensePoly.zero(ctx)
        prev = pk
    return rows[-1][-1]


def resultant_eliminate(F: "BivarPoly", G: "BivarPoly") -> DensePoly:
    """Eliminate y: the resultant of F and G taken as polynomials in y.

    The result is a polynomial in x alone; it vanishes at x0 whenever some y0
    satisfies F(x0, y0) = G(x0, y0) = 0.
    """
    if F.deg_y < 1 or G.deg_y < 1:
        raise ValueError("both inputs must have positive degree in y")
    ctx = F.ctx
    rows = sylvester_matrix(list(F.ycoeffs), list(G.ycoeffs), DensePoly.zero(ctx))
    return _det_bareiss(ctx, rows)


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

    @staticmethod
    def from_terms(ctx: FieldCtx, terms) -> "BivarPoly":
        """terms: iterable of (x_exp, y_exp, coeff)."""
        acc: dict[int, dict[int, int]] = {}
        max_y = -1
        for xe, ye, c in terms:
            acc.setdefault(ye, {})
            acc[ye][xe] = acc[ye].get(xe, 0) ^ c
            max_y = max(max_y, ye)
        cols = []
        for ye in range(max_y + 1):
            row = acc.get(ye, {})
            width = max(row) + 1 if row else 0
            coeffs = [0] * width
            for xe, c in row.items():
                coeffs[xe] = c
            cols.append(DensePoly.make(ctx, coeffs))
        return BivarPoly.make(ctx, cols)

    @property
    def is_zero(self) -> bool:
        return not self.ycoeffs

    @property
    def deg_y(self) -> int:
        return len(self.ycoeffs) - 1

    def eval(self, x: int, y: int) -> int:
        mul = self.ctx.mul
        acc = 0
        for c in reversed(self.ycoeffs):
            acc = mul(acc, y) ^ c.eval(x)
        return acc

    def __str__(self) -> str:
        parts = []
        for ye in range(self.deg_y, -1, -1):
            c = self.ycoeffs[ye]
            for xe in range(c.degree, -1, -1):
                v = c.coeff(xe)
                if v:
                    parts.append(_fmt_bivar_term(v, xe, ye))
        return "+".join(parts) if parts else "0x0"


def _fmt_bivar_term(c: int, xe: int, ye: int) -> str:
    factors = []
    if c != 1 or (xe == 0 and ye == 0):
        factors.append(fmt_elem(c))
    if xe:
        factors.append("x" if xe == 1 else f"x^{xe}")
    if ye:
        factors.append("y" if ye == 1 else f"y^{ye}")
    return "*".join(factors)


def count_bivariate_zeros(G: BivarPoly) -> int:
    """Cardinality of the affine zero set by a full 2^(2n) scan (n <= 12)."""
    ctx = G.ctx
    if ctx.n > BIVAR_SCAN_MAX_N:
        raise ValueError(f"bivariate zero scan capped at n={BIVAR_SCAN_MAX_N}, got n={ctx.n}")
    if G.is_zero:
        return ctx.order * ctx.order
    mul = ctx.mul
    count = 0
    for x in ctx.elements():
        col = [c.eval(x) for c in G.ycoeffs]
        for y in ctx.elements():
            acc = 0
            for c in reversed(col):
                acc = mul(acc, y) ^ c
            if acc == 0:
                count += 1
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
    if tok in ("x", "y"):
        return (tok, 1)
    try:
        if tok[:2] in ("0x", "0X"):
            return ("coeff", read_int(tok, 16, "coefficient"))
        if tok[:2] in ("x^", "y^"):
            return (tok[0], read_int(tok[2:], 10, "exponent"))
        raise ValueError("expected 0xC, x, y, x^K or y^K")
    except ValueError as exc:
        raise ValueError(f"bad factor {tok!r} in polynomial text: {exc}") from None


def _parse_terms(ctx: FieldCtx, text: str):
    """Yield (coeff, x_exp, y_exp) triples from the term grammar."""
    if not text.strip():
        raise ValueError("empty polynomial text")
    for term in text.split("+"):
        c, xe, ye = 1, 0, 0
        for tok in term.split("*"):
            kind, v = _parse_factor(tok)
            if kind == "coeff":
                if v >= ctx.order:
                    raise ValueError(f"coefficient {v:#x} out of range for {ctx.label()}")
                c = ctx.mul(c, v)
            elif kind == "x":
                xe += v
            else:
                ye += v
        yield c, xe, ye


def parse_poly(ctx: FieldCtx, text: str) -> SparsePoly:
    pairs = []
    for c, xe, ye in _parse_terms(ctx, text):
        if ye:
            raise ValueError("variable y not allowed in a univariate polynomial")
        pairs.append((xe, c))
    return SparsePoly.make(ctx, pairs)


def parse_bivar(ctx: FieldCtx, text: str) -> BivarPoly:
    return BivarPoly.from_terms(ctx, ((xe, ye, c) for c, xe, ye in _parse_terms(ctx, text)))
