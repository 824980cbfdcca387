"""Reference GF(2^n) arithmetic used to check gf2to1's outputs.

Everything here is written from the definitions (shift-and-xor multiply,
square-and-multiply powers, literal fiber counts), independently of the
package's FieldCtx, so a check does not run the code path it checks.  A field
is given by its degree n and modulus bits.
"""

from __future__ import annotations

import math


def mul(a: int, b: int, n: int, mod: int) -> int:
    top = 1 << n
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= mod
    return r


def power(a: int, e: int, n: int, mod: int) -> int:
    r = 1
    while e:
        if e & 1:
            r = mul(r, a, n, mod)
        a = mul(a, a, n, mod)
        e >>= 1
    return r


def inverse(a: int, n: int, mod: int) -> int:
    if a == 0:
        raise ZeroDivisionError("0 has no inverse")
    return power(a, (1 << n) - 2, n, mod)


def trace(a: int, n: int, mod: int) -> int:
    acc = a
    for _ in range(n - 1):
        a = mul(a, a, n, mod)
        acc ^= a
    return acc


def _prime_factors(v: int) -> list[int]:
    out, d = [], 2
    while d * d <= v:
        if v % d == 0:
            out.append(d)
            while v % d == 0:
                v //= d
        d += 1
    if v > 1:
        out.append(v)
    return out


def primitive_element(n: int, mod: int) -> int:
    N = (1 << n) - 1
    primes = _prime_factors(N)
    for g in range(2, 1 << n):
        if all(power(g, N // p, n, mod) != 1 for p in primes):
            return g
    raise ValueError(f"modulus {mod:#x} gives no primitive element")


def transform(terms, a: int, b: int, d: int, n: int, mod: int) -> list[tuple[int, int]]:
    """Terms of a*f(b*x^d) for f = sum c*x^e with every e > 0 and d a unit mod 2^n - 1."""
    N = (1 << n) - 1
    return [
        ((e * d - 1) % N + 1, mul(a, mul(c, power(b, e, n, mod), n, mod), n, mod))
        for e, c in terms
    ]


def two_to_one(terms, n: int, mod: int, early_exit: bool) -> bool:
    """Literal fiber count of f = sum c*x^e (every e > 0) over GF(2^n).

    The nonzero points are walked as g^i, each term advancing by one multiply
    by g^e.  With early_exit the walk stops at the first fiber of size 3;
    otherwise every fiber is counted.
    """
    g = primitive_element(n, mod)
    cur = [c for _, c in terms]
    steps = [power(g, e, n, mod) for e, _ in terms]
    counts = {0: 1}  # f(0) = 0
    for _ in range((1 << n) - 1):
        v = 0
        for u in cur:
            v ^= u
        c = counts.get(v, 0) + 1
        counts[v] = c
        if early_exit and c == 3:
            return False
        cur = [mul(u, s, n, mod) for u, s in zip(cur, steps)]
    return all(c == 2 for c in counts.values())


def _eval(coeffs, y: int, n: int, mod: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = mul(acc, y, n, mod) ^ c
    return acc


def count_quadratic_in_x(cols, n: int, mod: int) -> int:
    """Affine zeros of G(x, y) = sum_j cols[j](x) * y^j, each cols[j] of degree <= 2 in x.

    For each y, G is c2 x^2 + c1 x + c0; over GF(2^n) with c1, c2 != 0 it has
    two roots when Tr(c0 c2 / c1^2) = 0 and none otherwise.
    """
    padded = [tuple(c) + (0,) * (3 - len(c)) for c in cols]
    if any(len(c) > 3 for c in padded):
        raise ValueError("curve has x-degree above 2")
    c0s, c1s, c2s = ([c[i] for c in padded] for i in range(3))
    q = 1 << n
    count = 0
    for y in range(q):
        c0, c1, c2 = (_eval(cs, y, n, mod) for cs in (c0s, c1s, c2s))
        if c1 == 0 and c2 == 0:
            count += q if c0 == 0 else 0
        elif c1 == 0 or c2 == 0:
            count += 1
        else:
            t = mul(mul(c0, c2, n, mod), inverse(mul(c1, c1, n, mod), n, mod), n, mod)
            count += 2 if trace(t, n, mod) == 0 else 0
    return count


def canonical(terms, n: int, mod: int) -> list[tuple[int, int]]:
    """QM canonical form of f = sum c*x^e: the least monic a*f(b*x^d).

    d runs over the units mod 2^n - 1 and b = g^j over the nonzero elements.
    Terms are ordered by falling exponent and compared as (e, c) pairs.
    Coefficients are kept as discrete logs: after normalizing the leading
    term, term i has log L_i - L_lead + j*(e_i - e_lead).
    """
    N = (1 << n) - 1
    g = primitive_element(n, mod)
    exp_tab, log_tab = [0] * N, {}
    p = 1
    for i in range(N):
        exp_tab[i] = p
        log_tab[p] = i
        p = mul(p, g, n, mod)
    exps = [(e - 1) % N + 1 if e > 0 else 0 for e, _ in terms]
    logs = [log_tab[c] for _, c in terms]
    best = None
    for d in range(1, N + 1):
        if math.gcd(d, N) != 1:
            continue
        moved = [(e * d - 1) % N + 1 if e > 0 else 0 for e in exps]
        order = sorted(range(len(exps)), key=lambda i: -moved[i])
        lead = order[0]
        # (new exponent, log offset, log step per j) of each term, leading term first
        rows = [(moved[i], logs[i] - logs[lead], exps[i] - exps[lead]) for i in order]
        for j in range(N):
            cand = tuple((e, exp_tab[(off + j * step) % N]) for e, off, step in rows)
            if best is None or cand < best:
                best = cand
    return [list(t) for t in best]
