"""Loaders for the golden reference tables bundled as package data.

Table I: coefficient triples (a3, a2, a1) over GF(2^3) whose normalized
quintic x^5 + a3 x^3 + a2 x^2 + a1 x is 2-to-1, written as exponents of a
primitive element.  Table II: the trinomial classes found for n <= 7.
Table III: the twelve quadrinomial family identifiers.
"""

from __future__ import annotations

import functools
import json
from importlib import resources


@functools.cache
def _load(name: str) -> dict:
    """The parsed document, read once per process; callers only read it."""
    return json.loads(resources.files("gf2to1.data").joinpath(name).read_text())


def table1() -> dict:
    return _load("table1.json")


def table2() -> dict:
    return _load("table2.json")


def table3() -> dict:
    return _load("table3.json")


def table1_triples(ctx, gamma: int) -> set[tuple[int, int, int]]:
    """The Table I triple set, with the table's primitive element read as gamma."""
    data = table1()
    out = set()
    for e3, e2, e1 in data["sporadic"]:
        out.add((ctx.pow(gamma, e3), ctx.pow(gamma, e2), ctx.pow(gamma, e1)))
    for fam in data["families"]:
        for c in ctx.nonzero():
            if fam == "a3_only":
                out.add((c, 0, 0))
            elif fam == "a2_only":
                out.add((0, c, 0))
            else:
                raise ValueError(f"unknown family marker {fam!r} in table 1 data")
    return out
