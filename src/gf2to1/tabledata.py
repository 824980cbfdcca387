"""Loaders for the golden reference tables bundled as package data.

Table I: coefficient triples (a3, a2, a1) over GF(2^3) whose normalized
quintic x^5 + a3 x^3 + a2 x^2 + a1 x is 2-to-1, as exponents of a primitive
element, plus the families x^5 + c x^3 and x^5 + c x^2.  Table II: the
trinomial classes found for n <= 7.  Table III: the twelve quadrinomial
family identifiers.  search.compare_with_table expands them to term tuples.
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

