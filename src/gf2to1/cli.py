"""Command-line surface: verification, family construction, searches,
elimination-identity checks and reference-table reproduction.

Exit codes: 0 success / empty diff, 1 mathematical mismatch, 2 usage error.
Documents go to stdout, diagnostics to stderr.  The default output format is
text; GF2TO1_FORMAT overrides the default, an explicit --format always wins.
Every subcommand writes text and json; only search writes csv, and a csv
default from GF2TO1_FORMAT gives text elsewhere.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures.process import BrokenProcessPool

from .field import FieldCtx, field_from_label, fmt_elem, make_field, parse_elem
from .lowdeg import (
    lemma_cubic_agreement,
    lemma_quadratic_agreement,
    lemma_quartic_agreement,
)
from .poly import count_bivariate_zeros, parse_poly
from .search import (
    SEARCH_LONG_MAX_N,
    SEARCH_MAX_N,
    SHAPES,
    TABLE_RUNS,
    compare_with_table,
    diff_to_dict,
    report_from_json,
    report_to_csv,
    report_to_dict,
    search_sparse,
)
from .two2one import (
    FAMILY_TAGS,
    family_admissibility_error,
    is_two_to_one,
    make_family,
    point_count_curve,
    point_count_lower_bound,
    preimage_histogram,
    verify_resultant_identity,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2

FORMATS = ("text", "json", "csv")  # csv is for search reports only


def _default_format() -> str:
    env = os.environ.get("GF2TO1_FORMAT", "").strip().lower()
    return env if env in FORMATS else "text"


def _emit(doc: str) -> None:
    sys.stdout.write(doc if doc.endswith("\n") else doc + "\n")


def _diag(msg: str) -> None:
    sys.stderr.write(msg + "\n")


def _json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _field(args) -> FieldCtx:
    modulus = int(args.modulus, 16) if args.modulus else None
    return make_field(args.n, modulus)


def _fmt(args) -> str:
    return args.format or _default_format()


# ---------------------------------------------------------------------------
# subcommands


def _cmd_check(args) -> int:
    ctx = _field(args)
    f = parse_poly(ctx, args.poly)
    hist = preimage_histogram(f)
    verdict = hist.is_two_to_one
    sizes: dict[int, int] = {}
    for c in hist.counts.values():
        sizes[c] = sizes.get(c, 0) + 1
    if _fmt(args) == "json":
        _emit(
            _json(
                {
                    "kind": "check",
                    "field": ctx.label(),
                    "poly": str(f),
                    "two_to_one": verdict,
                    "image_size": hist.image_size,
                    "fiber_sizes": {str(k): v for k, v in sorted(sizes.items())},
                }
            )
        )
    else:
        _emit(f"field: {ctx.label()}")
        _emit(f"poly: {f}")
        _emit(f"two-to-one: {'yes' if verdict else 'no'}")
        _emit(f"image size: {hist.image_size} of {ctx.order}")
        for k, v in sorted(sizes.items()):
            _emit(f"fibers of size {k}: {v}")
    return EXIT_OK if verdict else EXIT_MISMATCH


def _cmd_family(args) -> int:
    err = family_admissibility_error(args.family, args.n)
    if err is not None:
        _diag(f"family {args.family} rejected: {err}")
        return EXIT_USAGE
    ctx = _field(args)
    param = parse_elem(ctx, args.param) if args.param else None
    f = make_family(args.family, ctx, param)
    verified = is_two_to_one(f)
    if _fmt(args) == "json":
        _emit(
            _json(
                {
                    "kind": "family",
                    "field": ctx.label(),
                    "family": args.family,
                    "poly": str(f),
                    "two_to_one": verified,
                }
            )
        )
    else:
        _emit(f"family: {args.family} over {ctx.label()}")
        _emit(f"poly: {f}")
        _emit(f"two-to-one: {'yes' if verified else 'NO (construction bug)'}")
    return EXIT_OK if verified else EXIT_MISMATCH


def _cmd_search(args) -> int:
    ctx = _field(args)
    report = search_sparse(ctx, args.shape, args.dedupe, args.long, args.workers)
    fmt = _fmt(args)
    if fmt == "json":
        _emit(_json(report_to_dict(report)))
    elif fmt == "csv":
        _emit(report_to_csv(report))
    else:
        _emit(
            f"search {report.shape} over {ctx.label()} dedupe={report.dedupe}: "
            f"{len(report.hits)} hits, {report.candidates_scanned} candidates "
            f"({report.sieve_rejected} rejected by the fiber sieve), {report.elapsed_ms} ms"
        )
        for h in report.hits:
            _emit(f"  {h.poly}  (orbit {h.orbit_size})")
        for note in report.notes:
            _diag(f"note: {note}")
    return EXIT_OK


def _cmd_tables(args) -> int:
    shape, dedupe, all_n = TABLE_RUNS[args.which]
    n_max = args.n_max or (SEARCH_LONG_MAX_N if args.long else SEARCH_MAX_N)
    if n_max > SEARCH_MAX_N and not args.long:
        _diag(f"error: --n-max {n_max} runs the n={n_max} searches; pass --long")
        return EXIT_USAGE
    ns = [n for n in all_n if n <= n_max]
    results = []
    for n in ns:
        ctx = make_field(n)
        report = search_sparse(ctx, shape, dedupe, args.long, args.workers)
        diff = compare_with_table(report, args.which)
        results.append((n, report, diff))
    ok = all(d.ok for _, _, d in results)
    if _fmt(args) == "json":
        doc = {
            "kind": "tables",
            "table": args.which,
            "results": [
                {
                    "n": n,
                    "report": report_to_dict(rep, include_timing=False),
                    "diff": diff_to_dict(d),
                }
                for n, rep, d in results
            ],
            "ok": ok,
        }
        _emit(_json(doc))
    else:
        for n, rep, d in results:
            status = "ok" if d.ok else "MISMATCH"
            aligned = f" [{d.aligned}]" if d.aligned else ""
            _emit(f"table {args.which} n={n}: {len(rep.hits)} hits, {status}{aligned}")
            for m in d.missing:
                _emit(f"  missing: {m}")
            for e in d.extra:
                _emit(f"  extra: {e}")
    return EXIT_OK if ok else EXIT_MISMATCH


def _cmd_resultant(args) -> int:
    ctx = _field(args)
    chk = verify_resultant_identity(args.theorem, ctx)
    if _fmt(args) == "json":
        _emit(
            _json(
                {
                    "kind": "resultant",
                    "field": ctx.label(),
                    "theorem": args.theorem,
                    "ok": chk.ok,
                    "failing_a": fmt_elem(chk.failing_a) if chk.failing_a is not None else None,
                }
            )
        )
    else:
        if chk.ok:
            _emit(f"identity {args.theorem} over {ctx.label()}: holds for every admissible a")
        else:
            _emit(
                f"identity {args.theorem} over {ctx.label()}: FAILS at a={fmt_elem(chk.failing_a)}"
            )
    return EXIT_OK if chk.ok else EXIT_MISMATCH


def _cmd_count_points(args) -> int:
    ctx = _field(args)
    a3 = parse_elem(ctx, args.a3)
    a2 = parse_elem(ctx, args.a2)
    a1 = parse_elem(ctx, args.a1)
    curve = point_count_curve(ctx, a3, a2, a1)
    count = count_bivariate_zeros(curve)
    bound = point_count_lower_bound(ctx.n)
    ok = count >= bound
    if _fmt(args) == "json":
        _emit(
            _json(
                {
                    "kind": "count_points",
                    "field": ctx.label(),
                    "a3": fmt_elem(a3),
                    "a2": fmt_elem(a2),
                    "a1": fmt_elem(a1),
                    "count": count,
                    "lower_bound": bound,
                    "ok": ok,
                }
            )
        )
    else:
        _emit(f"curve points over {ctx.label()}: {count} (lower bound {bound})")
    return EXIT_OK if ok else EXIT_MISMATCH


_LEMMA_ENGINES = {
    "2.4": lemma_quadratic_agreement,
    "2.5": lemma_cubic_agreement,
    "2.6": lemma_quartic_agreement,
}


def _cmd_lemma(args) -> int:
    ctx = _field(args)
    rep = _LEMMA_ENGINES[args.which](ctx)
    if _fmt(args) == "json":
        _emit(
            _json(
                {
                    "kind": "lemma",
                    "field": ctx.label(),
                    "which": args.which,
                    "checked": rep.checked,
                    "mismatches": [[fmt_elem(v) for v in t] for t in rep.mismatches],
                    "ok": rep.ok,
                }
            )
        )
    else:
        _emit(
            f"lemma {args.which} over {ctx.label()}: {rep.checked} inputs, "
            f"{len(rep.mismatches)} mismatches"
        )
    return EXIT_OK if rep.ok else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# parser


def _add_field_args(p, formats=FORMATS[:2]) -> None:
    p.add_argument("--n", type=int, required=True, help="extension degree of GF(2^n)")
    p.add_argument("--modulus", help="irreducible modulus bits as hex (default: smallest)")
    p.add_argument("--format", choices=formats, help="output format (default from GF2TO1_FORMAT or text)")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gf2to1",
        description="2-to-1 polynomial mappings over GF(2^n): verify, construct, search, reproduce tables",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="fiber histogram and 2-to-1 verdict for a polynomial")
    c.add_argument("poly", help="polynomial in the text grammar, e.g. 'x^6+x^4+x^3+x'")
    _add_field_args(c)
    c.set_defaults(fn=_cmd_check)

    c = sub.add_parser("family", help="construct a named family instance and verify it")
    c.add_argument("family", metavar="TAG", help=f"one of: {', '.join(FAMILY_TAGS)}")
    c.add_argument("--param", help="optional element parameter as hex")
    _add_field_args(c)
    c.set_defaults(fn=_cmd_family)

    c = sub.add_parser("search", help="exhaustive search over a shape template")
    c.add_argument("--shape", choices=tuple(SHAPES), required=True)
    c.add_argument("--dedupe", choices=("qm", "none"), default=None)
    c.add_argument("--long", action="store_true", help=f"allow the n={SEARCH_LONG_MAX_N} budget")
    c.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    _add_field_args(c, FORMATS)
    c.set_defaults(fn=_cmd_search)

    c = sub.add_parser("tables", help="reproduce a bundled reference table and diff")
    c.add_argument("--which", choices=tuple(TABLE_RUNS), required=True)
    c.add_argument(
        "--n-max",
        type=int,
        choices=range(3, SEARCH_LONG_MAX_N + 1),
        dest="n_max",
        help=f"default {SEARCH_LONG_MAX_N} with --long, else {SEARCH_MAX_N}",
    )
    c.add_argument("--long", action="store_true", help=f"include the n={SEARCH_LONG_MAX_N} searches")
    c.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    c.add_argument("--format", choices=FORMATS[:2])
    c.set_defaults(fn=_cmd_tables)

    c = sub.add_parser("resultant", help="pointwise check of a pinned elimination identity")
    c.add_argument("--theorem", type=int, choices=(1, 2, 3, 4, 5, 6), required=True)
    _add_field_args(c)
    c.set_defaults(fn=_cmd_resultant)

    c = sub.add_parser("count-points", help="affine point count of the degree-5 curve")
    c.add_argument("--a3", required=True, help="coefficient of x^3, hex")
    c.add_argument("--a2", required=True, help="coefficient of x^2, hex")
    c.add_argument("--a1", required=True, help="coefficient of x, hex")
    _add_field_args(c)
    c.set_defaults(fn=_cmd_count_points)

    c = sub.add_parser("lemma", help="exhaustive criterion-vs-oracle agreement check")
    c.add_argument("--which", choices=tuple(_LEMMA_ENGINES), required=True)
    _add_field_args(c)
    c.set_defaults(fn=_cmd_lemma)

    return p


def _apply_defaults(args) -> None:
    if getattr(args, "command", None) == "search" and args.dedupe is None:
        args.dedupe = "none" if args.shape == "degree5" else "qm"


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    _apply_defaults(args)
    try:
        return args.fn(args)
    except ValueError as exc:
        _diag(f"error: {exc}")
        return EXIT_USAGE
    except BrokenProcessPool as exc:
        _diag(f"error: a search worker process died: {exc}")
        return EXIT_USAGE
    except KeyboardInterrupt:
        _diag("interrupted")
        return EXIT_USAGE


# ---------------------------------------------------------------------------
# document parsing (round-trip support for emitted JSON)


def parse_document(text: str):
    """Parse any JSON document this CLI emits back into semantic objects."""
    doc = json.loads(text)
    kind = doc.get("kind")
    if kind == "search_report":
        return report_from_json(text)
    if kind in ("check", "family"):
        ctx = field_from_label(doc["field"])
        out = dict(doc)
        out["field"] = ctx
        out["poly"] = parse_poly(ctx, doc["poly"])
        return out
    if kind == "tables":
        out = dict(doc)
        out["results"] = [
            {
                "n": r["n"],
                "report": report_from_json(json.dumps(r["report"])),
                "diff": r["diff"],
            }
            for r in doc["results"]
        ]
        return out
    if kind in ("resultant", "count_points", "lemma"):
        out = dict(doc)
        out["field"] = field_from_label(doc["field"])
        return out
    raise ValueError(f"unknown document kind {kind!r}")


if __name__ == "__main__":
    sys.exit(main())
