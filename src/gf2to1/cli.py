"""Command-line surface: verification, family construction, searches,
elimination-identity checks and reference-table reproduction.

Each subcommand returns (doc, lines, ok): the json document, the text
rendering as lines, and whether the run found no mathematical mismatch.
main alone writes one of them to stdout and maps ok to the exit code.  The
default output format is text; GF2TO1_FORMAT overrides the default, an
explicit --format always wins.  Every subcommand writes text and json; only
search writes csv (its report_to_csv lines), and a csv default from
GF2TO1_FORMAT gives text elsewhere.

Exit codes: 0 success / empty diff, 1 mathematical mismatch, 2 usage error.
Past argparse's own checks, every usage error is a ValueError caught in
main: it writes exactly one ``error: <message>`` line to stderr, nothing to
stdout, and exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections import Counter

from .field import FieldCtx, fmt_elem, make_field, parse_elem, read_int
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
    WorkerDied,
    compare_with_table,
    diff_to_dict,
    report_to_csv,
    report_to_dict,
    search_sparse,
    worker_pool,
)
from .two2one import (
    FAMILY_TAGS,
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


def _diag(msg: str) -> None:
    sys.stderr.write(msg + "\n")


def _fmt(args) -> str:
    env = os.environ.get("GF2TO1_FORMAT", "").strip().lower()
    return args.format or (env if env in FORMATS else "text")


def _field(args) -> FieldCtx:
    modulus = read_int(args.modulus, 16, "modulus") if args.modulus else None
    return make_field(args.n, modulus)


# ---------------------------------------------------------------------------
# subcommands: each returns (json document, text lines, ok)


def _cmd_check(args):
    ctx = _field(args)
    f = parse_poly(ctx, args.poly)
    hist = preimage_histogram(f)
    verdict = hist.is_two_to_one
    sizes = sorted(Counter(hist.counts.values()).items())
    doc = {
        "kind": "check",
        "field": ctx.label(),
        "poly": str(f),
        "two_to_one": verdict,
        "image_size": hist.image_size,
        "fiber_sizes": {str(k): v for k, v in sizes},
    }
    lines = [
        f"field: {ctx.label()}",
        f"poly: {f}",
        f"two-to-one: {'yes' if verdict else 'no'}",
        f"image size: {hist.image_size} of {ctx.order}",
        *(f"fibers of size {k}: {v}" for k, v in sizes),
    ]
    return doc, lines, verdict


def _cmd_family(args):
    ctx = _field(args)
    param = parse_elem(ctx, args.param) if args.param else None
    f = make_family(args.family, ctx, param)
    verified = is_two_to_one(f)
    doc = {"kind": "family", "field": ctx.label(), "family": args.family, "poly": str(f), "two_to_one": verified}
    lines = [
        f"family: {args.family} over {ctx.label()}",
        f"poly: {f}",
        f"two-to-one: {'yes' if verified else 'NO (construction bug)'}",
    ]
    return doc, lines, verified


def _cmd_search(args):
    ctx = _field(args)
    dedupe = args.dedupe or ("none" if args.shape == "degree5" else "qm")
    report = search_sparse(ctx, args.shape, dedupe, args.long, args.workers)
    fmt = _fmt(args)
    if fmt == "csv":
        lines = report_to_csv(report).splitlines()
    else:
        lines = [
            f"search {report.shape} over {ctx.label()} dedupe={report.dedupe}: "
            f"{len(report.hits)} hits, {report.candidates_scanned} candidates "
            f"({report.sieve_rejected} rejected by the fiber sieve), {report.elapsed_ms} ms",
            *(f"  {h.poly}  (orbit {h.orbit_size})" for h in report.hits),
        ]
    if fmt == "text":
        for note in report.notes:
            _diag(f"note: {note}")
    return report_to_dict(report), lines, True


def _cmd_tables(args):
    shape, dedupe, all_n = TABLE_RUNS[args.which]
    n_max = args.n_max or (SEARCH_LONG_MAX_N if args.long else SEARCH_MAX_N)
    if n_max > SEARCH_MAX_N and not args.long:
        raise ValueError(f"--n-max {n_max} runs the n={n_max} searches; pass --long")
    results = []
    with worker_pool(args.workers, shape, min(max(all_n), n_max)) as pool:
        for n in all_n:
            if n <= n_max:
                report = search_sparse(make_field(n), shape, dedupe, args.long, args.workers, pool=pool)
                results.append((n, report, compare_with_table(report, args.which)))
    ok = all(d.ok for _, _, d in results)
    doc = {
        "kind": "tables",
        "table": args.which,
        "results": [
            {"n": n, "report": report_to_dict(rep, include_timing=False), "diff": diff_to_dict(d)}
            for n, rep, d in results
        ],
        "ok": ok,
    }
    lines = []
    for n, rep, d in results:
        aligned = f" [{d.aligned}]" if d.aligned else ""
        lines.append(f"table {args.which} n={n}: {len(rep.hits)} hits, {'ok' if d.ok else 'MISMATCH'}{aligned}")
        lines.extend(f"  missing: {m}" for m in d.missing)
        lines.extend(f"  extra: {e}" for e in d.extra)
    return doc, lines, ok


def _cmd_resultant(args):
    ctx = _field(args)
    chk = verify_resultant_identity(args.theorem, ctx)
    failing = fmt_elem(chk.failing_a) if chk.failing_a is not None else None
    doc = {"kind": "resultant", "field": ctx.label(), "theorem": args.theorem, "ok": chk.ok, "failing_a": failing}
    verdict = "holds for every admissible a" if chk.ok else f"FAILS at a={failing}"
    return doc, [f"identity {args.theorem} over {ctx.label()}: {verdict}"], chk.ok


def _cmd_count_points(args):
    ctx = _field(args)
    a3, a2, a1 = (parse_elem(ctx, s) for s in (args.a3, args.a2, args.a1))
    count = count_bivariate_zeros(point_count_curve(ctx, a3, a2, a1))
    bound = point_count_lower_bound(ctx.n)
    ok = count >= bound
    doc = {
        "kind": "count_points",
        "field": ctx.label(),
        "a3": fmt_elem(a3),
        "a2": fmt_elem(a2),
        "a1": fmt_elem(a1),
        "count": count,
        "lower_bound": bound,
        "ok": ok,
    }
    return doc, [f"curve points over {ctx.label()}: {count} (lower bound {bound})"], ok


_LEMMA_ENGINES = {
    "2.4": lemma_quadratic_agreement,
    "2.5": lemma_cubic_agreement,
    "2.6": lemma_quartic_agreement,
}


def _cmd_lemma(args):
    ctx = _field(args)
    rep = _LEMMA_ENGINES[args.which](ctx)
    doc = {
        "kind": "lemma",
        "field": ctx.label(),
        "which": args.which,
        "checked": rep.checked,
        "mismatches": [[fmt_elem(v) for v in t] for t in rep.mismatches],
        "ok": rep.ok,
    }
    line = f"lemma {args.which} over {ctx.label()}: {rep.checked} inputs, {len(rep.mismatches)} mismatches"
    return doc, [line], rep.ok


# ---------------------------------------------------------------------------
# parser


def _int_flag(s: str) -> int:
    """An integer flag read strictly as ASCII -?[0-9]+ (int() also takes '1_0', '+3',
    ' 3' and other scripts' digits); a sign passes on to the library's range checks."""
    if not re.fullmatch("-?[0-9]+", s):
        raise argparse.ArgumentTypeError(f"invalid integer {s!r}")
    return int(s)


def _add_field_args(p, formats=FORMATS[:2]) -> None:
    p.add_argument("--n", type=_int_flag, required=True, help="extension degree of GF(2^n)")
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
    c.add_argument("--workers", type=_int_flag, default=os.cpu_count() or 1)
    _add_field_args(c, FORMATS)
    c.set_defaults(fn=_cmd_search)

    c = sub.add_parser("tables", help="reproduce a bundled reference table and diff")
    c.add_argument("--which", choices=tuple(TABLE_RUNS), required=True)
    c.add_argument(
        "--n-max",
        type=_int_flag,
        choices=range(3, SEARCH_LONG_MAX_N + 1),
        dest="n_max",
        help=f"default {SEARCH_LONG_MAX_N} with --long, else {SEARCH_MAX_N}",
    )
    c.add_argument("--long", action="store_true", help=f"include the n={SEARCH_LONG_MAX_N} searches")
    c.add_argument("--workers", type=_int_flag, default=os.cpu_count() or 1)
    c.add_argument("--format", choices=FORMATS[:2])
    c.set_defaults(fn=_cmd_tables)

    c = sub.add_parser(
        "resultant",
        help="pinned elimination identity: proved over GF(2)[a, b]; degree-drop points checked pointwise",
    )
    c.add_argument("--theorem", type=_int_flag, choices=(1, 2, 3, 4, 5, 6), required=True)
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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        doc, lines, ok = args.fn(args)
    except ValueError as exc:
        _diag(f"error: {exc}")
        return EXIT_USAGE
    except WorkerDied as exc:
        _diag(f"error: a search worker process died: {exc}")
        return EXIT_USAGE
    except KeyboardInterrupt:
        _diag("interrupted")
        return EXIT_USAGE
    sys.stdout.write((json.dumps(doc, indent=2) if _fmt(args) == "json" else "\n".join(lines)) + "\n")
    return EXIT_OK if ok else EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
