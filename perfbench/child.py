"""Runs a workload's operations against gf2to1 in a fresh interpreter.

Reads one JSON spec on stdin and writes one JSON result line on stdout:

  {"mode": "setup", "fields": [...]}
      time to import gf2to1, build each field and load the golden tables.
  {"mode": "run", "fields": [...], "ops": [...], "seconds": s, "trace": 0|1, "par_eff": [shape, n]}
      untraced passes over ``ops`` for about ``seconds`` (at least one); with
      trace 1, one untraced pass, one traced pass and the 1-vs-2 worker
      scan timing.

Outputs are returned unchecked; the parent process checks them, so neither
the checks nor their memory count against this process.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

LEMMA_FUNCS = {
    "2.4": "lemma_quadratic_agreement",
    "2.5": "lemma_cubic_agreement",
    "2.6": "lemma_quartic_agreement",
}


def setup(ns) -> float:
    t0 = time.perf_counter()
    import gf2to1
    from gf2to1 import tabledata

    for n in ns:
        gf2to1.make_field(n)
    tabledata.table1()
    tabledata.table2()
    tabledata.table3()
    return time.perf_counter() - t0


def run_op(op: dict, fields: dict):
    # every package function is looked up at call time, so tracer wrappers apply
    import gf2to1
    from gf2to1 import cli, lowdeg, two2one

    kind = op["kind"]
    if kind == "cli":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(op["argv"])
        return {"rc": rc, "doc": buf.getvalue()}
    ctx = fields[op["n"]]
    if kind == "search":
        rep = gf2to1.search_sparse(ctx, op["shape"], dedupe="qm", workers=1)
        return {"classes": [h.poly.terms for h in rep.hits], "candidates": rep.candidates_scanned}
    if kind == "canonical":
        return gf2to1.qm_canonical(gf2to1.SparsePoly.make(ctx, op["terms"])).terms
    if kind == "family":
        return gf2to1.is_two_to_one(gf2to1.make_family(op["tag"], ctx))
    if kind == "check":
        return gf2to1.is_two_to_one(gf2to1.SparsePoly.make(ctx, op["terms"]))
    if kind == "identity":
        return gf2to1.verify_resultant_identity(op["theorem"], ctx).ok
    if kind == "lemma":
        rep = getattr(lowdeg, LEMMA_FUNCS[op["which"]])(ctx)
        return {"ok": rep.ok, "checked": rep.checked}
    if kind == "points":
        return gf2to1.count_bivariate_zeros(two2one.point_count_curve(ctx, *op["coeffs"]))
    raise ValueError(f"unknown operation kind {kind!r}")


def run_pass(ns, ops) -> dict:
    import gf2to1

    t0 = time.perf_counter()
    fields = {n: gf2to1.make_field(n) for n in ns}
    results = []
    for op in ops:
        s = time.perf_counter()
        try:
            out, err = run_op(op, fields), None
        except Exception as exc:  # a failing operation is counted, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        results.append({"out": out, "error": err, "s": time.perf_counter() - s})
    return {"wall_s": time.perf_counter() - t0, "results": results}


def scan_seconds(shape: str, n: int, workers: int) -> float:
    import gf2to1

    ctx = gf2to1.make_field(n)
    t0 = time.perf_counter()
    gf2to1.search_sparse(ctx, shape, dedupe="qm", long_run=True, workers=workers)
    return time.perf_counter() - t0


def usage() -> dict:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        # ru_maxrss is in KiB on Linux; children report their largest member
        "peak_rss_mb": (own.ru_maxrss + kids.ru_maxrss) / 1024,
        "cpu_s": own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime,
    }


def main() -> None:
    spec = json.loads(sys.stdin.read())
    if spec["mode"] == "setup":
        print(json.dumps({"setup_s": setup(spec["fields"])}))
        return
    t0 = time.perf_counter()
    setup(spec["fields"])
    ns, ops = spec["fields"], spec["ops"]
    out: dict = {"passes": []}
    if not spec["trace"]:
        deadline = t0 + spec["seconds"]
        while True:
            p = run_pass(ns, ops)
            out["passes"].append(p)
            if time.perf_counter() + p["wall_s"] > deadline:
                break
    else:
        from tracer import Tracer

        out["passes"].append(run_pass(ns, ops))
        tracer = Tracer()
        tracer.install()
        try:
            out["passes"].append(run_pass(ns, ops))
        finally:
            tracer.uninstall()
        out["layer"] = tracer.layer_metrics()
        out["self_s"] = {k: v["self_s"] for k, v in tracer.by_name().items()}
        out["spans"] = tracer.spans
        shape, n = spec["par_eff"]
        out["scan_1w_s"] = scan_seconds(shape, n, 1)
        out["scan_2w_s"] = scan_seconds(shape, n, 2)
    out.update(usage())
    out["child_wall_s"] = time.perf_counter() - t0
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
