"""gf2to1 benchmark: one workload per run, every output checked.

  python3 perfbench/run.py --workload tables|classify|verify \
      [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root; it imports the package from ``src/``.  A
closed loop with one client: a single process makes one call at a time
(search shards use at most two worker processes).

With ``--trace 0`` the run measures end-to-end metrics with tracing off:
setup time (median of several fresh interpreters), pass wall time and peak
memory; the detail record adds the per-call latency of the workload's batch.
With ``--trace 1`` it makes one untraced and one traced pass at one worker
and reports per-layer metrics from the spans (see tracer.py), plus the
1-vs-2 worker scan timing.

Operations run in a child interpreter; this process then checks every output
and counts failures.  The last line of stdout is the result:
{"correct", "attempted", "failed", "metrics"}.  The line before it is a
detail record (environment stamp, sample counts, quartiles); it and, for
traced runs, the span dump are also written under perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads  # next to this file

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
RESULTS = HERE / "results"
SETUP_PROBES = 21
BUDGET_S = 170  # every run ends well inside the 180 s a run may take


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    v = sorted(values)
    return v[max(0, math.ceil(q * len(v)) - 1)]


def quartiles(values) -> dict:
    if len(values) < 2:
        return {"n": len(values), "p25": values[0], "p50": values[0], "p75": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "p25": q1, "p50": q2, "p75": q3}


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def probe_loop_s() -> float:
    """Time of a fixed pure-Python loop: on a shared host it shows how fast
    the machine ran at that moment, which CPU time against wall time does not."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc ^= i * 7 & 1023
    return time.perf_counter() - t0


def env_stamp() -> dict:
    model = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "loadavg_start": _read("/proc/loadavg").split()[:3],
        "probe_loop_s_start": probe_loop_s(),
    }


def child(spec: dict, deadline: float) -> dict:
    """Run child.py on spec; raise RuntimeError if it fails or overruns."""
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD)],
            input=json.dumps(spec),
            capture_output=True,
            text=True,
            cwd=ROOT,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError("child run exceeded the time budget") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"child run exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_samples(ns, k: int, deadline: float) -> list[float]:
    return [child({"mode": "setup", "fields": ns}, deadline)["setup_s"] for _ in range(k)]


def run(workload: str, seed: int, seconds: float, trace: bool,
        cfg: workloads.Config = workloads.FULL) -> tuple[dict, dict]:
    """(result, detail) for one run; the result is the benchmark's last line."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))  # the checker imports gf2to1 too
    deadline = time.monotonic() + BUDGET_S
    stamp = env_stamp()
    ns, ops = workloads.build(workload, seed, cfg, traced=trace)
    # set-up is probed before and after the run, to sample the host twice
    setup = setup_samples(ns, SETUP_PROBES // 2, deadline)
    out = child(
        {"mode": "run", "fields": ns, "ops": ops, "seconds": seconds, "trace": int(trace),
         "par_eff": list(cfg.par_eff)},
        deadline,
    )
    setup += setup_samples(ns, SETUP_PROBES - len(setup), deadline)

    t_check = time.perf_counter()
    checker = workloads.Checker(workload, seed, cfg)
    verdicts: dict[tuple, str | None] = {}  # an output equal to one checked before shares its verdict
    failures = []
    for p in out["passes"]:
        for i, (op, res) in enumerate(zip(ops, p["results"])):
            key = (i, json.dumps(res["out"]), res["error"])
            if key not in verdicts:
                verdicts[key] = checker.check(op, res)
            if verdicts[key] is not None:
                failures.append(verdicts[key])
    attempted = len(ops) * len(out["passes"])
    check_s = time.perf_counter() - t_check

    walls = [p["wall_s"] for p in out["passes"]]
    batch_ms = [
        res["s"] * 1000
        for p in out["passes"][: 1 if trace else None]  # untraced passes only
        for op, res in zip(ops, p["results"])
        if op.get("batch")
    ]
    candidates = _scanned(out["passes"][0]["results"]) if workload == "tables" else None

    if trace:
        untraced, traced = walls
        layer = dict(out["layer"])
        layer["search.par_eff_2w"] = out["scan_1w_s"] / (2 * out["scan_2w_s"])
        layer["cli.doc_bytes"] = sum(len(doc.encode()) for doc in _docs(out["passes"][1]["results"]))
        layer["trace.overhead_s"] = traced - untraced
        metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]}
                   for m in metric_specs("per_layer")}
    else:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": out["peak_rss_mb"],
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in metric_specs("end_to_end")}

    stamp["loadavg_end"] = _read("/proc/loadavg").split()[:3]
    stamp["probe_loop_s_end"] = probe_loop_s()
    stamp["child_cpu_s"] = out["cpu_s"]
    stamp["child_wall_s"] = out["child_wall_s"]
    detail = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": stamp,
        "passes": len(walls),
        "pass_wall_s": walls,
        "setup_s": quartiles(setup),
        "batch_ms": quartiles(batch_ms) | {"p90": percentile(batch_ms, 0.9)},
        "check_s": check_s,
        "failures": failures[:20],
    }
    if candidates:
        detail["cand_per_s"] = candidates / walls[0]
    if trace:
        detail["self_s"] = dict(sorted(out["self_s"].items(), key=lambda kv: -kv[1]))
        detail["scan_s"] = {"1w": out["scan_1w_s"], "2w": out["scan_2w_s"]}
        detail["spans"] = out["spans"]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return result, detail


def _docs(results) -> list[str]:
    return [res["out"]["doc"] for res in results
            if res["error"] is None and isinstance(res["out"], dict) and "doc" in res["out"]]


def _scanned(results) -> int | None:
    """Candidates scanned over the tables documents, or None if one is malformed."""
    try:
        return sum(r["report"]["scanned"] for doc in _docs(results)
                   for r in json.loads(doc)["results"])
    except (KeyError, TypeError, ValueError):
        return None


def metric_specs(kind: str) -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())[kind]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "gf2to1" / "__init__.py").is_file():
        sys.stderr.write(f"error: no gf2to1 sources under {ROOT / 'src'}\n")
        return 2
    try:
        result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    spans = detail.pop("spans", None)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if spans is not None:
        with open(RESULTS / f"{stem}-spans.jsonl", "w") as fh:
            fh.write('{"columns": ["name", "parent", "start_s", "end_s"]}\n')
            for s in spans:
                fh.write(json.dumps(s) + "\n")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
