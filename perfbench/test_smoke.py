"""Smoke tests of the benchmark itself on a tiny configuration (n <= 5).

  python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import dataclasses
import json

import pytest

import run
import workloads
from workloads import TINY


def _specs(kind):
    return {m["name"]: m["unit"] for m in run.metric_specs(kind)}


def _assert_metrics(metrics, kind):
    specs = _specs(kind)
    assert set(metrics) == set(specs)
    for name, m in metrics.items():
        assert set(m) == {"value", "unit"}
        assert m["unit"] == specs[name], name
        assert isinstance(m["value"], (int, float)) and not isinstance(m["value"], bool), name


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics_emitted_with_units(workload):
    result, detail = run.run(workload, 3, 0.1, False, TINY)
    assert result["correct"] and result["failed"] == 0, detail["failures"]
    assert result["attempted"] >= 1
    _assert_metrics(result["metrics"], "end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert detail["env"]["nproc"] >= 1 and detail["setup_s"]["n"] == run.SETUP_PROBES
    json.dumps(result)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_layer_metrics_emitted_with_units(workload):
    result, detail = run.run(workload, 3, 0.1, True, TINY)
    assert result["correct"], detail["failures"]
    _assert_metrics(result["metrics"], "per_layer")
    assert detail["spans"], "a traced run records spans"


def test_wrong_pinned_digest_counts_as_failure():
    (argv, _), *rest = TINY.table_runs
    cfg = dataclasses.replace(TINY, table_runs=((argv, "0" * 64), *rest))
    result, detail = run.run("tables", 1, 0.1, False, cfg)
    assert result["failed"] == 1 and not result["correct"]
    assert "sha256" in detail["failures"][0]


def test_wrong_but_invariant_canonical_counts_as_failure(monkeypatch):
    # a qm_canonical that gives one answer for every input passes the
    # invariance check; the reference canonical form must still catch it
    import gf2to1

    const = ((3, 1), (1, 1))
    monkeypatch.setattr(gf2to1, "qm_canonical", lambda f: gf2to1.SparsePoly(f.ctx, const))
    checker = workloads.Checker("classify", 1, TINY)
    _, ops = workloads.build("classify", 1, TINY)
    canon_ops = [op for op in ops if op["kind"] == "canonical"]
    assert canon_ops
    for op in canon_ops:
        verdict = checker.check(op, {"out": [list(t) for t in const], "error": None, "s": 0.0})
        assert "reference canonical" in verdict


def test_wrong_outputs_are_described_not_raised():
    checker = workloads.Checker("classify", 1, TINY)
    _, ops = workloads.build("classify", 1, TINY)
    for op in ops[:1] + ops[-1:]:
        for bad in (None, [], {"classes": [[[1, 1]]]}, [[3, 1], [1, 1]]):
            assert isinstance(checker.check(op, {"out": bad, "error": None, "s": 0.0}), str)
    assert "raised" in checker.check(ops[0], {"out": None, "error": "ValueError: x", "s": 0.0})


def test_inputs_follow_the_seed():
    for w in ("classify", "verify"):
        assert workloads.build(w, 5, TINY) == workloads.build(w, 5, TINY)
        assert workloads.build(w, 5, TINY) != workloads.build(w, 6, TINY)
