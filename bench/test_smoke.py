"""Smoke test of the benchmark at tiny budgets.

    PYTHONPATH=src python -m pytest -q bench/test_smoke.py

Runs every workload of BENCHMARK.json untraced and traced, in this process,
and checks that the correctness checks pass and that every declared metric
appears with its declared unit.
"""

import json
import os

import pytest

import harness

TINY_DATA = ("benchmark.mono_lines=300", "benchmark.parallel_lines=100",
             "benchmark.dev_lines=10", "benchmark.test_lines=10",
             "eval.max_len=8", "eval.batch_size=8")
TINY = {
    "translate": TINY_DATA,
    "pipeline": TINY_DATA + (
        "stage1.steps=4", "stage2a.steps=4", "stage2b.steps=4",
        "stage3.max_tokens=200", "stage3.max_len=8",
        "synthetic.english_lines_per_target=20"),
}

with open(os.path.join(harness.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == harness.WORKLOADS[w["name"]].why


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", list(TINY))
def test_metrics_and_checks(workload, trace, section):
    doc = harness.run_workload(workload, seed=3, seconds=0, trace=trace,
                               extra_overrides=TINY[workload])
    result = doc["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if section == "end_to_end":
        assert all(v["value"] > 0 for v in result["metrics"].values())
