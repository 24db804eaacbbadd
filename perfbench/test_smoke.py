"""Smoke test of the benchmark, at the tiny size of every workload.

    python3 -m pytest perfbench/test_smoke.py

The tiny size is cap 16; cutoffs 3/4 with anticommutator cutoffs 4/6 and
phase cutoff 4; level 1; 100 e8 triples; 4 lattices of 50 triples.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run


def load(path):
    with open(path) as fh:
        return json.load(fh)


SPEC = load(os.path.join(run.ROOT, "BENCHMARK.json"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3


def bench(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace):
    out = bench(run.ROOT, "--workload", workload, "--seed", str(SEED), "--seconds", "1",
                "--trace", str(trace), "--size", "tiny")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in want
    }
    for m in want:
        assert any(line.startswith(f"{m['name']}: median ") and f" {m['unit']} (n="
                   in line for line in lines), m["name"]
    assert lines[0].startswith("machine: ")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_spans_nest_and_counts_repeat(workload, tmp_path):
    runs = []
    for name in ("a.json", "b.json"):
        res, why = run.run_worker(workload, SEED, "tiny", str(tmp_path / name), 120)
        assert res is not None, why
        runs.append(res)
    spans = load(tmp_path / "a.json")["spans"]
    by_id = {s[0]: s for s in spans}
    assert [s[2] for s in spans if s[1] is None] == ["workload"]
    for span_id, parent, name, start, end, own in spans:
        assert 0 <= own <= end - start, name
        if parent is not None:
            assert by_id[parent][3] <= start <= end <= by_id[parent][4], name

    first, second = (r["layers"] for r in runs)
    assert all(v >= 0 for k, v in first.items() if k.endswith("self_s"))
    counts = [{k: v for k, v in layers.items() if not k.endswith("_s")}
              for layers in (first, second)]
    assert counts[0] == counts[1]
    checks = sum(v for k, v in first.items()
                 if k.startswith("verify.") and k.endswith(".total_s"))
    assert 0 < checks <= runs[0]["wall_s"]


def test_order1_probe_fails_at_tiny_cutoffs():
    res, why = run.run_worker("fock-probe", SEED, "tiny", None, 120)
    assert res is not None, why
    status = {c["claim"]: c["status"] for c in res["claims"]}
    assert status.pop("energy-bound-order1") == "fail"
    assert set(status.values()) == {"pass"}
    reference = load(os.path.join(run.HERE, "reference", "tiny", "fock-probe.json"))
    assert reference["energy-bound-order1"]["status"] == "fail"


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench(str(tmp_path), "--workload", WORKLOADS[0], "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout == ""
