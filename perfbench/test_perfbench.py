"""Tiny-size self-test of the benchmark: schema, seeding, checks, tracing.

Runs every workload at the ``tiny`` sizes for two passes, so it takes a
few seconds; the timings it produces mean nothing.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import harness
import workloads
from tracing import LAYER_METRICS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as _fh:
    SPEC = json.load(_fh)


@pytest.fixture
def small_run(monkeypatch):
    monkeypatch.setattr(harness, "SETUP_PROBES", 1)
    monkeypatch.setattr(harness, "INPUTS_PER_RUN", 2)


def test_tail_is_highest_percentile_with_ten_samples_above():
    assert harness.tail(range(1, 41)) == (30, 75)
    assert harness.tail([3.0, 1.0, 2.0]) == (3.0, 100)


def test_inputs_are_seeded_latin_hypercube():
    workload = workloads.WORKLOADS["tdse"]
    inputs = workloads.make_inputs(workload, 7, 8)
    assert inputs == workloads.make_inputs(workload, 7, 8)
    assert inputs != workloads.make_inputs(workload, 8, 8)
    for key, (lo, hi) in workload.ranges.items():
        strata = sorted(int((c[key] - lo) / (hi - lo) * 8) for c in inputs)
        assert strata == list(range(8))


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_untraced_run_reports_every_end_to_end_metric(tmp_path, small_run):
    result = harness.run("spectral2d", 1, 0.0, False, str(tmp_path), SRC, "tiny")
    assert result.correct and result.failed == 0 and result.attempted == 4
    assert set(result.metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value, _ in result.metrics.values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_reports_every_layer_metric(name, tmp_path, small_run):
    result = harness.run(name, 1, 0.0, True, str(tmp_path), SRC, "tiny")
    assert result.correct and result.failed == 0
    assert set(result.metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert {m for m, _ in LAYER_METRICS} <= set(result.metrics)
    value = {key: v for key, (v, _) in result.metrics.items()}
    assert (value["engine.terms"] == 0) == (name == "tdse")
    assert (value["oracles.rk4_substeps"] > 0) == (name == "oscillator")
    assert (value["expressions.scalar_calls"] > 0) == (name == "oscillator")
    assert (value["tdse.steps"] > 0) == (name == "tdse")
    assert value["cli.self_s"] > 0 and value["cli.bytes_written"] > 0
    assert result.info["self_time_tiling_gap_s"] <= 1e-6
    assert os.path.getsize(tmp_path / "spans.jsonl") > 0


def test_a_wrong_answer_fails_the_job(tmp_path, small_run, monkeypatch):
    workload = workloads.WORKLOADS["wave"]
    strict = dict(workload.tiny, err_bound=0.0)
    monkeypatch.setitem(workloads.WORKLOADS, "wave", dataclasses.replace(workload, tiny=strict))
    result = harness.run("wave", 1, 0.0, False, str(tmp_path), SRC, "tiny")
    assert not result.correct and result.failed == result.attempted


def test_run_exits_without_a_result_when_sources_are_missing(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wave", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""
