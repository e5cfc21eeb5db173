"""Smoke test of the benchmark at tiny size, outside any timing.

Checks that each workload's result line carries every metric of
BENCHMARK.json with its unit, and that a corrupted output fails its check.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import bench_checks  # noqa: E402
from bench_inputs import generate  # noqa: E402
from bench_ops import EvalWorkload, ToyWorkload, import_program  # noqa: E402
from bench_spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_has_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_without_program_sources_fails(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "benchmarks" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "eval-200k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_corrupted_pipeline_outputs_fail_their_checks(tmp_path):
    import_program(ROOT)
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    out.mkdir()
    generate(inputs, "eval-200k", seed=2, n=1000)
    args = Namespace(inputs=str(inputs), out=str(out), seed=2, tiny=True)
    workload = EvalWorkload(args, Tracer())
    workload.load_truth()
    assignment, report, table, sample, dist = workload.op()
    assert workload.check((assignment, report, table, sample, dist))[0] == []

    truth = workload.truth
    report_dict = report.to_dict()
    report_dict["cells"][0]["correct"] += 1
    assert bench_checks.check_report(report_dict, truth, 0, "model0")

    labels = dict(assignment.labels)
    labels.pop(next(iter(labels)))
    assert bench_checks.check_labels(labels, truth, "split")

    sample_ids = [rec.id for rec in sample.records]
    assert bench_checks.check_sample(sample_ids[:-1], assignment.labels, truth)


def test_corrupted_toy_outputs_fail_their_checks(monkeypatch):
    import_program(ROOT)
    from avqabench import toy

    for name in ("run_experiment", "train", "generate_synthetic", "evaluate_toy"):
        monkeypatch.setattr(toy, name, getattr(toy, name))  # restored after the test
    workload = ToyWorkload(Namespace(seed=0, tiny=True), Tracer())
    workload.load_truth()
    result = workload.op()
    assert workload.check(result)[0] == []

    traces = [list(t) for t in workload.traces]
    loss = traces[0][-1]
    traces[0][-1] = type(loss)(answer=math.nan, discrepancy=loss.discrepancy, cycle=loss.cycle)
    assert bench_checks.check_toy(result, traces, workload.expected)

    shifted = json.loads(json.dumps(result))
    shifted["summary"]["median_tail_gain"] += 0.05
    assert bench_checks.check_toy(shifted, workload.traces, workload.expected)
