"""Output checks built from what the input generator knows.

Each check returns a list of failure messages; an empty list passes. The
checks compare counts and coverage, not digests of program output, so a
change of output format that keeps the meaning still passes. Byte-identity
across repeats within one run is checked separately by the caller.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

# Absolute tolerance on each recorded toy summary value: 0.02 is about ten
# of the 512 head or tail test samples, which covers last-digit differences
# in floating-point summation order (for example another BLAS thread count)
# but not a change in what the training run learns.
TOY_TOLERANCE = 0.02


def record_index(record_id: str) -> int:
    return int(record_id[1:])


def check_labels(labels: dict, truth: dict, name: str) -> list[str]:
    """Every generated id carries a head/tail label and no other id does."""
    n = truth["records"]
    if len(labels) != n:
        return [f"{name}: {len(labels)} labels for {n} records"]
    missing = sum(1 for i in range(n) if f"q{i:07d}" not in labels)
    bad = sum(1 for v in labels.values() if v not in ("head", "tail"))
    out = []
    if missing:
        out.append(f"{name}: {missing} record ids have no label")
    if bad:
        out.append(f"{name}: {bad} labels are neither head nor tail")
    return out


def check_report(report_dict: dict, truth: dict, model: int, name: str) -> list[str]:
    """Correct and scored counts per (task, question_type) match the generator."""
    index = {tuple(g): i for i, g in enumerate(truth["groups"])}
    correct = [0] * len(index)
    count = [0] * len(index)
    for cell in report_dict["cells"]:
        g = index.get((cell["task"], cell["question_type"]))
        if g is None:
            return [f"{name}: unknown group {cell['task']}/{cell['question_type']}"]
        correct[g] += cell["correct"]
        count[g] += cell["count"]
    expected = truth["models"][model]["expected_correct"]
    out = []
    for g, key in enumerate(truth["groups"]):
        if correct[g] != expected[g]:
            out.append(f"{name}: {key} has {correct[g]} correct, expected {expected[g]}")
        if count[g] != truth["group_sizes"][g]:
            out.append(f"{name}: {key} scored {count[g]} records, expected {truth['group_sizes'][g]}")
    return out


def check_sample(sample_ids: list[str], labels: dict, truth: dict) -> list[str]:
    """Sample size is round(ratio * n) and each cell is within one of its quota."""
    ratio = truth["sample_ratio"]
    n = truth["records"]
    out = []
    if len(sample_ids) != round(ratio * n):
        out.append(f"sample has {len(sample_ids)} records, expected {round(ratio * n)}")
    if len(set(sample_ids)) != len(sample_ids):
        out.append("sample repeats a record")
    group_of = truth["group_of"]
    cell_size: dict = {}
    for rid, part in labels.items():
        key = (group_of[record_index(rid)], part)
        cell_size[key] = cell_size.get(key, 0) + 1
    taken: dict = {}
    for rid in sample_ids:
        key = (group_of[record_index(rid)], labels[rid])
        taken[key] = taken.get(key, 0) + 1
    for key, size in cell_size.items():
        if abs(taken.get(key, 0) - ratio * size) > 1:
            out.append(f"sample cell {key} has {taken.get(key, 0)} of {size} records")
    return out


def check_distribution(dist: dict, truth: dict) -> list[str]:
    """Against the dataset itself, head + tail and reference cover each group."""
    index = {tuple(g): i for i, g in enumerate(truth["groups"])}
    out = []
    if len(dist["groups"]) != len(index):
        out.append(f"distribution report has {len(dist['groups'])} groups, expected {len(index)}")
    for g in dist["groups"]:
        size = truth["group_sizes"][index[(g["task"], g["question_type"])]]
        if g["head_total"] + g["tail_total"] != size or g["reference_total"] != size:
            out.append(f"distribution report for {g['task']}/{g['question_type']} misses records")
    return out


def check_written(split_path: Path, sample_path: Path, sample_size: int, truth: dict) -> list[str]:
    """The written split labels every record; the written sample has its records."""
    out = []
    assignments = json.loads(split_path.read_text(encoding="utf-8"))["assignments"]
    if len(assignments) != truth["records"]:
        out.append(f"written split labels {len(assignments)} of {truth['records']} records")
    lines = [ln for ln in sample_path.read_text(encoding="utf-8").splitlines() if ln.strip()]
    if len(lines) != sample_size:
        out.append(f"written sample has {len(lines)} lines, expected {sample_size}")
    return out


def check_toy(result: dict, traces: list, expected: dict) -> list[str]:
    """Every loss in every training trace is finite; the summary matches the record."""
    out = []
    for i, trace in enumerate(traces):
        for epoch, loss in enumerate(trace):
            parts = (loss.answer, loss.discrepancy, loss.cycle, loss.total)
            if not all(math.isfinite(v) for v in parts):
                out.append(f"training run {i}: loss not finite at epoch {epoch}")
                break
    if len(result["runs"]) != len(traces):
        out.append(f"{len(result['runs'])} runs reported, {len(traces)} trained")
    summary = result["summary"]
    for key, want in expected.items():
        got = summary.get(key)
        if isinstance(want, list):
            if got != want:
                out.append(f"summary {key} is {got!r}, expected {want!r}")
        elif not isinstance(got, float) or abs(got - want) > TOY_TOLERANCE:
            out.append(f"summary {key} is {got!r}, recorded {want!r} (tolerance {TOY_TOLERANCE})")
    return out
