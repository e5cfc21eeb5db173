"""Robustness evaluation: head/tail accuracy tables, answer normalization
and deterministic stratified subsampling.

Accuracy is reported per (task, question_type, head/tail) cell with
sample-weighted (micro) rollups per task and pooled over everything, the
layout used for head/tail robustness tables. A prediction is correct when
it equals the gold answer after both are normalized; there is no
numeral/word equivalence ("two" and "2" do not match), because the answer
vocabulary is a closed label set.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

from .records import DatasetManifest
from .split import SplitAssignment

_TERMINAL_PUNCT = ".,!?;:"


def normalize_answer(text: str) -> str:
    """Lowercase, collapse whitespace, trim, strip terminal punctuation.

    Trailing punctuation and spaces are stripped together, so the result
    is a fixed point: normalizing it again changes nothing.
    """
    return " ".join(text.lower().split()).rstrip(_TERMINAL_PUNCT + " ")


@dataclass
class CellStats:
    count: int = 0
    correct: int = 0

    @property
    def accuracy(self) -> float:
        return self.correct / self.count

    def add(self, is_correct: bool) -> None:
        self.count += 1
        self.correct += int(is_correct)

    def to_dict(self) -> dict:
        return {"count": self.count, "correct": self.correct, "accuracy": self.accuracy}


def _merge(cells: Iterable[CellStats]) -> CellStats | None:
    merged = CellStats()
    for cell in cells:
        merged.count += cell.count
        merged.correct += cell.correct
    return merged if merged.count else None


@dataclass
class EvalReport:
    """Per-cell accuracies keyed (task, question_type, head|tail), with
    sample-weighted rollups. Cells with no samples are absent."""

    cells: dict[tuple[str, str, str], CellStats]

    def task_rollup(self, task: str, part: str | None = None) -> CellStats | None:
        return _merge(
            stats
            for (t, _, p), stats in self.cells.items()
            if t == task and (part is None or p == part)
        )

    def pooled(self, part: str | None = None) -> CellStats | None:
        return _merge(
            stats for (_, _, p), stats in self.cells.items() if part is None or p == part
        )

    def tasks(self) -> list[str]:
        return sorted({t for (t, _, _) in self.cells})

    def question_types(self) -> list[str]:
        return sorted({q for (_, q, _) in self.cells})

    def to_dict(self) -> dict:
        def maybe(stats: CellStats | None) -> dict | None:
            return stats.to_dict() if stats is not None else None

        return {
            "cells": [
                {
                    "task": t,
                    "question_type": q,
                    "split": p,
                    **stats.to_dict(),
                }
                for (t, q, p), stats in self.cells.items()
            ],
            "tasks": {
                task: {
                    "head": maybe(self.task_rollup(task, "head")),
                    "tail": maybe(self.task_rollup(task, "tail")),
                    "overall": maybe(self.task_rollup(task)),
                }
                for task in self.tasks()
            },
            "pooled": {
                "head": maybe(self.pooled("head")),
                "tail": maybe(self.pooled("tail")),
                "overall": maybe(self.pooled()),
            },
        }

    def render_table(self) -> str:
        """Plain-text grid: rows are question types, H/T columns per task."""

        def fmt(stats: CellStats | None) -> str:
            return f"{stats.accuracy:.6g}" if stats is not None else "-"

        tasks = self.tasks()
        header = ["question_type"]
        for task in tasks:
            header += [f"{task} H", f"{task} T"]
        rows = [header]
        for qtype in self.question_types():
            row = [qtype]
            for task in tasks:
                row.append(fmt(self.cells.get((task, qtype, "head"))))
                row.append(fmt(self.cells.get((task, qtype, "tail"))))
            rows.append(row)
        summary = ["all"]
        for task in tasks:
            summary.append(fmt(self.task_rollup(task, "head")))
            summary.append(fmt(self.task_rollup(task, "tail")))
        rows.append(summary)

        widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
        lines = [
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
            for row in rows
        ]
        pooled = {p: self.pooled(p) for p in ("head", "tail")}
        overall = self.pooled()
        lines.append(
            "pooled: head {} tail {} overall {}".format(
                fmt(pooled["head"]), fmt(pooled["tail"]), fmt(overall)
            )
        )
        return "\n".join(lines)


def _check_pairing(
    manifest: DatasetManifest, assignment: SplitAssignment, preds: dict[str, str]
) -> None:
    """Raise on the first unpaired id: prediction, then split label."""
    gold_ids = {rec.id for rec in manifest.records}
    missing = [rec.id for rec in manifest.records if rec.id not in preds]
    orphans = [pid for pid in preds if pid not in gold_ids]
    if missing or orphans:
        raise ValueError(
            "gold/prediction mismatch: missing predictions for "
            f"{missing!r}, orphan predictions {orphans!r}"
        )
    unassigned = [rec.id for rec in manifest.records if rec.id not in assignment.labels]
    if unassigned:
        raise ValueError(f"records missing from split assignment: {unassigned!r}")
    extra = [rid for rid in assignment.labels if rid not in gold_ids]
    if extra:
        raise ValueError(f"split assignment labels ids not in the dataset: {extra!r}")


def accuracy_report(
    manifest: DatasetManifest,
    assignment: SplitAssignment,
    preds: dict[str, str],
) -> EvalReport:
    """Score predictions against gold answers per head/tail cell.

    Requires a complete pairing: every gold id predicted, no orphan
    predictions, every gold id present in the split assignment, and no
    split label for an id outside the dataset. Unresolved ids raise with
    the offending ids listed.

    Scoring is one pass over the records. Each distinct string is
    normalized once; the ids are only cross-checked in full when their
    counts disagree or a lookup misses.
    """
    labels = assignment.labels
    if not len(preds) == len(labels) == len(manifest):
        _check_pairing(manifest, assignment, preds)
    normalized: dict[str, str] = {}
    raw: dict[tuple[str, str, str], CellStats] = {}
    for rec in manifest.records:
        prediction = preds.get(rec.id)
        part = labels.get(rec.id)
        if prediction is None or part is None:
            _check_pairing(manifest, assignment, preds)  # raises: this id is unpaired
        key = (rec.task, rec.question_type, part)
        stats = raw.get(key)
        if stats is None:
            raw[key] = stats = CellStats()
        gold = normalized.get(rec.answer)
        if gold is None:
            gold = normalized[rec.answer] = normalize_answer(rec.answer)
        guess = normalized.get(prediction)
        if guess is None:
            guess = normalized[prediction] = normalize_answer(prediction)
        stats.add(guess == gold)
    ordered = {key: raw[key] for key in sorted(raw)}
    return EvalReport(cells=ordered)


def uniform_sample(
    manifest: DatasetManifest,
    assignment: SplitAssignment,
    ratio: float,
    seed: int = 0,
) -> DatasetManifest:
    """Deterministic stratified subsample at the given ratio.

    Strata are (task, question_type, head/tail) cells. Per-cell targets
    come from largest-remainder rounding of ratio * cell size against a
    house size of round(ratio * total), so each cell is within one record
    of its exact quota. Selection within a cell is a seeded shuffle; the
    output keeps the original record order.
    """
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"ratio must lie in (0, 1], got {ratio}")
    labels = assignment.labels
    cells: dict[tuple[str, str, str], list[str]] = {}
    for (task, qtype), group in manifest.groups.items():
        parts: dict[str, list[str]] = {}
        for rec in group:
            part = labels.get(rec.id)
            ids = parts.get(part)
            if ids is None:
                if part is None:
                    # name the first unlabelled record in file order
                    unlabelled = next(r.id for r in manifest.records if labels.get(r.id) is None)
                    raise ValueError(f"record {unlabelled!r} missing from split assignment")
                parts[part] = ids = []
            ids.append(rec.id)
        for part, ids in parts.items():
            cells[task, qtype, part] = ids

    total = len(manifest.records)
    house = int(ratio * total + 0.5)
    keys = sorted(cells)
    quotas = {key: ratio * len(cells[key]) for key in keys}
    base = {key: int(quotas[key]) for key in keys}
    leftover = house - sum(base.values())
    by_remainder = sorted(keys, key=lambda key: (-(quotas[key] - base[key]), key))
    targets = dict(base)
    for key in by_remainder[:leftover]:
        targets[key] += 1

    rng = random.Random(seed)
    chosen: set[str] = set()
    for key in keys:
        members = cells[key]
        rng.shuffle(members)
        chosen.update(members[: targets[key]])
    records = [rec for rec in manifest.records if rec.id in chosen]
    return DatasetManifest(records)
