"""Robustness evaluation: head/tail accuracy tables, answer normalization
and deterministic stratified subsampling.

Accuracy is reported per (task, question_type, head/tail) cell with
sample-weighted (micro) rollups per task and pooled over everything, the
layout used for head/tail robustness tables. A prediction is correct when
it equals the gold answer after both are normalized; there is no
numeral/word equivalence ("two" and "2" do not match), because the answer
vocabulary is a closed label set. Scoring and sampling take a split with
the manifest it was built from, and reject a split of another dataset.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from itertools import compress
from operator import eq
from typing import Iterable

from .records import DatasetManifest
from .split import SplitAssignment

# terminal punctuation, and the spaces stripped with it
_TRAILING = ".,!?;: "


def normalize_answer(text: str) -> str:
    """Lowercase, collapse whitespace, trim, strip terminal punctuation.

    Trailing punctuation and spaces are stripped together, so the result
    is a fixed point: normalizing it again changes nothing.
    """
    return " ".join(text.lower().split()).rstrip(_TRAILING)


@dataclass
class CellStats:
    count: int = 0
    correct: int = 0

    @property
    def accuracy(self) -> float:
        return self.correct / self.count

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

    def rollup(self, task: str | None = None, part: str | None = None) -> CellStats | None:
        """The merged cells of one task (None: all) and one part (None: both)."""
        return _merge(
            stats
            for (t, _, p), stats in self.cells.items()
            if task in (None, t) and part in (None, p)
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
                    "head": maybe(self.rollup(task, "head")),
                    "tail": maybe(self.rollup(task, "tail")),
                    "overall": maybe(self.rollup(task)),
                }
                for task in self.tasks()
            },
            "pooled": {
                "head": maybe(self.rollup(part="head")),
                "tail": maybe(self.rollup(part="tail")),
                "overall": maybe(self.rollup()),
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
            summary.append(fmt(self.rollup(task, "head")))
            summary.append(fmt(self.rollup(task, "tail")))
        rows.append(summary)

        widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
        lines = [
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
            for row in rows
        ]
        lines.append(
            "pooled: head {} tail {} overall {}".format(
                fmt(self.rollup(part="head")), fmt(self.rollup(part="tail")), fmt(self.rollup())
            )
        )
        return "\n".join(lines)


def _check_predictions(manifest: DatasetManifest, preds: dict[str, str]) -> None:
    """Raise on a gold id with no prediction or a prediction for no gold id,
    then on the first prediction, in file order, that is not a string."""
    gold_ids = set(manifest.ids)
    missing = [rec_id for rec_id in manifest.ids if rec_id not in preds]
    orphans = [pid for pid in preds if pid not in gold_ids]
    if missing or orphans:
        raise ValueError(
            "gold/prediction mismatch: missing predictions for "
            f"{missing!r}, orphan predictions {orphans!r}"
        )
    for rec_id in manifest.ids:
        prediction = preds[rec_id]
        if not isinstance(prediction, str):
            raise ValueError(
                f"prediction for {rec_id!r} must be a string, got {type(prediction).__name__}"
            )


def accuracy_report(
    manifest: DatasetManifest,
    assignment: SplitAssignment,
    preds: dict[str, str],
) -> EvalReport:
    """Score predictions against gold answers per head/tail cell.

    The split must be the one built from this manifest, and the
    predictions must pair with the gold ids exactly: every gold id
    predicted and no orphan predictions. Unpaired ids raise with the
    offending ids listed, and a prediction that is not a string raises
    naming its id.

    Scoring reads the manifest's id and answer columns and the split's cell
    column: the predictions are looked up in file order, each distinct
    prediction and each distinct gold answer is normalized once, and the
    records whose normalized prediction equals their normalized gold answer
    are counted per cell. The ids and values are only checked in full when
    the counts disagree or a lookup finds no string. Cell sizes come from
    the split, and its empty cells are left out.
    """
    assignment.check_manifest(manifest)
    guesses = list(map(preds.get, manifest.ids))
    if len(preds) != len(guesses) or not set(map(type, guesses)) <= {str}:
        _check_predictions(manifest, preds)
    golds = manifest.answers
    # two tables, so that the gold lookups stay in a small one
    guessed = {text: normalize_answer(text) for text in dict.fromkeys(guesses)}
    gold = {text: normalize_answer(text) for text in dict.fromkeys(golds)}
    hits = map(eq, map(guessed.__getitem__, guesses), map(gold.__getitem__, golds))
    correct = Counter(compress(assignment.cells, hits))
    sizes = zip(assignment.cell_keys, assignment.cell_sizes)
    return EvalReport(
        cells={key: CellStats(size, correct[cell]) for cell, (key, size) in enumerate(sizes) if size}
    )


def uniform_sample(
    manifest: DatasetManifest,
    assignment: SplitAssignment,
    ratio: float,
    seed: int = 0,
) -> DatasetManifest:
    """Deterministic stratified subsample at the given ratio.

    Strata are (task, question_type, head/tail) cells. Per-cell targets
    come from largest-remainder rounding of ratio * cell size against a
    house size of ratio * total rounded half up (0.5 of 5 records keeps 3,
    where round(2.5) is 2), so each cell is within one record of its exact
    quota. Selection within a cell is a seeded shuffle; the
    output keeps the original record order. The split must be the one
    built from this manifest.
    """
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"ratio must lie in (0, 1], got {ratio}")
    assignment.check_manifest(manifest)
    members: list[list[int]] = [[] for _ in assignment.cell_keys]
    for position, cell in enumerate(assignment.cells):
        members[cell].append(position)

    house = int(ratio * len(manifest) + 0.5)
    # cells are numbered in sorted key order, so a tie in remainder goes to
    # the smaller key
    quotas = [ratio * len(positions) for positions in members]
    targets = [int(quota) for quota in quotas]
    leftover = house - sum(targets)
    by_remainder = sorted(
        range(len(members)), key=lambda cell: (-(quotas[cell] - targets[cell]), cell)
    )
    for cell in by_remainder[:leftover]:
        targets[cell] += 1

    rng = random.Random(seed)
    keep = [False] * len(manifest)
    for positions, target in zip(members, targets):
        rng.shuffle(positions)
        for position in positions[:target]:
            keep[position] = True
    return manifest.select(keep)
