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


# the roll-ups of a task, or of every task pooled: each name and the part it sums
_ROLLUPS = (("head", "head"), ("tail", "tail"), ("overall", None))


@dataclass
class EvalReport:
    """Per-cell accuracies keyed (task, question_type, head|tail), with
    sample-weighted rollups. Cells with no samples are absent.

    `to_dict` gives {"cells": [...], "tasks": {...}, "pooled": {...}}.
    "cells" holds a dict per cell, in key order: its task, question_type,
    split (head|tail), count, correct and accuracy. "tasks" maps each task,
    sorted, to its "head", "tail" and "overall" roll-ups, and "pooled"
    gives the same three over all tasks. A roll-up is a dict of count,
    correct and accuracy, or None when it holds no records."""

    cells: dict[tuple[str, str, str], CellStats]

    def rollup(self, task: str | None = None, part: str | None = None) -> CellStats | None:
        """The summed cells of one task (None: all) and one part (None: both),
        or None when they hold no records."""
        picked = [
            stats
            for (t, _, p), stats in self.cells.items()
            if task in (None, t) and part in (None, p)
        ]
        count = sum(stats.count for stats in picked)
        return CellStats(count, sum(stats.correct for stats in picked)) if count else None

    def tasks(self) -> list[str]:
        return sorted({t for (t, _, _) in self.cells})

    def question_types(self) -> list[str]:
        return sorted({q for (_, q, _) in self.cells})

    def to_dict(self) -> dict:
        def rollups(task: str | None) -> dict[str, dict | None]:
            parts = ((name, self.rollup(task, part)) for name, part in _ROLLUPS)
            return {name: None if stats is None else stats.to_dict() for name, stats in parts}

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
            "tasks": {task: rollups(task) for task in self.tasks()},
            "pooled": rollups(None),
        }

    def render_table(self) -> str:
        """Plain-text grid: rows are question types, H/T columns per task."""

        def fmt(stats: CellStats | None) -> str:
            return f"{stats.accuracy:.6g}" if stats is not None else "-"

        columns = [(task, part) for task in self.tasks() for part in ("head", "tail")]
        rows = [["question_type", *(f"{task} {part[0].upper()}" for task, part in columns)]]
        for qtype in self.question_types():
            rows.append([qtype, *(fmt(self.cells.get((t, qtype, p))) for t, p in columns)])
        rows.append(["all", *(fmt(self.rollup(task, part)) for task, part in columns)])

        widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
        lines = [
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
            for row in rows
        ]
        pooled = (f"{name} {fmt(self.rollup(part=part))}" for name, part in _ROLLUPS)
        lines.append("pooled: " + " ".join(pooled))
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
