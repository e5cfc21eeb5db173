"""Robustness evaluation: head/tail accuracy tables, answer matching,
deterministic stratified subsampling, and inter-annotator agreement.

Accuracy is reported per (task, question_type, head/tail) cell with
sample-weighted (micro) rollups per task and pooled over everything, the
layout used for head/tail robustness tables. Agreement statistics consume
a histogram of positive-vote counts from a fixed panel of raters and
report observed agreement, chance agreement, the chance-corrected kappa,
and the strict-majority pass rate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Mapping

from .records import DatasetManifest, group_records, validate_pair
from .split import SplitAssignment

_TERMINAL_PUNCT = ".,!?;:"


def normalize_answer(text: str) -> str:
    """Lowercase, collapse whitespace, trim, strip terminal punctuation.

    Trailing punctuation and spaces are stripped together, so the result
    is a fixed point: normalizing it again changes nothing.
    """
    return " ".join(text.lower().split()).rstrip(_TERMINAL_PUNCT + " ")


def match_answer(prediction: str, gold: str) -> bool:
    """Exact match after normalization.

    No numeral/word equivalence: "two" and "2" do not match; the answer
    vocabulary is a closed label set.
    """
    return normalize_answer(prediction) == normalize_answer(gold)


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
    pairing = validate_pair(manifest, preds)
    if not pairing.valid:
        raise ValueError(
            "gold/prediction mismatch: missing predictions for "
            f"{pairing.missing_predictions!r}, orphan predictions {pairing.orphan_predictions!r}"
        )
    unassigned = [rec.id for rec in manifest.records if rec.id not in assignment.labels]
    if unassigned:
        raise ValueError(f"records missing from split assignment: {unassigned!r}")
    gold_ids = {rec.id for rec in manifest.records}
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
    return DatasetManifest(records, group_records(records))


@dataclass
class AgreementStats:
    """Vote-consistency statistics for a fixed panel of raters."""

    histogram: dict[int, int]
    raters: int
    observed_agreement: float
    chance_agreement: float
    fleiss_kappa: float | None
    pass_rate: float

    def to_dict(self) -> dict:
        return {
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
            "raters": self.raters,
            "observed_agreement": self.observed_agreement,
            "chance_agreement": self.chance_agreement,
            "fleiss_kappa": self.fleiss_kappa,
            "pass_rate": self.pass_rate,
        }


def agreement_stats(histogram: Mapping[int, int], raters: int) -> AgreementStats:
    """Observed agreement, chance agreement, kappa, and majority pass rate.

    `histogram` maps the number of positive votes (0..raters) to the item
    count. Per-item agreement is sum_j n_ij (n_ij - 1) / (R (R - 1));
    observed agreement is its mean over items, chance agreement is
    sum_j p_j^2 over the marginal category proportions, and kappa is
    (observed - chance) / (1 - chance). An item passes when strictly more
    than half of the raters vote positive. Kappa is None (undefined) when
    chance agreement is exactly 1.
    """
    if raters < 2:
        raise ValueError("at least two raters are required")
    cleaned: dict[int, int] = {}
    for votes, items in histogram.items():
        votes = int(votes)
        if not 0 <= votes <= raters:
            raise ValueError(f"positive-vote count {votes} outside 0..{raters}")
        if items < 0:
            raise ValueError("item counts must be non-negative")
        cleaned[votes] = cleaned.get(votes, 0) + int(items)
    n_items = sum(cleaned.values())
    if n_items == 0:
        raise ValueError("histogram holds no items")

    pair_norm = raters * (raters - 1)
    per_item_weighted = 0.0
    positive_votes = 0
    passing = 0
    for votes, items in cleaned.items():
        negative = raters - votes
        agreement_i = (votes * (votes - 1) + negative * (negative - 1)) / pair_norm
        per_item_weighted += items * agreement_i
        positive_votes += items * votes
        if votes * 2 > raters:
            passing += items
    observed = per_item_weighted / n_items

    total_votes = n_items * raters
    p_positive = positive_votes / total_votes
    p_negative = 1.0 - p_positive
    chance = p_positive**2 + p_negative**2
    kappa = None if chance == 1.0 else (observed - chance) / (1.0 - chance)
    return AgreementStats(
        histogram=cleaned,
        raters=raters,
        observed_agreement=observed,
        chance_agreement=chance,
        fleiss_kappa=kappa,
        pass_rate=passing / n_items,
    )
