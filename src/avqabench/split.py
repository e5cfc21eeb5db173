"""Head/tail partitioning of answer classes per question group.

Two rules are provided:

* coverage-constrained ("conformal") rule: choose the smallest head set,
  formed by the h most frequent answer classes, such that the head covers
  at least a 1 - h/N fraction of the group's samples (h out of N classes,
  k = h/N). Small k means a compact head with a strong coverage demand;
  the minimal feasible h balances compactness against coverage.
* legacy fixed-multiplier rule: a class is tail iff its count is at most
  LEGACY_MULTIPLIER (1.2) times the mean class count. On near-uniform
  groups every count sits below the threshold and the head degenerates to
  empty, which is the pathology the coverage-constrained rule removes.

Both rules flag a group as balanced when its normalized entropy is at
least balance.BALANCED_ENTROPY (0.9). Ties between equal counts are broken
by ascending answer label so that identical inputs always yield identical
splits.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from .balance import BALANCED_ENTROPY, AnswerDistribution, normalized_entropy
from .records import DatasetManifest, GroupKey

MODES = ("conformal", "legacy")
LEGACY_MULTIPLIER = 1.2


@dataclass
class SplitSolution:
    key: GroupKey
    mode: str
    k: float
    head_size: int
    head_answers: tuple[str, ...]
    tail_answers: tuple[str, ...]
    coverage: float
    normalized_entropy: float
    balanced: bool

    def to_dict(self) -> dict:
        return {
            "task": self.key.task,
            "question_type": self.key.question_type,
            "mode": self.mode,
            "k": self.k,
            "head_size": self.head_size,
            "coverage": self.coverage,
            "normalized_entropy": self.normalized_entropy,
            "balanced": self.balanced,
            "head_answers": list(self.head_answers),
            "tail_answers": list(self.tail_answers),
        }


@dataclass
class SplitConfig:
    mode: str = "conformal"


@dataclass
class SplitAssignment:
    """Record-level head/tail labels plus the per-group solutions."""

    labels: dict[str, str] = field(default_factory=dict)
    solutions: list[SplitSolution] = field(default_factory=list)

    def to_dict(self) -> dict:
        """The split file's document; its 'assignments' is self.labels, not a copy."""
        return {
            "groups": [sol.to_dict() for sol in self.solutions],
            "assignments": self.labels,
        }


def _ranked_nonempty(key: GroupKey, dist: AnswerDistribution) -> list[str]:
    """Labels of nonzero count, by count descending, ties by ascending label."""
    if dist.total == 0:
        raise ValueError(f"group {key} is empty")
    counts = dist.counts
    return sorted((a for a, c in counts.items() if c > 0), key=lambda a: (-counts[a], a))


def _solution(
    key: GroupKey, mode: str, dist: AnswerDistribution, ranked: list[str], head_size: int
) -> SplitSolution:
    """The split whose head is the first head_size ranked labels."""
    head = tuple(ranked[:head_size])
    h_norm = normalized_entropy(dist)
    return SplitSolution(
        key=key,
        mode=mode,
        k=head_size / len(ranked),
        head_size=head_size,
        head_answers=head,
        tail_answers=tuple(ranked[head_size:]),
        coverage=sum(dist.counts[a] for a in head) / dist.total,
        normalized_entropy=h_norm,
        balanced=h_norm >= BALANCED_ENTROPY,
    )


def conformal_split(key: GroupKey, dist: AnswerDistribution) -> SplitSolution:
    """Minimal head set meeting the coverage constraint.

    Scans h = 1..N over the ranked labels and returns the first h whose
    cumulative count covers at least 1 - h/N of the group. The feasibility
    test uses exact integer arithmetic (cum * N >= total * (N - h)) so
    boundary cases such as 4/6 vs 1 - 1/3 resolve exactly. h = N always
    satisfies the constraint, so a solution exists for any non-empty group.
    """
    ranked = _ranked_nonempty(key, dist)
    total = dist.total
    n = len(ranked)
    cum = 0
    head_size = n
    for h, label in enumerate(ranked, start=1):
        cum += dist.counts[label]
        if cum * n >= total * (n - h):
            head_size = h
            break
    return _solution(key, "conformal", dist, ranked, head_size)


def legacy_split(key: GroupKey, dist: AnswerDistribution) -> SplitSolution:
    """Fixed-multiplier rule: tail iff count <= LEGACY_MULTIPLIER × mean count.

    Coverage is reported but not constrained; on equal-count groups the
    head comes out empty. Ranked labels are count-descending, so the head
    is a prefix of them.
    """
    ranked = _ranked_nonempty(key, dist)
    threshold = LEGACY_MULTIPLIER * (dist.total / len(ranked))
    head_size = sum(1 for a in ranked if dist.counts[a] > threshold)
    return _solution(key, "legacy", dist, ranked, head_size)


def build_assignment(manifest: DatasetManifest, config: SplitConfig) -> SplitAssignment:
    """Split every group with the configured mode and label each record.

    Groups are split in sorted group-key order. Balanced groups
    (normalized entropy at or above BALANCED_ENTROPY) are split like any
    other but carry balanced=True in their solution. A record is head iff
    its answer is in its group's head set.
    """
    if config.mode not in MODES:
        raise ValueError(f"unknown split mode {config.mode!r}; expected one of {MODES}")
    rule = conformal_split if config.mode == "conformal" else legacy_split
    solutions = []
    head_sets: dict[GroupKey, set[str]] = {}
    for key in sorted(manifest.groups):
        sol = rule(key, AnswerDistribution.from_labels(r.answer for r in manifest.groups[key]))
        solutions.append(sol)
        head_sets[key] = set(sol.head_answers)
    labels = {
        rec.id: "head" if rec.answer in head_sets[rec.task, rec.question_type] else "tail"
        for rec in manifest.records
    }
    return SplitAssignment(labels=labels, solutions=solutions)


def total_variation(p: Mapping[str, float], q: Mapping[str, float]) -> float:
    """Total-variation distance between two answer-frequency vectors.

    Summed with math.fsum, which is correctly rounded and so independent of
    the (hash-randomized) iteration order of the support set.
    """
    support = set(p) | set(q)
    return 0.5 * math.fsum(abs(p.get(a, 0.0) - q.get(a, 0.0)) for a in support)


def _frequencies(labels: list[str]) -> dict[str, float]:
    return AnswerDistribution.from_labels(labels).probabilities()


def distribution_report(
    manifest: DatasetManifest,
    assignment: SplitAssignment,
    reference: DatasetManifest,
) -> dict:
    """Compare per-group head/tail answer frequencies against a reference.

    For each split group, reports the answer-frequency vectors of the
    reference (e.g. a training split), the head records, and the tail
    records, plus total-variation distances TV(reference, head) and
    TV(reference, tail). Groups missing from the reference are flagged
    rather than fatal; an empty tail yields a null TV. A manifest group
    with no split solution, or a record of a split group with no split
    label, is an error.
    """
    solved = {sol.key for sol in assignment.solutions}
    for key in manifest.groups:
        if key not in solved:
            raise ValueError(f"group ({key.task}, {key.question_type}) has no split solution")
    groups = []
    for sol in assignment.solutions:
        key = sol.key
        head_answers: list[str] = []
        tail_answers: list[str] = []
        for rec in manifest.groups.get(key, ()):
            label = assignment.labels.get(rec.id)
            if label is None:
                raise ValueError(f"record {rec.id!r} missing from split assignment")
            (head_answers if label == "head" else tail_answers).append(rec.answer)
        in_reference = key in reference.groups
        ref_answers = [rec.answer for rec in reference.groups.get(key, ())]
        ref_freq = _frequencies(ref_answers)
        head_freq = _frequencies(head_answers)
        tail_freq = _frequencies(tail_answers)
        groups.append(
            {
                "task": key.task,
                "question_type": key.question_type,
                "missing_in_reference": not in_reference,
                "reference_total": len(ref_answers),
                "head_total": len(head_answers),
                "tail_total": len(tail_answers),
                "reference_freq": dict(sorted(ref_freq.items())),
                "head_freq": dict(sorted(head_freq.items())),
                "tail_freq": dict(sorted(tail_freq.items())),
                "tv_reference_head": (
                    total_variation(ref_freq, head_freq)
                    if in_reference and head_freq
                    else None
                ),
                "tv_reference_tail": (
                    total_variation(ref_freq, tail_freq)
                    if in_reference and tail_freq
                    else None
                ),
            }
        )
    return {"groups": groups}


def write_split(assignment: SplitAssignment, path: str | Path) -> None:
    """Write the split as indented JSON, streamed to the file chunk by chunk."""
    with open(path, "w", encoding="utf-8") as out:
        json.dump(assignment.to_dict(), out, indent=2, ensure_ascii=False)
        out.write("\n")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_string_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(item, str) for item in value)


# each key of a split file's group object: (what it must be, its test)
_GROUP_FIELDS = {
    "task": ("a string", lambda v: isinstance(v, str)),
    "question_type": ("a string", lambda v: isinstance(v, str)),
    "mode": ("a string", lambda v: isinstance(v, str)),
    "k": ("a number", _is_number),
    "head_size": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "coverage": ("a number", _is_number),
    "normalized_entropy": ("a number", _is_number),
    "balanced": ("a boolean", lambda v: isinstance(v, bool)),
    "head_answers": ("a list of strings", _is_string_list),
    "tail_answers": ("a list of strings", _is_string_list),
}


def _check_group_values(i: int, g: dict) -> None:
    """Reject group i of a split file if write_split cannot have written it.

    The group's types are already checked. Its numbers must be finite and
    non-negative, its coverage at most 1, its head_size the length of
    head_answers and its k head_size over the number of answers, and no
    answer may appear twice in its two lists. normalized_entropy has no
    upper bound: rounding can put it a few ulp above 1.
    """

    def reject(key: str, reason: str):
        raise ValueError(f"split file: groups[{i}] key {key!r} {reason}")

    for key in ("k", "head_size", "coverage", "normalized_entropy"):
        value = g[key]
        if not (isinstance(value, int) or math.isfinite(value)) or value < 0:
            reject(key, "must be finite and non-negative")
    if g["coverage"] > 1:
        reject("coverage", "must be at most 1")
    head, tail = g["head_answers"], g["tail_answers"]
    if g["head_size"] != len(head):
        reject("head_size", "must be the length of 'head_answers'")
    if not (head or tail) or g["k"] != g["head_size"] / (len(head) + len(tail)):
        reject("k", "must be head_size over the number of answers")
    seen: set[str] = set()
    for key in ("head_answers", "tail_answers"):
        for answer in g[key]:
            if answer in seen:
                reject(key, f"repeats the answer {answer!r}")
            seen.add(answer)


def load_split(path: str | Path) -> SplitAssignment:
    """Read a split file written by write_split.

    A file that is not a JSON object holding a 'groups' array of complete
    group objects and an 'assignments' object of 'head'/'tail' labels, or
    whose group holds a value of the wrong JSON type or one write_split
    cannot have written (see _check_group_values), is rejected with a
    ValueError naming the key.
    """
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ValueError("split file must be a JSON object")
    for key, kind, name in (("groups", list, "array"), ("assignments", dict, "object")):
        if key not in doc:
            raise ValueError(f"split file: missing key {key!r}")
        if not isinstance(doc[key], kind):
            raise ValueError(f"split file: key {key!r} must be a JSON {name}")
    solutions = []
    for i, g in enumerate(doc["groups"]):
        if not isinstance(g, dict):
            raise ValueError(f"split file: groups[{i}] must be a JSON object")
        for key, (kind, valid) in _GROUP_FIELDS.items():
            if key not in g:
                raise ValueError(f"split file: groups[{i}] is missing key {key!r}")
            if not valid(g[key]):
                raise ValueError(f"split file: groups[{i}] key {key!r} must be {kind}")
        _check_group_values(i, g)
        sol = SplitSolution(
            key=GroupKey(g["task"], g["question_type"]),
            mode=g["mode"],
            k=g["k"],
            head_size=g["head_size"],
            head_answers=tuple(g["head_answers"]),
            tail_answers=tuple(g["tail_answers"]),
            coverage=g["coverage"],
            normalized_entropy=g["normalized_entropy"],
            balanced=g["balanced"],
        )
        if sol.mode not in MODES:
            raise ValueError(
                f"group ({sol.key.task}, {sol.key.question_type}): unknown split mode "
                f"{sol.mode!r}; expected one of {MODES}"
            )
        solutions.append(sol)
    labels = doc["assignments"]
    for rid, label in labels.items():
        if label not in ("head", "tail"):
            raise ValueError(f"assignment for {rid!r} must be 'head' or 'tail'")
    return SplitAssignment(labels=labels, solutions=solutions)
