"""Head/tail partitioning of answer classes per question group.

Two rules are provided:

* coverage-constrained ("conformal") rule: choose the smallest head set,
  formed by the h most frequent answer classes, such that the head covers
  at least a 1 - h/N fraction of the group's samples (h out of N classes,
  k = h/N). Small k means a compact head with a strong coverage demand;
  the minimal feasible h balances compactness against coverage.
* legacy fixed-multiplier rule: a class is tail iff its count is at most
  LEGACY_MULTIPLIER (6/5) times the mean class count. On near-uniform
  groups every count sits below the threshold and the head degenerates to
  empty, which is the pathology the coverage-constrained rule removes.

Both rules take a group's answer counts as a plain mapping from answer to
count, and flag the group as balanced when its normalized entropy is at
least BALANCED_ENTROPY (0.9). Normalized entropy is the ratio of the
Shannon entropy to that of a uniform distribution over the same number of
answer classes. It lies in [0, 1] up to rounding, which can put a uniform
distribution a few ulp above 1 (1.0000000000000004 for two classes of 11
each), and does not depend on the logarithm base. Ties between equal
counts are broken by ascending answer label so that identical inputs
always yield identical splits.

A split is a function of its dataset and mode: SplitAssignment(manifest,
mode) hands each group's answer counts, kept by the manifest, to the mode's
rule, and derives each cell's size from them, and each record's cell
through a table from each distinct (task, question_type, answer) to its
cell, so that scoring and sampling read one column; a stage handed a
split of another dataset raises. A split builds its map from each id to
"head" or "tail", `labels`, only when it is first read; no stage reads it.
distribution_report splits the counts by the head set. write_split writes
a split as indented JSON, streaming its assignments from the id and cell
columns. Nothing reads a split file back: rebuilding the split from its
dataset and mode gives the same text.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from json.encoder import encode_basestring
from pathlib import Path
from typing import Mapping

from .records import DatasetManifest, GroupKey

MODES = ("conformal", "legacy")
LEGACY_MULTIPLIER = Fraction(6, 5)
BALANCED_ENTROPY = 0.9
# a record's part of its group, indexed by whether its answer is tail
_PARTS = ("head", "tail")

# the split file's JSON format
_ENCODER = json.JSONEncoder(indent=2, ensure_ascii=False)


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


@dataclass(frozen=True)
class SplitAssignment:
    """The split of the manifest it keeps under `mode`, one of MODES, and
    what it makes of the records, derived from the manifest's answer counts:

    * `solutions`: the mode's rule applied to every group, in sorted group-key
      order;
    * `cell_keys`: the (task, question_type, head|tail) cells of every
      group, sorted; group i of the sorted group keys has cells 2i (head)
      and 2i + 1 (tail), either of which may be empty;
    * `cell_sizes`: the number of records in each cell;
    * `cells`: each record's index into `cell_keys`, in file order;
    * `labels`: each record id in file order, "head" iff the record's answer
      is in its group's head set; built on its first read.

    Two splits are equal when their manifests and modes are. An unknown
    mode is an error. A split is frozen, so it stays bound to the dataset it
    was built from."""

    manifest: DatasetManifest = field(repr=False)
    mode: str
    solutions: list[SplitSolution] = field(init=False)
    cell_keys: tuple[tuple[str, str, str], ...] = field(init=False)
    cell_sizes: tuple[int, ...] = field(init=False)
    cells: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown split mode {self.mode!r}; expected one of {MODES}")
        rule = conformal_split if self.mode == "conformal" else legacy_split
        groups = self.manifest.groups
        keys = sorted(groups)
        solutions = [rule(key, groups[key]) for key in keys]
        cell_keys = tuple((*key, part) for key in keys for part in _PARTS)
        # each distinct (task, question_type, answer) to its cell, once
        cell_of: dict[tuple[str, str, str], int] = {}
        sizes = [0] * len(cell_keys)
        for i, (key, sol) in enumerate(zip(keys, solutions)):
            for answer, count in groups[key].items():
                cell = 2 * i + (answer not in sol.head_answers)
                cell_of[(*key, answer)] = cell
                sizes[cell] += count
        m = self.manifest
        cells = tuple(map(cell_of.__getitem__, zip(m.tasks, m.question_types, m.answers)))
        # the class is frozen, so its derived fields are set past __setattr__
        object.__setattr__(self, "solutions", solutions)
        object.__setattr__(self, "cell_keys", cell_keys)
        object.__setattr__(self, "cell_sizes", tuple(sizes))
        object.__setattr__(self, "cells", cells)

    @cached_property
    def labels(self) -> dict[str, str]:
        parts = _PARTS * len(self.solutions)
        return dict(zip(self.manifest.ids, map(parts.__getitem__, self.cells)))

    def check_manifest(self, manifest: DatasetManifest) -> None:
        """Raise unless `manifest` is the dataset this split was built from:
        the same object, or else an equal one."""
        if manifest is not self.manifest and manifest != self.manifest:
            raise ValueError("split assignment was built from another dataset")


def _nonzero(counts: Mapping[str, int]) -> dict[str, int]:
    """The classes of nonzero count, once every count is checked."""
    for label, count in counts.items():
        if not isinstance(count, int) or count < 0:
            raise ValueError(f"count for {label!r} must be a non-negative integer, got {count!r}")
    return {a: c for a, c in counts.items() if c > 0}


def entropy(counts: Mapping[str, int]) -> float:
    """Shannon entropy of the answer distribution, in bits.

    Computed as log2(T) - sum(c * log2(c)) / T over nonzero counts, which
    is algebraically -sum(p * log2(p)) but exact for uniform unit counts.
    Zero-count classes contribute nothing. Raises ValueError on an empty
    distribution.
    """
    nonzero = _nonzero(counts)
    t = sum(nonzero.values())
    if t == 0:
        raise ValueError("entropy of an empty distribution is undefined")
    if len(nonzero) == 1:
        return 0.0
    weighted = math.fsum(c * math.log2(c) for c in nonzero.values())
    return math.log2(t) - weighted / t


def normalized_entropy(counts: Mapping[str, int]) -> float:
    """Entropy divided by log2 of the class count, in [0, 1] up to a few ulp.

    Rounding can put a uniform distribution just above 1, and the value
    is returned as computed, not clamped.

    A single-class distribution is maximally concentrated, so the
    degenerate N=1 case (where log2 N = 0) is defined as 0.
    """
    n = len(_nonzero(counts))
    if n == 0:
        raise ValueError("normalized entropy of an empty distribution is undefined")
    if n == 1:
        return 0.0
    return entropy(counts) / math.log2(n)


def _ranked_nonempty(key: GroupKey, counts: Mapping[str, int]) -> list[str]:
    """Labels of nonzero count, by count descending, ties by ascending label."""
    nonzero = _nonzero(counts)
    if not nonzero:
        raise ValueError(f"group {key} is empty")
    return sorted(nonzero, key=lambda a: (-nonzero[a], a))


def _solution(
    key: GroupKey, mode: str, counts: Mapping[str, int], ranked: list[str], head_size: int
) -> SplitSolution:
    """The split whose head is the first head_size ranked labels."""
    head = tuple(ranked[:head_size])
    h_norm = normalized_entropy(counts)
    return SplitSolution(
        key=key,
        mode=mode,
        k=head_size / len(ranked),
        head_size=head_size,
        head_answers=head,
        tail_answers=tuple(ranked[head_size:]),
        coverage=sum(counts[a] for a in head) / sum(counts.values()),
        normalized_entropy=h_norm,
        balanced=h_norm >= BALANCED_ENTROPY,
    )


def conformal_split(key: GroupKey, counts: Mapping[str, int]) -> SplitSolution:
    """Minimal head set meeting the coverage constraint.

    Scans h = 1..N over the ranked labels and returns the first h whose
    cumulative count covers at least 1 - h/N of the group. The feasibility
    test uses exact integer arithmetic (cum * N >= total * (N - h)) so
    boundary cases such as 4/6 vs 1 - 1/3 resolve exactly. h = N always
    satisfies the constraint, so a solution exists for any non-empty group.
    """
    ranked = _ranked_nonempty(key, counts)
    total = sum(counts.values())
    n = len(ranked)
    cum = 0
    head_size = n
    for h, label in enumerate(ranked, start=1):
        cum += counts[label]
        if cum * n >= total * (n - h):
            head_size = h
            break
    return _solution(key, "conformal", counts, ranked, head_size)


def legacy_split(key: GroupKey, counts: Mapping[str, int]) -> SplitSolution:
    """Fixed-multiplier rule: tail iff count <= LEGACY_MULTIPLIER × mean count.

    The threshold is exact, so a count at exactly 6/5 of the mean, such as
    14 in (14, 11, 10), is tail. Coverage is reported but not constrained;
    on equal-count groups the head comes out empty. Ranked labels are
    count-descending, so the head is a prefix of them.
    """
    ranked = _ranked_nonempty(key, counts)
    threshold = LEGACY_MULTIPLIER * Fraction(sum(counts.values()), len(ranked))
    head_size = sum(1 for a in ranked if counts[a] > threshold)
    return _solution(key, "legacy", counts, ranked, head_size)


def build_assignment(manifest: DatasetManifest, config: SplitConfig) -> SplitAssignment:
    """SplitAssignment(manifest, config.mode): every group split with the
    configured mode, and each record labelled.

    Balanced groups (normalized entropy at or above BALANCED_ENTROPY) are
    split like any other but carry balanced=True in their solution. An
    unknown mode is an error.
    """
    return SplitAssignment(manifest, config.mode)


def total_variation(p: Mapping[str, float], q: Mapping[str, float]) -> float:
    """Total-variation distance between two answer-frequency vectors.

    Summed with math.fsum, which is correctly rounded and so independent of
    the (hash-randomized) iteration order of the support set.
    """
    support = set(p) | set(q)
    return 0.5 * math.fsum(abs(p.get(a, 0.0) - q.get(a, 0.0)) for a in support)


def _frequencies(counts: Counter) -> dict[str, float]:
    total = counts.total()
    return {a: c / total for a, c in counts.items()}


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
    rather than fatal, with null TVs; an empty head or tail yields a null
    TV. A split of another dataset is an error.
    """
    assignment.check_manifest(manifest)
    groups = []
    for sol in assignment.solutions:
        key = sol.key
        in_reference = key in reference.groups
        ref = reference.groups.get(key, Counter())
        counts = {"reference": ref, "head": Counter(), "tail": Counter()}
        for answer, count in manifest.groups[key].items():
            counts[_PARTS[answer not in sol.head_answers]][answer] = count
        freqs = {name: dict(sorted(_frequencies(c).items())) for name, c in counts.items()}
        group = {
            "task": key.task,
            "question_type": key.question_type,
            "missing_in_reference": not in_reference,
        }
        group.update((f"{name}_total", c.total()) for name, c in counts.items())
        group.update((f"{name}_freq", freq) for name, freq in freqs.items())
        for part in _PARTS:
            paired = in_reference and freqs[part]
            group[f"tv_reference_{part}"] = (
                total_variation(freqs["reference"], freqs[part]) if paired else None
            )
        groups.append(group)
    return {"groups": groups}


def write_split(assignment: SplitAssignment, path: str | Path) -> None:
    """Write the split as indented JSON: the text of json.dumps(doc, indent=2,
    ensure_ascii=False) for doc = {"groups": [...], "assignments": labels},
    and a newline. The assignments are streamed from the id and cell columns,
    a line per record, without the labels."""
    ids, cells = assignment.manifest.ids, assignment.cells
    head = _ENCODER.encode({"groups": [sol.to_dict() for sol in assignment.solutions]})
    # every record's line but the last ends with a comma and the next line's indent
    ends = [f': "{part}",\n    ' for part in _PARTS] * len(assignment.solutions)
    lines = map(str.__add__, map(encode_basestring, ids[:-1]), map(ends.__getitem__, cells))
    with open(path, "w", encoding="utf-8", errors="backslashreplace") as out:
        out.write(head.removesuffix("\n}") + ',\n  "assignments": {')
        if ids:
            out.write("\n    ")
            out.writelines(lines)
            out.write(f'{encode_basestring(ids[-1])}: "{_PARTS[cells[-1] % 2]}"\n  ')
        out.write("}\n}\n")
