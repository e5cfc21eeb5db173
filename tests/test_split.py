"""Head/tail split rules (coverage-constrained and legacy multiplier), the split of a
dataset, and split files."""

import copy
import json
import math
import os
import subprocess
import sys
from collections import Counter
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from avqabench.evaluate import accuracy_report, uniform_sample
from avqabench.records import DatasetManifest, GroupKey, QARecord
from avqabench.split import (
    BALANCED_ENTROPY,
    MODES,
    SplitAssignment,
    SplitConfig,
    SplitSolution,
    build_assignment,
    conformal_split,
    distribution_report,
    legacy_split,
    total_variation,
    write_split,
)

KEY = GroupKey("avqa", "Counting")
SRC = Path(__file__).resolve().parents[1] / "src"


def minimal_feasible_head_size(counts):
    """Exhaustive-scan oracle: smallest h with coverage >= 1 - h/N.

    Uses exact rational arithmetic, independent of the production search.
    """
    ranked = sorted((a for a in counts if counts[a] > 0), key=lambda a: (-counts[a], a))
    n = len(ranked)
    total = sum(counts.values())
    feasible = [
        h
        for h in range(1, n + 1)
        if Fraction(sum(counts[a] for a in ranked[:h]), total) >= 1 - Fraction(h, n)
    ]
    return min(feasible)


count_maps = st.dictionaries(
    keys=st.integers(min_value=0, max_value=60).map(lambda i: f"ans{i:02d}"),
    values=st.integers(min_value=1, max_value=10_000),
    min_size=1,
    max_size=50,
)


@st.composite
def at_threshold_count_maps(draw):
    """Counts where "at" is exactly 6/5 of the mean: 6q, with the other
    n - 1 counts summing to q(5n - 6), so 5 * 6q * n == 6 * total."""
    n = draw(st.integers(min_value=2, max_value=12))
    q = draw(st.integers(min_value=1, max_value=50))
    rest = q * (5 * n - 6)
    cuts = draw(st.lists(st.integers(1, rest - 1), min_size=n - 2, max_size=n - 2, unique=True))
    cuts.sort()
    others = [b - a for a, b in zip([0, *cuts], [*cuts, rest])]
    return {"at": 6 * q, **{f"o{i}": c for i, c in enumerate(others)}}


class TestConformal:
    def test_dominant_class(self):
        sol = conformal_split(KEY, {"x": 90, "y": 5, "z": 5})
        assert sol.head_size == 1
        assert sol.k == pytest.approx(1 / 3)
        assert sol.head_answers == ("x",)
        assert sol.coverage == pytest.approx(0.90)

    def test_equal_counts_get_nonempty_head(self):
        sol = conformal_split(KEY, {"x": 10, "y": 10, "z": 10})
        # h=1 covers 1/3 < 2/3; h=2 covers 2/3 >= 1/3; ties break by label
        assert sol.head_size == 2
        assert sol.head_answers == ("x", "y")
        assert sol.tail_answers == ("z",)

    def test_single_class(self):
        sol = conformal_split(KEY, {"x": 100})
        assert sol.head_size == 1
        assert sol.k == 1.0
        assert sol.head_answers == ("x",)
        assert sol.tail_answers == ()

    def test_boundary_equality_is_exact(self):
        # 4/6 == 1 - 1/3 exactly; a float comparison would reject h=1
        sol = conformal_split(KEY, {"x": 4, "y": 1, "z": 1})
        assert sol.head_size == 1
        assert sol.head_answers == ("x",)

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            conformal_split(KEY, {})

    @settings(max_examples=200)
    @given(counts=count_maps)
    def test_matches_exhaustive_oracle(self, counts):
        sol = conformal_split(KEY, counts)
        n = len(counts)
        total = sum(counts.values())
        assert sol.head_size == minimal_feasible_head_size(counts)
        # feasibility, partition, and prefix-closedness in ranked order
        head_count = sum(counts[a] for a in sol.head_answers)
        assert Fraction(head_count, total) >= 1 - Fraction(sol.head_size, n)
        assert set(sol.head_answers) | set(sol.tail_answers) == set(counts)
        assert not set(sol.head_answers) & set(sol.tail_answers)
        if sol.tail_answers:
            min_head = min(counts[a] for a in sol.head_answers)
            max_tail = max(counts[a] for a in sol.tail_answers)
            assert min_head >= max_tail


class TestLegacy:
    def test_equal_counts_all_tail(self):
        sol = legacy_split(KEY, {"x": 10, "y": 10, "z": 10})
        assert sol.head_answers == ()
        assert sol.tail_answers == ("x", "y", "z")

    def test_dominant_class(self):
        # mean 33.33, threshold 40: only x exceeds it
        sol = legacy_split(KEY, {"x": 90, "y": 5, "z": 5})
        assert sol.head_answers == ("x",)
        assert sol.tail_answers == ("y", "z")

    def test_single_class_degenerates_to_tail(self):
        sol = legacy_split(KEY, {"x": 100})
        assert sol.head_answers == ()
        assert sol.tail_answers == ("x",)

    def test_count_at_exactly_six_fifths_of_the_mean_is_tail(self):
        # threshold 6/5 * 35/3 = 14 exactly; in floats 1.2 * (35 / 3) < 14
        sol = legacy_split(KEY, {"a": 14, "b": 11, "c": 10})
        assert sol.head_answers == ()
        assert sol.tail_answers == ("a", "b", "c")

    @settings(max_examples=200)
    @given(counts=count_maps | at_threshold_count_maps())
    def test_matches_exact_oracle(self, counts):
        n, total = len(counts), sum(counts.values())
        sol = legacy_split(KEY, counts)
        assert set(sol.head_answers) == {a for a, c in counts.items() if 5 * c * n > 6 * total}

    @given(
        count=st.integers(min_value=1, max_value=10_000),
        n=st.integers(min_value=1, max_value=30),
    )
    def test_pathology_witness_on_any_equal_count_group(self, count, n):
        counts = {f"a{i}": count for i in range(n)}
        legacy = legacy_split(KEY, counts)
        conformal = conformal_split(KEY, counts)
        assert legacy.head_size == 0
        assert conformal.head_size >= 1


@pytest.mark.parametrize("rule", [conformal_split, legacy_split], ids=lambda rule: rule.__name__)
@pytest.mark.parametrize(
    "counts, message",
    [
        ({}, f"group {KEY} is empty"),
        ({"x": 0}, f"group {KEY} is empty"),
        ({"x": -1, "y": 3}, "count for 'x' must be a non-negative integer, got -1"),
        ({"x": 2.0}, "count for 'x' must be a non-negative integer, got 2.0"),
    ],
    ids=["no class", "one class of 0", "a negative count", "a float count"],
)
def test_a_group_without_valid_counts_is_rejected(rule, counts, message):
    with pytest.raises(ValueError) as info:
        rule(KEY, counts)
    assert str(info.value) == message


def _manifest_from_counts(counts, task="avqa", qtype="Counting"):
    rows = []
    i = 0
    for answer, c in counts.items():
        for _ in range(c):
            rows.append(
                QARecord(id=f"q{i}", task=task, question_type=qtype, question="?", answer=answer)
            )
            i += 1
    return DatasetManifest(rows)


GROUP_KEYS = [("audio", "Counting"), ("visual", "Location"), ("avqa", "Zählen")]
FILE_ANSWERS = ["x", "y", "z", "ünï", "e\u2028f"]


@st.composite
def multi_group_manifests(draw, min_groups=0):
    """Records of up to three groups, ids q0.. in a drawn order."""
    counts = draw(
        st.dictionaries(
            st.sampled_from(GROUP_KEYS),
            st.dictionaries(st.sampled_from(FILE_ANSWERS), st.integers(1, 6), min_size=1),
            min_size=min_groups,
        )
    )
    rows = [(key, a) for key, group in counts.items() for a, c in group.items() for _ in range(c)]
    rows = draw(st.permutations(rows))
    return DatasetManifest(
        [
            QARecord(id=f"q{i}", task=task, question_type=qtype, question="?", answer=answer)
            for i, ((task, qtype), answer) in enumerate(rows)
        ]
    )


class TestAssignment:
    def test_conformal_six_record_group(self):
        manifest = _manifest_from_counts({"x": 4, "y": 1, "z": 1})
        assignment = build_assignment(manifest, SplitConfig(mode="conformal"))
        labels = list(assignment.labels.values())
        assert labels.count("head") == 4
        assert labels.count("tail") == 2

    def test_legacy_matches_on_this_fixture(self):
        # mean 2, threshold 2.4: only x (4) exceeds it
        manifest = _manifest_from_counts({"x": 4, "y": 1, "z": 1})
        conformal = build_assignment(manifest, SplitConfig(mode="conformal"))
        legacy = build_assignment(manifest, SplitConfig(mode="legacy"))
        assert conformal.labels == legacy.labels

    def test_empty_manifest(self):
        assignment = build_assignment(
            DatasetManifest([]), SplitConfig(mode="conformal")
        )
        assert assignment.labels == {}
        assert assignment.solutions == []

    def test_unknown_mode_rejected(self):
        manifest = _manifest_from_counts({"x": 1})
        with pytest.raises(ValueError, match="unknown split mode"):
            build_assignment(manifest, SplitConfig(mode="median"))

    def test_balanced_groups_still_split_but_flagged(self):
        manifest = _manifest_from_counts({"x": 10, "y": 10})
        assignment = build_assignment(manifest, SplitConfig(mode="conformal"))
        sol = assignment.solutions[0]
        assert sol.balanced
        assert sol.head_size >= 1
        skewed = _manifest_from_counts({"x": 9, "y": 1})
        sol = build_assignment(skewed, SplitConfig(mode="conformal")).solutions[0]
        assert not sol.balanced

    @settings(max_examples=60)
    @given(manifest=multi_group_manifests(), mode=st.sampled_from(MODES))
    @example(manifest=_manifest_from_counts({"x": 7, "y": 2, "z": 1}), mode="conformal")
    def test_record_is_head_iff_answer_in_head_set(self, manifest, mode):
        assignment = build_assignment(manifest, SplitConfig(mode=mode))
        assert list(assignment.labels) == [rec.id for rec in manifest.records]
        for rec in manifest.records:
            (sol,) = [sol for sol in assignment.solutions if sol.key == (rec.task, rec.question_type)]
            expected = "head" if rec.answer in sol.head_answers else "tail"
            assert assignment.labels[rec.id] == expected

    @settings(max_examples=60)
    @given(manifest=multi_group_manifests(), mode=st.sampled_from(MODES))
    @example(manifest=_manifest_from_counts({"x": 7, "y": 2, "z": 1}), mode="legacy")
    def test_cell_column_names_each_record_cell_in_file_order(self, manifest, mode):
        assignment = build_assignment(manifest, SplitConfig(mode=mode))
        keys = assignment.cell_keys
        # group i of the sorted group keys has cells 2i (head) and 2i + 1 (tail)
        groups = sorted(manifest.groups)
        assert keys == tuple((*key, part) for key in groups for part in ("head", "tail"))
        assert list(keys) == sorted(set(keys))
        assert len(assignment.cells) == len(manifest.records)
        for rec, cell in zip(manifest.records, assignment.cells):
            assert keys[cell] == (rec.task, rec.question_type, assignment.labels[rec.id])
            assert cell // 2 == groups.index((rec.task, rec.question_type))

    @settings(max_examples=60)
    @given(
        manifest=multi_group_manifests(),
        reference=multi_group_manifests(),
        mode=st.sampled_from(MODES),
    )
    def test_counts_match_a_walk_over_the_records(self, manifest, reference, mode):
        def tally(records, part=lambda rec: None):
            counts = {}
            for rec in records:
                cell = (rec.task, rec.question_type, part(rec))
                counts.setdefault(cell, Counter())[rec.answer] += 1
            return counts

        # groups, and the answers within each, in first-seen order
        groups = tally(manifest.records)
        assert [(key, list(group.items())) for key, group in manifest.groups.items()] == [
            ((task, qtype), list(group.items())) for (task, qtype, _), group in groups.items()
        ]
        assignment = build_assignment(manifest, SplitConfig(mode=mode))
        assert assignment.cell_sizes == tuple(
            Counter(assignment.cells)[cell] for cell in range(len(assignment.cell_keys))
        )
        head_sets = {sol.key: sol.head_answers for sol in assignment.solutions}

        def part(rec):
            return "head" if rec.answer in head_sets[rec.task, rec.question_type] else "tail"

        cells = tally(manifest.records, part)
        ref = {key[:2]: counts for key, counts in tally(reference.records).items()}
        report = distribution_report(manifest, assignment, reference)
        assert [(g["task"], g["question_type"]) for g in report["groups"]] == sorted(manifest.groups)
        for group in report["groups"]:
            key = (group["task"], group["question_type"])
            assert list(group) == [
                "task", "question_type", "missing_in_reference",
                "reference_total", "head_total", "tail_total",
                "reference_freq", "head_freq", "tail_freq",
                "tv_reference_head", "tv_reference_tail",
            ]
            for name, counts in [
                ("head", cells.get((*key, "head"), Counter())),
                ("tail", cells.get((*key, "tail"), Counter())),
                ("reference", ref.get(key, Counter())),
            ]:
                total = sum(counts.values())
                assert group[f"{name}_total"] == total
                assert list(group[f"{name}_freq"].items()) == [
                    (a, c / total) for a, c in sorted(counts.items())
                ]
            assert group["missing_in_reference"] == (key not in ref)
            for part in ("head", "tail"):
                tv = group[f"tv_reference_{part}"]
                if key in ref and group[f"{part}_total"]:
                    assert tv == total_variation(group["reference_freq"], group[f"{part}_freq"])
                else:
                    assert tv is None

    @settings(max_examples=60)
    @given(manifest=multi_group_manifests(), mode=st.sampled_from(MODES))
    # two classes of 11: normalized entropy 1.0000000000000004
    @example(manifest=_manifest_from_counts({"a": 11, "b": 11}), mode="conformal")
    def test_byte_identical_split_files(self, manifest, mode, tmp_path_factory):
        folder = tmp_path_factory.mktemp("split")
        a, b = folder / "a.json", folder / "b.json"
        write_split(build_assignment(manifest, SplitConfig(mode)), a)
        write_split(build_assignment(copy.deepcopy(manifest), SplitConfig(mode)), b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("escaped", [False, True], ids=["plain-ids", "escaped-ids"])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("answers", [{"x": 7, "y": 2, "z": 1}, {"ünï": 3, "コード": 2, "e\u2028f": 1}, {}])
    def test_split_file_is_the_indented_json_text(self, answers, mode, escaped, tmp_path):
        manifest = _manifest_from_counts(answers, qtype="Zählen")
        if escaped:
            # ids JSON must escape, or writes raw though they are not ASCII
            marks = ['"', "\\", "\x01", "\u2028", "ü"]
            manifest = DatasetManifest(
                replace(rec, id=f"{marks[i % 5]}{rec.id}") for i, rec in enumerate(manifest.records)
            )
        assignment = build_assignment(manifest, SplitConfig(mode))
        path = tmp_path / "split.json"
        write_split(assignment, path)
        doc = {
            "groups": [sol.to_dict() for sol in assignment.solutions],
            "assignments": assignment.labels,
        }
        expected = json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
        assert path.read_bytes() == expected.encode("utf-8")
        if escaped and answers:
            for text in ['"\\"q0"', '"\\\\q1"', '"\\u0001q2"', '"\u2028q3"', '"üq4"']:
                assert f"\n    {text}: " in expected

    @pytest.mark.parametrize("mode", MODES)
    def test_a_lone_surrogate_is_written_as_its_json_escape(self, mode, tmp_path):
        # json.loads("\"\\ud800\"") is a lone surrogate, which UTF-8 cannot encode
        manifest = _manifest_from_counts({"x\udfff": 2, "y": 1})
        manifest = DatasetManifest(replace(rec, id=f"{rec.id}\ud800") for rec in manifest.records)
        assignment = SplitAssignment(manifest, mode)
        path = tmp_path / "split.json"
        write_split(assignment, path)
        doc = {
            "groups": [sol.to_dict() for sol in assignment.solutions],
            "assignments": assignment.labels,
        }
        expected = json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
        assert path.read_bytes() == expected.encode("utf-8", "backslashreplace")
        assert b'"q0\\ud800": ' in path.read_bytes()
        assert json.loads(path.read_bytes()) == doc


def _group_counts(manifest):
    """Each group's answer counts, tallied from the records."""
    counts = {}
    for rec in manifest.records:
        counts.setdefault((rec.task, rec.question_type), Counter())[rec.answer] += 1
    return counts


def _head_size(counts, mode):
    """The head size each rule's oracle gives."""
    if mode == "conformal":
        return minimal_feasible_head_size(counts)
    n, total = len(counts), sum(counts.values())
    return sum(1 for c in counts.values() if 5 * c * n > 6 * total)


def _ranked(counts):
    return sorted(counts, key=lambda a: (-counts[a], a))


def _natural_normalized_entropy(counts):
    """-sum(p ln p) / ln N, a formula apart from the production one."""
    total = sum(counts.values())
    if len(counts) == 1:
        return 0.0
    return -sum(c / total * math.log(c / total) for c in counts.values()) / math.log(len(counts))


def _is_float(value):
    return type(value) is float and math.isfinite(value)


# each field of a written group, in file order, and a check of its value
# against the group's answer counts and the mode; the checks reject what a
# hand-edited file could hold instead: a wrong type, a value out of range,
# a repeated or misplaced answer
SPLIT_FILE_FIELDS = {
    "task": lambda value, key, counts, mode, group: value == key[0],
    "question_type": lambda value, key, counts, mode, group: value == key[1],
    "mode": lambda value, key, counts, mode, group: value == mode,
    "k": lambda value, key, counts, mode, group: (
        _is_float(value) and value == _head_size(counts, mode) / len(counts)
    ),
    "head_size": lambda value, key, counts, mode, group: (
        type(value) is int and value == _head_size(counts, mode)
    ),
    "coverage": lambda value, key, counts, mode, group: (
        _is_float(value)
        and 0.0 <= value <= 1.0
        and value
        == sum(counts[a] for a in _ranked(counts)[: _head_size(counts, mode)])
        / sum(counts.values())
    ),
    "normalized_entropy": lambda value, key, counts, mode, group: (
        _is_float(value)
        and 0.0 <= value <= 1.0 + 1e-12
        and value == pytest.approx(_natural_normalized_entropy(counts), rel=1e-12, abs=1e-12)
    ),
    "balanced": lambda value, key, counts, mode, group: (
        type(value) is bool and value == (group["normalized_entropy"] >= BALANCED_ENTROPY)
    ),
    "head_answers": lambda value, key, counts, mode, group: (
        value == _ranked(counts)[: _head_size(counts, mode)]
    ),
    "tail_answers": lambda value, key, counts, mode, group: (
        value == _ranked(counts)[_head_size(counts, mode) :]
    ),
}


class TestSplitFile:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize(
        "answers", [{"x": 7, "y": 2, "z": 1}, {"ünï": 3, "e\u2028f": 1}, {"x": 12}]
    )
    def test_round_trip(self, mode, answers, tmp_path):
        """The written file holds the whole split: its labels in file order
        (q10 sorts before q2) and every group's solution read back unchanged."""
        manifest = _manifest_from_counts(answers)
        assignment = SplitAssignment(manifest, mode)
        write_split(assignment, tmp_path / "split.json")
        doc = json.loads((tmp_path / "split.json").read_text(encoding="utf-8"))
        assert list(doc["assignments"].items()) == list(assignment.labels.items())
        solutions = [
            SplitSolution(
                key=GroupKey(group.pop("task"), group.pop("question_type")),
                head_answers=tuple(group.pop("head_answers")),
                tail_answers=tuple(group.pop("tail_answers")),
                **group,
            )
            for group in doc["groups"]
        ]
        assert solutions == assignment.solutions
        assert {sol.mode for sol in solutions} == {mode}

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name", SPLIT_FILE_FIELDS)
    @settings(max_examples=30)
    @given(manifest=multi_group_manifests())
    @example(manifest=_manifest_from_counts({"x": 7, "y": 2, "z": 1}))
    # two classes of 11: normalized entropy 1.0000000000000004
    @example(manifest=_manifest_from_counts({"a": 11, "b": 11}))
    # 14 is exactly 6/5 of the mean: tail under the legacy rule
    @example(manifest=_manifest_from_counts({"a": 14, "b": 11, "c": 10}))
    def test_each_written_field_is_what_the_dataset_and_mode_give(
        self, name, mode, manifest, tmp_path_factory
    ):
        path = tmp_path_factory.mktemp("split") / "split.json"
        write_split(SplitAssignment(manifest, mode), path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        counts = _group_counts(manifest)
        keys = sorted(counts)
        assert len(doc["groups"]) == len(keys)
        for key, group in zip(keys, doc["groups"]):
            assert list(group) == list(SPLIT_FILE_FIELDS)
            check = SPLIT_FILE_FIELDS[name]
            assert check(group[name], key, counts[key], mode, group), (key, name, group[name])


# 10 records in 2 groups: 6 of (avqa, Counting), then 4 of (visual, Location)
TWO_GROUPS = [
    *_manifest_from_counts({"x": 4, "y": 2}).records,
    *(
        QARecord(id=f"v{i}", task="visual", question_type="Location", question="?", answer="l")
        for i in range(4)
    ),
]

STAGES = [
    pytest.param(
        lambda m, a: accuracy_report(m, a, {rec.id: rec.answer for rec in m.records}),
        id="accuracy_report",
    ),
    pytest.param(lambda m, a: uniform_sample(m, a, 0.5, seed=0), id="uniform_sample"),
    pytest.param(lambda m, a: distribution_report(m, a, m), id="distribution_report"),
]

# the records a split is built from, and the other records a stage is given
OTHER_DATASETS = {
    "a group more": (TWO_GROUPS[:6], TWO_GROUPS),
    "a record less": (TWO_GROUPS, TWO_GROUPS[:-1]),
    "an answer changed": (TWO_GROUPS, TWO_GROUPS[:-1] + [replace(TWO_GROUPS[-1], answer="r")]),
    "reordered": (TWO_GROUPS, TWO_GROUPS[::-1]),
    "a record more": (TWO_GROUPS[:-1], TWO_GROUPS),
    # q0 and q5 trade answers x and y: every group keeps its answer counts
    "two answers swapped": (
        TWO_GROUPS,
        [
            replace(TWO_GROUPS[0], answer="y"),
            *TWO_GROUPS[1:5],
            replace(TWO_GROUPS[5], answer="x"),
            *TWO_GROUPS[6:],
        ],
    ),
}


class TestBinding:
    @pytest.mark.parametrize("mode", MODES)
    def test_a_split_is_built_from_its_dataset_and_mode_alone(self, mode):
        assert [f.name for f in fields(SplitAssignment) if f.init] == ["manifest", "mode"]
        manifest = DatasetManifest(TWO_GROUPS)
        assignment = SplitAssignment(manifest, mode)
        assert assignment == build_assignment(manifest, SplitConfig(mode))
        assert {sol.mode for sol in assignment.solutions} == {mode}

    @pytest.mark.parametrize("name", ["solutions", "labels", "cell_keys", "cell_sizes", "cells"])
    def test_labels_are_derived_and_cannot_be_passed(self, name):
        manifest = DatasetManifest(TWO_GROUPS)
        derived = getattr(build_assignment(manifest, SplitConfig()), name)
        with pytest.raises(TypeError):
            SplitAssignment(manifest, "conformal", **{name: derived})

    @pytest.mark.parametrize(
        "name", ["manifest", "mode", "solutions", "cell_keys", "cell_sizes", "cells"]
    )
    def test_a_split_cannot_be_rebound(self, name):
        split = SplitAssignment(DatasetManifest(TWO_GROUPS), "conformal")
        other = SplitAssignment(DatasetManifest(TWO_GROUPS[:3]), "legacy")
        with pytest.raises(FrozenInstanceError):
            setattr(split, name, getattr(other, name))
        assert split == SplitAssignment(DatasetManifest(TWO_GROUPS), "conformal")

    @pytest.mark.parametrize(
        "mode", ["median", "Conformal", " legacy", "", None, 3, ["conformal"]], ids=repr
    )
    def test_a_mode_outside_modes_is_rejected(self, mode):
        with pytest.raises(ValueError) as info:
            SplitAssignment(DatasetManifest(TWO_GROUPS), mode)
        assert str(info.value) == (
            f"unknown split mode {mode!r}; expected one of ('conformal', 'legacy')"
        )

    @pytest.mark.parametrize("stage", STAGES)
    @pytest.mark.parametrize("built_from, given", OTHER_DATASETS.values(), ids=OTHER_DATASETS)
    def test_a_stage_rejects_a_split_of_another_dataset(self, stage, built_from, given):
        assignment = build_assignment(DatasetManifest(built_from), SplitConfig())
        with pytest.raises(ValueError) as info:
            stage(DatasetManifest(given), assignment)
        assert str(info.value) == "split assignment was built from another dataset"

    def test_splits_of_datasets_that_differ_only_in_their_ids_are_unequal(self):
        renamed = [replace(rec, id=f"r{rec.id}") for rec in TWO_GROUPS]
        split = SplitAssignment(DatasetManifest(TWO_GROUPS), "conformal")
        other = SplitAssignment(DatasetManifest(renamed), "conformal")

        def derived(assignment):
            return assignment.solutions, assignment.cell_keys, assignment.cell_sizes, assignment.cells

        assert derived(split) == derived(other)
        assert split != other
        assert split == SplitAssignment(DatasetManifest(TWO_GROUPS), "conformal")
        # comparing splits does not build their labels
        assert "labels" not in vars(split) and "labels" not in vars(other)

    @pytest.mark.parametrize("stage", STAGES)
    def test_a_stage_accepts_an_equal_dataset(self, stage):
        manifest = DatasetManifest(TWO_GROUPS)
        assignment = build_assignment(manifest, SplitConfig())
        equal = DatasetManifest(copy.deepcopy(TWO_GROUPS))
        assert equal is not manifest and equal == manifest
        assert stage(equal, assignment) == stage(manifest, assignment)


class TestDistributionReport:
    def test_identical_head_has_zero_tv(self):
        manifest = _manifest_from_counts({"x": 8, "y": 2})
        assignment = build_assignment(manifest, SplitConfig(mode="conformal"))
        # reference with the same frequencies as the head split (all x)
        reference = _manifest_from_counts({"x": 5})
        report = distribution_report(manifest, assignment, reference)
        group = report["groups"][0]
        assert group["tv_reference_head"] == 0.0
        assert group["tv_reference_tail"] == 1.0

    def test_disjoint_tail_is_farther_than_head(self):
        # reference is mostly x; head = {x}, tail = {y}
        manifest = _manifest_from_counts({"x": 9, "y": 3})
        assignment = build_assignment(manifest, SplitConfig(mode="conformal"))
        reference = _manifest_from_counts({"x": 9, "y": 1})
        report = distribution_report(manifest, assignment, reference)
        group = report["groups"][0]
        # hand computation: ref = (0.9, 0.1); head = (1, 0); tail = (0, 1)
        assert group["tv_reference_head"] == pytest.approx(0.1)
        assert group["tv_reference_tail"] == pytest.approx(0.9)
        assert group["tv_reference_tail"] > group["tv_reference_head"]

    def test_empty_tail_reports_null_tv(self):
        manifest = _manifest_from_counts({"x": 5})
        assignment = build_assignment(manifest, SplitConfig(mode="conformal"))
        reference = _manifest_from_counts({"x": 5})
        report = distribution_report(manifest, assignment, reference)
        assert report["groups"][0]["tv_reference_tail"] is None

    def test_group_missing_in_reference_is_flagged(self):
        manifest = _manifest_from_counts({"x": 5, "y": 1}, task="audio")
        assignment = build_assignment(manifest, SplitConfig(mode="conformal"))
        reference = _manifest_from_counts({"x": 5}, task="visual")
        report = distribution_report(manifest, assignment, reference)
        group = report["groups"][0]
        assert group["missing_in_reference"]
        assert group["tv_reference_head"] is None

    def test_total_variation_basics(self):
        assert total_variation({"a": 1.0}, {"a": 1.0}) == 0.0
        assert total_variation({"a": 1.0}, {"b": 1.0}) == 1.0
        assert total_variation({"a": 0.5, "b": 0.5}, {"a": 1.0}) == pytest.approx(0.5)

    def test_total_variation_independent_of_hash_seed(self):
        # the support is a set of strings, so its iteration order follows
        # PYTHONHASHSEED; the distance must not
        code = (
            "from avqabench.split import total_variation\n"
            "cp = {f'ans{i:02d}': (i * 7) % 13 + 1 for i in range(30)}\n"
            "cq = {f'ans{i:02d}': (i * 5) % 11 + 1 for i in range(10, 45)}\n"
            "p = {a: c / sum(cp.values()) for a, c in cp.items()}\n"
            "q = {a: c / sum(cq.values()) for a, c in cq.items()}\n"
            "print(repr(total_variation(p, q)))\n"
        )
        outputs = set()
        for seed in range(8):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=str(SRC))
            proc = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
            )
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout.strip())
        assert len(outputs) == 1, sorted(outputs)
