"""Head/tail split rules: coverage-constrained and legacy multiplier."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from avqabench.balance import AnswerDistribution, normalized_entropy
from avqabench.records import DatasetManifest, GroupKey, QARecord, parse_dataset
from avqabench.split import (
    MODES,
    SplitConfig,
    build_assignment,
    conformal_split,
    distribution_report,
    legacy_split,
    load_split,
    total_variation,
    write_split,
)
from conftest import qa_row

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


class TestConformal:
    def test_dominant_class(self):
        sol = conformal_split(KEY, AnswerDistribution({"x": 90, "y": 5, "z": 5}))
        assert sol.head_size == 1
        assert sol.k == pytest.approx(1 / 3)
        assert sol.head_answers == ("x",)
        assert sol.coverage == pytest.approx(0.90)

    def test_equal_counts_get_nonempty_head(self):
        sol = conformal_split(KEY, AnswerDistribution({"x": 10, "y": 10, "z": 10}))
        # h=1 covers 1/3 < 2/3; h=2 covers 2/3 >= 1/3; ties break by label
        assert sol.head_size == 2
        assert sol.head_answers == ("x", "y")
        assert sol.tail_answers == ("z",)

    def test_single_class(self):
        sol = conformal_split(KEY, AnswerDistribution({"x": 100}))
        assert sol.head_size == 1
        assert sol.k == 1.0
        assert sol.head_answers == ("x",)
        assert sol.tail_answers == ()

    def test_boundary_equality_is_exact(self):
        # 4/6 == 1 - 1/3 exactly; a float comparison would reject h=1
        sol = conformal_split(KEY, AnswerDistribution({"x": 4, "y": 1, "z": 1}))
        assert sol.head_size == 1
        assert sol.head_answers == ("x",)

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            conformal_split(KEY, AnswerDistribution({}))

    @settings(max_examples=200)
    @given(counts=count_maps)
    def test_matches_exhaustive_oracle(self, counts):
        sol = conformal_split(KEY, AnswerDistribution(counts))
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
        sol = legacy_split(KEY, AnswerDistribution({"x": 10, "y": 10, "z": 10}))
        assert sol.head_answers == ()
        assert sol.tail_answers == ("x", "y", "z")

    def test_dominant_class(self):
        # mean 33.33, threshold 40: only x exceeds it
        sol = legacy_split(KEY, AnswerDistribution({"x": 90, "y": 5, "z": 5}))
        assert sol.head_answers == ("x",)
        assert sol.tail_answers == ("y", "z")

    def test_single_class_degenerates_to_tail(self):
        sol = legacy_split(KEY, AnswerDistribution({"x": 100}))
        assert sol.head_answers == ()
        assert sol.tail_answers == ("x",)

    @given(
        count=st.integers(min_value=1, max_value=10_000),
        n=st.integers(min_value=1, max_value=30),
    )
    def test_pathology_witness_on_any_equal_count_group(self, count, n):
        counts = {f"a{i}": count for i in range(n)}
        legacy = legacy_split(KEY, AnswerDistribution(counts))
        conformal = conformal_split(KEY, AnswerDistribution(counts))
        assert legacy.head_size == 0
        assert conformal.head_size >= 1


def _manifest_from_counts(counts, task="avqa", qtype="Counting"):
    rows = []
    i = 0
    for answer, c in counts.items():
        for _ in range(c):
            rows.append(
                QARecord(id=f"q{i}", task=task, question_type=qtype, question="?", answer=answer)
            )
            i += 1
    return DatasetManifest.from_records(rows)


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
            DatasetManifest.from_records([]), SplitConfig(mode="conformal")
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

    def test_record_is_head_iff_answer_in_head_set(self):
        manifest = _manifest_from_counts({"x": 7, "y": 2, "z": 1})
        assignment = build_assignment(manifest, SplitConfig(mode="conformal"))
        head_set = set(assignment.solutions[0].head_answers)
        for rec in manifest.records:
            expected = "head" if rec.answer in head_set else "tail"
            assert assignment.labels[rec.id] == expected

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("answers", [{"x": 7, "y": 2, "z": 1}, {"ünï": 3, "e\u2028f": 1}, {"x": 4}])
    def test_split_file_round_trip(self, mode, answers, tmp_path):
        assignment = build_assignment(_manifest_from_counts(answers), SplitConfig(mode=mode))
        path = tmp_path / "split.json"
        write_split(assignment, path)
        loaded = load_split(path)
        assert loaded.labels == assignment.labels
        assert loaded.solutions == assignment.solutions

    def test_byte_identical_split_files(self, tmp_path):
        manifest = _manifest_from_counts({"x": 7, "y": 2, "z": 1})
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_split(build_assignment(manifest, SplitConfig()), a)
        write_split(build_assignment(manifest, SplitConfig()), b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("answers", [{"x": 7, "y": 2, "z": 1}, {"ünï": 3, "コード": 2, "e\u2028f": 1}, {}])
    def test_split_file_is_the_indented_json_text(self, answers, tmp_path):
        manifest = _manifest_from_counts(answers, qtype="Zählen")
        assignment = build_assignment(manifest, SplitConfig())
        path = tmp_path / "split.json"
        write_split(assignment, path)
        expected = json.dumps(assignment.to_dict(), indent=2, ensure_ascii=False) + "\n"
        assert path.read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([], "split file must be a JSON object"),
            ({"assignments": {}}, "split file: missing key 'groups'"),
            ({"groups": []}, "split file: missing key 'assignments'"),
            ({"groups": {}, "assignments": {}}, "split file: key 'groups' must be a JSON array"),
            ({"groups": [], "assignments": []}, "split file: key 'assignments' must be a JSON object"),
            (
                {"groups": [], "assignments": [["q0", "head"]]},
                "split file: key 'assignments' must be a JSON object",
            ),
            ({"groups": ["x"], "assignments": {}}, "split file: groups[0] must be a JSON object"),
        ],
    )
    def test_malformed_split_file_names_the_key(self, doc, message, tmp_path):
        path = tmp_path / "split.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as info:
            load_split(path)
        assert str(info.value) == message

    @pytest.mark.parametrize("key", ["task", "mode", "k", "head_answers", "balanced"])
    def test_group_without_a_key_names_it(self, key, tmp_path):
        manifest = _manifest_from_counts({"x": 7, "y": 2, "z": 1})
        path = tmp_path / "split.json"
        write_split(build_assignment(manifest, SplitConfig()), path)
        doc = json.loads(path.read_text())
        del doc["groups"][0][key]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as info:
            load_split(path)
        assert str(info.value) == f"split file: groups[0] is missing key {key!r}"

    @pytest.mark.parametrize(
        "key, value, kind",
        [
            ("task", 3, "a string"),
            ("question_type", None, "a string"),
            ("mode", ["conformal"], "a string"),
            ("k", "half", "a number"),
            ("k", True, "a number"),
            ("head_size", 1.0, "an integer"),
            ("head_size", False, "an integer"),
            ("coverage", None, "a number"),
            ("normalized_entropy", "0.5", "a number"),
            ("balanced", "no", "a boolean"),
            ("balanced", 1, "a boolean"),
            ("head_answers", 3, "a list of strings"),
            ("head_answers", "x", "a list of strings"),
            ("tail_answers", ["y", 2], "a list of strings"),
        ],
    )
    def test_group_value_of_the_wrong_type_names_the_key(self, key, value, kind, tmp_path):
        manifest = _manifest_from_counts({"x": 7, "y": 2, "z": 1})
        path = tmp_path / "split.json"
        write_split(build_assignment(manifest, SplitConfig()), path)
        doc = json.loads(path.read_text())
        doc["groups"][0][key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as info:
            load_split(path)
        assert str(info.value) == f"split file: groups[0] key {key!r} must be {kind}"

    def test_unknown_mode_in_split_file_rejected(self, tmp_path):
        manifest = _manifest_from_counts({"x": 7, "y": 2, "z": 1})
        path = tmp_path / "split.json"
        write_split(build_assignment(manifest, SplitConfig()), path)
        doc = json.loads(path.read_text())
        doc["groups"][0]["mode"] = "median"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"\(avqa, Counting\).*'median'"):
            load_split(path)


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

    def test_record_without_a_label_is_an_error(self):
        manifest = _manifest_from_counts({"x": 4, "y": 1, "z": 1})
        assignment = build_assignment(manifest, SplitConfig(mode="conformal"))
        del assignment.labels["q5"]
        with pytest.raises(ValueError, match="record 'q5' missing from split assignment"):
            distribution_report(manifest, assignment, manifest)

    def test_group_without_a_solution_is_an_error(self):
        # 10 records in 2 groups; the split only knows the first group's 6
        first = _manifest_from_counts({"x": 4, "y": 2}).records
        second = [
            QARecord(id=f"v{i}", task="visual", question_type="Location", question="?", answer="l")
            for i in range(4)
        ]
        manifest = DatasetManifest.from_records(first + second)
        assert len(manifest) == 10 and len(manifest.groups) == 2
        assignment = build_assignment(DatasetManifest.from_records(first), SplitConfig())
        with pytest.raises(ValueError, match=r"group \(visual, Location\) has no split solution"):
            distribution_report(manifest, assignment, manifest)

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
