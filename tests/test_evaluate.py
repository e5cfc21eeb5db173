"""Accuracy reporting, answer matching and sampling."""

import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from avqabench.evaluate import accuracy_report, normalize_answer, uniform_sample
from avqabench.records import (
    DatasetManifest,
    GroupKey,
    QARecord,
    parse_dataset,
    parse_predictions,
)
from avqabench.split import SplitAssignment, SplitConfig, build_assignment
from conftest import qa_row

ANSWERS = ["two", "yes", "acoustic guitar", "Left", "cello."]
VARIANTS = [
    lambda a: a,
    str.upper,
    str.title,
    lambda a: f"  {a}\t",
    lambda a: a + ".",
    lambda a: a + "?!",
    lambda a: a.replace(" ", "   "),
    lambda a: "\n" + a + " ,",
]


def match_answer(prediction: str, gold: str) -> bool:
    """Exact match after normalization.

    No numeral/word equivalence: "two" and "2" do not match; the answer
    vocabulary is a closed label set.
    """
    return normalize_answer(prediction) == normalize_answer(gold)


def make_manifest(rows):
    """rows: (id, task, qtype, answer)"""
    return DatasetManifest(
        [QARecord(id=i, task=t, question_type=q, question="?", answer=a) for i, t, q, a in rows]
    )


class TestMatching:
    def test_case_and_trim(self):
        assert match_answer("Yes ", "yes")

    def test_terminal_punctuation(self):
        assert match_answer("cello.", "cello")
        assert match_answer("two. .", "two")

    def test_mixed_trailing_punctuation_and_space_strip_together(self):
        assert normalize_answer("two!\t?") == "two"
        assert normalize_answer("one. .") == "one"
        assert normalize_answer("two. .") == "two"

    def test_no_numeral_equivalence(self):
        assert not match_answer("two", "2")

    def test_whitespace_collapse(self):
        assert match_answer("middle   left", "middle left")

    @given(st.text(max_size=40))
    @example("two!\t?")
    @example("one. .")
    def test_normalization_idempotent(self, text):
        once = normalize_answer(text)
        assert normalize_answer(once) == once
        assert match_answer(once, once)


def fixture_manifest_and_preds():
    rows = [
        ("a1", "audio", "Counting", "two"),
        ("a2", "audio", "Counting", "two"),
        ("a3", "audio", "Counting", "three"),
        ("a4", "audio", "Counting", "seven"),
    ]
    manifest = make_manifest(rows)
    assignment = SplitAssignment(
        labels={"a1": "head", "a2": "head", "a3": "tail", "a4": "tail"}
    )
    preds = {"a1": "two", "a2": "Two", "a3": "three", "a4": "two"}
    return manifest, assignment, preds


class TestAccuracyReport:
    def test_overall_three_of_four(self):
        manifest, assignment, preds = fixture_manifest_and_preds()
        report = accuracy_report(manifest, assignment, preds)
        assert report.pooled().accuracy == 0.75

    def test_head_tail_decomposition(self):
        manifest, assignment, preds = fixture_manifest_and_preds()
        report = accuracy_report(manifest, assignment, preds)
        assert report.pooled("head").accuracy == 1.0
        assert report.pooled("tail").accuracy == 0.5
        head, tail = report.pooled("head"), report.pooled("tail")
        pooled = report.pooled()
        assert pooled.correct == head.correct + tail.correct
        assert pooled.count == head.count + tail.count

    def test_missing_prediction_is_an_error(self):
        manifest, assignment, preds = fixture_manifest_and_preds()
        del preds["a4"]
        with pytest.raises(ValueError, match="a4"):
            accuracy_report(manifest, assignment, preds)

    def test_orphan_prediction_is_an_error(self):
        manifest, assignment, preds = fixture_manifest_and_preds()
        preds["zz"] = "two"
        with pytest.raises(ValueError, match="zz"):
            accuracy_report(manifest, assignment, preds)

    def test_record_missing_from_assignment_is_an_error(self):
        manifest, assignment, preds = fixture_manifest_and_preds()
        del assignment.labels["a2"]
        with pytest.raises(ValueError, match="a2"):
            accuracy_report(manifest, assignment, preds)

    def test_label_for_id_outside_dataset_is_an_error(self):
        manifest, assignment, preds = fixture_manifest_and_preds()
        assignment.labels["ghost"] = "tail"
        with pytest.raises(ValueError, match="ghost"):
            accuracy_report(manifest, assignment, preds)

    def test_empty_tail_cell_absent(self):
        manifest = make_manifest([("x1", "avqa", "Existential", "yes")])
        assignment = build_assignment(manifest, SplitConfig(mode="conformal"))
        report = accuracy_report(manifest, assignment, {"x1": "yes"})
        assert ("avqa", "Existential", "tail") not in report.cells
        assert report.pooled("tail") is None
        assert report.to_dict()["pooled"]["tail"] is None

    def test_cells_sorted_deterministically(self):
        manifest = make_manifest(
            [
                ("v1", "visual", "Location", "left"),
                ("a1", "audio", "Counting", "two"),
                ("m1", "avqa", "Temporal", "begin"),
            ]
        )
        assignment = build_assignment(manifest, SplitConfig(mode="conformal"))
        preds = {"v1": "left", "a1": "no", "m1": "begin"}
        report = accuracy_report(manifest, assignment, preds)
        assert list(report.cells) == sorted(report.cells)

    def test_table_rendering_mentions_all_tasks(self):
        manifest, assignment, preds = fixture_manifest_and_preds()
        table = accuracy_report(manifest, assignment, preds).render_table()
        assert "audio H" in table and "audio T" in table
        assert "pooled:" in table


def reference_cells(manifest, assignment, preds):
    """Per-cell (count, correct), one match_answer call per record."""
    cells = {}
    for rec in manifest.records:
        key = (rec.task, rec.question_type, assignment.labels[rec.id])
        count, correct = cells.get(key, (0, 0))
        cells[key] = (count + 1, correct + match_answer(preds[rec.id], rec.answer))
    return cells


@st.composite
def scored_pipelines(draw):
    """A manifest, its split, and predictions with surface variants."""
    n = draw(st.integers(min_value=1, max_value=40))
    rows = []
    preds = {}
    for i in range(n):
        task = draw(st.sampled_from(["audio", "visual", "avqa"]))
        qtype = draw(st.sampled_from(["Counting", "Location"]))
        answer = draw(st.sampled_from(ANSWERS))
        rows.append((f"q{i}", task, qtype, answer))
        guess = draw(st.sampled_from(ANSWERS + ["", "two. .", "other"]))
        preds[f"q{i}"] = draw(st.sampled_from(VARIANTS))(guess)
    manifest = make_manifest(rows)
    mode = draw(st.sampled_from(["conformal", "legacy"]))
    order = draw(st.permutations(list(preds)))
    return manifest, build_assignment(manifest, SplitConfig(mode=mode)), {i: preds[i] for i in order}


@settings(max_examples=150)
@given(scored_pipelines())
def test_accuracy_cells_match_a_per_record_reference(pipeline):
    manifest, assignment, preds = pipeline
    report = accuracy_report(manifest, assignment, preds)
    assert list(report.cells) == sorted(report.cells)
    assert {key: (s.count, s.correct) for key, s in report.cells.items()} == reference_cells(
        manifest, assignment, preds
    )


@given(scored_pipelines(), st.data())
def test_unpaired_ids_raise_the_listed_mismatch(pipeline, data):
    manifest, assignment, preds = pipeline
    ids = list(preds)
    dropped = data.draw(st.lists(st.sampled_from(ids), unique=True))
    orphans = data.draw(st.lists(st.sampled_from(["zz1", "zz2", "q999"]), unique=True))
    assume(dropped or orphans)
    for rid in dropped:
        del preds[rid]
    for rid in orphans:
        preds[rid] = "two"
    missing = [rec.id for rec in manifest.records if rec.id in dropped]
    message = (
        "gold/prediction mismatch: missing predictions for "
        f"{missing!r}, orphan predictions {orphans!r}"
    )
    with pytest.raises(ValueError) as info:
        accuracy_report(manifest, assignment, preds)
    assert str(info.value) == message


def test_parsed_files_that_pair_exactly_score_every_record(write_jsonl, tmp_path):
    manifest = parse_dataset(write_jsonl([qa_row(1), qa_row(2)]))
    ppath = tmp_path / "p.jsonl"
    ppath.write_text('{"id": "q1", "prediction": "one"}\n{"id": "q2", "prediction": "y"}\n')
    assignment = build_assignment(manifest, SplitConfig())
    pooled = accuracy_report(manifest, assignment, parse_predictions(ppath)).pooled()
    assert (pooled.correct, pooled.count) == (1, 2)


def test_parsed_files_name_the_missing_and_orphan_ids(write_jsonl, tmp_path):
    manifest = parse_dataset(write_jsonl([qa_row(1), qa_row(2)]))
    ppath = tmp_path / "p.jsonl"
    ppath.write_text('{"id": "q2", "prediction": "y"}\n{"id": "q9", "prediction": "z"}\n')
    assignment = build_assignment(manifest, SplitConfig())
    with pytest.raises(ValueError) as info:
        accuracy_report(manifest, assignment, parse_predictions(ppath))
    assert str(info.value) == (
        "gold/prediction mismatch: missing predictions for ['q1'], orphan predictions ['q9']"
    )


def test_split_label_mismatches_raise_the_listed_ids():
    manifest, assignment, preds = fixture_manifest_and_preds()
    assignment.labels["ghost"] = "tail"
    assignment.labels["ghost2"] = "head"
    with pytest.raises(ValueError) as info:
        accuracy_report(manifest, assignment, preds)
    assert str(info.value) == "split assignment labels ids not in the dataset: ['ghost', 'ghost2']"
    # same label count as records, one of them for an unknown id
    del assignment.labels["a3"], assignment.labels["ghost2"]
    with pytest.raises(ValueError) as info:
        accuracy_report(manifest, assignment, preds)
    assert str(info.value) == "records missing from split assignment: ['a3']"


def equal_strata_manifest(cells=10, per_cell=100):
    rows = []
    qtypes = ["Counting", "Comparative", "Temporal", "Location", "Existential"]
    i = 0
    for c in range(cells):
        task = ["audio", "visual"][c % 2]
        qtype = qtypes[c // 2]
        for _ in range(per_cell):
            rows.append((f"r{i}", task, qtype, "common" if i % 4 else "rare"))
            i += 1
    return make_manifest(rows)


def reference_sample_ids(manifest, assignment, ratio, seed):
    """Ids uniform_sample keeps, from one (task, question_type, part) key per record."""
    cells = {}
    for rec in manifest.records:
        key = (rec.task, rec.question_type, assignment.labels[rec.id])
        cells.setdefault(key, []).append(rec.id)
    keys = sorted(cells)
    quotas = {key: ratio * len(cells[key]) for key in keys}
    targets = {key: int(quotas[key]) for key in keys}
    leftover = int(ratio * len(manifest) + 0.5) - sum(targets.values())
    for key in sorted(keys, key=lambda key: (-(quotas[key] - targets[key]), key))[:leftover]:
        targets[key] += 1
    rng = random.Random(seed)
    chosen = set()
    for key in keys:
        rng.shuffle(cells[key])
        chosen.update(cells[key][: targets[key]])
    return [rec.id for rec in manifest.records if rec.id in chosen]


class TestUniformSample:
    def test_ratio_one_is_identity(self):
        manifest, assignment, _ = fixture_manifest_and_preds()
        sampled = uniform_sample(manifest, assignment, 1.0, seed=3)
        assert sampled == manifest

    def test_equal_strata_exact_allocation(self):
        manifest = equal_strata_manifest()
        assignment = build_assignment(manifest, SplitConfig(mode="conformal"))
        # head/tail sub-strata of each (task, qtype) cell: common=75, rare=25
        sampled = uniform_sample(manifest, assignment, 0.1, seed=0)
        assert len(sampled) == 100
        per_cell = {}
        for rec in sampled.records:
            key = (rec.task, rec.question_type, assignment.labels[rec.id])
            per_cell[key] = per_cell.get(key, 0) + 1
        # 10 (task, qtype) cells split 75/25 -> 20 strata, targets 7.5 -> 7 or 8, 2.5 -> 2 or 3
        for (_, _, part), got in per_cell.items():
            exact = 7.5 if part == "head" else 2.5
            assert abs(got - exact) < 1.0

    def test_same_seed_same_ids(self):
        manifest = equal_strata_manifest()
        assignment = build_assignment(manifest, SplitConfig(mode="conformal"))
        first = uniform_sample(manifest, assignment, 0.1, seed=11)
        second = uniform_sample(manifest, assignment, 0.1, seed=11)
        assert [r.id for r in first.records] == [r.id for r in second.records]

    def test_different_seed_differs(self):
        manifest = equal_strata_manifest()
        assignment = build_assignment(manifest, SplitConfig(mode="conformal"))
        first = uniform_sample(manifest, assignment, 0.1, seed=1)
        second = uniform_sample(manifest, assignment, 0.1, seed=2)
        assert {r.id for r in first.records} != {r.id for r in second.records}

    def test_original_order_preserved(self):
        manifest = equal_strata_manifest()
        assignment = build_assignment(manifest, SplitConfig(mode="conformal"))
        sampled = uniform_sample(manifest, assignment, 0.2, seed=5)
        positions = {rec.id: i for i, rec in enumerate(manifest.records)}
        sampled_positions = [positions[r.id] for r in sampled.records]
        assert sampled_positions == sorted(sampled_positions)

    def test_ratio_bounds(self):
        manifest, assignment, _ = fixture_manifest_and_preds()
        for bad in (0.0, -0.3, 1.01):
            with pytest.raises(ValueError):
                uniform_sample(manifest, assignment, bad, seed=0)

    @given(scored_pipelines(), st.floats(min_value=0.01, max_value=1.0), st.integers(0, 999))
    def test_sample_matches_a_per_record_reference(self, pipeline, ratio, seed):
        manifest, assignment, _ = pipeline
        sampled = uniform_sample(manifest, assignment, ratio, seed=seed)
        assert [rec.id for rec in sampled.records] == reference_sample_ids(
            manifest, assignment, ratio, seed
        )
        rebuilt = DatasetManifest(sampled.records)
        assert list(sampled.groups.items()) == list(rebuilt.groups.items())
        assert all(type(key) is GroupKey for key in sampled.groups)

    def test_unlabelled_record_named_in_file_order(self):
        manifest = make_manifest(
            [("a1", "audio", "Counting", "two"), ("v1", "visual", "Location", "left"),
             ("a2", "audio", "Counting", "two")]
        )
        assignment = SplitAssignment(labels={"a1": "head"})
        with pytest.raises(ValueError) as info:
            uniform_sample(manifest, assignment, 0.5, seed=0)
        assert str(info.value) == "record 'v1' missing from split assignment"

    @given(ratio=st.floats(min_value=0.01, max_value=1.0), seed=st.integers(0, 999))
    def test_allocation_within_one_of_quota(self, ratio, seed):
        manifest = equal_strata_manifest(cells=4, per_cell=30)
        assignment = build_assignment(manifest, SplitConfig(mode="conformal"))
        sampled = uniform_sample(manifest, assignment, ratio, seed=seed)
        counts = {}
        for rec in sampled.records:
            key = (rec.task, rec.question_type, assignment.labels[rec.id])
            counts[key] = counts.get(key, 0) + 1
        full = {}
        for rec in manifest.records:
            key = (rec.task, rec.question_type, assignment.labels[rec.id])
            full[key] = full.get(key, 0) + 1
        for key, size in full.items():
            assert abs(counts.get(key, 0) - ratio * size) < 1.0
