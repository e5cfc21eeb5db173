"""Accuracy reporting, matching, sampling, and agreement statistics."""

import pytest
from hypothesis import example, given, strategies as st

from avqabench.evaluate import (
    agreement_stats,
    accuracy_report,
    match_answer,
    normalize_answer,
    uniform_sample,
)
from avqabench.records import DatasetManifest, PredictionRecord, QARecord
from avqabench.split import SplitAssignment, SplitConfig, build_assignment


def make_manifest(rows):
    """rows: (id, task, qtype, answer)"""
    return DatasetManifest.from_records(
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
    preds = [
        PredictionRecord("a1", "two"),
        PredictionRecord("a2", "Two"),
        PredictionRecord("a3", "three"),
        PredictionRecord("a4", "two"),
    ]
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
        with pytest.raises(ValueError, match="a4"):
            accuracy_report(manifest, assignment, preds[:-1])

    def test_orphan_prediction_is_an_error(self):
        manifest, assignment, preds = fixture_manifest_and_preds()
        preds = preds + [PredictionRecord("zz", "two")]
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
        report = accuracy_report(manifest, assignment, [PredictionRecord("x1", "yes")])
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
        preds = [
            PredictionRecord("v1", "left"),
            PredictionRecord("a1", "no"),
            PredictionRecord("m1", "begin"),
        ]
        report = accuracy_report(manifest, assignment, preds)
        assert list(report.cells) == sorted(report.cells)

    def test_table_rendering_mentions_all_tasks(self):
        manifest, assignment, preds = fixture_manifest_and_preds()
        table = accuracy_report(manifest, assignment, preds).render_table()
        assert "audio H" in table and "audio T" in table
        assert "pooled:" in table


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


class TestAgreement:
    def test_published_consistency_histogram(self):
        # three raters voted on 228,225 rephrasings; vote counts from the
        # released consistency table
        stats = agreement_stats({3: 164219, 2: 47353, 1: 7481, 0: 9172}, raters=3)
        assert stats.observed_agreement == pytest.approx(0.8398, abs=5e-4)
        assert stats.pass_rate == pytest.approx(0.9270, abs=5e-4)
        assert stats.fleiss_kappa == pytest.approx(0.297, abs=1e-3)

    def test_unanimous_both_categories(self):
        stats = agreement_stats({3: 10, 0: 5}, raters=3)
        assert stats.observed_agreement == 1.0
        assert stats.fleiss_kappa == 1.0

    def test_every_item_split_two_one(self):
        stats = agreement_stats({2: 12}, raters=3)
        assert stats.observed_agreement == pytest.approx(1 / 3)
        assert stats.chance_agreement == pytest.approx(5 / 9)
        assert stats.fleiss_kappa == pytest.approx(-0.5)

    def test_single_category_kappa_undefined(self):
        stats = agreement_stats({3: 10}, raters=3)
        assert stats.observed_agreement == 1.0
        assert stats.chance_agreement == 1.0
        assert stats.fleiss_kappa is None

    def test_pass_rate_requires_strict_majority(self):
        stats = agreement_stats({2: 1, 1: 1}, raters=4)
        # 2 of 4 is not a strict majority
        assert stats.pass_rate == 0.0
        stats = agreement_stats({3: 1, 1: 3}, raters=4)
        assert stats.pass_rate == 0.25

    def test_input_validation(self):
        with pytest.raises(ValueError):
            agreement_stats({}, raters=3)
        with pytest.raises(ValueError):
            agreement_stats({4: 1}, raters=3)
        with pytest.raises(ValueError):
            agreement_stats({1: 1}, raters=1)

    @given(
        h3=st.integers(0, 50),
        h2=st.integers(0, 50),
        h1=st.integers(0, 50),
        h0=st.integers(0, 50),
    )
    def test_bounds(self, h3, h2, h1, h0):
        histogram = {3: h3, 2: h2, 1: h1, 0: h0}
        if sum(histogram.values()) == 0:
            return
        stats = agreement_stats(histogram, raters=3)
        assert 0.0 <= stats.observed_agreement <= 1.0
        assert 0.0 <= stats.pass_rate <= 1.0
        if stats.fleiss_kappa is not None:
            assert stats.fleiss_kappa <= 1.0
            if stats.observed_agreement == 1.0:
                assert stats.fleiss_kappa == 1.0
