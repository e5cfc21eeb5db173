"""Parsing, validation, and round-trip behaviour of the record layer."""

import json

import pytest
from hypothesis import given, strategies as st

from avqabench.records import (
    DatasetError,
    DatasetManifest,
    GroupKey,
    QARecord,
    parse_dataset,
    parse_predictions,
    validate_pair,
    write_dataset,
)
from conftest import qa_row


def test_parse_three_line_file(write_jsonl):
    path = write_jsonl(
        [
            qa_row(1, task="audio", qtype="Counting"),
            qa_row(2, task="audio", qtype="Counting", answer="two"),
            qa_row(3, task="visual", qtype="Location", answer="left"),
        ]
    )
    manifest = parse_dataset(path)
    assert len(manifest) == 3
    assert [r.id for r in manifest.records] == ["q1", "q2", "q3"]
    assert {key: [rec.id for rec in group] for key, group in manifest.groups.items()} == {
        GroupKey("audio", "Counting"): ["q1", "q2"],
        GroupKey("visual", "Location"): ["q3"],
    }


def test_duplicate_id_names_both_lines(write_jsonl):
    rows = [qa_row(1), qa_row(2), qa_row(1), qa_row(3)]
    rows[2]["question"] = "different question, same id"
    path = write_jsonl(rows)
    with pytest.raises(DatasetError, match=r"duplicate id 'q1' on lines 1 and 3"):
        parse_dataset(path)


def test_empty_file_gives_empty_manifest(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    manifest = parse_dataset(path)
    assert len(manifest) == 0
    assert manifest.groups == {}


def test_malformed_json_names_line(write_jsonl, tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(qa_row(1)) + "\n{not json\n")
    with pytest.raises(DatasetError, match="line 2"):
        parse_dataset(path)


def test_missing_field_names_line_and_field(write_jsonl):
    row = qa_row(1)
    del row["answer"]
    path = write_jsonl([row])
    with pytest.raises(DatasetError, match=r"line 1: missing field 'answer'"):
        parse_dataset(path)


def test_bad_task_rejected(write_jsonl):
    path = write_jsonl([qa_row(1, task="text")])
    with pytest.raises(DatasetError, match=r"'task'"):
        parse_dataset(path)


def test_question_type_trimmed_not_case_folded(write_jsonl):
    path = write_jsonl([qa_row(1, qtype=" Counting "), qa_row(2, qtype="counting")])
    manifest = parse_dataset(path)
    keys = set(manifest.groups)
    assert GroupKey("avqa", "Counting") in keys
    assert GroupKey("avqa", "counting") in keys


def test_rephrase_of_must_resolve(write_jsonl):
    path = write_jsonl([qa_row(1, rephrase_of="q99")])
    with pytest.raises(DatasetError, match="q99"):
        parse_dataset(path)
    path = write_jsonl([qa_row(1), qa_row(2, rephrase_of="q98")], name="dangling.jsonl")
    with pytest.raises(DatasetError, match=r"line 2: rephrase_of 'q98'"):
        parse_dataset(path)
    path = write_jsonl([qa_row(1), qa_row(2, rephrase_of="q1")], name="ok.jsonl")
    manifest = parse_dataset(path)
    assert manifest.records[1].rephrase_of == "q1"


def test_extra_fields_preserved_on_round_trip(write_jsonl, tmp_path):
    path = write_jsonl([qa_row(1, provenance="template-7", votes=3)])
    manifest = parse_dataset(path)
    assert manifest.records[0].extras == {"provenance": "template-7", "votes": 3}
    out = tmp_path / "out.jsonl"
    write_dataset(manifest, out)
    assert parse_dataset(out) == manifest


def test_parse_is_deterministic(write_jsonl):
    path = write_jsonl([qa_row(i) for i in range(5)])
    assert parse_dataset(path) == parse_dataset(path)


def test_predictions_basic(tmp_path):
    path = tmp_path / "preds.jsonl"
    path.write_text('{"id": "q1", "prediction": "yes"}\n{"id": "q2", "prediction": "no"}\n')
    preds = parse_predictions(path)
    assert [(p.id, p.prediction) for p in preds] == [("q1", "yes"), ("q2", "no")]


def test_predictions_missing_field(tmp_path):
    path = tmp_path / "preds.jsonl"
    path.write_text('{"id": "q1", "prediction": "yes"}\n{"id": "q2"}\n')
    with pytest.raises(DatasetError, match=r"line 2: missing field 'prediction'"):
        parse_predictions(path)


def test_predictions_duplicate_id(tmp_path):
    path = tmp_path / "preds.jsonl"
    path.write_text('{"id": "q1", "prediction": "a"}\n{"id": "q1", "prediction": "b"}\n')
    with pytest.raises(DatasetError, match="duplicate id"):
        parse_predictions(path)


def test_predictions_empty_file(tmp_path):
    path = tmp_path / "preds.jsonl"
    path.write_text("")
    assert parse_predictions(path) == []


def test_validate_pair_exact_match(write_jsonl, tmp_path):
    manifest = parse_dataset(write_jsonl([qa_row(1), qa_row(2)]))
    ppath = tmp_path / "p.jsonl"
    ppath.write_text('{"id": "q1", "prediction": "x"}\n{"id": "q2", "prediction": "y"}\n')
    report = validate_pair(manifest, parse_predictions(ppath))
    assert report.valid
    assert report.missing_predictions == []
    assert report.orphan_predictions == []


def test_validate_pair_missing_and_orphan(write_jsonl, tmp_path):
    manifest = parse_dataset(write_jsonl([qa_row(1), qa_row(2)]))
    ppath = tmp_path / "p.jsonl"
    ppath.write_text('{"id": "q2", "prediction": "y"}\n{"id": "q9", "prediction": "z"}\n')
    report = validate_pair(manifest, parse_predictions(ppath))
    assert not report.valid
    assert report.missing_predictions == ["q1"]
    assert report.orphan_predictions == ["q9"]


record_ids = st.lists(
    st.integers(min_value=0, max_value=50).map(lambda i: f"q{i}"),
    min_size=0,
    max_size=40,
    unique=True,
)


@given(
    ids=record_ids,
    tasks=st.lists(st.sampled_from(["audio", "visual", "avqa"]), min_size=40, max_size=40),
    qtypes=st.lists(st.sampled_from(["Counting", "Comparative", "Temporal"]), min_size=40, max_size=40),
)
def test_grouping_partitions_record_ids(ids, tasks, qtypes):
    records = [
        QARecord(id=i, task=t, question_type=qt, question="?", answer="a")
        for i, t, qt in zip(ids, tasks, qtypes)
    ]
    manifest = DatasetManifest.from_records(records)
    members = [rec for group in manifest.groups.values() for rec in group]
    # groups hold the record objects themselves, each exactly once
    assert sorted(map(id, members)) == sorted(map(id, records))
    # rebuilding from the same records yields identical grouping
    assert DatasetManifest.from_records(records).groups == manifest.groups
