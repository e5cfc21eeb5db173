"""Parsing, validation, and round-trip behaviour of the record layer."""

import copy
import dataclasses
import gc
import json
import pickle
import sys
import tracemalloc
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from avqabench import records as records_module
from avqabench.records import (
    TASKS,
    DatasetError,
    DatasetManifest,
    GroupKey,
    QARecord,
    _iter_json_lines,
    parse_dataset,
    parse_predictions,
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
    # each group's answer counts, groups and answers in first-seen order
    assert list(manifest.groups.items()) == [
        (GroupKey("audio", "Counting"), Counter({"one": 1, "two": 1})),
        (GroupKey("visual", "Location"), Counter({"left": 1})),
    ]
    assert list(manifest.groups[("audio", "Counting")]) == ["one", "two"]


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


def test_dataset_errors_count_blank_and_crlf_lines(tmp_path):
    lines = [json.dumps(qa_row(1)), "", json.dumps(qa_row(2)) + "\r", "  "]
    path = tmp_path / "dup.jsonl"
    path.write_text("\n".join(lines + [json.dumps(qa_row(1))]) + "\n")
    with pytest.raises(DatasetError, match=r"^duplicate id 'q1' on lines 1 and 5$"):
        parse_dataset(path)
    path = tmp_path / "dangling.jsonl"
    path.write_text("\n".join(lines + [json.dumps(qa_row(3, rephrase_of="q9"))]) + "\n")
    with pytest.raises(DatasetError, match=r"^line 5: rephrase_of 'q9' does not reference"):
        parse_dataset(path)


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


# (rephrase_of of q1, q2, ...), and the error that names the cycle's first line
REPHRASE_CYCLES = {
    "self-reference": ([None, None, "q3"], "line 3: rephrase_of cycle q3 -> q3"),
    "2-cycle": (["q2", "q1"], "line 1: rephrase_of cycle q1 -> q2 -> q1"),
    # q2 -> q1 and q3 -> q2 end at q1; q4 enters the cycle at q6, after q5
    "3-cycle reached from a chain": (
        [None, "q1", "q2", "q6", "q7", "q5", "q6"],
        "line 5: rephrase_of cycle q5 -> q7 -> q6 -> q5",
    ),
}


@pytest.mark.parametrize("targets, message", REPHRASE_CYCLES.values(), ids=REPHRASE_CYCLES)
def test_rephrase_of_cycle_is_rejected_naming_its_first_line(write_jsonl, targets, message):
    path = write_jsonl([qa_row(i, rephrase_of=t) for i, t in enumerate(targets, start=1)])
    with pytest.raises(DatasetError) as info:
        parse_dataset(path)
    assert str(info.value) == message


def test_chains_that_meet_are_not_a_cycle(write_jsonl):
    # q5 -> q4 -> q3 -> q1 <- q2
    targets = [None, "q1", "q1", "q3", "q4"]
    path = write_jsonl([qa_row(i, rephrase_of=t) for i, t in enumerate(targets, start=1)])
    assert [rec.rephrase_of for rec in parse_dataset(path).records] == targets


def test_extra_fields_preserved_on_round_trip(write_jsonl, tmp_path):
    path = write_jsonl([qa_row(1, provenance="template-7", votes=3)])
    manifest = parse_dataset(path)
    assert manifest.records[0].extras == (("provenance", "template-7"), ("votes", 3))
    out = tmp_path / "out.jsonl"
    write_dataset(manifest, out)
    assert parse_dataset(out) == manifest


def test_optional_fields_and_extras_round_trip_in_schema_order(tmp_path):
    # q3 -> q2 -> q1 is a rephrase chain; q4 has extras but no optional field
    lines = [
        '{"id": "q1", "task": "audio", "question_type": "Counting", "question": "How many?", '
        '"answer": "two", "video_id": "v1", "difficulty": "easy", "question_id": 101}',
        '{"id": "q2", "task": "audio", "question_type": "Counting", "question": "Count them?", '
        '"answer": "two", "video_id": "v1", "rephrase_of": "q1", "difficulty": "easy", '
        '"question_id": 102}',
        '{"id": "q3", "task": "audio", "question_type": "Counting", "question": "Number?", '
        '"answer": "two", "video_id": "v1", "rephrase_of": "q2"}',
        '{"id": "q4", "task": "visual", "question_type": "Location", "question": "Where?", '
        '"answer": "left", "rephrase_of": "q4b", "score": 0.5}',
        '{"id": "q4b", "task": "visual", "question_type": "Location", "question": "Where is it?", '
        '"answer": "left", "video_id": "v2"}',
    ]
    path = tmp_path / "data.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    manifest = parse_dataset(path)
    assert [(rec.video_id, rec.rephrase_of) for rec in manifest.records] == [
        ("v1", None), ("v1", "q1"), ("v1", "q2"), (None, "q4b"), ("v2", None)
    ]
    out = tmp_path / "out.jsonl"
    write_dataset(manifest, out)
    assert out.read_bytes() == path.read_bytes()
    assert parse_dataset(out) == manifest


@pytest.mark.parametrize("form", [tuple, dict], ids=["pairs", "dict"])
@pytest.mark.parametrize(
    "key", ["id", "task", "question_type", "question", "answer", "video_id", "rephrase_of"]
)
def test_extras_holding_a_schema_field_are_not_written(key, form, tmp_path):
    # written as is, the extras would replace or add the field on the line;
    # the error names the key whether the caller passed pairs or a dict
    rec = QARecord(id="q1", task="audio", question_type="Counting", question="?", answer="two",
                   extras=form((("difficulty", "easy"), (key, "q2"))))
    with pytest.raises(ValueError) as info:
        write_dataset(DatasetManifest([rec]), tmp_path / "out.jsonl")
    assert str(info.value) == f"record 'q1': extras key {key!r} is a schema field"


def test_labels_share_one_string_per_distinct_value(write_jsonl):
    rows = [
        qa_row(i, task="visual", qtype="Location", answer=["left", "right"][i % 2],
               video_id=f"v{i // 3}", difficulty=i % 2)
        for i in range(6)
    ]
    manifest = parse_dataset(write_jsonl(rows))
    by_value = {}
    for rec in manifest.records:
        for field in ("task", "question_type", "answer", "video_id"):
            value = getattr(rec, field)
            assert value is by_value.setdefault((field, value), value)
        ((key, _),) = rec.extras
        assert key is by_value.setdefault(("extras", key), key)
        # one tuple per distinct extras
        assert rec.extras is by_value.setdefault(("extras", *rec.extras), rec.extras)
    assert len(by_value) == 1 + 1 + 2 + 2 + 1 + 2


def test_equal_extras_share_one_tuple(write_jsonl):
    rows = [qa_row(i, difficulty=["easy", "hard"][i % 2], checked=i % 2 == 0) for i in range(6)]
    records = parse_dataset(write_jsonl(rows + [qa_row(6), qa_row(7)])).records
    for a, b in zip(records[:4], records[2:6]):
        assert a.extras is b.extras
    # immutable by type, so no record can change the extras it shares
    assert all(type(rec.extras) is tuple for rec in records)
    assert all(type(pair) is tuple for rec in records for pair in rec.extras)
    assert records[0].extras == (("difficulty", "easy"), ("checked", True))
    assert records[1].extras == (("difficulty", "hard"), ("checked", False))
    assert records[6].extras is records[7].extras == ()


def test_record_built_without_extras_has_the_empty_tuple(write_jsonl):
    built = [QARecord(id=f"q{i}", task="avqa", question_type="Counting", question="?", answer="a")
             for i in range(2)]
    parsed = parse_dataset(write_jsonl([qa_row(0)])).records[0]
    assert built[0].extras is built[1].extras is parsed.extras
    assert type(built[0].extras) is tuple
    assert built[0].extras == ()


def test_typed_extras_round_trip_and_share_only_same_typed_values(write_jsonl, tmp_path):
    values = [1, True, 1.0, 0.0, -0.0, 2**70, "1", None, [1]]
    path = write_jsonl([qa_row(i, value=value) for i, value in enumerate(values * 2)])
    manifest = parse_dataset(path)
    out = tmp_path / "out.jsonl"
    write_dataset(manifest, out)
    assert out.read_bytes() == path.read_bytes()
    records = manifest.records
    for a in records:
        for b in records:
            ((_, va),), ((_, vb),) = a.extras, b.extras
            shareable = type(va) in (str, int, bool, type(None))
            same = type(va) is type(vb) and va == vb
            assert (a.extras is b.extras) == (a is b or (shareable and same)), (va, vb)
    # a float or list value gets its own tuple, even when equal
    floats = [rec.extras for rec in records if type(rec.extras[0][1]) is float]
    lists = [rec.extras for rec in records if type(rec.extras[0][1]) is list]
    assert len({id(extras) for extras in floats + lists}) == len(floats + lists) == 8


def test_unshared_extras_are_a_plain_tuple_of_their_own(write_jsonl):
    # a per-question id or a float score never repeats, so these records
    # share nothing and hold a plain tuple of their own pairs
    rows = [qa_row(i, difficulty="easy", question_id=i, score=i / 7) for i in range(3)]
    records = parse_dataset(write_jsonl(rows + [qa_row(3, question_id=3)])).records
    for i, rec in enumerate(records[:3]):
        assert type(rec.extras) is tuple
        assert rec.extras == (("difficulty", "easy"), ("question_id", i), ("score", i / 7))
    assert records[3].extras == (("question_id", 3),)
    assert len({id(rec.extras) for rec in records}) == 4


def test_parsed_extras_of_atomic_values_are_not_tracked_by_the_gc(write_jsonl):
    # a tracked object per record would make every collection walk them all
    rows = [qa_row(i, question_id=i, score=i / 7, note=None, checked=i % 2 == 0)
            for i in range(50)]
    rows.append(qa_row(50, tags=["a"]))
    records = parse_dataset(write_jsonl(rows)).records
    # CPython untracks a tuple in a collection that finds its items already
    # untracked, and one collection reaches the pairs only after their tuple;
    # a record reaches the oldest generation through at least two
    gc.collect()
    assert not any(gc.is_tracked(pair) for rec in records[:50] for pair in rec.extras)
    gc.collect()
    assert not any(gc.is_tracked(rec.extras) for rec in records[:50])
    # a list value is not atomic, so its extras stay tracked
    assert gc.is_tracked(records[50].extras)


def test_a_parse_remembers_a_bounded_number_of_extras(write_jsonl, monkeypatch):
    # room for the empty extras and two more
    monkeypatch.setattr(records_module, "_SHARED_EXTRAS_MAX", 3)
    rows = [qa_row(i, note=note) for i, note in enumerate("abccab")]
    extras = [rec.extras for rec in parse_dataset(write_jsonl(rows)).records]
    assert extras[0] is extras[4] and extras[1] is extras[5]
    assert extras[2] == extras[3] == (("note", "c"),)
    assert extras[2] is not extras[3]


def test_parsed_manifest_copies_and_pickles(write_jsonl):
    manifest = parse_dataset(write_jsonl([qa_row(i, difficulty="easy") for i in range(2)]))
    for copied in (copy.deepcopy(manifest), pickle.loads(pickle.dumps(manifest))):
        assert copied == manifest
        assert type(copied.records[0].extras) is tuple
        assert copied.records[0].extras is copied.records[1].extras


def test_a_manifest_is_frozen(write_jsonl):
    manifest = parse_dataset(write_jsonl([qa_row(1), qa_row(2)]))
    with pytest.raises(dataclasses.FrozenInstanceError):
        manifest.records = manifest.records[:1]
    with pytest.raises(dataclasses.FrozenInstanceError):
        manifest.answers = ("two", "two")
    with pytest.raises(dataclasses.FrozenInstanceError):
        manifest.groups = {}
    assert len(manifest) == 2
    assert manifest.groups == {("avqa", "Counting"): Counter({"one": 2})}


def test_extras_keep_their_key_order(write_jsonl, tmp_path):
    rows = [qa_row(1, b=1, a=2), qa_row(2, a=2, b=1), qa_row(3, b=1, a=2)]
    path = write_jsonl(rows)
    manifest = parse_dataset(path)
    records = manifest.records
    assert [[key for key, _ in rec.extras] for rec in records] == [["b", "a"], ["a", "b"], ["b", "a"]]
    assert records[0].extras is records[2].extras is not records[1].extras
    out = tmp_path / "out.jsonl"
    write_dataset(manifest, out)
    assert out.read_bytes() == path.read_bytes()


def test_records_are_a_tuple_that_cannot_grow(write_jsonl):
    manifest = parse_dataset(write_jsonl([qa_row(1), qa_row(2)]))
    assert type(manifest.records) is tuple
    columns = [f.name for f in dataclasses.fields(manifest) if f.name != "groups"]
    assert all(type(getattr(manifest, name)) is tuple for name in columns)
    assert manifest.ids == ("q1", "q2") and manifest.answers == ("one", "one")
    with pytest.raises(AttributeError):
        manifest.records.append(QARecord("q3", "avqa", "Counting", "?", "one"))
    # any iterable of records builds a manifest
    rebuilt = DatasetManifest(rec for rec in manifest.records)
    assert rebuilt.records == manifest.records
    assert rebuilt == manifest


def test_a_manifest_rejects_a_repeated_id():
    # q1 and q3 are each passed twice; the id whose repeat comes first is named
    records = [
        QARecord(id=f"q{i}", task="avqa", question_type="Counting", question="?", answer="x")
        for i in (0, 1, 2, 1, 3, 3, 4)
    ]
    with pytest.raises(ValueError) as info:
        DatasetManifest(records)
    assert str(info.value) == "dataset repeats the id 'q1'"
    assert DatasetManifest(records[:3] + records[5:]).ids == ("q0", "q1", "q2", "q3", "q4")


@pytest.mark.parametrize("entries", [1, 2, 4, 5])
def test_select_rejects_a_mask_of_another_length(entries):
    records = [
        QARecord(id=f"q{i}", task="avqa", question_type="Counting", question="?", answer="x")
        for i in range(3)
    ]
    manifest = DatasetManifest(records)
    with pytest.raises(ValueError) as info:
        manifest.select([True] * entries)
    assert str(info.value) == f"keep has {entries} entries for 3 records"
    assert manifest.select([True, False, True]).ids == ("q0", "q2")


def test_parse_groups_match_from_records(write_jsonl):
    rows = [qa_row(i, task=["audio", "visual"][i % 2], qtype=["Counting", "Location"][i % 3 > 0])
            for i in range(9)]
    manifest = parse_dataset(write_jsonl(rows))
    rebuilt = DatasetManifest(manifest.records)
    assert list(manifest.groups.items()) == list(rebuilt.groups.items())
    assert all(type(key) is GroupKey for key in manifest.groups)


def test_groups_are_built_from_the_records_and_cannot_be_passed():
    records = [
        QARecord(id=f"q{i}", task=["audio", "visual"][i % 2], question_type="Counting",
                 question="?", answer="a")
        for i in range(4)
    ]
    manifest = DatasetManifest(records)
    assert list(manifest.groups) == [("audio", "Counting"), ("visual", "Counting")]
    assert manifest.groups[("audio", "Counting")] == Counter({"a": 2})
    assert all(type(group) is Counter for group in manifest.groups.values())
    with pytest.raises(TypeError):
        DatasetManifest(records, groups={})


def _retained_bytes(build):
    """Bytes still allocated once build() has returned, while its result is alive."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = build()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    del kept
    return retained


def test_parsed_records_retain_less_than_decoded_lines(write_jsonl):
    # labels from small closed sets, as in a real test split: many
    # questions per video, a few dozen answers, one extra field
    rows = [
        qa_row(i, task=("audio", "visual", "avqa")[i % 3], qtype=f"type {i % 7}",
               answer=f"answer {i % 31}", video_id=f"video{i // 8:05d}", difficulty=i % 5)
        for i in range(2000)
    ]
    path = write_jsonl(rows)
    lines = path.read_text(encoding="utf-8").splitlines()
    decoded = _retained_bytes(lambda: [json.loads(line) for line in lines])
    parsed = _retained_bytes(lambda: parse_dataset(path))
    # 0.24 with a tuple per field and one extras tuple per distinct value,
    # 0.28 with a record object per line, 0.43 with an extras dict per
    # record, 0.78 with a copy of each label per record (CPython 3.11)
    assert parsed <= 0.3 * decoded, (parsed / len(rows), decoded / len(rows))


def test_parse_is_deterministic(write_jsonl):
    path = write_jsonl([qa_row(i) for i in range(5)])
    assert parse_dataset(path) == parse_dataset(path)


def test_group_key_is_an_ordered_named_pair():
    key = GroupKey("audio", "Counting")
    assert (key.task, key.question_type) == ("audio", "Counting")
    assert repr(key) == "GroupKey(task='audio', question_type='Counting')"
    assert sorted([GroupKey("visual", "A"), GroupKey("audio", "Z"), GroupKey("audio", "B")]) == [
        GroupKey("audio", "B"),
        GroupKey("audio", "Z"),
        GroupKey("visual", "A"),
    ]
    # a plain (task, question_type) pair finds the key in a dict
    assert {key: 1}[("audio", "Counting")] == 1


# Characters that str.splitlines treats as line breaks but JSONL does not.
UNICODE_BREAKS = ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]


@pytest.mark.parametrize("char", UNICODE_BREAKS, ids=lambda c: f"U+{ord(c):04X}")
def test_non_newline_line_breaks_round_trip(char, tmp_path):
    records = [
        QARecord(
            id="q1",
            task="avqa",
            question_type="Counting",
            question=f"How many{char}instruments?",
            answer="two",
            extras=(("note", f"take{char}2"),),
        ),
        QARecord(id="q2", task="audio", question_type="Counting", question="?", answer="one"),
    ]
    manifest = DatasetManifest(records)
    path = tmp_path / "data.jsonl"
    write_dataset(manifest, path)
    # json.dumps escapes the C0 controls; U+0085, U+2028 and U+2029 are written raw
    text = path.read_text(encoding="utf-8")
    assert (char in text) == (ord(char) >= 0x80)
    assert text.count("\n") == 2
    parsed = parse_dataset(path)
    assert parsed == manifest
    assert parsed.records[0].question == f"How many{char}instruments?"


# (line, expected): the decoded object, None for a skipped blank line, or
# the exact DatasetError text json.loads leads to.
ODD_LINES = [
    ('{"id": "q1"}', {"id": "q1"}),
    ('  {"id": "q1"}', {"id": "q1"}),
    ('{"id": "q1"}\t ', {"id": "q1"}),
    ('{"id": "q1"}\r', {"id": "q1"}),
    ('\r', None),
    ("   \t ", None),
    ("", None),
    ("\u3000", None),
    ("\ufeff{}", "line 1: invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))"),
    ('{"id": "q1"} {"id": "q2"}', "line 1: invalid JSON (Extra data)"),
    ('{"id": "q1"}x', "line 1: invalid JSON (Extra data)"),
    ('{"x": NaN, "y": -Infinity}', {"x": float("nan"), "y": float("-inf")}),
    ("NaN", "line 1: record must be a JSON object"),
    ("[1, 2]", "line 1: record must be a JSON object"),
    ('"text"', "line 1: record must be a JSON object"),
    ("{}", {}),
    ("{", "line 1: invalid JSON (Expecting property name enclosed in double quotes)"),
    ('{"a": "b', "line 1: invalid JSON (Unterminated string starting at)"),
    ('{"a": 1,}', "line 1: invalid JSON (Expecting property name enclosed in double quotes)"),
    ('{"a": "x\u2028y"}', {"a": "x\u2028y"}),
    ('{"a": 1, "a": 2}', {"a": 2}),
]


@pytest.mark.parametrize("ending", ["\n", ""], ids=["newline", "end-of-file"])
@pytest.mark.parametrize("line, expected", ODD_LINES, ids=repr)
def test_odd_lines_decode_as_json_loads(line, expected, ending, tmp_path):
    path = tmp_path / "odd.jsonl"
    path.write_bytes((line + ending).encode("utf-8"))
    if isinstance(expected, str):
        with pytest.raises(DatasetError) as info:
            list(_iter_json_lines(path))
        assert str(info.value) == expected
        return
    got = list(_iter_json_lines(path))
    if expected is None:
        assert got == []
        return
    assert [line_no for line_no, _ in got] == [1]
    # compared as JSON text, so NaN equals NaN
    assert json.dumps(got[0][1]) == json.dumps(expected) == json.dumps(json.loads(line))


def test_crlf_and_blank_lines_keep_line_numbers(tmp_path):
    path = tmp_path / "crlf.jsonl"
    path.write_bytes(b'{"a": 1}\r\n\r\n  \r\n{"a": 2}\r\n[3]\r\n')
    lines = _iter_json_lines(path)
    assert next(lines) == (1, {"a": 1})
    assert next(lines) == (4, {"a": 2})
    with pytest.raises(DatasetError, match=r"^line 5: record must be a JSON object$"):
        next(lines)


def test_invalid_utf8_names_its_line(tmp_path):
    path = tmp_path / "bytes.jsonl"
    good = "".join(json.dumps({"id": f"q{i}", "prediction": "é"}) + "\n" for i in range(3000))
    path.write_bytes(good.encode("utf-8") + b'{"id": "q\xff", "prediction": "a"}\n')
    with pytest.raises(DatasetError) as info:
        parse_predictions(path)
    assert str(info.value) == "line 3001: invalid UTF-8 (invalid start byte)"


REQUIRED = ["id", "task", "question_type", "question", "answer"]


@pytest.mark.parametrize("field", REQUIRED)
@pytest.mark.parametrize("value", ["<missing>", None, 7, ["a"], {"a": "b"}, True])
def test_bad_required_field_names_line_and_field(field, value, write_jsonl):
    row = qa_row(2)
    if value == "<missing>":
        del row[field]
        message = f"line 2: missing field '{field}'"
    else:
        row[field] = value
        message = f"line 2: field '{field}' must be a string"
    path = write_jsonl([qa_row(1), row])
    with pytest.raises(DatasetError) as info:
        parse_dataset(path)
    assert str(info.value) == message


@pytest.mark.parametrize("field", ["video_id", "rephrase_of"])
@pytest.mark.parametrize("value", [7, ["a"], False])
def test_bad_optional_field_names_line_and_field(field, value, write_jsonl):
    path = write_jsonl([qa_row(1), qa_row(2, **{field: value})])
    with pytest.raises(DatasetError) as info:
        parse_dataset(path)
    assert str(info.value) == f"line 2: field '{field}' must be a string"


def test_null_optional_fields_are_absent(write_jsonl):
    manifest = parse_dataset(write_jsonl([qa_row(1, video_id=None, rephrase_of=None)]))
    assert manifest.records[0].video_id is None
    assert manifest.records[0].rephrase_of is None
    assert manifest.records[0].extras == ()


@pytest.mark.parametrize("value", ["", " ", "\t \u3000"], ids=repr)
def test_blank_question_type_is_rejected(value, write_jsonl):
    path = write_jsonl([qa_row(1), qa_row(2, qtype=value)])
    with pytest.raises(DatasetError) as info:
        parse_dataset(path)
    assert str(info.value) == "line 2: field 'question_type' must be non-empty"


def test_first_problem_on_a_line_is_reported(write_jsonl):
    # an empty id is checked before the missing task
    row = qa_row(1, id="")
    del row["task"]
    with pytest.raises(DatasetError) as info:
        parse_dataset(write_jsonl([row]))
    assert str(info.value) == "line 1: field 'id' must be non-empty"


@pytest.mark.parametrize("field", ["id", "prediction"])
@pytest.mark.parametrize("value", ["<missing>", None, 3, ["x"]])
def test_bad_prediction_field_names_line_and_field(field, value, tmp_path):
    row = {"id": "q2", "prediction": "yes"}
    if value == "<missing>":
        del row[field]
        message = f"line 2: missing field '{field}'"
    else:
        row[field] = value
        message = f"line 2: field '{field}' must be a string"
    path = tmp_path / "preds.jsonl"
    path.write_text('{"id": "q1", "prediction": "no"}\n' + json.dumps(row) + "\n")
    with pytest.raises(DatasetError) as info:
        parse_predictions(path)
    assert str(info.value) == message


def test_an_empty_prediction_id_names_its_line(tmp_path):
    # an empty id pairs with no gold id, so it is rejected where it is read;
    # it is checked before the prediction, as a dataset checks it first
    path = tmp_path / "preds.jsonl"
    path.write_text('{"id": "q1", "prediction": "no"}\n\n{"id": "", "prediction": 3}\n')
    with pytest.raises(DatasetError) as info:
        parse_predictions(path)
    assert str(info.value) == "line 3: field 'id' must be non-empty"


def test_predictions_basic(tmp_path):
    path = tmp_path / "preds.jsonl"
    path.write_text('{"id": "q1", "prediction": "yes"}\n{"id": "q2", "prediction": "no"}\n')
    preds = parse_predictions(path)
    assert list(preds.items()) == [("q1", "yes"), ("q2", "no")]


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


def test_predictions_duplicate_id_names_both_lines(tmp_path):
    path = tmp_path / "preds.jsonl"
    path.write_text(
        '{"id": "q1", "prediction": "a"}\n\n{"id": "q2", "prediction": "b"}\n'
        '{"id": "q1", "prediction": "a"}\n'
    )
    with pytest.raises(DatasetError) as info:
        parse_predictions(path)
    assert str(info.value) == "duplicate id 'q1' on lines 1 and 4"


def test_predictions_duplicate_id_after_blank_and_crlf_lines(tmp_path):
    path = tmp_path / "preds.jsonl"
    path.write_bytes(
        b'\r\n{"id": "q0", "prediction": "a"}\r\n\n  \r\n{"id": "q1", "prediction": "b"}\r\n'
        b'\r\n{"id": "q2", "prediction": "c"}\n{"id": "q1", "prediction": "d"}\r\n'
    )
    with pytest.raises(DatasetError) as info:
        parse_predictions(path)
    assert str(info.value) == "duplicate id 'q1' on lines 5 and 8"


def test_equal_predictions_share_one_string(tmp_path):
    path = tmp_path / "preds.jsonl"
    path.write_text("".join(json.dumps({"id": f"q{i}", "prediction": "cello"}) + "\n" for i in range(3)))
    preds = parse_predictions(path)
    assert preds["q0"] is preds["q1"] is preds["q2"]


def test_predictions_are_shared_within_a_parse_but_not_interned(tmp_path):
    # predictions are open text, so a parse keeps them out of the
    # process-wide intern table
    text = "a free-text prediction no other parse has seen"
    path = tmp_path / "preds.jsonl"
    path.write_text("".join(json.dumps({"id": f"q{i}", "prediction": text}) + "\n" for i in range(2)))
    preds = parse_predictions(path)
    assert preds["q0"] is preds["q1"]
    equal = "".join(list(text))
    assert equal is not preds["q0"]
    assert sys.intern(equal) is not preds["q0"]


def test_predictions_empty_file(tmp_path):
    path = tmp_path / "preds.jsonl"
    path.write_text("")
    assert parse_predictions(path) == {}


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
    manifest = DatasetManifest(records)
    # each record is counted once, in its own group
    assert {key: group.total() for key, group in manifest.groups.items()} == Counter(
        (rec.task, rec.question_type) for rec in records
    )
    # rebuilding from the same records yields identical grouping
    assert DatasetManifest(records).groups == manifest.groups


# JSON strings of any character but a lone surrogate, which UTF-8 cannot hold
json_texts = st.text(st.characters(exclude_categories=("Cs",)), max_size=6)
# every type of value records may share extras for, then a float and a list
extras_values = st.one_of(
    json_texts,
    st.integers(),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False),
    st.lists(st.integers(), max_size=2),
)
SCHEMA_FIELDS = ("id", "task", "question_type", "question", "answer", "video_id", "rephrase_of")


@st.composite
def canonical_dataset_texts(draw):
    """The text of a dataset in the form write_dataset gives: json.dumps of
    each record, the schema fields in order, then the extras."""
    ids = draw(st.lists(json_texts.filter(bool), max_size=8, unique=True))
    lines = []
    for i, rec_id in enumerate(ids):
        row = {
            "id": rec_id,
            "task": draw(st.sampled_from(TASKS)),
            "question_type": draw(json_texts.map(str.strip).filter(bool)),
            "question": draw(json_texts),
            "answer": draw(json_texts),
        }
        if draw(st.booleans()):
            row["video_id"] = draw(json_texts)
        # an earlier record, so that no reference makes a cycle
        if i and draw(st.booleans()):
            row["rephrase_of"] = draw(st.sampled_from(ids[:i]))
        keys = json_texts.filter(lambda key: key not in SCHEMA_FIELDS)
        row.update(draw(st.dictionaries(keys, extras_values, max_size=3)))
        lines.append(json.dumps(row, ensure_ascii=False) + "\n")
    return "".join(lines)


@settings(max_examples=150)
@given(text=canonical_dataset_texts())
@example(
    text="".join(
        json.dumps(row, ensure_ascii=False) + "\n"
        for row in [
            qa_row(1, video_id="v1", note="take\u20282", votes=3, checked=True, source=None),
            qa_row(2, rephrase_of="q1", note="take\u20282", votes=3, checked=True, source=None),
            qa_row(3, score=-0.0, tags=["ü", 1], big=2**70),
            qa_row(4, question='a "quoted"\\ \x01 question'),
        ]
    )
)
def test_writing_a_parsed_canonical_dataset_gives_its_bytes(text, tmp_path_factory):
    folder = tmp_path_factory.mktemp("round-trip")
    path, out = folder / "data.jsonl", folder / "out.jsonl"
    path.write_bytes(text.encode("utf-8"))
    write_dataset(parse_dataset(path), out)
    assert out.read_bytes() == path.read_bytes()
