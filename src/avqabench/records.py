"""Dataset and prediction records: schema, parsing, validation, serialization.

Datasets are line-delimited JSON, one record per line:

    {"id", "task", "question_type", "question", "answer",
     "video_id"?, "rephrase_of"?}

Prediction files are line-delimited JSON with {"id", "prediction"}, and
parse to a dict from id to prediction text, in file order.

In both, lines are separated by "\n" only and each is decoded as UTF-8 on
its own. A string may hold any other line or paragraph separator raw
(U+2028, U+0085, form feed, ...), and a "\r" before the "\n" is JSON
whitespace. Unknown extra fields on dataset records are preserved on
round-trip but otherwise ignored. Records are grouped by (task,
question_type): each group holds the record objects themselves, the same
objects as the record list and in file order, so grouping is rebuilt
identically from the same records.

Labels come from small closed sets and repeat across many records, so a
parse keeps one string object per distinct value: the records of a dataset
share their task, question_type, answer and video_id strings and the keys
of their extras (via sys.intern), and a prediction file's equal
predictions share one string. Each record's extras dict is its own.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

TASKS = ("audio", "visual", "avqa")

# Decodes a line that is one JSON value and its "\n", with nothing around
# them; any other line goes through json.loads, so every line gets the
# standard library's result or its error.
_raw_decode = json.JSONDecoder().raw_decode
# Popped in place of a field the line does not have.
_MISSING = object()


class DatasetError(ValueError):
    """A dataset or prediction file violates the line-delimited contract."""


class GroupKey(NamedTuple):
    """Grouping key for balance and split operations.

    A tuple, so the plain pair (task, question_type) finds it in a dict.
    """

    task: str
    question_type: str


@dataclass(slots=True)
class QARecord:
    id: str
    task: str
    question_type: str
    question: str
    answer: str
    video_id: str | None = None
    rephrase_of: str | None = None
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "id": self.id,
            "task": self.task,
            "question_type": self.question_type,
            "question": self.question,
            "answer": self.answer,
        }
        if self.video_id is not None:
            out["video_id"] = self.video_id
        if self.rephrase_of is not None:
            out["rephrase_of"] = self.rephrase_of
        out.update(self.extras)
        return out


def group_records(records: list[QARecord]) -> dict[GroupKey, list[QARecord]]:
    """Records by (task, question_type), groups and members in first-seen order."""
    groups: dict[GroupKey, list[QARecord]] = {}
    for rec in records:
        key = (rec.task, rec.question_type)
        group = groups.get(key)
        if group is None:
            groups[GroupKey(*key)] = group = []
        group.append(rec)
    return groups


@dataclass
class DatasetManifest:
    """Ordered records plus the derived (task, question_type) grouping."""

    records: list[QARecord]
    groups: dict[GroupKey, list[QARecord]]

    @classmethod
    def from_records(cls, records: list[QARecord]) -> "DatasetManifest":
        """Group the records; raises DatasetError naming a repeated id."""
        ids: set[str] = set()
        for rec in records:
            if rec.id in ids:
                raise DatasetError(f"duplicate id {rec.id!r}")
            ids.add(rec.id)
        return cls(records=list(records), groups=group_records(records))

    def __len__(self) -> int:
        return len(self.records)


def _field_error(line_no: int, key: str, value) -> DatasetError:
    """The error for a required field that is absent or not a string."""
    if value is _MISSING:
        return DatasetError(f"line {line_no}: missing field '{key}'")
    return DatasetError(f"line {line_no}: field '{key}' must be a string")


def _parse_record_line(raw: dict, line_no: int) -> QARecord:
    """Build a record from a freshly decoded line, consuming `raw`.

    Each known field is popped and checked in turn, so the first problem
    on the line is the one reported; the fields left over are the extras.
    Labels are interned once checked. The extras are copied to a fresh
    dict, because a dict keeps its size when keys are popped.
    """
    rec_id = raw.pop("id", _MISSING)
    if type(rec_id) is not str:
        raise _field_error(line_no, "id", rec_id)
    if not rec_id:
        raise DatasetError(f"line {line_no}: field 'id' must be non-empty")
    task = raw.pop("task", _MISSING)
    if type(task) is not str:
        raise _field_error(line_no, "task", task)
    task = task.strip()
    if task not in TASKS:
        raise DatasetError(
            f"line {line_no}: field 'task' must be one of {'/'.join(TASKS)}, got {task!r}"
        )
    # question_type labels form a closed set; compare case-sensitively after
    # trimming surrounding whitespace only.
    question_type = raw.pop("question_type", _MISSING)
    if type(question_type) is not str:
        raise _field_error(line_no, "question_type", question_type)
    question_type = question_type.strip()
    if not question_type:
        raise DatasetError(f"line {line_no}: field 'question_type' must be non-empty")
    question = raw.pop("question", _MISSING)
    if type(question) is not str:
        raise _field_error(line_no, "question", question)
    answer = raw.pop("answer", _MISSING)
    if type(answer) is not str:
        raise _field_error(line_no, "answer", answer)

    video_id = raw.pop("video_id", None)
    if video_id is not None and type(video_id) is not str:
        raise DatasetError(f"line {line_no}: field 'video_id' must be a string")
    rephrase_of = raw.pop("rephrase_of", None)
    if rephrase_of is not None and type(rephrase_of) is not str:
        raise DatasetError(f"line {line_no}: field 'rephrase_of' must be a string")
    if video_id is not None:
        video_id = sys.intern(video_id)
    extras = {sys.intern(key): value for key, value in raw.items()}
    return QARecord(
        rec_id,
        sys.intern(task),
        sys.intern(question_type),
        question,
        sys.intern(answer),
        video_id,
        rephrase_of,
        extras,
    )


def _iter_json_lines(path: str | Path):
    """Yield (line_no, parsed_object) for each non-blank line of a file.

    The file is read a line at a time, and lines end at "\n" only. Each
    line is decoded as UTF-8 on its own, so a bad byte names its line. A
    line that is not exactly one JSON value before its "\n" (surrounding
    whitespace, a "\r", a BOM, trailing data, bad JSON) is handed to
    json.loads, which accepts or rejects it as it always does.
    """
    with open(path, "rb") as lines:
        for line_no, data in enumerate(lines, start=1):
            try:
                line = data.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DatasetError(f"line {line_no}: invalid UTF-8 ({exc.reason})") from exc
            try:
                raw, end = _raw_decode(line)
                rest = line[end:]
            except json.JSONDecodeError:
                rest = None
            if rest not in ("\n", ""):
                line = line.removesuffix("\n")
                if not line.strip():
                    continue
                try:
                    raw = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise DatasetError(f"line {line_no}: invalid JSON ({exc.msg})") from exc
            if type(raw) is not dict:
                raise DatasetError(f"line {line_no}: record must be a JSON object")
            yield line_no, raw


def parse_dataset(path: str | Path) -> DatasetManifest:
    """Parse a line-delimited dataset file into a manifest.

    Raises DatasetError naming the offending line for malformed lines,
    duplicate ids (both occurrences are named), and dangling rephrase_of
    references. Record order is preserved.
    """
    records: list[QARecord] = []
    seen: dict[str, int] = {}
    for line_no, raw in _iter_json_lines(path):
        rec = _parse_record_line(raw, line_no)
        first = seen.setdefault(rec.id, line_no)
        if first != line_no:
            raise DatasetError(f"duplicate id {rec.id!r} on lines {first} and {line_no}")
        records.append(rec)

    for rec in records:
        if rec.rephrase_of is not None and rec.rephrase_of not in seen:
            raise DatasetError(
                f"line {seen[rec.id]}: rephrase_of {rec.rephrase_of!r} "
                "does not reference an id in this dataset"
            )
    return DatasetManifest(records, group_records(records))


def parse_predictions(path: str | Path) -> dict[str, str]:
    """Parse a line-delimited prediction file into {id: prediction}.

    One record per non-empty line, kept in file order; duplicate ids
    within one file are an error, as is a line without a 'prediction'
    field. Equal predictions share one interned string.
    """
    preds: dict[str, str] = {}
    for line_no, raw in _iter_json_lines(path):
        rec_id = raw.get("id", _MISSING)
        if type(rec_id) is not str:
            raise _field_error(line_no, "id", rec_id)
        prediction = raw.get("prediction", _MISSING)
        if type(prediction) is not str:
            raise _field_error(line_no, "prediction", prediction)
        if rec_id in preds:
            first = next(n for n, earlier in _iter_json_lines(path) if earlier.get("id") == rec_id)
            raise DatasetError(f"duplicate id {rec_id!r} on lines {first} and {line_no}")
        preds[rec_id] = sys.intern(prediction)
    return preds


@dataclass
class ValidationReport:
    """Ids that fail to pair up between a gold manifest and predictions."""

    missing_predictions: list[str]
    orphan_predictions: list[str]

    @property
    def valid(self) -> bool:
        return not self.missing_predictions and not self.orphan_predictions


def validate_pair(manifest: DatasetManifest, preds: dict[str, str]) -> ValidationReport:
    """Report gold ids with no prediction and prediction ids with no gold record."""
    gold_ids = {rec.id for rec in manifest.records}
    missing = [rec.id for rec in manifest.records if rec.id not in preds]
    orphans = [pid for pid in preds if pid not in gold_ids]
    return ValidationReport(missing_predictions=missing, orphan_predictions=orphans)


def write_dataset(manifest: DatasetManifest, path: str | Path) -> None:
    """Serialize a manifest back to the line-delimited format, a line at a time."""
    with open(path, "w", encoding="utf-8") as out:
        for rec in manifest.records:
            out.write(json.dumps(rec.to_dict(), ensure_ascii=False) + "\n")
