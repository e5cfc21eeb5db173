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
round-trip but otherwise ignored. A DatasetManifest groups its records by
(task, question_type) when it is built: each group holds the record objects
themselves, the same objects as the record list and in file order, so the
groups cannot disagree with the records.

Labels come from small closed sets and repeat across many records, so a
parse keeps one string object per distinct value: the records of a dataset
share their task, question_type, answer and video_id strings and the keys
of their extras (via sys.intern), and a prediction file's equal
predictions share one string. A record's extras are a read-only dict,
and within one parse the records whose extras are equal share one: equal
in key order, in each value and in each value's type, where every value is
a str, int, bool or None. The JSON text of such a value is fixed by its
type and value, so sharing never merges 1 with True or 1.0, or 0.0 with
-0.0; a record with any other value (a float, list or object) gets a dict
of its own, the same size as a plain dict. A parse remembers at most
_SHARED_EXTRAS_MAX distinct extras, so extras that never repeat (a
per-question id, say) cost no more than a dict per record.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, NamedTuple

TASKS = ("audio", "visual", "avqa")

# Decodes a line that is one JSON value and its "\n", with nothing around
# them; any other line goes through json.loads, so every line gets the
# standard library's result or its error.
_raw_decode = json.JSONDecoder().raw_decode
# json.dumps(obj, ensure_ascii=False), without building an encoder per call.
_encode = json.JSONEncoder(ensure_ascii=False).encode
# Popped in place of a field the line does not have.
_MISSING = object()
# The types of the extras values that records may share a dict for.
_SHAREABLE = frozenset((str, int, bool, type(None)))
# The most distinct extras one parse keeps for sharing; the rest are not shared.
_SHARED_EXTRAS_MAX = 4096


class _ReadOnlyDict(dict):
    """A dict whose methods refuse to change it, so records can share one."""

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError("a record's extras are read-only")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return _ReadOnlyDict, (dict(self),)


# The extras of every record that has none.
_NO_EXTRAS: Mapping[str, Any] = _ReadOnlyDict()


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
    """One question of a dataset.

    `extras` holds the fields outside the schema, in file order, as a
    read-only dict; a record built without them shares one empty dict.
    """

    id: str
    task: str
    question_type: str
    question: str
    answer: str
    video_id: str | None = None
    rephrase_of: str | None = None
    extras: Mapping[str, Any] = field(default_factory=lambda: _NO_EXTRAS)

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


@dataclass
class DatasetManifest:
    """Ordered records plus the (task, question_type) groups built from them,
    groups and members in first-seen order."""

    records: list[QARecord]
    groups: dict[GroupKey, list[QARecord]] = field(init=False)

    def __post_init__(self):
        groups: dict[GroupKey, list[QARecord]] = {}
        for rec in self.records:
            key = (rec.task, rec.question_type)
            group = groups.get(key)
            if group is None:
                groups[GroupKey(*key)] = group = []
            group.append(rec)
        self.groups = groups

    def __len__(self) -> int:
        return len(self.records)


def _field_error(line_no: int, key: str, value) -> DatasetError:
    """The error for a required field that is absent or not a string."""
    if value is _MISSING:
        return DatasetError(f"line {line_no}: missing field '{key}'")
    return DatasetError(f"line {line_no}: field '{key}' must be a string")


def _parse_record_line(
    raw: dict, line_no: int, extras_cache: dict[tuple, Mapping[str, Any]]
) -> QARecord:
    """Build a record from a freshly decoded line, consuming `raw`.

    Each known field is popped and checked in turn, so the first problem
    on the line is the one reported; the fields left over are the extras.
    Labels are interned once checked. The extras are copied to a new
    read-only dict, because a dict keeps its size when keys are popped,
    unless `extras_cache` already holds an equal one.

    `extras_cache` maps the signature of some extras (their keys in
    order, then their values, then their values' types) to the shared
    dict. Only extras whose values are all of a _SHAREABLE type have a
    signature, and the cache stops taking new ones once it holds
    _SHARED_EXTRAS_MAX.
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
    if _SHAREABLE.issuperset(map(type, raw.values())):
        signature = (*raw, *raw.values(), *map(type, raw.values()))
    else:
        signature = None
    extras = extras_cache.get(signature)  # None is never a key
    if extras is None:
        extras = _ReadOnlyDict({sys.intern(key): value for key, value in raw.items()})
        if signature is not None and len(extras_cache) < _SHARED_EXTRAS_MAX:
            extras_cache[signature] = extras
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


def _first_line_of(path: str | Path, rec_id: str) -> int:
    """The number of the first line of a file whose record has id `rec_id`.

    Read again only to word an error, so a parse need not keep every id's
    line number.
    """
    return next(n for n, raw in _iter_json_lines(path) if raw.get("id") == rec_id)


def parse_dataset(path: str | Path) -> DatasetManifest:
    """Parse a line-delimited dataset file into a manifest.

    Raises DatasetError naming the offending line for malformed lines,
    duplicate ids (both occurrences are named), and dangling rephrase_of
    references. Record order is preserved.
    """
    records: list[QARecord] = []
    seen: set[str] = set()
    extras_cache: dict[tuple, Mapping[str, Any]] = {(): _NO_EXTRAS}
    for line_no, raw in _iter_json_lines(path):
        rec = _parse_record_line(raw, line_no, extras_cache)
        if rec.id in seen:
            first = _first_line_of(path, rec.id)
            raise DatasetError(f"duplicate id {rec.id!r} on lines {first} and {line_no}")
        seen.add(rec.id)
        records.append(rec)

    for rec in records:
        if rec.rephrase_of is not None and rec.rephrase_of not in seen:
            raise DatasetError(
                f"line {_first_line_of(path, rec.id)}: rephrase_of {rec.rephrase_of!r} "
                "does not reference an id in this dataset"
            )
    return DatasetManifest(records)


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
            first = _first_line_of(path, rec_id)
            raise DatasetError(f"duplicate id {rec_id!r} on lines {first} and {line_no}")
        preds[rec_id] = sys.intern(prediction)
    return preds


def write_dataset(manifest: DatasetManifest, path: str | Path) -> None:
    """Serialize a manifest back to the line-delimited format, a line at a time."""
    with open(path, "w", encoding="utf-8") as out:
        for rec in manifest.records:
            out.write(_encode(rec.to_dict()) + "\n")
