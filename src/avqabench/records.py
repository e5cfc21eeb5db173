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
round-trip but otherwise ignored. A DatasetManifest holds its records as a
tuple and counts each (task, question_type) group's answers when it is
built, in one pass over the records, so the counts cannot disagree with the
records, and the tuple cannot gain or lose a record after a split has
labelled them. A rephrase_of reference must name a record of the same
dataset, and following the references from any record must end at a record
without one: a cycle has no original question.

Labels come from small closed sets and repeat across many records, so the
records of a dataset share their task, question_type, answer and video_id
strings and the keys of their extras through sys.intern: the interned
copies serve every dataset the process parses. Predictions are open text
that rarely repeats from one file to the next, so a prediction file's equal
predictions share one string through a dict kept for that parse alone;
interning them would grow the process-wide intern table with strings no
later parse looks up. A record's extras are a tuple of (key, value)
pairs in file order, and within one parse the records whose extras are
equal share one: equal in key order, in each value and in each value's
type, where every value is a str, int, bool or None. The JSON text of such
a value is fixed by its type and value, so sharing never merges 1 with
True or 1.0, or 0.0 with -0.0; a record with any other value (a float,
list or object) gets a tuple of its own. A parse remembers at most
_SHARED_EXTRAS_MAX distinct extras, so extras that never repeat (a
per-question id, say) cost one tuple per record, which the cyclic garbage
collector stops tracking once its values are atomic.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import Any, NamedTuple

TASKS = ("audio", "visual", "avqa")

# Decodes a line that is one JSON value and its "\n", with nothing around
# them; any other line goes through json.loads, so every line gets the
# standard library's result or its error. This is the scanner that
# JSONDecoder.raw_decode wraps, called without the wrapper: it raises
# StopIteration where raw_decode raises "Expecting value".
_scan_once = json.JSONDecoder().scan_once
# json.dumps(obj, ensure_ascii=False), without building an encoder per call.
_encode = json.JSONEncoder(ensure_ascii=False).encode
# Popped in place of a field the line does not have.
_MISSING = object()
# The types of the extras values that records may share a tuple for.
_SHAREABLE = frozenset((str, int, bool, type(None)))
# The most distinct extras one parse keeps for sharing; the rest are not shared.
_SHARED_EXTRAS_MAX = 4096
# The fields of a dataset line, which no record's extras may hold.
_SCHEMA_FIELDS = frozenset("id task question_type question answer video_id rephrase_of".split())


class DatasetError(ValueError):
    """A dataset or prediction file violates the line-delimited contract."""


class GroupKey(NamedTuple):
    """Key of a (task, question_type) group, the unit of the head/tail split.

    A tuple, so the plain pair (task, question_type) finds it in a dict.
    """

    task: str
    question_type: str


@dataclass(slots=True)
class QARecord:
    """One question of a dataset.

    `extras` holds the fields outside the schema as a tuple of (key, value)
    pairs in file order, empty for a record without them. to_dict rejects
    extras that hold a schema field, as parsed ones never do.
    """

    id: str
    task: str
    question_type: str
    question: str
    answer: str
    video_id: str | None = None
    rephrase_of: str | None = None
    extras: tuple[tuple[str, Any], ...] = ()

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
        extras = dict(self.extras)
        for key in extras:
            if key in _SCHEMA_FIELDS:
                raise ValueError(f"record {self.id!r}: extras key {key!r} is a schema field")
        out.update(extras)
        return out


@dataclass(frozen=True)
class DatasetManifest:
    """Ordered records plus each (task, question_type) group's answer counts,
    groups and answers in first-seen order. The records are taken from any
    iterable and kept as a tuple; the manifest is frozen, so neither can be
    replaced once a split has read them."""

    records: tuple[QARecord, ...]
    groups: dict[GroupKey, Counter[str]] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        counts = Counter(map(attrgetter("task", "question_type", "answer"), self.records))
        groups: dict[GroupKey, Counter[str]] = {}
        for (task, question_type, answer), count in counts.items():
            groups.setdefault(GroupKey(task, question_type), Counter())[answer] = count
        object.__setattr__(self, "groups", groups)

    def __len__(self) -> int:
        return len(self.records)


def _field_error(line_no: int, key: str, value) -> DatasetError:
    """The error for a required field that is absent or not a string."""
    if value is _MISSING:
        return DatasetError(f"line {line_no}: missing field '{key}'")
    return DatasetError(f"line {line_no}: field '{key}' must be a string")


def _parse_record_line(
    raw: dict, line_no: int, extras_cache: dict[tuple, tuple]
) -> QARecord:
    """Build a record from a freshly decoded line, consuming `raw`.

    Each known field is popped and checked in turn, so the first problem
    on the line is the one reported; the fields left over are the extras.
    Labels are interned once checked. The extras become a tuple of
    (key, value) pairs, unless `extras_cache` already holds an equal one.

    `extras_cache` maps the signature of some extras (their keys in
    order, then their values, then their values' types) to the shared
    tuple. Only extras whose values are all of a _SHAREABLE type have a
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
        extras = tuple(zip(map(sys.intern, raw), raw.values()))
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
                raw, end = _scan_once(line, 0)
                rest = line[end:]
            except (json.JSONDecodeError, StopIteration):
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
    duplicate ids (both occurrences are named), dangling rephrase_of
    references and rephrase_of cycles (the cycle's first line is named).
    Record order is preserved.
    """
    records: list[QARecord] = []
    seen: set[str] = set()
    extras_cache: dict[tuple, tuple] = {(): ()}
    for line_no, raw in _iter_json_lines(path):
        rec = _parse_record_line(raw, line_no, extras_cache)
        if rec.id in seen:
            first = _first_line_of(path, rec.id)
            raise DatasetError(f"duplicate id {rec.id!r} on lines {first} and {line_no}")
        seen.add(rec.id)
        records.append(rec)

    rephrased = {rec.id: rec.rephrase_of for rec in records if rec.rephrase_of is not None}
    if not seen.issuperset(rephrased.values()):
        rec_id = next(rec_id for rec_id, target in rephrased.items() if target not in seen)
        raise DatasetError(
            f"line {_first_line_of(path, rec_id)}: rephrase_of {rephrased[rec_id]!r} "
            "does not reference an id in this dataset"
        )
    # Every record on a cycle is both rephrased and a rephrasing. If some
    # are, follow each chain until it ends at a record without rephrase_of,
    # or at one an earlier walk reached; a walk that meets itself is a cycle.
    if not rephrased.keys().isdisjoint(rephrased.values()):
        walked: dict[str, int] = {}
        for walk, rec_id in enumerate(rephrased):
            while rec_id in rephrased and rec_id not in walked:
                walked[rec_id] = walk
                rec_id = rephrased[rec_id]
            if walked.get(rec_id) == walk:
                cycle = [rec_id]
                while rephrased[cycle[-1]] != rec_id:
                    cycle.append(rephrased[cycle[-1]])
                first = next(filter(set(cycle).__contains__, rephrased))
                start = cycle.index(first)
                cycle = cycle[start:] + cycle[: start + 1]
                raise DatasetError(
                    f"line {_first_line_of(path, first)}: rephrase_of cycle {' -> '.join(cycle)}"
                )
    return DatasetManifest(records)


def parse_predictions(path: str | Path) -> dict[str, str]:
    """Parse a line-delimited prediction file into {id: prediction}.

    One record per non-empty line, kept in file order; duplicate ids
    within one file are an error, as is a line without a 'prediction'
    field. Equal predictions share one string, through a dict local to
    this parse.
    """
    preds: dict[str, str] = {}
    shared: dict[str, str] = {}
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
        preds[rec_id] = shared.setdefault(prediction, prediction)
    return preds


def write_dataset(manifest: DatasetManifest, path: str | Path) -> None:
    """Serialize a manifest back to the line-delimited format, a line at a time."""
    with open(path, "w", encoding="utf-8") as out:
        for rec in manifest.records:
            out.write(_encode(rec.to_dict()) + "\n")
