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
round-trip but otherwise ignored. A string may also hold a lone surrogate,
from a JSON escape of a code point in U+D800..U+DFFF that is not half of a
pair; UTF-8 cannot encode it, so the writers write it back as that escape.
A DatasetManifest holds a dataset as columns: one tuple per field, in file
order, so that the stages after the parse read the fields they need
without a record object per line. It counts each (task, question_type)
group's answers when it is built, in one pass over the columns, so the
counts cannot disagree with the records, and no column can gain, lose or
change a value after a split has labelled the records. Its `records` are
QARecord rows built from the columns on each read: copies, so changing one
leaves the manifest as it was.
`parse_dataset` requires a rephrase_of reference to name a record of the
same dataset, and following the references from any record to end at a
record without one: a cycle has no original question. A manifest built
any other way is not checked. `DatasetManifest(rows)` accepts a dangling
reference, and `select` makes one when it keeps a rephrasing without its
target; the file `write_dataset` then writes fails to parse.

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
from dataclasses import dataclass, fields
from itertools import compress
from operator import attrgetter
from pathlib import Path
from typing import Any, Iterable, NamedTuple

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
    """One question of a dataset: a row of a DatasetManifest.

    `extras` holds the fields outside the schema as a tuple of (key, value)
    pairs in file order, empty for a record without them. write_dataset
    rejects extras that hold a schema field, as parsed ones never do.
    """

    id: str
    task: str
    question_type: str
    question: str
    answer: str
    video_id: str | None = None
    rephrase_of: str | None = None
    extras: tuple[tuple[str, Any], ...] = ()


# A manifest's columns, in the order of a record's fields.
_COLUMNS = (
    "ids", "tasks", "question_types", "questions", "answers", "video_ids", "rephrase_of", "extras"
)
# A record's field values, and a manifest's columns, in that order.
_row = attrgetter(*(f.name for f in fields(QARecord)))
_columns = attrgetter(*_COLUMNS)


@dataclass(frozen=True, init=False)
class DatasetManifest:
    """A dataset as one tuple per field, in file order, plus each (task,
    question_type) group's answer counts, groups and answers in first-seen
    order.

    Built from QARecord rows, taken from any iterable; an id that repeats
    is an error. The manifest is frozen, so no column can be replaced once
    a split has read it. `records` builds the rows again on each read."""

    ids: tuple[str, ...]
    tasks: tuple[str, ...]
    question_types: tuple[str, ...]
    questions: tuple[str, ...]
    answers: tuple[str, ...]
    video_ids: tuple[str | None, ...]
    rephrase_of: tuple[str | None, ...]
    extras: tuple[tuple[tuple[str, Any], ...], ...]
    groups: dict[GroupKey, Counter[str]]

    def __init__(self, records: Iterable[QARecord]):
        self._set_columns(tuple(zip(*map(_row, records))) or [()] * len(_COLUMNS))
        seen: set[str] = set()
        for rec_id in self.ids:
            if rec_id in seen:
                raise ValueError(f"dataset repeats the id {rec_id!r}")
            seen.add(rec_id)

    @classmethod
    def _of_columns(cls, columns) -> DatasetManifest:
        """The manifest of columns whose ids are already known to be distinct."""
        manifest = object.__new__(cls)
        manifest._set_columns(columns)
        return manifest

    def _set_columns(self, columns) -> None:
        for name, column in zip(_COLUMNS, columns):
            object.__setattr__(self, name, tuple(column))
        counts = Counter(zip(self.tasks, self.question_types, self.answers))
        groups: dict[GroupKey, Counter[str]] = {}
        for (task, question_type, answer), count in counts.items():
            groups.setdefault(GroupKey(task, question_type), Counter())[answer] = count
        object.__setattr__(self, "groups", groups)

    def select(self, keep: Iterable[bool]) -> DatasetManifest:
        """The manifest of the records whose entry in `keep` is true, in file
        order; its ids are distinct, as a subset of this manifest's. `keep`
        holds one entry per record."""
        keep = list(keep)
        if len(keep) != len(self):
            raise ValueError(f"keep has {len(keep)} entries for {len(self)} records")
        return self._of_columns([tuple(compress(column, keep)) for column in _columns(self)])

    @property
    def records(self) -> tuple[QARecord, ...]:
        """The rows in file order, built from the columns on each read."""
        return tuple(map(QARecord, *_columns(self)))

    def __len__(self) -> int:
        return len(self.ids)


def _field_error(line_no: int, key: str, value) -> DatasetError:
    """The error for a required field that is absent or not a string."""
    if value is _MISSING:
        return DatasetError(f"line {line_no}: missing field '{key}'")
    return DatasetError(f"line {line_no}: field '{key}' must be a string")


def _parse_record_line(raw: dict, line_no: int, extras_cache: dict[tuple, tuple]) -> tuple:
    """A record's field values, in column order, from a freshly decoded
    line, consuming `raw`.

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
    return (
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
    # every record's field values, one record after another
    values: list = []
    seen: set[str] = set()
    extras_cache: dict[tuple, tuple] = {(): ()}
    for line_no, raw in _iter_json_lines(path):
        row = _parse_record_line(raw, line_no, extras_cache)
        rec_id = row[0]
        if rec_id in seen:
            first = _first_line_of(path, rec_id)
            raise DatasetError(f"duplicate id {rec_id!r} on lines {first} and {line_no}")
        seen.add(rec_id)
        values += row
    n = len(_COLUMNS)
    columns = [values[k::n] for k in range(n)]
    del values  # before the columns become tuples, so that two copies at most are alive

    ids, *_, rephrase_of, _ = columns
    rephrased = {rec_id: target for rec_id, target in zip(ids, rephrase_of) if target is not None}
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
    return DatasetManifest._of_columns(columns)


def parse_predictions(path: str | Path) -> dict[str, str]:
    """Parse a line-delimited prediction file into {id: prediction}.

    One record per non-empty line, kept in file order; duplicate ids
    within one file are an error, as are an empty id (as in a dataset) and
    a line without a 'prediction' field. Equal predictions share one
    string, through a dict local to this parse.
    """
    preds: dict[str, str] = {}
    shared: dict[str, str] = {}
    for line_no, raw in _iter_json_lines(path):
        rec_id = raw.get("id", _MISSING)
        if type(rec_id) is not str:
            raise _field_error(line_no, "id", rec_id)
        if not rec_id:
            raise DatasetError(f"line {line_no}: field 'id' must be non-empty")
        prediction = raw.get("prediction", _MISSING)
        if type(prediction) is not str:
            raise _field_error(line_no, "prediction", prediction)
        if rec_id in preds:
            first = _first_line_of(path, rec_id)
            raise DatasetError(f"duplicate id {rec_id!r} on lines {first} and {line_no}")
        preds[rec_id] = shared.setdefault(prediction, prediction)
    return preds


def write_dataset(manifest: DatasetManifest, path: str | Path) -> None:
    """Serialize a manifest back to the line-delimited format, a line at a time:
    the schema fields in their order, a null optional field left out, then
    the extras. Extras that hold a schema field are an error."""
    with open(path, "w", encoding="utf-8", errors="backslashreplace") as out:
        for rec_id, task, qtype, question, answer, video_id, rephrase_of, extras in zip(
            *_columns(manifest)
        ):
            line = {
                "id": rec_id,
                "task": task,
                "question_type": qtype,
                "question": question,
                "answer": answer,
            }
            if video_id is not None:
                line["video_id"] = video_id
            if rephrase_of is not None:
                line["rephrase_of"] = rephrase_of
            if extras:
                extras = dict(extras)
                for key in extras:
                    if key in _SCHEMA_FIELDS:
                        raise ValueError(f"record {rec_id!r}: extras key {key!r} is a schema field")
                line.update(extras)
            out.write(_encode(line) + "\n")
