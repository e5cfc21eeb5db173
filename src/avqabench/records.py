"""Dataset and prediction records: schema, parsing, validation, serialization.

Datasets are line-delimited JSON, one record per line:

    {"id", "task", "question_type", "question", "answer",
     "video_id"?, "rephrase_of"?}

Prediction files are line-delimited JSON with {"id", "prediction"}.
Unknown extra fields on dataset records are preserved on round-trip but
otherwise ignored. Records are grouped by (task, question_type): each
group holds the record objects themselves, the same objects as the record
list and in file order, so grouping is rebuilt identically from the same
records.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

TASKS = ("audio", "visual", "avqa")

_REQUIRED_FIELDS = ("id", "task", "question_type", "question", "answer")
_OPTIONAL_FIELDS = ("video_id", "rephrase_of")


class DatasetError(ValueError):
    """A dataset or prediction file violates the line-delimited contract."""


@dataclass(frozen=True, order=True)
class GroupKey:
    """Grouping key for balance and split operations."""

    task: str
    question_type: str


@dataclass
class QARecord:
    id: str
    task: str
    question_type: str
    question: str
    answer: str
    video_id: str | None = None
    rephrase_of: str | None = None
    extras: dict = field(default_factory=dict)

    @property
    def group(self) -> GroupKey:
        return GroupKey(self.task, self.question_type)

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
class PredictionRecord:
    id: str
    prediction: str


@dataclass
class DatasetManifest:
    """Ordered records plus the derived (task, question_type) grouping."""

    records: list[QARecord]
    groups: dict[GroupKey, list[QARecord]]

    @classmethod
    def from_records(cls, records: list[QARecord]) -> "DatasetManifest":
        """Group the records; raises DatasetError naming a repeated id."""
        groups: dict[GroupKey, list[QARecord]] = {}
        ids: set[str] = set()
        for rec in records:
            if rec.id in ids:
                raise DatasetError(f"duplicate id {rec.id!r}")
            ids.add(rec.id)
            groups.setdefault(rec.group, []).append(rec)
        return cls(records=list(records), groups=groups)

    def __len__(self) -> int:
        return len(self.records)


def _require_str(raw: dict, key: str, line_no: int) -> str:
    if key not in raw:
        raise DatasetError(f"line {line_no}: missing field '{key}'")
    value = raw[key]
    if not isinstance(value, str):
        raise DatasetError(f"line {line_no}: field '{key}' must be a string")
    return value


def _parse_record_line(raw: dict, line_no: int) -> QARecord:
    rec_id = _require_str(raw, "id", line_no)
    if not rec_id:
        raise DatasetError(f"line {line_no}: field 'id' must be non-empty")
    task = _require_str(raw, "task", line_no).strip()
    if task not in TASKS:
        raise DatasetError(
            f"line {line_no}: field 'task' must be one of {'/'.join(TASKS)}, got {task!r}"
        )
    # question_type labels form a closed set; compare case-sensitively after
    # trimming surrounding whitespace only.
    question_type = _require_str(raw, "question_type", line_no).strip()
    if not question_type:
        raise DatasetError(f"line {line_no}: field 'question_type' must be non-empty")
    question = _require_str(raw, "question", line_no)
    answer = _require_str(raw, "answer", line_no)

    video_id = raw.get("video_id")
    if video_id is not None and not isinstance(video_id, str):
        raise DatasetError(f"line {line_no}: field 'video_id' must be a string")
    rephrase_of = raw.get("rephrase_of")
    if rephrase_of is not None and not isinstance(rephrase_of, str):
        raise DatasetError(f"line {line_no}: field 'rephrase_of' must be a string")

    extras = {
        k: v
        for k, v in raw.items()
        if k not in _REQUIRED_FIELDS and k not in _OPTIONAL_FIELDS
    }
    return QARecord(
        id=rec_id,
        task=task,
        question_type=question_type,
        question=question,
        answer=answer,
        video_id=video_id,
        rephrase_of=rephrase_of,
        extras=extras,
    )


def _iter_json_lines(path: str | Path):
    """Yield (line_no, parsed_object) for each non-blank line of a file."""
    text = Path(path).read_text(encoding="utf-8")
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"line {line_no}: invalid JSON ({exc.msg})") from exc
        if not isinstance(raw, dict):
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
        if rec.id in seen:
            raise DatasetError(
                f"duplicate id {rec.id!r} on lines {seen[rec.id]} and {line_no}"
            )
        seen[rec.id] = line_no
        records.append(rec)

    for rec in records:
        if rec.rephrase_of is not None and rec.rephrase_of not in seen:
            raise DatasetError(
                f"line {seen[rec.id]}: rephrase_of {rec.rephrase_of!r} "
                "does not reference an id in this dataset"
            )
    return DatasetManifest.from_records(records)


def parse_predictions(path: str | Path) -> list[PredictionRecord]:
    """Parse a line-delimited prediction file.

    One record per non-empty line; duplicate ids within one file are an
    error, as is a line without a 'prediction' field.
    """
    preds: list[PredictionRecord] = []
    seen: dict[str, int] = {}
    for line_no, raw in _iter_json_lines(path):
        rec_id = _require_str(raw, "id", line_no)
        prediction = _require_str(raw, "prediction", line_no)
        if rec_id in seen:
            raise DatasetError(
                f"duplicate id {rec_id!r} on lines {seen[rec_id]} and {line_no}"
            )
        seen[rec_id] = line_no
        preds.append(PredictionRecord(id=rec_id, prediction=prediction))
    return preds


@dataclass
class ValidationReport:
    """Ids that fail to pair up between a gold manifest and predictions."""

    missing_predictions: list[str]
    orphan_predictions: list[str]

    @property
    def valid(self) -> bool:
        return not self.missing_predictions and not self.orphan_predictions


def validate_pair(
    manifest: DatasetManifest, preds: list[PredictionRecord]
) -> ValidationReport:
    """Report gold ids with no prediction and prediction ids with no gold record."""
    gold_ids = {rec.id for rec in manifest.records}
    pred_ids = {p.id for p in preds}
    missing = [rec.id for rec in manifest.records if rec.id not in pred_ids]
    orphans = [p.id for p in preds if p.id not in gold_ids]
    return ValidationReport(missing_predictions=missing, orphan_predictions=orphans)


def write_dataset(manifest: DatasetManifest, path: str | Path) -> None:
    """Serialize a manifest back to the line-delimited format."""
    lines = [json.dumps(rec.to_dict(), ensure_ascii=False) for rec in manifest.records]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
