"""Golden outputs: every pipeline output on a small checked-in dataset, byte
for byte.

`data/golden` holds the fixture, written once and kept as files rather than
as the draws that made them. `dataset.jsonl` has 195 records in 9 groups:
rephrase families, each within one (task, question_type, answer) cell;
extras of every type records share (str, int, bool, null) and of some they
do not (float, -0.0, list, an integer past 64 bits); non-ASCII labels and
text; a raw line separator, quotes, a backslash and a control character in
questions; and one question holding an escaped lone surrogate. Its groups
include a single-class one, a balanced one, two classes of 11 (normalized
entropy a few ulp above 1), a near-uniform one, and counts of 14, 11 and 10,
where 14 is exactly the legacy threshold. The three prediction files give
closed-vocabulary answers in surface variants, the group's most frequent
answer in shuffled order, and open text with wrong answers.

Each output is compared with the file of its name in `data/golden/expected`.
An intended output change rewrites those files, with
`PYTHONPATH=src python tests/test_golden.py`, in the change that makes it,
and CHANGES.md says which bytes moved and why. The toy stays out: its sums
are BLAS products, whose bits may differ between machines.
"""

import json
from pathlib import Path

import pytest

from avqabench.evaluate import accuracy_report, uniform_sample
from avqabench.records import DatasetError, parse_dataset, parse_predictions, write_dataset
from avqabench.split import MODES, SplitAssignment, distribution_report, write_split

DATA = Path(__file__).parent / "data" / "golden"
EXPECTED = DATA / "expected"
PREDICTIONS = ("closed", "majority", "open")
# (ratio, seed) of each written sample, under the conformal split; the
# distribution reports take the last, under their own split, as a reference
SAMPLES = ((0.1, 0), (0.3, 7))


def _line(**fields) -> bytes:
    row = {"id": "q1", "task": "avqa", "question_type": "Counting", "question": "?", "answer": "one"}
    row.update(fields)
    return json.dumps({k: v for k, v in row.items() if v is not None}).encode() + b"\n"


# (parser, file bytes) of each bad file, by the name its error is listed under
BAD_FILES = {
    "not-json": (parse_dataset, _line() + b"not json\n"),
    "not-an-object": (parse_dataset, b"[1, 2]\n"),
    "invalid-utf-8": (parse_dataset, b'{"id": "q\xff"}\n'),
    "missing-field": (parse_dataset, _line(answer=None)),
    "non-string-field": (parse_dataset, _line(answer=2)),
    "unknown-task": (parse_dataset, _line(task="speech")),
    "empty-id": (parse_dataset, _line(id="")),
    "blank-question-type": (parse_dataset, _line(question_type="  ")),
    "non-string-video-id": (parse_dataset, _line(video_id=7)),
    "duplicate-id": (parse_dataset, _line() + b"\n" + _line(id="q2") + _line()),
    "dangling-rephrase": (parse_dataset, _line(id="q1") + _line(id="q2", rephrase_of="q9")),
    "rephrase-cycle": (
        parse_dataset,
        _line(id="q0") + _line(id="q1", rephrase_of="q2") + _line(id="q2", rephrase_of="q1"),
    ),
    "prediction-missing": (parse_predictions, b'{"id": "q1"}\n'),
    "prediction-empty-id": (parse_predictions, b'{"id": "", "prediction": "one"}\n'),
    "prediction-duplicate-id": (
        parse_predictions,
        b'{"id": "q\xc3\xbc", "prediction": "a"}\n{"id": "q\xc3\xbc", "prediction": "b"}\n',
    ),
}


def _json(obj) -> str:
    return json.dumps(obj, indent=1, ensure_ascii=False) + "\n"


def write_outputs(folder: Path) -> None:
    """Write every golden output into `folder`, a file each."""
    dataset = parse_dataset(DATA / "dataset.jsonl")
    for mode in MODES:
        split = SplitAssignment(dataset, mode)
        write_split(split, folder / f"split-{mode}.json")
        for name in PREDICTIONS:
            report = accuracy_report(dataset, split, parse_predictions(DATA / f"preds_{name}.jsonl"))
            (folder / f"report-{name}-{mode}.json").write_text(_json(report.to_dict()), "utf-8")
            (folder / f"table-{name}-{mode}.txt").write_text(report.render_table() + "\n", "utf-8")
        references = {"sample": uniform_sample(dataset, split, *SAMPLES[-1])}
        if mode == "conformal":
            references["dataset"] = dataset
        for name, reference in references.items():
            report = distribution_report(dataset, split, reference)
            (folder / f"distribution-{mode}-{name}.json").write_text(_json(report), "utf-8")
    conformal = SplitAssignment(dataset, "conformal")
    for ratio, seed in SAMPLES:
        write_dataset(uniform_sample(dataset, conformal, ratio, seed), folder / f"sample-{ratio}-{seed}.jsonl")
    errors = []
    bad = folder / "bad.jsonl"
    for name, (parse, data) in BAD_FILES.items():
        bad.write_bytes(data)
        try:
            parse(bad)
        except DatasetError as exc:
            errors.append(f"{name}: {exc}\n")
        else:
            errors.append(f"{name}: parsed\n")
    bad.unlink()
    (folder / "errors.txt").write_text("".join(errors), "utf-8")


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    folder = tmp_path_factory.mktemp("golden")
    write_outputs(folder)
    return folder


def test_the_outputs_are_the_expected_files(written):
    assert sorted(p.name for p in written.iterdir()) == sorted(p.name for p in EXPECTED.iterdir())


@pytest.mark.parametrize("name", sorted(p.name for p in EXPECTED.iterdir()))
def test_each_output_has_its_expected_bytes(written, name):
    assert (written / name).read_bytes() == (EXPECTED / name).read_bytes()


def test_the_fixture_pins_what_it_claims():
    # the lone surrogate reaches a written sample as its escape
    assert b"\\ud800" in (EXPECTED / "sample-0.3-7.jsonl").read_bytes()
    # every bad file fails
    assert ": parsed\n" not in (EXPECTED / "errors.txt").read_text("utf-8")


if __name__ == "__main__":
    EXPECTED.mkdir(exist_ok=True)
    write_outputs(EXPECTED)
