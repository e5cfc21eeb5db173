"""Seeded input generator for the pipeline workloads.

Writes line-delimited dataset and prediction files in the `avqabench`
format, plus a `truth.json` holding what the generator knows about them:
the group of every record, the expected correct count per group for each
prediction file, and the measured properties of the inputs. The output
checks are built from that file, never from digests of program output.

Inputs are cached on disk under a key made of the workload, the size, the
seed and a digest of this file, so a change to the generator never reuses
stale inputs. Generation happens in the benchmark's parent process, before
the process that runs the ops starts; it is outside every timer.

Properties (fixed by the benchmark definition):

* 3 tasks x 7 question types = 21 groups of near-equal size.
* Per group: 2-30 answer classes from a closed vocabulary of 50 labels,
  Zipf weights w_r = r^-s with s drawn from [0.6, 1.6].
* Each prediction is correct with probability 0.7. Closed-vocabulary
  predictions carry the surface variants a classifier post-processor
  emits: case, one trailing punctuation mark, surrounding whitespace.
  Wrong closed-vocabulary answers are another class of the same group.
  "Free-text" models write every wrong answer as a unique sentence.

The non-idempotent normalization case (a prediction such as "two. .") is
deliberately not generated: it is a known defect that belongs to a unit
test, and a benchmark input that trips it would make the correct counts
depend on the defect.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path

import numpy as np

TASKS = ("audio", "visual", "avqa")
QUESTION_TYPES = (
    "Counting",
    "Comparative",
    "Existential",
    "Location",
    "Temporal",
    "Come From",
    "Happening",
)
VOCABULARY = (
    "zero", "one", "two", "three", "four", "five", "six", "seven", "eight",
    "nine", "ten", "yes", "no", "left", "right", "middle", "front", "back",
    "simultaneously", "piano", "violin", "cello", "guitar", "acoustic guitar",
    "electric bass", "flute", "clarinet", "saxophone", "trumpet", "tuba",
    "drum", "xylophone", "accordion", "bagpipe", "banjo", "erhu", "guzheng",
    "pipa", "suona", "ukulele", "harp", "bassoon", "congas", "french horn",
    "outdoor", "indoor", "beginning", "end", "more", "less",
)
assert len(VOCABULARY) == 50 and len(set(VOCABULARY)) == 50

CORRECT_RATE = 0.7
SAMPLE_RATIO = 0.1
_PUNCT = ("", "", "", ".", "!", "?", ",", ";", ":")
_SPACE = ("", "", "", " ", "  ", "\t", "\n")

# Records per workload at full size; --tiny divides by TINY_DIVISOR.
SIZES = {"eval-200k": 200_000, "leaderboard-50k": 50_000}
MODELS = {"eval-200k": 1, "leaderboard-50k": 8}
FREE_TEXT_FROM = {"eval-200k": None, "leaderboard-50k": 4}
TINY_DIVISOR = 100
_CACHE_KEEP = 10


def record_id(i: int) -> str:
    return f"q{i:07d}"


def _surface(rng, labels: list[str]) -> list[str]:
    """Apply case, one trailing mark and surrounding whitespace per label."""
    n = len(labels)
    case = rng.integers(0, 3, size=n)
    punct = rng.integers(0, len(_PUNCT), size=n)
    lead = rng.integers(0, len(_SPACE), size=n)
    trail = rng.integers(0, len(_SPACE), size=n)
    out = []
    for label, c, p, a, b in zip(labels, case.tolist(), punct.tolist(), lead.tolist(), trail.tolist()):
        word = label if c == 0 else (label.upper() if c == 1 else label.title())
        out.append(f"{_SPACE[a]}{word}{_PUNCT[p]}{_SPACE[b]}")
    return out


def _repeat_share(strings: list[str]) -> float:
    """Share of strings already seen earlier in the same file."""
    return 1.0 - len(set(strings)) / len(strings)


def generate(out_dir: Path, workload: str, seed: int, n: int) -> dict:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 20250401]))
    groups = [(t, q) for t in TASKS for q in QUESTION_TYPES]
    g = len(groups)

    # group sizes differ by at most one; records are shuffled across groups
    group_of = rng.permutation(np.arange(n) % g)
    classes, zipf_s, answers_idx = [], [], np.empty(n, dtype=np.int64)
    for gi in range(g):
        k = int(rng.integers(2, 31))
        s = float(rng.uniform(0.6, 1.6))
        labels = rng.choice(len(VOCABULARY), size=k, replace=False)
        weights = np.arange(1, k + 1, dtype=np.float64) ** -s
        members = np.flatnonzero(group_of == gi)
        answers_idx[members] = labels[rng.choice(k, size=members.size, p=weights / weights.sum())]
        classes.append([VOCABULARY[j] for j in labels.tolist()])
        zipf_s.append(s)
    group_list = group_of.tolist()
    answers = [VOCABULARY[j] for j in answers_idx.tolist()]
    difficulty = rng.integers(1, 4, size=n).tolist()

    lines = []
    for i in range(n):
        task, qtype = groups[group_list[i]]
        row = {
            "id": record_id(i),
            "task": task,
            "question_type": qtype,
            "question": f"{qtype} question about the {task} stream of clip {i // 8}, take {i % 8}?",
            "answer": answers[i],
            "video_id": f"v{i // 8:06d}",
        }
        if i % 4 == 3:
            row["rephrase_of"] = record_id(i - 1)
        row["difficulty"] = difficulty[i]
        lines.append(json.dumps(row))
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "dataset.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    del lines

    free_from = FREE_TEXT_FROM[workload]
    model_facts = []
    for m in range(MODELS[workload]):
        correct = rng.random(n) < CORRECT_RATE
        # a wrong closed-vocabulary answer is another class of the same group
        shift = rng.integers(0, 1 << 30, size=n)
        predicted = []
        for i in range(n):
            gold = answers[i]
            if correct[i]:
                predicted.append(gold)
                continue
            if free_from is not None and m >= free_from:
                predicted.append(None)
                continue
            cls = classes[group_list[i]]
            offset = 1 + int(shift[i]) % (len(cls) - 1)
            predicted.append(cls[(cls.index(gold) + offset) % len(cls)])
        surfaced = _surface(rng, [p if p is not None else "" for p in predicted])
        strings = [
            s if p is not None else f"model {m} is unsure, maybe the scene near record {i} shows something else"
            for i, (p, s) in enumerate(zip(predicted, surfaced))
        ]
        expected = [0] * g
        for i in np.flatnonzero(correct).tolist():
            expected[group_list[i]] += 1
        order = rng.permutation(n).tolist()  # prediction files are not in gold order
        body = "\n".join(
            json.dumps({"id": record_id(i), "prediction": strings[i]}) for i in order
        )
        (out_dir / f"model{m}.jsonl").write_text(body + "\n", encoding="utf-8")
        model_facts.append(
            {
                "file": f"model{m}.jsonl",
                "free_text_wrong": free_from is not None and m >= free_from,
                "expected_correct": expected,
                "correct_share": sum(expected) / n,
                "repeat_share": _repeat_share(strings),
            }
        )

    sizes = np.bincount(group_of, minlength=g).tolist()
    truth = {
        "workload": workload,
        "seed": seed,
        "records": n,
        "groups": [list(k) for k in groups],
        "group_sizes": sizes,
        "classes_per_group": [len(c) for c in classes],
        "zipf_s": zipf_s,
        "sample_ratio": SAMPLE_RATIO,
        "dataset_bytes": (out_dir / "dataset.jsonl").stat().st_size,
        "models": model_facts,
        "group_of": group_list,
    }
    (out_dir / "truth.json").write_text(json.dumps(truth), encoding="utf-8")
    return truth


def _generator_digest() -> str:
    return hashlib.sha256(Path(__file__).read_bytes()).hexdigest()[:12]


def cached_inputs(cache_root: Path, workload: str, seed: int, tiny: bool) -> Path:
    """Directory holding the inputs for (workload, seed, size), made if absent.

    Keeps the few most recently used input sets per workload and deletes
    older ones, so that many seeds do not fill the disk.
    """
    n = SIZES[workload] // (TINY_DIVISOR if tiny else 1)
    prefix = f"{workload}-n{n}-"
    target = cache_root / f"{prefix}s{seed}-{_generator_digest()}"
    if not (target / "truth.json").exists():
        partial = cache_root / f".partial-{os.getpid()}-{target.name}"
        shutil.rmtree(partial, ignore_errors=True)
        generate(partial, workload, seed, n)
        shutil.rmtree(target, ignore_errors=True)
        partial.rename(target)
    os.utime(target)
    siblings = sorted(
        (p for p in cache_root.iterdir() if p.name.startswith(prefix)),
        key=lambda p: p.stat().st_mtime,
        reverse=True,
    )
    for stale in siblings[_CACHE_KEEP:]:
        shutil.rmtree(stale, ignore_errors=True)
    return target
