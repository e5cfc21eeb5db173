"""The process that runs the ops: set-up, timed ops, checks and spans.

Started by run.py with the generated inputs already on disk. It times its
own set-up from before `import avqabench`, runs ops until the requested
seconds have passed, checks every op, and prints one JSON line with the
raw measurements. Nothing here imports numpy or avqabench before the
set-up timer starts, and the timer starts after the benchmark's own imports.

    python3 benchmarks/bench_ops.py --root . --workload eval-200k \
        --inputs DIR --out DIR --seed 1 --seconds 20 --trace 0
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from statistics import median

import bench_checks as checks
from bench_spans import Tracer, median_over_units, per_unit_totals

# Seed pairs of the toy-paired workload; --seed picks one. Seed 0 gives the
# default experiment run_paired_experiment(..., seeds=[0, 1]).
TOY_PAIRS = 4


def toy_seeds(seed: int) -> list[int]:
    k = seed % TOY_PAIRS
    return [2 * k, 2 * k + 1]


def toy_key(seeds: list[int], tiny: bool) -> str:
    return ("tiny/" if tiny else "") + ",".join(map(str, seeds))


def import_program(root: Path):
    """Import avqabench from the checkout's src/, refusing any other copy."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import avqabench

    if not Path(avqabench.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"avqabench imported from {avqabench.__file__}, not from {src}")


class EvalWorkload:
    """Whole evaluation pipeline over one dataset and one prediction file."""

    def __init__(self, args, tracer: Tracer):
        from avqabench import evaluate, records, split

        self.records, self.split, self.evaluate = records, split, evaluate
        self.args, self.t = args, tracer
        self.dataset = Path(args.inputs) / "dataset.jsonl"
        self.preds = Path(args.inputs) / "model0.jsonl"
        self.out = Path(args.out)

    def load_truth(self):
        self.truth = json.loads((Path(self.args.inputs) / "truth.json").read_text())
        self.dataset_bytes = self.dataset.stat().st_size

    def op(self):
        r, s, e, t = self.records, self.split, self.evaluate, self.t
        manifest = t.call("records.parse_dataset", r.parse_dataset, self.dataset)
        t.count("records.parse_dataset", bytes=self.dataset_bytes, records=len(manifest))
        preds = t.call("records.parse_predictions", r.parse_predictions, self.preds)
        assignment = t.call("split.build_assignment", s.build_assignment, manifest, s.SplitConfig())
        report = t.call("evaluate.accuracy_report", e.accuracy_report, manifest, assignment, preds)
        table = t.call("evaluate.render_table", report.render_table)
        sample = t.call(
            "evaluate.uniform_sample", e.uniform_sample, manifest, assignment,
            self.truth["sample_ratio"], self.args.seed,
        )
        dist = t.call("split.distribution_report", s.distribution_report, manifest, assignment, manifest)
        t.call("split.write_split", s.write_split, assignment, self.out / "split.json")
        t.call("records.write_dataset", r.write_dataset, sample, self.out / "sample.jsonl")
        return assignment, report, table, sample, dist

    def check(self, outputs):
        assignment, report, table, sample, dist = outputs
        report_dict = report.to_dict()
        sample_ids = [rec.id for rec in sample.records]
        failures = (
            checks.check_labels(assignment.labels, self.truth, "conformal split")
            + checks.check_report(report_dict, self.truth, 0, "model0")
            + checks.check_sample(sample_ids, assignment.labels, self.truth)
            + checks.check_distribution(dist, self.truth)
            + checks.check_written(self.out / "split.json", self.out / "sample.jsonl", len(sample_ids), self.truth)
        )
        digest = hashlib.sha256()
        for part in (json.dumps(report_dict), table, json.dumps(dist)):
            digest.update(part.encode())
        for name in ("split.json", "sample.jsonl"):
            digest.update((self.out / name).read_bytes())
        counts = {
            "records_scored": sum(c["count"] for c in report_dict["cells"]),
            "correct": sum(c["correct"] for c in report_dict["cells"]),
            "head": sum(1 for v in assignment.labels.values() if v == "head"),
            "labels": len(assignment.labels),
            "groups": len(assignment.solutions),
        }
        return failures, digest.hexdigest(), counts

    def records_per_op(self) -> int:
        return self.truth["records"]


class LeaderboardWorkload:
    """One dataset read in set-up; each op scores 8 prediction files under 2 splits."""

    def __init__(self, args, tracer: Tracer):
        from avqabench import evaluate, records, split

        self.records, self.split, self.evaluate = records, split, evaluate
        self.args, self.t = args, tracer
        self.inputs = Path(args.inputs)
        dataset = self.inputs / "dataset.jsonl"
        t = tracer
        self.manifest = t.call("records.parse_dataset", records.parse_dataset, dataset)
        t.count("records.parse_dataset", bytes=dataset.stat().st_size, records=len(self.manifest))
        self.splits = {
            mode: t.call(
                "split.build_assignment", split.build_assignment, self.manifest, split.SplitConfig(mode=mode)
            )
            for mode in ("conformal", "legacy")
        }

    def load_truth(self):
        self.truth = json.loads((self.inputs / "truth.json").read_text())
        self.setup_failures = []
        for mode, assignment in self.splits.items():
            self.setup_failures += checks.check_labels(assignment.labels, self.truth, f"{mode} split")
            if len(assignment.solutions) != len(self.truth["groups"]):
                self.setup_failures.append(f"{mode} split has {len(assignment.solutions)} groups")
        self.files = [self.inputs / m["file"] for m in self.truth["models"]]

    def op(self):
        r, e, t = self.records, self.evaluate, self.t
        reports = []
        for path in self.files:
            preds = t.call("records.parse_predictions", r.parse_predictions, path)
            for assignment in self.splits.values():
                reports.append(
                    t.call("evaluate.accuracy_report", e.accuracy_report, self.manifest, assignment, preds)
                )
        return reports

    def check(self, reports):
        failures = list(self.setup_failures)
        dicts = [rep.to_dict() for rep in reports]
        modes = list(self.splits)
        for i, report_dict in enumerate(dicts):
            model, mode = divmod(i, len(modes))
            failures += checks.check_report(report_dict, self.truth, model, f"model{model}/{modes[mode]}")
        cells = [c for d in dicts for c in d["cells"]]
        labels = [v for a in self.splits.values() for v in a.labels.values()]
        counts = {
            "records_scored": sum(c["count"] for c in cells),
            "correct": sum(c["correct"] for c in cells),
            "head": labels.count("head"),
            "labels": len(labels),
            "groups": len(self.splits["conformal"].solutions),
        }
        return failures, hashlib.sha256(json.dumps(dicts).encode()).hexdigest(), counts

    def records_per_op(self) -> int:
        return self.truth["records"] * len(self.files) * len(self.splits)


class ToyWorkload:
    """run_paired_experiment at the default spec and config: 4 training runs."""

    def __init__(self, args, tracer: Tracer):
        from avqabench import toy

        self.toy, self.args, self.t = toy, args, tracer
        self.spec, self.cfg = toy.SyntheticSpec(), toy.TrainConfig()
        if args.tiny:
            self.spec = toy.SyntheticSpec(train_size=256, head_test_size=64, tail_test_size=64)
            self.cfg = toy.TrainConfig(epochs=2)
        self.seeds = toy_seeds(args.seed)
        self.traces = []

        train_signature = inspect.signature(toy.train) if hasattr(toy, "train") else None

        def on_train(call_args, call_kwargs, result):
            spec, cfg = train_signature.bind(*call_args, **call_kwargs).args[:2]
            steps = cfg.epochs * -(-spec.train_size // cfg.batch_size)
            tracer.count("toy.train", steps=steps, samples=cfg.epochs * spec.train_size)
            self.traces.append(result[1])

        # run_paired_experiment reaches these through toy's module globals
        tracer.wrap_global(toy, "run_experiment", "toy.run_experiment")
        tracer.wrap_global(toy, "train", "toy.train", on_train)
        tracer.wrap_global(toy, "generate_synthetic", "toy.generate_synthetic")
        tracer.wrap_global(toy, "evaluate_toy", "toy.evaluate_toy")

    def load_truth(self):
        recorded = json.loads((Path(__file__).parent / "toy_expected.json").read_text())
        self.expected = recorded[toy_key(self.seeds, self.args.tiny)]

    def op(self):
        self.traces = []
        return self.t.call(
            "toy.run_paired_experiment", self.toy.run_paired_experiment, self.spec, self.cfg, self.seeds
        )

    def check(self, result):
        failures = checks.check_toy(result, self.traces, self.expected)
        return failures, hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest(), {}

    def records_per_op(self) -> int:
        """Samples through a training step: seeds x arms x epochs x train_size."""
        return len(self.seeds) * 2 * self.cfg.epochs * self.spec.train_size


WORKLOADS = {
    "eval-200k": EvalWorkload,
    "leaderboard-50k": LeaderboardWorkload,
    "toy-paired": ToyWorkload,
}

# per-layer time metric -> span whose self time it sums per set-up or op
LAYER_TIMES = {
    "records.parse_dataset_s": "records.parse_dataset",
    "records.parse_predictions_s": "records.parse_predictions",
    "split.build_assignment_s": "split.build_assignment",
    "split.distribution_report_s": "split.distribution_report",
    "split.write_split_s": "split.write_split",
    "records.write_dataset_s": "records.write_dataset",
    "evaluate.accuracy_report_s": "evaluate.accuracy_report",
    "evaluate.render_table_s": "evaluate.render_table",
    "evaluate.uniform_sample_s": "evaluate.uniform_sample",
    "toy.train_s": "toy.train",
    "toy.evaluate_toy_s": "toy.evaluate_toy",
    "toy.generate_synthetic_s": "toy.generate_synthetic",
    "toy.run_experiment_self_s": "toy.run_experiment",
    "toy.paired_self_s": "toy.run_paired_experiment",
}


def layer_metrics(tracer: Tracer) -> dict:
    """Median over set-ups and ops of each layer's per-unit totals.

    A layer the workload never calls reads 0; a layer whose target could not
    be found is left out.
    """
    totals = per_unit_totals(tracer.spans)

    def of(span: str, key: str = "self_s") -> float:
        return median_over_units(totals[span], key) if span in totals else 0.0

    out = {m: of(span) for m, span in LAYER_TIMES.items() if span not in tracer.absent}
    parse_s = of("records.parse_dataset")
    out["records.bytes_read"] = of("records.parse_dataset", "bytes")
    out["records.records_parsed"] = of("records.parse_dataset", "records")
    out["records.parse_dataset_mb_per_s"] = (
        out["records.bytes_read"] / 1e6 / parse_s if parse_s else 0.0
    )
    if "toy.train" not in tracer.absent:
        steps = of("toy.train", "steps")
        out["toy.steps"] = steps
        out["toy.samples_trained"] = of("toy.train", "samples")
        out["toy.step_ms"] = 1000.0 * out["toy.train_s"] / steps if steps else 0.0
    return out


def pipeline_counts(counts: dict, truth: dict) -> dict:
    """Per-op counts of the pipeline layers; 0 on a workload without them."""
    models = truth.get("models", [])
    return {
        "evaluate.records_scored": counts.get("records_scored", 0),
        "split.groups": counts.get("groups", 0),
        "split.head_share": counts["head"] / counts["labels"] if counts else 0.0,
        "evaluate.correct_share": counts["correct"] / counts["records_scored"] if counts else 0.0,
        "evaluate.repeat_share": sum(m["repeat_share"] for m in models) / len(models) if models else 0.0,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--inputs", default="")
    p.add_argument("--out", default="")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    tracer = Tracer()
    tracer.enabled = bool(args.trace)
    began = time.perf_counter()
    import_program(Path(args.root))
    workload = WORKLOADS[args.workload](args, tracer)
    setup_s = time.perf_counter() - began
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    workload.load_truth()

    # Trace runs alternate traced and untraced ops, starting traced, so
    # trace.overhead_s compares ops of the same process.
    ops, first_digest, counts = [], None, None
    failed = 0
    start = time.perf_counter()
    while True:
        index = len(ops)
        traced = bool(args.trace) and index % 2 == 0
        tracer.enabled, tracer.unit = traced, index + 1
        began = time.perf_counter()
        wall = None
        try:
            outputs = workload.op()
            wall = time.perf_counter() - began
            tracer.enabled = False
            failures, digest, counts = workload.check(outputs)
            del outputs
        except Exception:
            traceback.print_exc()
            failures = ["op or its check raised"]
        else:
            first_digest = first_digest or digest
            if digest != first_digest:
                failures.append("outputs differ from the first op of this run")
        for msg in failures[:20]:
            print(f"check failed: {msg}", file=sys.stderr)
        failed += bool(failures)
        ops.append({"wall_s": wall, "traced": traced})
        # stop before an op that would end past --seconds, as the last one did
        now = time.perf_counter()
        if len(ops) >= 2 and (now - start) + (now - began) > args.seconds:
            break

    result = {
        "setup_s": setup_s,
        "ops": ops,
        "failed": failed,
        "records_per_op": workload.records_per_op(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        walls = {flag: [o["wall_s"] for o in ops if o["traced"] is flag and o["wall_s"] is not None] for flag in (True, False)}
        layers = layer_metrics(tracer)
        layers.update(pipeline_counts(counts or {}, getattr(workload, "truth", {})))
        if walls[True] and walls[False]:
            layers["trace.overhead_s"] = median(walls[True]) - median(walls[False])
        result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
