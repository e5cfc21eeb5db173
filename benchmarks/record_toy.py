"""Record the toy-paired summaries that the output check compares against.

    PYTHONPATH=src python3 benchmarks/record_toy.py > benchmarks/toy_expected.json

Run once at the commit that defines the benchmark; later commits are
checked against these values within bench_checks.TOY_TOLERANCE.
"""

import json

from avqabench import toy

from bench_ops import TOY_PAIRS, toy_key, toy_seeds

recorded = {}
for tiny in (False, True):
    spec, cfg = toy.SyntheticSpec(), toy.TrainConfig()
    if tiny:
        spec = toy.SyntheticSpec(train_size=256, head_test_size=64, tail_test_size=64)
        cfg = toy.TrainConfig(epochs=2)
    for k in range(TOY_PAIRS):
        seeds = toy_seeds(k)
        recorded[toy_key(seeds, tiny)] = toy.run_paired_experiment(spec, cfg, seeds)["summary"]
print(json.dumps(recorded, indent=1))
