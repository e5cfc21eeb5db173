"""Stacked toy model: backward pass, determinism, divergence, parameter blocks."""

import json
import math
from dataclasses import asdict, replace
from pathlib import Path
from statistics import median

import numpy as np
import pytest

from avqabench import toy
from avqabench.debias import MODALITIES, DebiasConfig, LossBreakdown, batch_loss_and_grad
from avqabench.toy import (
    SyntheticSpec,
    TrainConfig,
    _backward_batch,
    _forward_batch,
    evaluate_toy,
    generate_synthetic,
    init_params,
    run_paired_experiment,
    train,
)

SPEC = SyntheticSpec(
    num_classes=3, feature_dim=4, train_size=64, head_test_size=16, tail_test_size=16
)
CFG = TrainConfig(epochs=3, batch_size=16, hidden_dim=5)


def batch_objective(params, feats, labels, cfg):
    """Mean over the batch of each sample's total loss, as training minimizes."""
    _, logits = _forward_batch(params, feats)
    answer, discrepancy, cycle, _ = batch_loss_and_grad(logits, labels, cfg)
    return answer.mean() + discrepancy.mean() + cycle.mean()


def fresh_grads(params):
    return {name: np.empty_like(block) for name, block in params.items()}


def plain_train(spec, tcfg, train_set):
    """Reference loop: a fresh gradient dict per step and `block -= lr * grad`."""
    params = init_params(spec, tcfg)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 3]))
    n = len(train_set)
    trace = []
    for _ in range(tcfg.epochs):
        order = shuffle_rng.permutation(n)
        sums = np.zeros(3)
        for start in range(0, n, tcfg.batch_size):
            idx = order[start : start + tcfg.batch_size]
            feats = train_set.features[:, idx]
            hidden, logits = _forward_batch(params, feats)
            l_a, l_d, l_c, logit_grads = batch_loss_and_grad(
                logits, train_set.labels[idx], tcfg.debias
            )
            sums += (l_a.sum(), l_d.sum(), l_c.sum())
            logit_grads /= len(idx)
            step = _backward_batch(params, feats, hidden, logit_grads, fresh_grads(params))
            for name, grad in step.items():
                params[name] -= tcfg.learning_rate * grad
        trace.append(LossBreakdown(answer=sums[0] / n, discrepancy=sums[1] / n, cycle=sums[2] / n))
    return params, trace


def test_backward_matches_central_differences_for_every_block():
    train_set, _, _ = generate_synthetic(SPEC)
    params = init_params(SPEC, CFG)
    params["path_bias"] += np.random.default_rng(0).normal(scale=0.3, size=params["path_bias"].shape)
    feats, labels = train_set.features[:, :16], train_set.labels[:16]
    # strong debias weights, so the discrepancy and cycle terms matter
    cfg = DebiasConfig(alpha=0.05, beta=0.05)

    hidden, logits = _forward_batch(params, feats)
    grads = batch_loss_and_grad(logits, labels, cfg)[3] / len(labels)
    analytic = _backward_batch(params, feats, hidden, grads, fresh_grads(params))
    assert analytic.keys() == params.keys()

    step = 1e-6
    for name, block in params.items():
        numeric = np.zeros_like(block)
        for i in np.ndindex(block.shape):
            saved = block[i]
            block[i] = saved + step
            plus = batch_objective(params, feats, labels, cfg)
            block[i] = saved - step
            minus = batch_objective(params, feats, labels, cfg)
            block[i] = saved
            numeric[i] = (plus - minus) / (2 * step)
        np.testing.assert_allclose(analytic[name], numeric, rtol=1e-5, atol=1e-8, err_msg=name)


@pytest.mark.parametrize("batch", [32, 1])
def test_bias_gradients_equal_plain_sums_at_the_default_shapes(batch):
    # h = 32, d = 16, C = 8: sums over samples as BLAS products against
    # ndarray.sum, which adds in its own order
    spec, cfg = SyntheticSpec(), TrainConfig()
    params = init_params(spec, cfg)
    params["path_bias"] += np.random.default_rng(1).normal(scale=0.3, size=params["path_bias"].shape)
    train_set = generate_synthetic(spec)[0]
    feats, labels = train_set.features[:, :batch], train_set.labels[:batch]
    hidden, logits = _forward_batch(params, feats)
    grads = batch_loss_and_grad(logits, labels, cfg.debias)[3] / batch
    out = _backward_batch(params, feats, hidden, grads, fresh_grads(params))
    back = grads @ params["head_weight"]
    oracles = {
        "enc_bias": (back[:3] + back[3]).sum(axis=1),
        "head_bias": grads.sum(axis=(0, 1)),
        "path_bias": back.sum(axis=1),
    }
    for name, expected in oracles.items():
        assert out[name].shape == params[name].shape
        np.testing.assert_allclose(out[name], expected, rtol=1e-12, err_msg=name)


def test_same_spec_and_config_give_identical_runs():
    train_set, _, _ = generate_synthetic(SPEC)
    params_a, trace_a = train(SPEC, CFG, train_set)
    params_b, trace_b = train(SPEC, CFG, train_set)
    assert trace_a == trace_b
    for name in params_a:
        np.testing.assert_array_equal(params_a[name], params_b[name])


@pytest.mark.parametrize(
    "debias",
    [
        DebiasConfig(),
        DebiasConfig(alpha=0.0, beta=0.0),
        DebiasConfig(alpha=0.05, beta=0.0),
        DebiasConfig(alpha=0.0, beta=0.05),
    ],
    ids=["default", "answer-only", "discrepancy-only", "cycle-only"],
)
@pytest.mark.parametrize("batch_size", [16, 24])  # 24 leaves a short last batch of 64
def test_in_place_steps_equal_the_plain_loop_bit_for_bit(debias, batch_size):
    cfg = replace(CFG, debias=debias, batch_size=batch_size)
    train_set = generate_synthetic(SPEC)[0]
    params, trace = train(SPEC, cfg, train_set)
    expected_params, expected_trace = plain_train(SPEC, cfg, train_set)
    assert trace == expected_trace
    assert params.keys() == expected_params.keys()
    for name, block in params.items():
        # equal bytes, which also tells -0.0 from 0.0
        assert block.tobytes() == expected_params[name].tobytes(), name


def test_returned_params_own_their_memory():
    train_set = generate_synthetic(SPEC)[0]
    first, _ = train(SPEC, CFG, train_set)
    kept = {name: block.copy() for name, block in first.items()}
    second, _ = train(SPEC, CFG, train_set)
    blocks = list(first.values()) + list(second.values())
    for i, a in enumerate(blocks):
        assert not any(np.shares_memory(a, b) for b in blocks[i + 1 :])
    for name, block in first.items():
        np.testing.assert_array_equal(block, kept[name])
        block += 1.0
    third, _ = train(SPEC, CFG, train_set)
    for name, block in third.items():
        np.testing.assert_array_equal(block, second[name])


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize(
    "config, name",
    [
        (DebiasConfig, "alpha"),
        (DebiasConfig, "beta"),
        (DebiasConfig, "epsilon"),
        (TrainConfig, "learning_rate"),
        (SyntheticSpec, "noise_std"),
    ],
)
def test_configs_reject_non_finite_numbers(config, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        config(**{name: value})


# (config, field, value, the exact error)
OUT_OF_RANGE = [
    (SyntheticSpec, "num_classes", 1, "num_classes must be at least 2"),
    (SyntheticSpec, "feature_dim", 7, "feature_dim must be at least num_classes"),
    (SyntheticSpec, "bias_rate", -0.1, "bias_rate must lie in [0, 1]"),
    (SyntheticSpec, "bias_rate", 1.1, "bias_rate must lie in [0, 1]"),
    (SyntheticSpec, "bias_rate", math.nan, "bias_rate must lie in [0, 1]"),
    (SyntheticSpec, "train_size", 0, "train_size must be at least 1"),
    (SyntheticSpec, "head_test_size", 0, "head_test_size must be at least 1"),
    (SyntheticSpec, "tail_test_size", -1, "tail_test_size must be at least 1"),
    (TrainConfig, "epochs", 0, "epochs must be at least 1"),
    (TrainConfig, "batch_size", 0, "batch_size must be at least 1"),
    (TrainConfig, "hidden_dim", 0, "hidden_dim must be at least 1"),
    (SyntheticSpec, "seed", -1, "seed must be at least 0"),
    (SyntheticSpec, "seed", 1.5, "seed must be an integer"),
    (SyntheticSpec, "seed", "3", "seed must be an integer"),
    (SyntheticSpec, "seed", True, "seed must be an integer"),
    (SyntheticSpec, "seed", np.True_, "seed must be an integer"),
    (SyntheticSpec, "train_size", 2.5, "train_size must be an integer"),
    (SyntheticSpec, "num_classes", 8.0, "num_classes must be an integer"),
    (SyntheticSpec, "feature_dim", 16.5, "feature_dim must be an integer"),
    (SyntheticSpec, "head_test_size", True, "head_test_size must be an integer"),
    (SyntheticSpec, "tail_test_size", "512", "tail_test_size must be an integer"),
    (TrainConfig, "epochs", 2.0, "epochs must be an integer"),
    (TrainConfig, "batch_size", 32.0, "batch_size must be an integer"),
    (TrainConfig, "hidden_dim", 4.5, "hidden_dim must be an integer"),
    (TrainConfig, "hidden_dim", np.True_, "hidden_dim must be an integer"),
]


@pytest.mark.parametrize(
    "config, name, value, message",
    OUT_OF_RANGE,
    ids=[f"{config.__name__}.{name}={value}" for config, name, value, _ in OUT_OF_RANGE],
)
def test_configs_reject_out_of_range_sizes_and_rates(config, name, value, message):
    with pytest.raises(ValueError) as info:
        config(**{name: value})
    assert str(info.value) == message


@pytest.mark.parametrize("seed", [0, 7, np.int64(3), np.uint8(2)])
def test_the_spec_takes_any_non_negative_integer_seed(seed):
    assert SyntheticSpec(seed=seed).seed == seed


def test_the_spec_seed_is_the_only_seed():
    with pytest.raises(TypeError):
        TrainConfig(seed=0)
    # it seeds the initialization and the batch order as well as the data
    train_set = generate_synthetic(SPEC)[0]
    other = replace(SPEC, seed=1)
    first, second = (init_params(spec, CFG)["enc_bias"] for spec in (SPEC, other))
    assert not np.array_equal(first, second)
    assert train(SPEC, CFG, train_set)[1] != train(other, CFG, train_set)[1]


@pytest.mark.parametrize("size", [np.int64(16), np.uint8(16)])
def test_configs_take_numpy_integer_sizes(size):
    assert SyntheticSpec(feature_dim=size).feature_dim == size
    assert TrainConfig(batch_size=size).batch_size == size


@pytest.mark.parametrize("seeds", [[], (seed for seed in ())], ids=["list", "generator"])
def test_paired_experiment_needs_a_seed(seeds):
    with pytest.raises(ValueError) as info:
        run_paired_experiment(SPEC, CFG, seeds)
    assert str(info.value) == "at least one seed is required"


def test_paired_experiment_reads_an_iterator_of_seeds_once():
    expected = run_paired_experiment(SPEC, CFG, [0, 1])
    assert run_paired_experiment(SPEC, CFG, iter([0, 1])) == expected
    assert len(expected["runs"]) == 4 and expected["summary"]["seeds"] == [0, 1]


def test_divergence_names_the_epoch():
    # lr 1e6 drives the logits past float64 range within a few epochs
    cfg = TrainConfig(epochs=10, batch_size=16, hidden_dim=5, learning_rate=1e6)
    with np.errstate(all="ignore"), pytest.raises(RuntimeError, match="diverged at epoch"):
        train(SPEC, cfg, generate_synthetic(SPEC)[0])


def test_parameter_count_counts_the_shared_head_once():
    params = init_params(SPEC, CFG)
    c, d, h = SPEC.num_classes, SPEC.feature_dim, CFG.hidden_dim
    encoders = 3 * (h * d + h)
    head = c * h + c
    path_biases = 4 * h
    assert sum(block.size for block in params.values()) == encoders + head + path_biases


def test_train_returns_a_plain_dict_of_the_init_blocks():
    params, _ = train(SPEC, CFG, generate_synthetic(SPEC)[0])
    start = init_params(SPEC, CFG)
    assert type(params) is dict
    assert list(params) == list(start)
    assert all(params[name].shape == block.shape for name, block in start.items())


def test_head_sets_carry_the_biased_cue_and_the_tail_set_a_chance_cue():
    spec = SyntheticSpec(num_classes=8, train_size=4000, head_test_size=4000,
                         tail_test_size=4000, noise_std=0.0, seed=3)
    books = toy.modality_codebooks(spec)
    _, n_audio = toy.factor_sizes(spec.num_classes)
    sets = generate_synthetic(spec)
    assert [len(s) for s in sets] == [4000, 4000, 4000]
    match_rates = []
    for dataset in sets:
        # noise-free features are codebook rows, and the rows are orthonormal
        cue, video, audio = (
            (feats @ books[name].T).argmax(axis=-1)
            for feats, name in zip(dataset.features, MODALITIES)
        )
        np.testing.assert_array_equal(video * n_audio + audio, dataset.labels)
        match_rates.append((cue == dataset.labels).mean())
    train_rate, head_rate, tail_rate = match_rates
    assert abs(train_rate - spec.bias_rate) < 0.02 and abs(head_rate - spec.bias_rate) < 0.02
    assert abs(tail_rate - 1 / spec.num_classes) < 0.02


def test_toy_accuracy_pools_head_and_tail_by_their_counts():
    spec = replace(SPEC, head_test_size=16, tail_test_size=48)
    _, head_test, tail_test = generate_synthetic(spec)
    params = init_params(spec, CFG)
    hits = [
        int((_forward_batch(params, d.features)[1][3].argmax(axis=-1) == d.labels).sum())
        for d in (head_test, tail_test)
    ]
    result = evaluate_toy(params, head_test, tail_test)
    assert list(result.items()) == [
        ("head_acc", hits[0] / 16), ("tail_acc", hits[1] / 48), ("overall_acc", sum(hits) / 64)
    ]
    assert result["overall_acc"] != result["head_acc"]


def test_paired_summary_is_the_median_over_the_runs():
    seeds = [2, 0, 1]
    result = run_paired_experiment(SPEC, CFG, seeds)
    runs = result["runs"]
    # each seed in the order given, its debias run before its baseline run
    assert [(r["seed"], r["arm"]) for r in runs] == [
        (seed, arm) for seed in seeds for arm in ("debias", "baseline")
    ]
    assert [(r["alpha"], r["beta"]) for r in runs[1::2]] == [(0.0, 0.0)] * len(seeds)
    debias, baseline = runs[0::2], runs[1::2]
    expected = {"seeds": seeds}
    for split in ("tail", "head"):
        for arm, arm_runs in (("debias", debias), ("baseline", baseline)):
            expected[f"median_{split}_{arm}"] = median(r[f"{split}_acc"] for r in arm_runs)
    for name, split in (("median_tail_gain", "tail"), ("median_head_shift", "head")):
        key = f"{split}_acc"
        expected[name] = median(d[key] - b[key] for d, b in zip(debias, baseline))
    summary = result["summary"]
    assert summary == expected
    assert list(summary) == list(expected)
    # the key order the benchmark's record was written in
    recorded = json.loads((Path(__file__).parents[1] / "benchmarks/toy_expected.json").read_text())
    assert all(list(entry) == list(summary) for entry in recorded.values())


# the absolute tolerance the benchmark's output check allows each recorded
# toy summary value (TOY_TOLERANCE in benchmarks/bench_checks.py): about
# ten of the 512 head or tail test samples
RECORD_TOLERANCE = 0.02


def test_the_full_size_paired_summary_matches_the_benchmark_record():
    # recorded by benchmarks/record_toy.py; read here, never written
    path = Path(__file__).parents[1] / "benchmarks/toy_expected.json"
    recorded = json.loads(path.read_text())["0,1"]
    summary = run_paired_experiment(SyntheticSpec(), TrainConfig(), [0, 1])["summary"]
    assert list(summary) == list(recorded)
    assert summary["seeds"] == recorded["seeds"]
    for key in list(recorded)[1:]:
        assert summary[key] == pytest.approx(recorded[key], abs=RECORD_TOLERANCE), key


def test_paired_experiment_generates_each_dataset_once(monkeypatch):
    calls = []

    def counting(spec):
        calls.append(spec.seed)
        return generate_synthetic(spec)

    monkeypatch.setattr(toy, "generate_synthetic", counting)
    result = run_paired_experiment(SPEC, CFG, [0, 1])
    # 2 seeds x 2 arms, one generation per run
    assert calls == [0, 0, 1, 1]

    # each run equals one trained on a separately generated train set and
    # scored on separately generated test sets
    monkeypatch.undo()
    for run in result["runs"]:
        spec = replace(SPEC, seed=run["seed"])
        debias = CFG.debias if run["arm"] == "debias" else DebiasConfig(alpha=0.0, beta=0.0)
        cfg = replace(CFG, debias=debias)
        params, trace = train(spec, cfg, generate_synthetic(spec)[0])
        _, head_test, tail_test = generate_synthetic(spec)
        assert {k: run[k] for k in ("head_acc", "tail_acc", "overall_acc")} == evaluate_toy(
            params, head_test, tail_test
        )
        assert run["final_loss"] == asdict(trace[-1])
