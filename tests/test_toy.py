"""Stacked toy model: backward pass, determinism, divergence, parameter blocks."""

import math
from dataclasses import replace

import numpy as np
import pytest

from avqabench import toy
from avqabench.debias import DebiasConfig, LossBreakdown, batch_loss_and_grad
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
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([tcfg.seed, 3]))
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
        cfg = replace(CFG, seed=run["seed"], debias=debias)
        params, trace = train(spec, cfg, generate_synthetic(spec)[0])
        _, head_test, tail_test = generate_synthetic(spec)
        assert {k: run[k] for k in ("head_acc", "tail_acc", "overall_acc")} == evaluate_toy(
            params, head_test, tail_test
        )
        assert run["final_loss"] == trace[-1].to_dict()
