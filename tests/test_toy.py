"""Stacked toy model: backward pass, determinism, divergence, parameter blocks."""

import numpy as np
import pytest

from avqabench.debias import DebiasConfig, batch_loss_and_grad
from avqabench.toy import (
    SyntheticSpec,
    TrainConfig,
    _backward_batch,
    _forward_batch,
    generate_synthetic,
    init_params,
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


def test_backward_matches_central_differences_for_every_block():
    train_set, _, _ = generate_synthetic(SPEC)
    params = init_params(SPEC, CFG)
    params["path_bias"] += np.random.default_rng(0).normal(scale=0.3, size=params["path_bias"].shape)
    feats, labels = train_set.features[:, :16], train_set.labels[:16]
    # strong debias weights, so the discrepancy and cycle terms matter
    cfg = DebiasConfig(alpha=0.05, beta=0.05)

    hidden, logits = _forward_batch(params, feats)
    grads = batch_loss_and_grad(logits, labels, cfg)[3] / len(labels)
    analytic = _backward_batch(params, feats, hidden, grads)
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
    params_a, trace_a = train(SPEC, CFG)
    params_b, trace_b = train(SPEC, CFG)
    assert trace_a == trace_b
    for name in params_a:
        np.testing.assert_array_equal(params_a[name], params_b[name])


def test_divergence_names_the_epoch():
    # lr 1e6 drives the logits past float64 range within a few epochs
    cfg = TrainConfig(epochs=10, batch_size=16, hidden_dim=5, learning_rate=1e6)
    with np.errstate(all="ignore"), pytest.raises(RuntimeError, match="diverged at epoch"):
        train(SPEC, cfg)


def test_parameter_count_counts_the_shared_head_once():
    params = init_params(SPEC, CFG)
    c, d, h = SPEC.num_classes, SPEC.feature_dim, CFG.hidden_dim
    encoders = 3 * (h * d + h)
    head = c * h + c
    path_biases = 4 * h
    assert params.parameter_count() == encoders + head + path_biases
    copy = params.copy()
    copy["head_weight"] += 1.0
    assert not np.array_equal(copy["head_weight"], params["head_weight"])
