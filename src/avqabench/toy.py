"""Desk-scale biased-data experiment for the debiasing losses.

Synthetic task: C answer classes, three feature modalities per sample.
The video pattern encodes a coarse latent factor and the audio pattern a
fine latent factor; the label is the combination of the two, so neither
modality alone pins it down. The question pattern carries a cue token
that equals the label with probability `bias_rate` in the training and
head-test sets but only at chance (1/C) in the tail-test set. A model
that shortcuts through the question cue therefore looks strong on the
head split and collapses on the tail split, reproducing the in- vs
out-of-distribution gap the head/tail benchmark is built to measure.

Model: one affine encoder per modality into a shared hidden space, a
per-path learned bias vector standing in for path-specific instructions,
and a single classifier head whose parameters are shared by all four
prediction paths (question / video / audio / fusion, where fusion is the
sum of the three unimodal embeddings, so each modality enters the fused
path at the magnitude it has in its own path). The parameters are five
blocks, each stacked over modalities or paths in `PATHS` order:

    enc_weight (3, h, d)   enc_bias (3, h)   path_bias (4, h)
    head_weight (C, h)     head_bias (C,)    -- stored once, shared

Features are stacked the same way, (3, n, d), so a training step runs the
three encoders, the shared head, `debias.batch_loss_and_grad` and the
backward pass each as one stacked computation over all paths. Training is
plain mini-batch SGD on answer + discrepancy + cycle losses, with gradients
propagated through the affine maps in closed form. During training the five
blocks are views into one flat parameter vector and their gradients views
into a second one, so the backward pass writes each gradient in place and a
step is one in-place update of the whole vector. The backward pass's sums
over samples, the enc_bias, head_bias and path_bias gradients, are BLAS
products with a vector of ones, which cost fewer numpy calls at batch 32;
they agree with `.sum` over the sample axis up to rounding.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass, field, replace
from statistics import median

import numpy as np

from .debias import (
    MODALITIES,
    PATHS,
    DebiasConfig,
    LossBreakdown,
    batch_loss_and_grad,
)


def _check_seed(seed) -> None:
    """Reject at construction a seed that numpy's generators would refuse
    only when the data or the weights are drawn."""
    try:
        valid = operator.index(seed) >= 0
    except TypeError:
        valid = False
    if not valid:
        raise ValueError("seed must be a non-negative integer")


def _check_integers(config, *names) -> None:
    """Reject at construction a size field that numpy or `range` would
    refuse only later, with a bare TypeError: a non-integer, or a bool,
    as numpy refuses `size=True`."""
    for name in names:
        value = getattr(config, name)
        try:
            operator.index(value)
            valid = not isinstance(value, bool)
        except TypeError:
            valid = False
        if not valid:
            raise ValueError(f"{name} must be an integer")


@dataclass
class SyntheticSpec:
    num_classes: int = 8
    feature_dim: int = 16
    bias_rate: float = 0.9
    train_size: int = 2048
    head_test_size: int = 512
    tail_test_size: int = 512
    noise_std: float = 0.5
    seed: int = 0

    def __post_init__(self):
        _check_integers(
            self, "num_classes", "feature_dim", "train_size", "head_test_size", "tail_test_size"
        )
        if self.num_classes < 2:
            raise ValueError("num_classes must be at least 2")
        if self.feature_dim < self.num_classes:
            raise ValueError("feature_dim must be at least num_classes")
        if not 0.0 <= self.bias_rate <= 1.0:
            raise ValueError("bias_rate must lie in [0, 1]")
        for name in ("train_size", "head_test_size", "tail_test_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if not math.isfinite(self.noise_std) or self.noise_std < 0:
            raise ValueError("noise_std must be finite and non-negative")
        _check_seed(self.seed)


@dataclass
class ToyDataset:
    features: np.ndarray  # (3, n, d) in MODALITIES order
    labels: np.ndarray  # (n,)

    def __len__(self) -> int:
        return self.labels.shape[0]


def factor_sizes(num_classes: int) -> tuple[int, int]:
    """(video, audio) latent factor counts whose product covers the classes."""
    audio = math.isqrt(num_classes - 1) + 1
    video = -(-num_classes // audio)
    return video, audio


def modality_codebooks(spec: SyntheticSpec) -> dict[str, np.ndarray]:
    """Orthonormal pattern rows per modality, derived from the data seed."""
    rng = np.random.default_rng(spec.seed)
    n_video, n_audio = factor_sizes(spec.num_classes)
    sizes = {"question": spec.num_classes, "video": n_video, "audio": n_audio}
    books = {}
    for name in MODALITIES:
        gauss = rng.normal(size=(spec.feature_dim, spec.feature_dim))
        q, _ = np.linalg.qr(gauss)
        books[name] = q[: sizes[name]]
    return books


def _draw_cues(rng, labels, num_classes, match_rate):
    """Cue equals the label with probability match_rate, else another class."""
    n = labels.shape[0]
    cues = labels.copy()
    miss = rng.random(n) >= match_rate
    offsets = rng.integers(1, num_classes, size=n)
    cues[miss] = (labels[miss] + offsets[miss]) % num_classes
    return cues


def _materialize(rng, spec, books, size, cue_rate):
    """A set of `size` samples, drawing its labels, then its cues, then its features."""
    labels = rng.integers(0, spec.num_classes, size=size)
    _, n_audio = factor_sizes(spec.num_classes)
    video_factor = labels // n_audio
    audio_factor = labels % n_audio
    cues = _draw_cues(rng, labels, spec.num_classes, cue_rate)
    features = np.empty((len(MODALITIES), labels.shape[0], spec.feature_dim))
    for out, name, factor in zip(features, MODALITIES, (cues, video_factor, audio_factor)):
        out[:] = books[name][factor] + rng.normal(scale=spec.noise_std, size=out.shape)
    return ToyDataset(features=features, labels=labels)


def generate_synthetic(spec: SyntheticSpec) -> tuple[ToyDataset, ToyDataset, ToyDataset]:
    """(train, head_test, tail_test), deterministic given spec.seed.

    Train and head-test share the cue-matching rate; the tail-test cue is
    drawn at the chance rate 1/C, which makes the tail cue distribution
    uniform over all classes.
    """
    books = modality_codebooks(spec)
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 1]))
    draws = (
        (spec.train_size, spec.bias_rate),
        (spec.head_test_size, spec.bias_rate),
        (spec.tail_test_size, 1.0 / spec.num_classes),
    )
    return tuple(_materialize(rng, spec, books, size, cue_rate) for size, cue_rate in draws)


@dataclass
class TrainConfig:
    learning_rate: float = 1e-2
    epochs: int = 50
    batch_size: int = 32
    debias: DebiasConfig = field(default_factory=DebiasConfig)
    seed: int = 0
    hidden_dim: int = 32

    def __post_init__(self):
        if not math.isfinite(self.learning_rate) or self.learning_rate <= 0:
            raise ValueError("learning_rate must be finite and positive")
        _check_integers(self, "epochs", "batch_size", "hidden_dim")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.hidden_dim < 1:
            raise ValueError("hidden_dim must be at least 1")
        _check_seed(self.seed)


def init_params(spec: SyntheticSpec, tcfg: TrainConfig) -> dict[str, np.ndarray]:
    """The five parameter blocks by name: symmetric uniform init scaled by
    1/sqrt(fan_in), path biases zero."""
    rng = np.random.default_rng(np.random.SeedSequence([tcfg.seed, 2]))
    d, h, c = spec.feature_dim, tcfg.hidden_dim, spec.num_classes

    def uniform(shape, fan_in):
        bound = 1.0 / math.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    m = len(MODALITIES)
    return dict(
        enc_weight=uniform((m, h, d), d),
        enc_bias=uniform((m, h), d),
        head_weight=uniform((c, h), h),
        head_bias=uniform((c,), h),
        path_bias=np.zeros((len(PATHS), h)),
    )


def _forward_batch(params, feats):
    """Path inputs to the shared head (4, n, h) and logits (4, n, C)."""
    m, n, _ = feats.shape
    hidden = np.empty((m + 1, n, params["enc_weight"].shape[1]))
    emb = np.matmul(feats, params["enc_weight"].transpose(0, 2, 1), out=hidden[:m])
    emb += params["enc_bias"][:, None]
    np.add.reduce(emb, out=hidden[m])
    hidden += params["path_bias"][:, None]
    logits = hidden @ params["head_weight"].T
    logits += params["head_bias"]
    return hidden, logits


def _backward_batch(params, feats, hidden, grads, out):
    """Parameter gradients from logit gradients (4, n, C), written into `out`.

    `out` holds one array per block of `params`, of the same shape. All
    four paths accumulate into the shared head; the fusion path sums the
    three embeddings, so each encoder receives its own path's gradient plus
    the fusion path's. Returns `out`.
    """
    paths, n, c = grads.shape
    ones = np.ones(paths * n)
    back = grads @ params["head_weight"]  # (4, n, h)
    np.matmul(ones[:n], back, out=out["path_bias"])
    enc = back[:3]
    enc += back[3]
    np.matmul(enc.transpose(0, 2, 1), feats, out=out["enc_weight"])
    np.matmul(ones[:n], enc, out=out["enc_bias"])
    # sum over paths and samples at once: one (C, 4n) @ (4n, h) product
    flat_grads = grads.reshape(-1, c)
    np.matmul(flat_grads.T, hidden.reshape(paths * n, -1), out=out["head_weight"])
    np.matmul(ones, flat_grads, out=out["head_bias"])
    return out


def _views(flat, blocks):
    """Blocks shaped like `blocks`, each a view into consecutive runs of `flat`."""
    views, start = {}, 0
    for name, block in blocks.items():
        views[name] = flat[start : start + block.size].reshape(block.shape)
        start += block.size
    return views


def train(
    spec: SyntheticSpec, tcfg: TrainConfig, train_set: ToyDataset
) -> tuple[dict[str, np.ndarray], list[LossBreakdown]]:
    """Mini-batch SGD on the joint objective; returns the per-epoch trace.

    `train_set` is the first set generate_synthetic(spec) returns; `spec`
    also sizes the model. Deterministic given (spec.seed, tcfg.seed).
    Raises RuntimeError naming the epoch if the loss stops being finite.
    """
    init = init_params(spec, tcfg)
    # see the module docstring: blocks and gradients view two flat vectors
    flat = np.concatenate([block.ravel() for block in init.values()])
    flat_grad = np.empty_like(flat)
    params, grads = _views(flat, init), _views(flat_grad, init)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([tcfg.seed, 3]))
    n = len(train_set)
    trace: list[LossBreakdown] = []
    for epoch in range(tcfg.epochs):
        order = shuffle_rng.permutation(n)
        sums = np.zeros(3)
        for start in range(0, n, tcfg.batch_size):
            idx = order[start : start + tcfg.batch_size]
            feats = train_set.features.take(idx, axis=1)
            hidden, logits = _forward_batch(params, feats)
            l_a, l_d, l_c, logit_grads = batch_loss_and_grad(
                logits, train_set.labels.take(idx), tcfg.debias
            )
            sums += (np.add.reduce(l_a), np.add.reduce(l_d), np.add.reduce(l_c))
            logit_grads /= len(idx)
            _backward_batch(params, feats, hidden, logit_grads, grads)
            # the elementwise arithmetic of `block -= lr * grad` per block
            flat_grad *= tcfg.learning_rate
            flat -= flat_grad
        epoch_loss = LossBreakdown(
            answer=sums[0] / n, discrepancy=sums[1] / n, cycle=sums[2] / n
        )
        if not math.isfinite(epoch_loss.total):
            raise RuntimeError(f"training diverged at epoch {epoch}")
        trace.append(epoch_loss)
    return {name: block.copy() for name, block in params.items()}, trace


def evaluate_toy(
    params: dict[str, np.ndarray], head_test: ToyDataset, tail_test: ToyDataset
) -> dict:
    """Fusion-argmax accuracy on head, tail, and both pooled."""
    tally = {}
    for name, dataset in (("head", head_test), ("tail", tail_test)):
        # keep only the argmax, so no pass holds another's activations at its peak
        predicted = _forward_batch(params, dataset.features)[1][3].argmax(axis=-1)
        tally[name] = int((predicted == dataset.labels).sum()), len(dataset)
    tally["overall"] = tuple(map(sum, zip(*tally.values())))
    return {f"{name}_acc": correct / n for name, (correct, n) in tally.items()}


def run_experiment(spec: SyntheticSpec, tcfg: TrainConfig) -> dict:
    """One training run plus its head/tail evaluation."""
    train_set, head_test, tail_test = generate_synthetic(spec)
    params, trace = train(spec, tcfg, train_set)
    return {
        "seed": tcfg.seed,
        "alpha": tcfg.debias.alpha,
        "beta": tcfg.debias.beta,
        **evaluate_toy(params, head_test, tail_test),
        "final_loss": asdict(trace[-1]),
    }


def run_paired_experiment(
    spec: SyntheticSpec, tcfg: TrainConfig, seeds: list[int]
) -> dict:
    """Debias-on vs answer-loss-only runs over paired seeds.

    Each seed fixes data, initialization, and batch order for both arms;
    only the loss weights differ. The runs go seed by seed, in the order
    given, each seed's debias run before its baseline run. The summary's
    seven keys are "seeds", the medians over seeds of each arm's tail and
    head accuracy ("median_tail_debias", "median_tail_baseline",
    "median_head_debias", "median_head_baseline"), and the medians of the
    per-seed debias minus baseline differences, "median_tail_gain" on tail
    and "median_head_shift" on head.
    """
    if not seeds:
        raise ValueError("at least one seed is required")
    arms = {"debias": tcfg, "baseline": replace(tcfg, debias=DebiasConfig(alpha=0.0, beta=0.0))}
    runs = []
    for seed in seeds:
        for arm, cfg in arms.items():
            run = run_experiment(replace(spec, seed=seed), replace(cfg, seed=seed))
            run["arm"] = arm
            runs.append(run)
    debias, baseline = runs[0::2], runs[1::2]
    summary = {"seeds": list(seeds)}
    for split in ("tail", "head"):
        for arm, arm_runs in zip(arms, (debias, baseline)):
            summary[f"median_{split}_{arm}"] = median(r[f"{split}_acc"] for r in arm_runs)
    for name, split in (("median_tail_gain", "tail"), ("median_head_shift", "head")):
        acc = f"{split}_acc"
        summary[name] = median(d[acc] - b[acc] for d, b in zip(debias, baseline))
    return {"runs": runs, "summary": summary}
