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
step is one in-place update of the whole vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from statistics import median

import numpy as np

from .debias import (
    MODALITIES,
    PATHS,
    DebiasConfig,
    LossBreakdown,
    batch_loss_and_grad,
)


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


@dataclass
class ToyDataset:
    features: np.ndarray  # (3, n, d) in MODALITIES order
    labels: np.ndarray  # (n,)
    cues: np.ndarray  # (n,) cue token carried by the question features

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


def _materialize(rng, spec, books, labels, cue_rate):
    _, n_audio = factor_sizes(spec.num_classes)
    video_factor = labels // n_audio
    audio_factor = labels % n_audio
    cues = _draw_cues(rng, labels, spec.num_classes, cue_rate)
    features = np.empty((len(MODALITIES), labels.shape[0], spec.feature_dim))
    for out, name, factor in zip(features, MODALITIES, (cues, video_factor, audio_factor)):
        out[:] = books[name][factor] + rng.normal(scale=spec.noise_std, size=out.shape)
    return ToyDataset(features=features, labels=labels, cues=cues)


def generate_synthetic(spec: SyntheticSpec) -> tuple[ToyDataset, ToyDataset, ToyDataset]:
    """(train, head_test, tail_test), deterministic given spec.seed.

    Train and head-test share the cue-matching rate; the tail-test cue is
    drawn at the chance rate 1/C, which makes the tail cue distribution
    uniform over all classes.
    """
    books = modality_codebooks(spec)
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 1]))
    chance = 1.0 / spec.num_classes
    train_labels = rng.integers(0, spec.num_classes, size=spec.train_size)
    train = _materialize(rng, spec, books, train_labels, spec.bias_rate)
    head_labels = rng.integers(0, spec.num_classes, size=spec.head_test_size)
    head = _materialize(rng, spec, books, head_labels, spec.bias_rate)
    tail_labels = rng.integers(0, spec.num_classes, size=spec.tail_test_size)
    tail = _materialize(rng, spec, books, tail_labels, chance)
    return train, head, tail


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
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.hidden_dim < 1:
            raise ValueError("hidden_dim must be at least 1")


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
    emb = feats @ params["enc_weight"].transpose(0, 2, 1)
    emb += params["enc_bias"][:, None]
    hidden = np.concatenate([emb, emb.sum(axis=0, keepdims=True)])
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
    back = grads @ params["head_weight"]  # (4, n, h)
    enc = back[:3] + back[3]
    c, h = params["head_weight"].shape
    np.matmul(enc.transpose(0, 2, 1), feats, out=out["enc_weight"])
    enc.sum(axis=1, out=out["enc_bias"])
    # sum over paths and samples at once: one (C, 4n) @ (4n, h) product
    np.matmul(grads.reshape(-1, c).T, hidden.reshape(-1, h), out=out["head_weight"])
    grads.sum(axis=(0, 1), out=out["head_bias"])
    back.sum(axis=1, out=out["path_bias"])
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
            feats = train_set.features[:, idx]
            hidden, logits = _forward_batch(params, feats)
            l_a, l_d, l_c, logit_grads = batch_loss_and_grad(
                logits, train_set.labels[idx], tcfg.debias
            )
            sums += (l_a.sum(), l_d.sum(), l_c.sum())
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


def _fusion_accuracy(params, dataset) -> tuple[int, int]:
    _, logits = _forward_batch(params, dataset.features)
    predicted = logits[3].argmax(axis=-1)
    return int((predicted == dataset.labels).sum()), len(dataset)


def evaluate_toy(
    params: dict[str, np.ndarray], head_test: ToyDataset, tail_test: ToyDataset
) -> dict:
    """Fusion-argmax accuracy on head, tail, and both pooled."""
    head_correct, head_n = _fusion_accuracy(params, head_test)
    tail_correct, tail_n = _fusion_accuracy(params, tail_test)
    return {
        "head_acc": head_correct / head_n,
        "tail_acc": tail_correct / tail_n,
        "overall_acc": (head_correct + tail_correct) / (head_n + tail_n),
    }


def run_experiment(spec: SyntheticSpec, tcfg: TrainConfig) -> dict:
    """One training run plus its head/tail evaluation."""
    train_set, head_test, tail_test = generate_synthetic(spec)
    params, trace = train(spec, tcfg, train_set)
    return {
        "seed": tcfg.seed,
        "alpha": tcfg.debias.alpha,
        "beta": tcfg.debias.beta,
        **evaluate_toy(params, head_test, tail_test),
        "final_loss": trace[-1].to_dict(),
    }


def run_paired_experiment(
    spec: SyntheticSpec, tcfg: TrainConfig, seeds: list[int]
) -> dict:
    """Debias-on vs answer-loss-only runs over paired seeds.

    Each seed fixes data, initialization, and batch order for both arms;
    only the loss weights differ. The summary reports the median head and
    tail accuracies per arm and the median-over-seeds paired differences.
    """
    if not seeds:
        raise ValueError("at least one seed is required")
    baseline_cfg = replace(tcfg, debias=DebiasConfig(alpha=0.0, beta=0.0))
    runs = []
    for seed in seeds:
        seeded_spec = replace(spec, seed=seed)
        for arm, cfg in (("debias", tcfg), ("baseline", baseline_cfg)):
            run = run_experiment(seeded_spec, replace(cfg, seed=seed))
            run["arm"] = arm
            runs.append(run)
    by_arm = {
        arm: [r for r in runs if r["arm"] == arm] for arm in ("debias", "baseline")
    }
    tail_gains = [
        d["tail_acc"] - b["tail_acc"]
        for d, b in zip(by_arm["debias"], by_arm["baseline"])
    ]
    head_shifts = [
        d["head_acc"] - b["head_acc"]
        for d, b in zip(by_arm["debias"], by_arm["baseline"])
    ]
    summary = {
        "seeds": list(seeds),
        "median_tail_debias": median(r["tail_acc"] for r in by_arm["debias"]),
        "median_tail_baseline": median(r["tail_acc"] for r in by_arm["baseline"]),
        "median_head_debias": median(r["head_acc"] for r in by_arm["debias"]),
        "median_head_baseline": median(r["head_acc"] for r in by_arm["baseline"]),
        "median_tail_gain": median(tail_gains),
        "median_head_shift": median(head_shifts),
    }
    return {"runs": runs, "summary": summary}
