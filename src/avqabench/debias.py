"""KL-divergence debiasing losses over four prediction heads.

A training sample yields four pre-softmax score vectors over the answer
classes: one per single modality (question, video, audio) and one from the
fused multimodal path. Three terms form the training objective:

* answer loss: cross entropy of the fusion scores against the gold class.
* discrepancy loss: alpha * sum over modalities of
  1 / (KL(fusion || modality) + eps). Driving this term down enlarges the
  divergence between the fused prediction and every single-modality
  prediction, so the fusion head cannot collapse onto a one-modality
  shortcut. eps sits inside each reciprocal to keep it finite.
* cycle loss: beta * (KL(q||a) + KL(a||v) + KL(v||q)), a cyclic constraint
  keeping the three single-modality predictions mutually consistent.

`batch_loss_and_grad` computes all three terms and their closed-form
gradients for a batch at once, from logits stacked as (4, n, C) in `PATHS`
order: question, video, audio, fusion. Every KL is taken in nats in log
space, as sum softmax(z_p) * (log_softmax(z_p) - log_softmax(z_q)), which is
exact and finite for any finite logits, however small a probability gets.
The single-sample functions are batches of one; their gradients are checked
against central finite differences by `finite_diff_check`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

PATHS = ("question", "video", "audio", "fusion")
MODALITIES = PATHS[:3]
# cycle direction: question -> audio -> video -> question
CYCLE_PAIRS = (("question", "audio"), ("audio", "video"), ("video", "question"))
# KL(p || q) operands as PATHS indices: fusion against each modality (the
# discrepancy pairs), then the cycle pairs J = [0, 2, 1], K = [2, 1, 0]
_KL_P = np.array([3, 3, 3] + [PATHS.index(j) for j, _ in CYCLE_PAIRS])
_KL_Q = np.array([0, 1, 2] + [PATHS.index(k) for _, k in CYCLE_PAIRS])


@dataclass
class DebiasConfig:
    """Weights of the debiasing terms and the reciprocal's guard."""

    alpha: float = 1e-3
    beta: float = 5e-3
    epsilon: float = 1e-5

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be non-negative")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")


@dataclass
class LogitBundle:
    """Fusion plus three single-modality score vectors for one sample."""

    fusion: np.ndarray
    question: np.ndarray
    video: np.ndarray
    audio: np.ndarray

    def __post_init__(self):
        self.fusion = np.asarray(self.fusion, dtype=np.float64)
        self.question = np.asarray(self.question, dtype=np.float64)
        self.video = np.asarray(self.video, dtype=np.float64)
        self.audio = np.asarray(self.audio, dtype=np.float64)
        shape = self.fusion.shape
        if self.fusion.ndim != 1 or shape[0] < 2:
            raise ValueError("logit vectors must be 1-D with at least 2 classes")
        for name in ("question", "video", "audio"):
            if getattr(self, name).shape != shape:
                raise ValueError(f"{name} logits must have shape {shape}")
        for name in ("fusion", "question", "video", "audio"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} logits must be finite")

    @property
    def num_classes(self) -> int:
        return self.fusion.shape[0]

    def head(self, name: str) -> np.ndarray:
        return getattr(self, name)

    def replace_entry(self, head: str, index: int, value: float) -> "LogitBundle":
        vectors = {n: self.head(n).copy() for n in PATHS}
        vectors[head][index] = value
        return LogitBundle(**vectors)


@dataclass
class LossBreakdown:
    answer: float
    discrepancy: float
    cycle: float
    total: float = field(init=False)

    def __post_init__(self):
        # bookkeeping identity: total is the float sum of the parts
        self.total = self.answer + self.discrepancy + self.cycle

    def to_dict(self) -> dict:
        return {
            "answer": self.answer,
            "discrepancy": self.discrepancy,
            "cycle": self.cycle,
            "total": self.total,
        }


@dataclass
class GradientBundle:
    """d(total loss)/d(logits) for each of the four heads."""

    fusion: np.ndarray
    question: np.ndarray
    video: np.ndarray
    audio: np.ndarray

    def head(self, name: str) -> np.ndarray:
        return getattr(self, name)


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-shifted softmax; entries positive, summing to 1 along axis."""
    z = np.asarray(logits, dtype=np.float64)
    if z.size == 0:
        raise ValueError("softmax of an empty vector is undefined")
    if not np.all(np.isfinite(z)):
        raise ValueError("softmax requires finite entries")
    shifted = z - z.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def kl_divergence(p, q) -> float:
    """KL(p || q) in nats between two probability vectors.

    Terms where p is zero contribute 0; the result is infinite where q is
    zero and p is not. Raises on length mismatch or vectors that do not sum
    to 1. This probability-space form is the reference the log-space KL of
    `batch_loss_and_grad` is tested against.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {q.shape}")
    for name, vec in (("p", p), ("q", q)):
        if not math.isclose(float(vec.sum()), 1.0, abs_tol=1e-6):
            raise ValueError(f"{name} must sum to 1, got {float(vec.sum())!r}")
    support = p > 0
    with np.errstate(divide="ignore"):
        return float(np.sum(p[support] * np.log(p[support] / q[support])))


def batch_loss_and_grad(logits: np.ndarray, labels: np.ndarray, cfg: DebiasConfig):
    """Per-sample loss terms and their logit gradients for a stacked batch.

    logits is (4, n, C) in PATHS order and labels is (n,). Returns
    (answer, discrepancy, cycle, grads): three (n,) arrays of per-sample
    terms and, as (4, n, C), the gradient of each sample's total loss with
    respect to that sample's logits; divide by n for the gradient of the
    batch mean.

    For a scalar F of a softmax output s = softmax(z) with elementwise
    sensitivities g = dF/ds, the chain rule through the softmax Jacobian
    gives dF/dz = s * (g - sum(s * g)). Applied to d = KL(p || u):

        dd/d(z_p) = p * (log p - log u - d)
        dd/d(z_u) = u - p

    The discrepancy term alpha/(d + eps) scales both by -alpha/(d + eps)^2
    and the cycle term by beta.
    """
    z = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if z.ndim != 3 or z.shape[0] != len(PATHS) or labels.shape != z.shape[1:2]:
        raise ValueError(
            f"expected (4, n, C) logits and (n,) labels, got {z.shape} and {labels.shape}"
        )
    n, c = z.shape[1:]
    if labels.min() < 0 or labels.max() >= c:
        bad = labels[(labels < 0) | (labels >= c)][0]
        raise ValueError(f"label {bad} out of range for {c} classes")

    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    norm = e.sum(axis=-1, keepdims=True)
    probs = e / norm
    logp = shifted - np.log(norm)
    rows = np.arange(n)
    answer = -logp[3, rows, labels]

    p = probs[_KL_P]
    diff = logp[_KL_P] - logp[_KL_Q]
    kl = (p * diff).sum(axis=-1)  # (6, n)
    inv = 1.0 / (kl[:3] + cfg.epsilon)
    discrepancy = cfg.alpha * inv.sum(axis=0)
    cycle = cfg.beta * kl[3:].sum(axis=0)

    weight = np.concatenate([-cfg.alpha * inv**2, np.full_like(inv, cfg.beta)])[..., None]
    d_p = weight * p * (diff - kl[..., None])  # each weighted KL by its p operand
    d_q = weight * (probs[_KL_Q] - p)  # and by its q operand
    grads = np.empty_like(z)
    grads[3] = probs[3] + d_p[:3].sum(axis=0)
    grads[3, rows, labels] -= 1.0
    grads[:3] = d_q[:3]
    grads[_KL_P[3:]] += d_p[3:]
    grads[_KL_Q[3:]] += d_q[3:]
    return answer, discrepancy, cycle, grads


def _batch_of_one(bundle: LogitBundle, label: int, cfg: DebiasConfig):
    logits = np.stack([bundle.head(name) for name in PATHS])[:, None, :]
    return batch_loss_and_grad(logits, np.array([label]), cfg)


def answer_loss(fusion_logits: np.ndarray, label: int) -> float:
    """Cross entropy -log softmax(fusion)[label], computed in log space."""
    z = np.asarray(fusion_logits, dtype=np.float64)
    return float(_batch_of_one(LogitBundle(z, z, z, z), label, DebiasConfig())[0][0])


def discrepancy_loss(bundle: LogitBundle, cfg: DebiasConfig) -> float:
    """alpha * sum_k 1/(KL(fusion || modality_k) + eps) on softmaxed heads."""
    return float(_batch_of_one(bundle, 0, cfg)[1][0])


def cycle_loss(bundle: LogitBundle, cfg: DebiasConfig) -> float:
    """beta * sum of KL over the cyclic modality pairs, on softmaxed heads."""
    return float(_batch_of_one(bundle, 0, cfg)[2][0])


def total_loss(bundle: LogitBundle, label: int, cfg: DebiasConfig) -> LossBreakdown:
    answer, discrepancy, cycle, _ = _batch_of_one(bundle, label, cfg)
    return LossBreakdown(
        answer=float(answer[0]), discrepancy=float(discrepancy[0]), cycle=float(cycle[0])
    )


def loss_gradients(bundle: LogitBundle, label: int, cfg: DebiasConfig) -> GradientBundle:
    """Closed-form d(total)/d(logits) for all four heads (see batch_loss_and_grad)."""
    grads = _batch_of_one(bundle, label, cfg)[3]
    return GradientBundle(**{name: grads[i, 0] for i, name in enumerate(PATHS)})


def finite_diff_check(
    bundle: LogitBundle, label: int, cfg: DebiasConfig, step: float = 1e-5
) -> float:
    """Worst relative error of the analytic gradient vs central differences.

    Perturbs every logit entry of every head by +/-step, evaluates all the
    perturbed bundles as one batch, and compares (L(+) - L(-)) / (2 step)
    against the closed form, with denominator max(|analytic|, |numeric|,
    1e-8). L(+) - L(-) is summed from the differences of the three loss
    parts, so rounding in a large part cannot swamp the change in a small
    one.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    base = np.stack([bundle.head(name) for name in PATHS])  # (4, C)
    entries = base.size
    shifts = step * np.eye(entries).reshape(entries, *base.shape)
    perturbed = np.concatenate([base + shifts, base - shifts]).transpose(1, 0, 2)
    *parts, _ = batch_loss_and_grad(perturbed, np.full(2 * entries, label), cfg)
    numeric = sum(part[:entries] - part[entries:] for part in parts) / (2.0 * step)
    analytic = _batch_of_one(bundle, label, cfg)[3].reshape(-1)
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / scale))
