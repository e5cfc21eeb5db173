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
Each KL's gradient lands on both of its operands, and every pair's
gradient reaches the paths through one product with a routing table built
from the pair list, so the pair list alone says which paths a KL touches.
The answer gradient, softmax minus the one-hot label, is then added to the
fusion path. When alpha and beta are both zero, as in an answer-loss-only
baseline, only the KL block is skipped: both terms are zero, the modality
gradients are zero and the fusion gradient is the answer gradient alone.

A step at batch 32 and C = 8 is bound by the count of numpy calls, not by
arithmetic, so the class-axis sum in each of the six KLs, sum over C of
p * (log p - log q), is one BLAS product of the (6, n, C) array with a
vector of ones. It agrees with `.sum(axis=-1)` up to rounding: from C = 8
on the two add in different orders. The softmax normaliser stays a
pairwise `np.add.reduce`, the sum `.sum` makes, so the answer-only
gradient rounds as a plain softmax does.
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
# row r has a 1 in column k where path r is pair k's p operand, and in
# column 6 + k where it is pair k's q operand
_ROUTE = np.eye(len(PATHS))[np.concatenate((_KL_P, _KL_Q))].T


@dataclass
class DebiasConfig:
    """Weights of the debiasing terms and the reciprocal's guard."""

    alpha: float = 1e-3
    beta: float = 5e-3
    epsilon: float = 1e-5

    def __post_init__(self):
        for name in ("alpha", "beta", "epsilon"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be non-negative")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")


@dataclass
class LossBreakdown:
    answer: float
    discrepancy: float
    cycle: float
    total: float = field(init=False)

    def __post_init__(self):
        # bookkeeping identity: total is the float sum of the parts
        self.total = self.answer + self.discrepancy + self.cycle


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
    shape_ok = z.ndim == 3 and z.shape[0] == len(PATHS) and z.shape[2] >= 2
    if not shape_ok or labels.shape != z.shape[1:2]:
        raise ValueError(
            f"expected (4, n, C) logits with C >= 2 and (n,) labels, "
            f"got {z.shape} and {labels.shape}"
        )
    if z.shape[1] == 0:
        raise ValueError("expected a batch of n >= 1 samples, got n = 0")
    if labels.dtype.kind not in "iu":
        raise ValueError(f"labels must be integers, got dtype {labels.dtype}")
    n, c = z.shape[1:]
    if np.minimum.reduce(labels) < 0 or np.maximum.reduce(labels) >= c:
        bad = labels[(labels < 0) | (labels >= c)][0]
        raise ValueError(f"label {bad} out of range for {c} classes")

    # the row max over C, taken from a class-major copy: a max is exact in
    # any order, and the reduction over a leading axis is the faster one
    class_major = np.ascontiguousarray(z.transpose(0, 2, 1))
    shifted = z - np.maximum.reduce(class_major, axis=1)[..., None]
    e = np.exp(shifted)
    # a pairwise sum, not a product with ones: the answer-only arm's
    # gradient is then softmax minus one-hot exactly as `.sum` rounds it
    norm = np.add.reduce(e, axis=-1, keepdims=True)
    probs = np.divide(e, norm, out=e)
    logp = np.subtract(shifted, np.log(norm), out=shifted)
    # (sample, label) entries of a fusion (n, C) block, as flat indices;
    # intp, as uint64 labels plus an int64 range would give floats
    picked = np.add(np.arange(0, n * c, c), labels, dtype=np.intp)
    answer = -logp[3].ravel().take(picked)

    if cfg.alpha == 0 and cfg.beta == 0:
        # zero-weight terms are not computed: only the answer loss moves
        discrepancy, cycle = np.zeros(n), np.zeros(n)
        grads = np.zeros(z.shape)
    else:
        p = probs.take(_KL_P, axis=0)
        diff = logp.take(_KL_P, axis=0)
        diff -= logp.take(_KL_Q, axis=0)
        kl = (p * diff) @ np.ones(c)  # (6, n)
        inv = 1.0 / (kl[:3] + cfg.epsilon)
        discrepancy = cfg.alpha * np.add.reduce(inv)
        cycle = cfg.beta * np.add.reduce(kl[3:])

        weight = np.empty_like(kl)
        np.square(inv, out=weight[:3])
        weight[:3] *= -cfg.alpha
        weight[3:] = cfg.beta
        diff -= kl[..., None]
        # each KL's weighted gradient at its p operand, then at its q operand
        d = np.empty((2, *p.shape))
        np.multiply(p, diff, out=d[0])
        np.subtract(probs.take(_KL_Q, axis=0), p, out=d[1])
        d *= weight[..., None]
        grads = (_ROUTE @ d.reshape(2 * len(_KL_P), -1)).reshape(z.shape)
    # either arm's grads is a fresh C-order array whatever z's layout, so
    # the flat label indices reach it
    grads[3] += probs[3]
    grads[3].ravel()[picked] -= 1.0
    return answer, discrepancy, cycle, grads
