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
When alpha and beta are both zero, as in an answer-loss-only baseline, the
KLs are not computed at all: both terms are zero, the modality gradients
are zero and the fusion gradient is softmax minus the one-hot label.
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
# each cycle operand list is a permutation of the modalities; row m of a
# (3, n, C) cycle array gathered by its inverse is the pair whose operand is m
_CYCLE_P_INV = np.argsort(_KL_P[3:])
_CYCLE_Q_INV = np.argsort(_KL_Q[3:])


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

    def to_dict(self) -> dict:
        return {
            "answer": self.answer,
            "discrepancy": self.discrepancy,
            "cycle": self.cycle,
            "total": self.total,
        }


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
    n, c = z.shape[1:]
    if labels.min() < 0 or labels.max() >= c:
        bad = labels[(labels < 0) | (labels >= c)][0]
        raise ValueError(f"label {bad} out of range for {c} classes")

    # the row max over C, taken from a class-major copy: a max is exact in
    # any order, and the reduction over a leading axis is the faster one
    shifted = z - np.ascontiguousarray(z.transpose(0, 2, 1)).max(axis=1)[..., None]
    e = np.exp(shifted)
    norm = e.sum(axis=-1, keepdims=True)
    probs = e / norm
    logp = shifted - np.log(norm)
    rows = np.arange(n)
    answer = -logp[3, rows, labels]

    if cfg.alpha == 0 and cfg.beta == 0:
        # zero-weight terms are not computed: only the answer loss moves
        grads = np.zeros_like(z)
        grads[3] = probs[3]
        grads[3, rows, labels] -= 1.0
        return answer, np.zeros(n), np.zeros(n), grads

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
    grads[:3] += d_p[3:][_CYCLE_P_INV]
    grads[:3] += d_q[3:][_CYCLE_Q_INV]
    return answer, discrepancy, cycle, grads
