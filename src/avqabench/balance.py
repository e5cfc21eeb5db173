"""Answer-balance measurement for question groups.

A group's answer distribution is scored by Shannon entropy in bits and by
normalized entropy, the ratio of the entropy to that of a uniform
distribution over the same number of answer classes. Normalized entropy
lies in [0, 1] up to rounding, which can put a uniform distribution a few
ulp above 1 (1.0000000000000004 for two classes of 11 each), and is
independent of the logarithm base; a group is balanced when it scores at
least BALANCED_ENTROPY (0.9) and imbalanced otherwise.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

BALANCED_ENTROPY = 0.9


@dataclass(frozen=True)
class AnswerDistribution:
    """Answer-class counts for one question group."""

    counts: Mapping[str, int]

    def __post_init__(self):
        for label, count in self.counts.items():
            if not isinstance(count, int) or count < 0:
                raise ValueError(
                    f"count for {label!r} must be a non-negative integer, got {count!r}"
                )

    @classmethod
    def from_labels(cls, labels: Iterable[str]) -> "AnswerDistribution":
        return cls(counts=dict(Counter(labels)))

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def num_classes(self) -> int:
        """Number of answer classes with nonzero count."""
        return sum(1 for c in self.counts.values() if c > 0)

    def probabilities(self) -> dict[str, float]:
        t = self.total
        return {a: c / t for a, c in self.counts.items() if c > 0}


def entropy(dist: AnswerDistribution) -> float:
    """Shannon entropy of the answer distribution, in bits.

    Computed as log2(T) - sum(c * log2(c)) / T over nonzero counts, which
    is algebraically -sum(p * log2(p)) but exact for uniform unit counts.
    Zero-count classes contribute nothing. Raises ValueError on an empty
    distribution.
    """
    t = dist.total
    if t == 0:
        raise ValueError("entropy of an empty distribution is undefined")
    if dist.num_classes == 1:
        return 0.0
    weighted = math.fsum(c * math.log2(c) for c in dist.counts.values() if c > 0)
    return math.log2(t) - weighted / t


def normalized_entropy(dist: AnswerDistribution) -> float:
    """Entropy divided by log2 of the class count, in [0, 1] up to a few ulp.

    Rounding can put a uniform distribution just above 1, and the value
    is returned as computed, not clamped.

    A single-class distribution is maximally concentrated, so the
    degenerate N=1 case (where log2 N = 0) is defined as 0.
    """
    n = dist.num_classes
    if n == 0:
        raise ValueError("normalized entropy of an empty distribution is undefined")
    if n == 1:
        return 0.0
    return entropy(dist) / math.log2(n)
