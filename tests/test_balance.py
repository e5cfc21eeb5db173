"""Entropy, normalized entropy, and the balance threshold."""

import math

import pytest
from hypothesis import given, strategies as st

from avqabench.balance import BALANCED_ENTROPY, AnswerDistribution, entropy, normalized_entropy

count_dicts = st.dictionaries(
    keys=st.text(alphabet="abcdefgh", min_size=1, max_size=3),
    values=st.integers(min_value=1, max_value=500),
    min_size=1,
    max_size=8,
)


def test_uniform_four_classes_is_two_bits():
    assert entropy(AnswerDistribution({"a": 1, "b": 1, "c": 1, "d": 1})) == 2.0


def test_single_class_is_zero_bits():
    assert entropy(AnswerDistribution({"a": 10})) == 0.0


def test_half_quarter_quarter_closed_form():
    assert entropy(AnswerDistribution({"a": 2, "b": 1, "c": 1})) == 1.5


def test_zero_count_classes_contribute_nothing():
    with_zero = AnswerDistribution({"a": 2, "b": 1, "c": 1, "d": 0})
    without = AnswerDistribution({"a": 2, "b": 1, "c": 1})
    assert entropy(with_zero) == entropy(without)
    assert with_zero.num_classes == 3


def test_empty_distribution_rejected():
    with pytest.raises(ValueError):
        entropy(AnswerDistribution({}))
    with pytest.raises(ValueError):
        normalized_entropy(AnswerDistribution({"a": 0}))


def test_normalized_uniform_is_one():
    dist = AnswerDistribution({str(i): 3 for i in range(8)})
    assert normalized_entropy(dist) == pytest.approx(1.0, abs=1e-12)


def test_normalized_half_quarter_quarter():
    # 1.5 / log2(3), evaluated independently
    expected = 1.5 / math.log2(3)
    assert normalized_entropy(AnswerDistribution({"a": 2, "b": 1, "c": 1})) == pytest.approx(
        expected, abs=1e-12
    )
    assert round(expected, 5) == 0.94639


def test_single_class_normalized_is_zero():
    assert normalized_entropy(AnswerDistribution({"a": 7})) == 0.0


def test_imbalance_examples():
    def score(counts):
        return normalized_entropy(AnswerDistribution(counts))

    assert score({"a": 9, "b": 1}) < BALANCED_ENTROPY  # ~0.469
    assert score({str(i): 2 for i in range(5)}) >= BALANCED_ENTROPY
    assert score({"a": 2, "b": 1, "c": 1}) >= BALANCED_ENTROPY  # ~0.946


def test_negative_count_rejected():
    with pytest.raises(ValueError):
        AnswerDistribution({"a": -1})


@given(counts=count_dicts)
def test_entropy_bounds(counts):
    dist = AnswerDistribution(counts)
    h = entropy(dist)
    assert -1e-12 <= h <= math.log2(dist.num_classes) + 1e-12
    values = set(counts.values())
    if len(values) == 1:
        assert h == pytest.approx(math.log2(dist.num_classes), abs=1e-12)
    elif dist.num_classes > 1:
        assert h < math.log2(dist.num_classes)


@given(counts=count_dicts)
def test_base_invariance_of_normalized_entropy(counts):
    dist = AnswerDistribution(counts)
    n = dist.num_classes
    if n < 2:
        return
    total = dist.total
    nats = -math.fsum(
        (c / total) * math.log(c / total) for c in counts.values() if c > 0
    )
    assert normalized_entropy(dist) == pytest.approx(nats / math.log(n), abs=1e-12)


@given(counts=count_dicts, seed=st.integers(0, 2**16))
def test_permutation_invariance(counts, seed):
    labels = sorted(counts)
    import random

    shuffled = labels[:]
    random.Random(seed).shuffle(shuffled)
    relabeled = {new: counts[old] for new, old in zip(labels, shuffled)}
    assert entropy(AnswerDistribution(relabeled)) == pytest.approx(
        entropy(AnswerDistribution(counts)), abs=1e-12
    )


@given(counts=count_dicts)
def test_concentrating_mass_never_increases_entropy(counts):
    dist = AnswerDistribution(counts)
    if dist.num_classes < 2:
        return
    nonzero = {a: c for a, c in counts.items() if c > 0}
    major = max(nonzero, key=lambda a: (nonzero[a], a))
    h_before = entropy(dist)
    for minor in nonzero:
        if minor == major:
            continue
        moved = dict(nonzero)
        moved[minor] -= 1
        moved[major] += 1
        assert entropy(AnswerDistribution(moved)) <= h_before + 1e-9
