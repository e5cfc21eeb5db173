"""`split.entropy` and `split.normalized_entropy`, the balance threshold, and
the count checks the entropy functions and both split rules share."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from avqabench.records import GroupKey
from avqabench.split import (
    BALANCED_ENTROPY,
    conformal_split,
    entropy,
    legacy_split,
    normalized_entropy,
)

# counts are all positive, so every key is a nonzero class
count_dicts = st.dictionaries(
    keys=st.text(alphabet="abcdefgh", min_size=1, max_size=3),
    values=st.integers(min_value=1, max_value=500),
    min_size=1,
    max_size=8,
)


def test_uniform_four_classes_is_two_bits():
    assert entropy({"a": 1, "b": 1, "c": 1, "d": 1}) == 2.0


def test_single_class_is_zero_bits():
    assert entropy({"a": 10}) == 0.0


def test_half_quarter_quarter_closed_form():
    assert entropy({"a": 2, "b": 1, "c": 1}) == 1.5


def test_zero_count_classes_contribute_nothing():
    with_zero = {"a": 2, "b": 1, "c": 1, "d": 0}
    without = {"a": 2, "b": 1, "c": 1}
    assert entropy(with_zero) == entropy(without)
    assert normalized_entropy(with_zero) == normalized_entropy(without)


def test_empty_distribution_rejected():
    with pytest.raises(ValueError):
        entropy({})
    with pytest.raises(ValueError):
        normalized_entropy({"a": 0})


def test_normalized_uniform_is_one():
    counts = {str(i): 3 for i in range(8)}
    assert normalized_entropy(counts) == pytest.approx(1.0, abs=1e-12)


def test_normalized_half_quarter_quarter():
    # 1.5 / log2(3), evaluated independently
    expected = 1.5 / math.log2(3)
    assert normalized_entropy({"a": 2, "b": 1, "c": 1}) == pytest.approx(expected, abs=1e-12)
    assert round(expected, 5) == 0.94639


def test_single_class_normalized_is_zero():
    assert normalized_entropy({"a": 7}) == 0.0


def test_imbalance_examples():
    assert normalized_entropy({"a": 9, "b": 1}) < BALANCED_ENTROPY  # ~0.469
    assert normalized_entropy({str(i): 2 for i in range(5)}) >= BALANCED_ENTROPY
    assert normalized_entropy({"a": 2, "b": 1, "c": 1}) >= BALANCED_ENTROPY  # ~0.946


def _split_conformal(counts):
    return conformal_split(GroupKey("avqa", "Counting"), counts)


def _split_legacy(counts):
    return legacy_split(GroupKey("avqa", "Counting"), counts)


COUNT_FUNCTIONS = [entropy, normalized_entropy, _split_conformal, _split_legacy]


def _assert_bad_count_rejected(bad):
    # a bad count fails whatever the other counts are, a lone one included
    for counts, label in (({"a": bad}, "a"), ({"a": 2, "b": bad}, "b")):
        for count_function in COUNT_FUNCTIONS:
            with pytest.raises(ValueError) as info:
                count_function(counts)
            expected = f"count for {label!r} must be a non-negative integer, got {bad!r}"
            assert str(info.value) == expected


def test_negative_count_rejected():
    _assert_bad_count_rejected(-1)


@pytest.mark.parametrize("bad", [1.5, "3", None])
def test_non_integer_count_rejected(bad):
    _assert_bad_count_rejected(bad)


@given(counts=count_dicts)
def test_entropy_bounds(counts):
    n = len(counts)
    h = entropy(counts)
    assert -1e-12 <= h <= math.log2(n) + 1e-12
    values = set(counts.values())
    if len(values) == 1:
        assert h == pytest.approx(math.log2(n), abs=1e-12)
    elif n > 1:
        assert h < math.log2(n)


@given(counts=count_dicts)
def test_base_invariance_of_normalized_entropy(counts):
    n = len(counts)
    if n < 2:
        return
    total = sum(counts.values())
    nats = -math.fsum((c / total) * math.log(c / total) for c in counts.values())
    assert normalized_entropy(counts) == pytest.approx(nats / math.log(n), abs=1e-12)


@given(counts=count_dicts, seed=st.integers(0, 2**16))
def test_permutation_invariance(counts, seed):
    labels = sorted(counts)
    shuffled = labels[:]
    random.Random(seed).shuffle(shuffled)
    relabeled = {new: counts[old] for new, old in zip(labels, shuffled)}
    assert entropy(relabeled) == pytest.approx(entropy(counts), abs=1e-12)


@given(counts=count_dicts)
def test_concentrating_mass_never_increases_entropy(counts):
    if len(counts) < 2:
        return
    major = max(counts, key=lambda a: (counts[a], a))
    h_before = entropy(counts)
    for minor in counts:
        if minor == major:
            continue
        moved = dict(counts)
        moved[minor] -= 1
        moved[major] += 1
        assert entropy(moved) <= h_before + 1e-9
