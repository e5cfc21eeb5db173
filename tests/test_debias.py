"""Loss terms, closed-form gradients, and the finite-difference harness."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from avqabench.debias import (
    CYCLE_PAIRS,
    DebiasConfig,
    GradientBundle,
    LogitBundle,
    LossBreakdown,
    answer_loss,
    cycle_loss,
    discrepancy_loss,
    finite_diff_check,
    kl_divergence,
    loss_gradients,
    softmax,
    total_loss,
)


def bundle_from(fusion, question, video, audio):
    return LogitBundle(
        fusion=np.array(fusion, dtype=float),
        question=np.array(question, dtype=float),
        video=np.array(video, dtype=float),
        audio=np.array(audio, dtype=float),
    )


def random_bundle(rng, c):
    return LogitBundle(*(rng.normal(0.0, 1.5, size=c) for _ in range(4)))


@st.composite
def gapped_bundles(draw):
    """A random bundle with one single-modality logit pushed down by up to 60.

    Gaps above ~28 put that probability below 1e-12, where a floored KL
    would stop following its gradient. Fusion logits stay moderate: a
    fusion probability near 1e-13 has a gradient below what a central
    difference at step 1e-5 resolves against the rounding of the loss.
    """
    c = draw(st.integers(min_value=2, max_value=16))
    bundle = random_bundle(np.random.default_rng(draw(st.integers(0, 2**20))), c)
    head = draw(st.sampled_from(["question", "video", "audio"]))
    entry = draw(st.integers(min_value=0, max_value=c - 1))
    gap = draw(st.floats(min_value=0, max_value=60))
    return bundle.replace_entry(head, entry, bundle.head(head)[entry] - gap)


logit_vectors = st.integers(min_value=2, max_value=12).flatmap(
    lambda c: st.lists(
        st.floats(min_value=-20, max_value=20, allow_nan=False),
        min_size=4 * c,
        max_size=4 * c,
    ).map(lambda vals: np.array(vals).reshape(4, c))
)


class TestSoftmax:
    def test_symmetric_pair(self):
        np.testing.assert_allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5])

    def test_shift_invariance(self):
        for c in (-3.0, 0.0, 7.5):
            np.testing.assert_allclose(softmax(np.full(4, c)), np.full(4, 0.25))

    def test_closed_form(self):
        np.testing.assert_allclose(
            softmax(np.array([math.log(2), 0.0])), [2 / 3, 1 / 3], atol=1e-15
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            softmax(np.array([]))

    def test_extreme_logits_stay_finite(self):
        out = softmax(np.array([1000.0, -1000.0, 0.0]))
        assert np.all(np.isfinite(out))
        assert out.sum() == pytest.approx(1.0, abs=1e-12)


class TestKL:
    def test_identity_is_zero(self):
        p = np.array([0.2, 0.3, 0.5])
        assert kl_divergence(p, p) == 0.0

    def test_point_mass_vs_uniform(self):
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2))

    def test_two_term_closed_form(self):
        # 0.75 ln 3 + 0.25 ln (1/3) = 0.5 ln 3
        got = kl_divergence([0.75, 0.25], [0.25, 0.75])
        assert got == pytest.approx(0.5 * math.log(3), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            kl_divergence([1.0], [0.5, 0.5])

    def test_requires_probability_vectors(self):
        with pytest.raises(ValueError, match="sum to 1"):
            kl_divergence([0.5, 0.1], [0.5, 0.5])

    def test_zero_p_entries_contribute_zero(self):
        assert kl_divergence([0.0, 1.0], [0.5, 0.5]) == pytest.approx(math.log(2))

    def test_non_negative_on_random_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = softmax(rng.normal(size=6))
            q = softmax(rng.normal(size=6))
            assert kl_divergence(p, q) >= 0.0


class TestAnswerLoss:
    def test_peaked_logits_near_zero(self):
        assert answer_loss(np.array([30.0, -30.0]), 0) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_two(self):
        assert answer_loss(np.array([0.0, 0.0]), 1) == pytest.approx(math.log(2))

    def test_uniform_four(self):
        assert answer_loss(np.zeros(4), 2) == pytest.approx(math.log(4))

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            answer_loss(np.zeros(3), 3)


class TestDiscrepancyLoss:
    def test_identical_heads_hit_the_epsilon_guard(self):
        z = np.array([0.3, -1.2, 0.9])
        bundle = bundle_from(z, z, z, z)
        cfg = DebiasConfig(alpha=1e-3, epsilon=1e-5)
        assert discrepancy_loss(bundle, cfg) == pytest.approx(300.0, abs=1e-9)

    def test_alpha_zero_kills_term(self):
        rng = np.random.default_rng(0)
        bundle = random_bundle(rng, 5)
        assert discrepancy_loss(bundle, DebiasConfig(alpha=0.0)) == 0.0

    def test_fusion_far_from_uniform_heads(self):
        # fusion ~ (1, 0); each single-modality head uniform
        bundle = bundle_from([60.0, -60.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0])
        cfg = DebiasConfig(alpha=1e-3, epsilon=1e-5)
        expected = 3e-3 / (math.log(2) + 1e-5)
        assert discrepancy_loss(bundle, cfg) == pytest.approx(expected, abs=1e-9)

    def test_matches_kl_divergence_oracle(self):
        rng = np.random.default_rng(3)
        bundle = random_bundle(rng, 6)
        cfg = DebiasConfig()
        p = softmax(bundle.fusion)
        expected = cfg.alpha * sum(
            1.0 / (kl_divergence(p, softmax(bundle.head(m))) + cfg.epsilon)
            for m in ("question", "video", "audio")
        )
        assert discrepancy_loss(bundle, cfg) == pytest.approx(expected, rel=1e-12)


class TestCycleLoss:
    def test_identical_heads_zero(self):
        z = np.array([0.5, -0.5, 1.0])
        bundle = bundle_from(np.zeros(3), z, z, z)
        assert cycle_loss(bundle, DebiasConfig()) == 0.0

    def test_beta_zero_kills_term(self):
        rng = np.random.default_rng(1)
        assert cycle_loss(random_bundle(rng, 4), DebiasConfig(beta=0.0)) == 0.0

    def test_three_term_fixture(self):
        q = np.log([0.75, 0.25])
        a = np.log([0.25, 0.75])
        v = np.log([0.5, 0.5])
        bundle = bundle_from([0.0, 0.0], q, v, a)
        cfg = DebiasConfig(beta=5e-3)
        expected = cfg.beta * (
            kl_divergence([0.75, 0.25], [0.25, 0.75])
            + kl_divergence([0.25, 0.75], [0.5, 0.5])
            + kl_divergence([0.5, 0.5], [0.75, 0.25])
        )
        got = cycle_loss(bundle, cfg)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.0041198, abs=5e-7)


class TestTotalLoss:
    def test_reduces_to_cross_entropy(self):
        rng = np.random.default_rng(2)
        bundle = random_bundle(rng, 6)
        breakdown = total_loss(bundle, 4, DebiasConfig(alpha=0.0, beta=0.0))
        assert breakdown.discrepancy == 0.0
        assert breakdown.cycle == 0.0
        assert breakdown.total == breakdown.answer

    def test_degenerate_composition(self):
        z = np.zeros(4)
        bundle = bundle_from(z, z, z, z)
        cfg = DebiasConfig(alpha=1e-3, epsilon=1e-5)
        breakdown = total_loss(bundle, 0, cfg)
        assert breakdown.answer == pytest.approx(math.log(4))
        assert breakdown.discrepancy == pytest.approx(3 * cfg.alpha / cfg.epsilon, abs=1e-9)
        assert breakdown.cycle == 0.0

    @given(logits=logit_vectors, label=st.integers(min_value=0, max_value=1))
    def test_bookkeeping_identity_exact(self, logits, label):
        bundle = LogitBundle(*logits)
        breakdown = total_loss(bundle, label, DebiasConfig())
        assert breakdown.total == breakdown.answer + breakdown.discrepancy + breakdown.cycle

    @given(logits=logit_vectors)
    def test_terms_non_negative(self, logits):
        bundle = LogitBundle(*logits)
        breakdown = total_loss(bundle, 0, DebiasConfig())
        assert breakdown.answer >= 0.0
        assert breakdown.discrepancy >= 0.0
        assert breakdown.cycle >= 0.0

    @given(
        logits=logit_vectors,
        shift=st.floats(min_value=-30, max_value=30, allow_nan=False),
        head=st.sampled_from(["fusion", "question", "video", "audio"]),
    )
    def test_shift_invariance_per_head(self, logits, shift, head):
        bundle = LogitBundle(*logits)
        shifted_vectors = {
            name: bundle.head(name) + (shift if name == head else 0.0)
            for name in ("fusion", "question", "video", "audio")
        }
        shifted = LogitBundle(**shifted_vectors)
        a = total_loss(bundle, 0, DebiasConfig())
        b = total_loss(shifted, 0, DebiasConfig())
        assert b.total == pytest.approx(a.total, rel=1e-6, abs=1e-9)

    def test_discrepancy_decreases_as_divergence_grows(self):
        # hold two divergences fixed, widen the third
        cfg = DebiasConfig()
        base = bundle_from([2.0, 0.0], [1.0, 0.0], [0.5, 0.0], [0.0, 0.0])
        wider = bundle_from([2.0, 0.0], [-1.0, 0.0], [0.5, 0.0], [0.0, 0.0])
        # KL(fusion || question) grows when question moves away from fusion
        p = softmax(base.fusion)
        assert kl_divergence(p, softmax(wider.question)) > kl_divergence(
            p, softmax(base.question)
        )
        assert discrepancy_loss(wider, cfg) < discrepancy_loss(base, cfg)


class TestGradients:
    def test_cross_entropy_identity(self):
        rng = np.random.default_rng(4)
        bundle = random_bundle(rng, 8)
        grads = loss_gradients(bundle, 3, DebiasConfig(alpha=0.0, beta=0.0))
        expected = softmax(bundle.fusion)
        expected[3] -= 1.0
        np.testing.assert_array_equal(grads.fusion, expected)
        for head in ("question", "video", "audio"):
            assert np.all(grads.head(head) == 0.0)

    def test_cycle_gradient_zero_at_equal_heads(self):
        z = np.array([0.4, -0.2, 0.1, 0.0])
        bundle = bundle_from(np.array([1.0, 0.0, 0.0, -1.0]), z, z, z)
        grads = loss_gradients(bundle, 0, DebiasConfig(alpha=0.0, beta=5e-3))
        for head in ("question", "video", "audio"):
            np.testing.assert_allclose(grads.head(head), 0.0, atol=1e-15)

    def test_finite_difference_seed0_fixture(self):
        rng = np.random.default_rng(0)
        bundle = random_bundle(rng, 6)
        err = finite_diff_check(bundle, 2, DebiasConfig(), step=1e-5)
        assert err < 1e-4

    def test_finite_difference_cross_entropy_only(self):
        rng = np.random.default_rng(0)
        bundle = random_bundle(rng, 4)
        err = finite_diff_check(bundle, 1, DebiasConfig(alpha=0.0, beta=0.0), step=1e-5)
        assert err < 1e-6

    def test_finite_difference_past_the_old_probability_floor(self):
        # question[1] has probability ~4e-18; a 1e-12 floor on it made the
        # loss flat there while the gradient was not (relative error 1.0)
        bundle = bundle_from([0, 0, 0], [0, -40, 0], [1, 0, 0], [0, 0, 2])
        for label in range(3):
            assert finite_diff_check(bundle, label, DebiasConfig()) < 1e-4

    @settings(max_examples=30, deadline=None)
    @given(bundle=gapped_bundles(), label=st.integers(min_value=0, max_value=1))
    def test_finite_difference_random_bundles(self, bundle, label):
        err = finite_diff_check(bundle, label % bundle.num_classes, DebiasConfig(), step=1e-5)
        assert err < 1e-4

    def test_step_must_be_positive(self):
        rng = np.random.default_rng(5)
        bundle = random_bundle(rng, 4)
        with pytest.raises(ValueError):
            finite_diff_check(bundle, 0, DebiasConfig(), step=0.0)


class TestValidation:
    def test_bundle_requires_matching_shapes(self):
        with pytest.raises(ValueError):
            bundle_from([0.0, 1.0], [0.0, 1.0, 2.0], [0.0, 1.0], [0.0, 1.0])

    def test_bundle_requires_two_classes(self):
        with pytest.raises(ValueError):
            bundle_from([0.0], [0.0], [0.0], [0.0])

    def test_bundle_rejects_non_finite(self):
        with pytest.raises(ValueError):
            bundle_from([0.0, np.inf], [0.0, 1.0], [0.0, 1.0], [0.0, 1.0])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DebiasConfig(alpha=-1.0)
        with pytest.raises(ValueError):
            DebiasConfig(epsilon=0.0)
