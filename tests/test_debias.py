"""Loss terms and closed-form gradients, against probability-space and
finite-difference references."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from avqabench.debias import (
    PATHS,
    DebiasConfig,
    LossBreakdown,
    batch_loss_and_grad,
)

QUESTION, VIDEO, AUDIO, FUSION = range(4)


# Reference implementations the closed forms are checked against.
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


def decimal_log_softmax(row):
    """(log p, p) of a row of Decimal logits, in the current decimal context."""
    top = max(row)
    e = [(x - top).exp() for x in row]
    total = sum(e)
    log_total = total.ln()
    return [x - top - log_total for x in row], [v / total for v in e]


def decimal_loss_parts(rows, label, cfg):
    """(answer, discrepancy, cycle) of one sample as Decimals.

    rows holds each path's `decimal_log_softmax` in PATHS order. The cycle
    runs question -> audio -> video -> question.
    """

    def kl(p_path, q_path):
        log_p, p = rows[p_path]
        return sum(pk * (lp - lq) for pk, lp, lq in zip(p, log_p, rows[q_path][0]))

    alpha, beta, epsilon = (Decimal(v) for v in (cfg.alpha, cfg.beta, cfg.epsilon))
    answer = -rows[FUSION][0][label]
    discrepancy = alpha * sum(1 / (kl(FUSION, m) + epsilon) for m in (QUESTION, VIDEO, AUDIO))
    cycle = beta * sum(kl(j, k) for j, k in ((QUESTION, AUDIO), (AUDIO, VIDEO), (VIDEO, QUESTION)))
    return answer, discrepancy, cycle


def finite_diff_check(
    logits: np.ndarray, label: int, cfg: DebiasConfig, step: float = 1e-5
) -> float:
    """Worst relative error of the analytic gradient vs central differences,
    and of the returned loss parts vs the loss they differentiate.

    logits is one sample's (4, C) array in PATHS order, C >= 2, all finite.
    Perturbs every entry by +/-step and evaluates all the perturbed samples
    as one batch. Each of their three loss parts is compared against the
    same part evaluated at the same point in 50-digit decimal arithmetic,
    and the closed-form gradient against (L(+) - L(-)) / (x(+) - x(-)) of
    the decimal loss. Relative errors take the denominator max(|a|, |b|,
    1e-8). The decimal loss resolves a gradient entry however small it is
    beside the loss: in float64, a discrepancy of 78.5 rounds away changes
    below 1.4e-14, and a gradient entry of 3e-6 moves the loss by only 6e-11
    over a step pair of 1e-5.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    base = np.asarray(logits, dtype=np.float64)
    if base.ndim != 2 or base.shape[0] != len(PATHS) or base.shape[1] < 2:
        raise ValueError(f"expected (4, C) logits with C >= 2, got shape {base.shape}")
    if not np.all(np.isfinite(base)):
        raise ValueError("logits must be finite")
    entries = base.size
    shifts = step * np.eye(entries).reshape(entries, *base.shape)
    points = np.concatenate([base + shifts, base - shifts])
    *parts, _ = batch_loss_and_grad(points.transpose(1, 0, 2), np.full(2 * entries, label), cfg)
    analytic = batch_loss_and_grad(base[:, None], np.array([label]), cfg)[3].reshape(-1)

    with localcontext() as ctx:
        ctx.prec = 50
        base_rows = [decimal_log_softmax([Decimal(x) for x in row]) for row in base]
        exact = []
        for k, point in enumerate(points):
            # each point differs from base in one entry, so in one path
            path = (k % entries) // base.shape[1]
            rows = list(base_rows)
            rows[path] = decimal_log_softmax([Decimal(x) for x in point[path]])
            exact.append(decimal_loss_parts(rows, label, cfg))
        numeric = []
        for k in range(entries):
            plus, minus = points[k].flat[k], points[entries + k].flat[k]
            change = sum(exact[k]) - sum(exact[entries + k])
            numeric.append(float(change / (Decimal(plus) - Decimal(minus))))
        exact = np.array([[float(v) for v in point_parts] for point_parts in exact])

    def worst(a, b):
        scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
        return float(np.max(np.abs(a - b) / scale))

    return max(worst(analytic, np.array(numeric)), worst(np.stack(parts, axis=1), exact))


def stack(fusion, question, video, audio):
    """One sample's (4, C) logits in PATHS order."""
    return np.array([question, video, audio, fusion], dtype=float)


def random_logits(rng, c):
    """Four N(0, 1.5) draws, taken as fusion, question, video, audio."""
    return stack(*(rng.normal(0.0, 1.5, size=c) for _ in range(4)))


def one_sample(logits, label, cfg):
    """(answer, discrepancy, cycle, grads (4, C)) of a batch of one sample."""
    answer, discrepancy, cycle, grads = batch_loss_and_grad(
        np.asarray(logits, dtype=float)[:, None], np.array([label]), cfg
    )
    return float(answer[0]), float(discrepancy[0]), float(cycle[0]), grads[:, 0]


def breakdown(logits, label, cfg):
    return LossBreakdown(*one_sample(logits, label, cfg)[:3])


def cross_entropy(fusion, label):
    """The answer term, with every path set to the fusion logits."""
    return breakdown(stack(fusion, fusion, fusion, fusion), label, DebiasConfig()).answer


@st.composite
def gapped_bundles(draw):
    """Random logits with one single-modality logit pushed down by up to 60.

    Gaps above ~28 put that probability below 1e-12, where a floored KL
    would stop following its gradient. Fusion logits stay moderate: a
    fusion probability near 1e-13 has a gradient below what a central
    difference at step 1e-5 resolves against the rounding of the loss.
    """
    c = draw(st.integers(min_value=2, max_value=16))
    seed = draw(st.integers(0, 2**20))
    head = draw(st.sampled_from(["question", "video", "audio"]))
    entry = draw(st.integers(min_value=0, max_value=c - 1))
    gap = draw(st.floats(min_value=0, max_value=60))
    return gapped_bundle(seed, c, head, entry, gap)


def gapped_bundle(seed, c, head, entry, gap):
    """`random_logits` of the seed with head's logit at entry lowered by gap."""
    logits = random_logits(np.random.default_rng(seed), c)
    logits[PATHS.index(head), entry] -= gap
    return logits


# rows drawn as fusion, question, video, audio, returned in PATHS order
logit_vectors = st.integers(min_value=2, max_value=12).flatmap(
    lambda c: st.lists(
        st.floats(min_value=-20, max_value=20, allow_nan=False),
        min_size=4 * c,
        max_size=4 * c,
    ).map(lambda vals: stack(*np.array(vals).reshape(4, c)))
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
        assert cross_entropy(np.array([30.0, -30.0]), 0) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_two(self):
        assert cross_entropy(np.array([0.0, 0.0]), 1) == pytest.approx(math.log(2))

    def test_uniform_four(self):
        assert cross_entropy(np.zeros(4), 2) == pytest.approx(math.log(4))

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            cross_entropy(np.zeros(3), 3)


class TestDiscrepancyLoss:
    def test_identical_heads_hit_the_epsilon_guard(self):
        z = np.array([0.3, -1.2, 0.9])
        cfg = DebiasConfig(alpha=1e-3, epsilon=1e-5)
        assert breakdown(stack(z, z, z, z), 0, cfg).discrepancy == pytest.approx(300.0, abs=1e-9)

    def test_alpha_zero_kills_term(self):
        rng = np.random.default_rng(0)
        logits = random_logits(rng, 5)
        assert breakdown(logits, 0, DebiasConfig(alpha=0.0)).discrepancy == 0.0

    def test_fusion_far_from_uniform_heads(self):
        # fusion ~ (1, 0); each single-modality head uniform
        logits = stack([60.0, -60.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0])
        cfg = DebiasConfig(alpha=1e-3, epsilon=1e-5)
        expected = 3e-3 / (math.log(2) + 1e-5)
        assert breakdown(logits, 0, cfg).discrepancy == pytest.approx(expected, abs=1e-9)

    def test_matches_kl_divergence_oracle(self):
        rng = np.random.default_rng(3)
        logits = random_logits(rng, 6)
        cfg = DebiasConfig()
        p = softmax(logits[FUSION])
        expected = cfg.alpha * sum(
            1.0 / (kl_divergence(p, softmax(logits[m])) + cfg.epsilon)
            for m in (QUESTION, VIDEO, AUDIO)
        )
        assert breakdown(logits, 0, cfg).discrepancy == pytest.approx(expected, rel=1e-12)


class TestCycleLoss:
    def test_identical_heads_zero(self):
        z = np.array([0.5, -0.5, 1.0])
        assert breakdown(stack(np.zeros(3), z, z, z), 0, DebiasConfig()).cycle == 0.0

    def test_beta_zero_kills_term(self):
        rng = np.random.default_rng(1)
        assert breakdown(random_logits(rng, 4), 0, DebiasConfig(beta=0.0)).cycle == 0.0

    def test_three_term_fixture(self):
        q = np.log([0.75, 0.25])
        a = np.log([0.25, 0.75])
        v = np.log([0.5, 0.5])
        logits = stack([0.0, 0.0], q, v, a)
        cfg = DebiasConfig(beta=5e-3)
        expected = cfg.beta * (
            kl_divergence([0.75, 0.25], [0.25, 0.75])
            + kl_divergence([0.25, 0.75], [0.5, 0.5])
            + kl_divergence([0.5, 0.5], [0.75, 0.25])
        )
        got = breakdown(logits, 0, cfg).cycle
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.0041198, abs=5e-7)


class TestTotalLoss:
    def test_reduces_to_cross_entropy(self):
        rng = np.random.default_rng(2)
        loss = breakdown(random_logits(rng, 6), 4, DebiasConfig(alpha=0.0, beta=0.0))
        assert loss.discrepancy == 0.0
        assert loss.cycle == 0.0
        assert loss.total == loss.answer

    def test_degenerate_composition(self):
        z = np.zeros(4)
        cfg = DebiasConfig(alpha=1e-3, epsilon=1e-5)
        loss = breakdown(stack(z, z, z, z), 0, cfg)
        assert loss.answer == pytest.approx(math.log(4))
        assert loss.discrepancy == pytest.approx(3 * cfg.alpha / cfg.epsilon, abs=1e-9)
        assert loss.cycle == 0.0

    @given(logits=logit_vectors, label=st.integers(min_value=0, max_value=1))
    def test_bookkeeping_identity_exact(self, logits, label):
        loss = breakdown(logits, label, DebiasConfig())
        assert loss.total == loss.answer + loss.discrepancy + loss.cycle

    @given(logits=logit_vectors)
    def test_terms_non_negative(self, logits):
        loss = breakdown(logits, 0, DebiasConfig())
        assert loss.answer >= 0.0
        assert loss.discrepancy >= 0.0
        assert loss.cycle >= 0.0

    @given(
        logits=logit_vectors,
        shift=st.floats(min_value=-30, max_value=30, allow_nan=False),
        head=st.sampled_from(["fusion", "question", "video", "audio"]),
    )
    def test_shift_invariance_per_head(self, logits, shift, head):
        shifted = logits.copy()
        shifted[PATHS.index(head)] += shift
        a = breakdown(logits, 0, DebiasConfig())
        b = breakdown(shifted, 0, DebiasConfig())
        assert b.total == pytest.approx(a.total, rel=1e-6, abs=1e-9)

    def test_discrepancy_decreases_as_divergence_grows(self):
        # hold two divergences fixed, widen the third
        cfg = DebiasConfig()
        base = stack([2.0, 0.0], [1.0, 0.0], [0.5, 0.0], [0.0, 0.0])
        wider = stack([2.0, 0.0], [-1.0, 0.0], [0.5, 0.0], [0.0, 0.0])
        # KL(fusion || question) grows when question moves away from fusion
        p = softmax(base[FUSION])
        assert kl_divergence(p, softmax(wider[QUESTION])) > kl_divergence(
            p, softmax(base[QUESTION])
        )
        assert breakdown(wider, 0, cfg).discrepancy < breakdown(base, 0, cfg).discrepancy


class TestGradients:
    def test_cross_entropy_identity(self):
        rng = np.random.default_rng(4)
        logits = random_logits(rng, 8)
        grads = one_sample(logits, 3, DebiasConfig(alpha=0.0, beta=0.0))[3]
        expected = softmax(logits[FUSION])
        expected[3] -= 1.0
        np.testing.assert_array_equal(grads[FUSION], expected)
        for head in (QUESTION, VIDEO, AUDIO):
            assert np.all(grads[head] == 0.0)

    def test_cycle_gradient_zero_at_equal_heads(self):
        z = np.array([0.4, -0.2, 0.1, 0.0])
        logits = stack(np.array([1.0, 0.0, 0.0, -1.0]), z, z, z)
        grads = one_sample(logits, 0, DebiasConfig(alpha=0.0, beta=5e-3))[3]
        for head in (QUESTION, VIDEO, AUDIO):
            np.testing.assert_allclose(grads[head], 0.0, atol=1e-15)

    def test_finite_difference_seed0_fixture(self):
        rng = np.random.default_rng(0)
        logits = random_logits(rng, 6)
        err = finite_diff_check(logits, 2, DebiasConfig(), step=1e-5)
        assert err < 1e-4

    def test_finite_difference_cross_entropy_only(self):
        rng = np.random.default_rng(0)
        logits = random_logits(rng, 4)
        err = finite_diff_check(logits, 1, DebiasConfig(alpha=0.0, beta=0.0), step=1e-5)
        assert err < 1e-6

    def test_finite_difference_past_the_old_probability_floor(self):
        # question[1] has probability ~4e-18; a 1e-12 floor on it made the
        # loss flat there while the gradient was not (relative error 1.0)
        logits = stack([0, 0, 0], [0, -40, 0], [1, 0, 0], [0, 0, 2])
        for label in range(3):
            assert finite_diff_check(logits, label, DebiasConfig()) < 1e-4

    @pytest.mark.parametrize(
        "cfg",
        [DebiasConfig(), DebiasConfig(beta=0.0), DebiasConfig(alpha=0.0)],
        ids=["default", "discrepancy-only", "cycle-only"],
    )
    @settings(max_examples=30, deadline=None)
    @given(logits=gapped_bundles(), label=st.integers(min_value=0, max_value=1))
    # fusion ~ video puts their KL near the guard and the discrepancy at
    # 78.5, while the question row's gradient entries are 3.1e-6
    @example(logits=gapped_bundle(10, 2, "question", 0, 30.0), label=0)
    def test_finite_difference_random_bundles(self, cfg, logits, label):
        err = finite_diff_check(logits, label % logits.shape[1], cfg, step=1e-5)
        assert err < 1e-4

    def test_step_must_be_positive(self):
        rng = np.random.default_rng(5)
        logits = random_logits(rng, 4)
        with pytest.raises(ValueError):
            finite_diff_check(logits, 0, DebiasConfig(), step=0.0)


class TestBatch:
    # the class sums are BLAS products, which can add a batch's rows in
    # another order than a batch of one's; from C = 8 on, numpy's pairwise
    # `.sum` also adds in another order than a plain loop
    @pytest.mark.parametrize("n, c", [(9, 7), (32, 8), (16, 13)])
    @pytest.mark.parametrize(
        "cfg",
        [
            DebiasConfig(alpha=0.05, beta=0.05),
            DebiasConfig(),
            DebiasConfig(alpha=0.05, beta=0.0),
            DebiasConfig(alpha=0.0, beta=0.05),
        ],
        ids=["strong", "default", "discrepancy-only", "cycle-only"],
    )
    def test_rows_match_batches_of_one(self, n, c, cfg):
        rng = np.random.default_rng(6)
        logits = rng.normal(0.0, 1.5, size=(4, n, c))
        labels = rng.integers(0, c, size=n)
        *terms, grads = batch_loss_and_grad(logits, labels, cfg)
        for i in range(n):
            *single, single_grads = one_sample(logits[:, i], labels[i], cfg)
            np.testing.assert_allclose([t[i] for t in terms], single, rtol=1e-12)
            np.testing.assert_allclose(grads[:, i], single_grads, rtol=1e-12)

    @pytest.mark.parametrize("dtype", [np.uint64, np.uint8, np.int32])
    def test_any_integer_label_dtype_gives_the_same_result(self, dtype):
        rng = np.random.default_rng(8)
        logits = rng.normal(0.0, 1.5, size=(4, 6, 5))
        labels = rng.integers(0, 5, size=6)
        for cfg in (DebiasConfig(), DebiasConfig(alpha=0.0, beta=0.0)):
            expected = batch_loss_and_grad(logits, labels, cfg)
            got = batch_loss_and_grad(logits, labels.astype(dtype), cfg)
            for a, b in zip(got, expected):
                np.testing.assert_array_equal(a, b)

    # the fusion gradient's one-hot term is written through flat indices,
    # which must reach the returned array whatever the logits' layout
    @pytest.mark.parametrize("layout", ["sample-major", "fortran", "strided"])
    @pytest.mark.parametrize(
        "cfg", [DebiasConfig(), DebiasConfig(alpha=0.0, beta=0.0)], ids=["debias", "answer-only"]
    )
    def test_any_logit_layout_gives_the_same_result(self, layout, cfg):
        rng = np.random.default_rng(9)
        n, c = 14, 8
        if layout == "sample-major":  # as finite_diff_check passes its points
            logits = rng.normal(0.0, 1.5, size=(n, 4, c)).transpose(1, 0, 2)
        elif layout == "fortran":
            logits = np.asfortranarray(rng.normal(0.0, 1.5, size=(4, n, c)))
        else:  # every other sample, classes reversed
            logits = rng.normal(0.0, 1.5, size=(4, 2 * n, c))[:, ::2, ::-1]
        assert not logits.flags.c_contiguous
        labels = rng.integers(0, c, size=n)
        got = batch_loss_and_grad(logits, labels, cfg)
        expected = batch_loss_and_grad(np.ascontiguousarray(logits), labels, cfg)
        for a, b in zip(got, expected):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)
        grads = got[3]
        assert grads.flags.c_contiguous
        assert not np.shares_memory(grads, logits)

    def test_zero_weights_leave_the_answer_gradient_alone(self):
        rng = np.random.default_rng(7)
        n, c = 9, 5
        logits = rng.normal(0.0, 3.0, size=(4, n, c))
        labels = rng.integers(0, c, size=n)
        answer, discrepancy, cycle, grads = batch_loss_and_grad(
            logits, labels, DebiasConfig(alpha=0.0, beta=0.0)
        )
        fusion = logits[FUSION]
        shifted = fusion - fusion.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        expected = e / e.sum(axis=-1, keepdims=True)  # softmax
        expected[np.arange(n), labels] -= 1.0  # minus onehot
        assert np.array_equal(discrepancy, np.zeros(n))
        assert np.array_equal(cycle, np.zeros(n))
        assert np.array_equal(grads[:3], np.zeros((3, n, c)))
        np.testing.assert_array_equal(grads[FUSION], expected)
        log_norm = np.log(e.sum(axis=-1))
        np.testing.assert_array_equal(answer, log_norm - shifted[np.arange(n), labels])


class TestValidation:
    def test_bundle_requires_matching_shapes(self):
        # a sample is one (4, C) array: every path, the same C
        for shape in ((3, 2), (4, 2, 1), (8,)):
            with pytest.raises(ValueError, match="expected"):
                finite_diff_check(np.zeros(shape), 0, DebiasConfig())

    def test_bundle_requires_two_classes(self):
        with pytest.raises(ValueError, match="C >= 2"):
            finite_diff_check(stack([0.0], [0.0], [0.0], [0.0]), 0, DebiasConfig())

    def test_bundle_rejects_non_finite(self):
        logits = stack([0.0, np.inf], [0.0, 1.0], [0.0, 1.0], [0.0, 1.0])
        with pytest.raises(ValueError, match="finite"):
            finite_diff_check(logits, 0, DebiasConfig())

    def test_batch_rejects_one_class(self):
        with pytest.raises(ValueError, match="C >= 2"):
            batch_loss_and_grad(np.zeros((4, 3, 1)), np.zeros(3, dtype=int), DebiasConfig())

    def test_batch_rejects_an_empty_batch(self):
        with pytest.raises(ValueError) as info:
            batch_loss_and_grad(np.zeros((4, 0, 3)), np.zeros(0, dtype=int), DebiasConfig())
        assert str(info.value) == "expected a batch of n >= 1 samples, got n = 0"

    @pytest.mark.parametrize("labels", [np.array([0.0, 1.0]), np.array([True, False])])
    def test_batch_rejects_labels_that_are_not_integers(self, labels):
        with pytest.raises(ValueError) as info:
            batch_loss_and_grad(np.zeros((4, 2, 3)), labels, DebiasConfig())
        assert str(info.value) == f"labels must be integers, got dtype {labels.dtype}"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DebiasConfig(alpha=-1.0)
        with pytest.raises(ValueError):
            DebiasConfig(epsilon=0.0)
