"""Ranking loss values, identities, and gradients."""

from __future__ import annotations

import math

import numpy as np
import pytest

from kgcausal.ltr.losses import LISTNET, LOSS_KINDS, RANKNET, RMSE, loss_and_grad, ranknet_terms


def central_difference(fn, x, step=1e-5):
    grad = np.zeros_like(x, dtype=np.float64)
    for i in range(len(x)):
        hi = x.copy()
        lo = x.copy()
        hi[i] += step
        lo[i] -= step
        grad[i] = (fn(hi) - fn(lo)) / (2 * step)
    return grad


class TestRmse:
    def test_exact_fit_is_zero(self):
        assert loss_and_grad(RMSE, [1.0, 2.0, 3.0], targets=[1.0, 2.0, 3.0])[0] == 0.0

    def test_hand_computed_value(self):
        value = loss_and_grad(RMSE, [0.0, 0.0], targets=[3.0, 4.0])[0]
        assert value == pytest.approx(math.sqrt(12.5))

    def test_translation_invariance(self):
        scores = [0.4, 1.2, -0.3]
        targets = [1.0, 0.2, 0.9]
        base = loss_and_grad(RMSE, scores, targets=targets)[0]
        shifted = loss_and_grad(RMSE, [s + 5.0 for s in scores],
                                targets=[t + 5.0 for t in targets])[0]
        assert shifted == pytest.approx(base)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            loss_and_grad(RMSE, [1.0], targets=[1.0, 2.0])
        with pytest.raises(ValueError):
            loss_and_grad(RMSE, [], targets=[])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            s = rng.normal(size=6)
            y = rng.normal(size=6)
            analytic = loss_and_grad(RMSE, s, targets=y)[1]
            numeric = central_difference(lambda x: loss_and_grad(RMSE, x, targets=y)[0], s)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-8)


class TestRanknet:
    def test_symmetric_two_items(self):
        value = loss_and_grad(RANKNET, [0.7, 0.7], ranks=[1, 2])[0]
        assert value == pytest.approx(math.log(2.0))

    def test_hand_computed_separated_pair(self):
        value = loss_and_grad(RANKNET, [2.0, 0.0], ranks=[1, 2])[0]
        assert value == pytest.approx(math.log(1 + math.exp(-2)))

    @pytest.mark.parametrize("k", range(2, 11))
    def test_pair_count(self, k):
        scores = list(np.linspace(0, 1, k))
        ranks = list(range(1, k + 1))
        assert len(ranknet_terms(scores, ranks)) == k * (k - 1) // 2

    def test_vanishes_for_well_separated_correct_order(self):
        value = loss_and_grad(RANKNET, [100.0, 0.0, -100.0], ranks=[1, 2, 3])[0]
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_positive_whenever_a_pair_is_inverted(self):
        assert loss_and_grad(RANKNET, [0.0, 5.0], ranks=[1, 2])[0] > math.log(2.0)

    def test_requires_permutation(self):
        with pytest.raises(ValueError):
            loss_and_grad(RANKNET, [0.1, 0.2], ranks=[1, 3])
        with pytest.raises(ValueError):
            loss_and_grad(RANKNET, [0.1, 0.2], ranks=[1, 1])

    def test_overflow_guarded(self):
        value = loss_and_grad(RANKNET, [1000.0, -1000.0], ranks=[2, 1])[0]
        assert value == pytest.approx(2000.0)

    def test_loss_equals_the_sum_of_the_reference_terms_exactly(self):
        rng = np.random.default_rng(2)
        for _ in range(2000):
            k = int(rng.integers(2, 12))
            s = rng.normal(scale=float(rng.choice([0.01, 1.0, 30.0])), size=k)
            if rng.random() < 0.2:
                s[rng.integers(0, k)] = s[0]
            ranks = list(rng.permutation(np.arange(1, k + 1)))
            assert loss_and_grad(RANKNET, s, ranks=ranks)[0] == sum(ranknet_terms(s, ranks))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            k = rng.integers(2, 7)
            s = rng.normal(size=k)
            ranks = list(rng.permutation(np.arange(1, k + 1)))
            analytic = loss_and_grad(RANKNET, s, ranks=ranks)[1]
            numeric = central_difference(lambda x: loss_and_grad(RANKNET, x, ranks=ranks)[0], s)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-8)


class TestListnet:
    def test_uniform_case_is_log_k(self):
        value = loss_and_grad(LISTNET, [0.5] * 3, targets=[2.0] * 3)[0]
        assert value == pytest.approx(math.log(3.0))

    def test_matching_scores_hit_entropy_lower_bound(self):
        rng = np.random.default_rng(2)
        y = rng.normal(size=5)
        p = np.exp(y - y.max())
        p /= p.sum()
        entropy = float(-(p * np.log(p)).sum())
        assert loss_and_grad(LISTNET, y, targets=y)[0] == pytest.approx(entropy)
        for _ in range(20):
            other = y + rng.normal(scale=0.5, size=5)
            assert loss_and_grad(LISTNET, other, targets=y)[0] >= entropy - 1e-12

    def test_shift_invariance(self):
        scores = [0.2, 1.4, -0.7, 0.0]
        targets = [1.0, 0.1, 0.5, 0.9]
        base = loss_and_grad(LISTNET, scores, targets=targets)[0]
        shifted = loss_and_grad(LISTNET, [s + 123.0 for s in scores], targets=targets)[0]
        assert abs(shifted - base) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            loss_and_grad(LISTNET, [1.0], targets=[1.0, 2.0])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            s = rng.normal(size=5)
            y = rng.normal(size=5)
            analytic = loss_and_grad(LISTNET, s, targets=y)[1]
            numeric = central_difference(lambda x: loss_and_grad(LISTNET, x, targets=y)[0], s)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-8)


class TestSegments:
    """A stacked score vector cut by offsets scores as its segments do."""

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_stack_is_the_sum_of_its_segments(self, kind):
        rng = np.random.default_rng(4)
        for _ in range(50):
            lengths = rng.integers(1, 9, size=int(rng.integers(1, 8)))
            s = rng.normal(scale=3.0, size=lengths.sum())
            y = rng.normal(size=lengths.sum())
            ranks = np.concatenate([rng.permutation(np.arange(1, k + 1)) for k in lengths])
            offsets = np.cumsum(lengths) - lengths
            loss, grad = loss_and_grad(kind, s, targets=y, ranks=ranks, offsets=offsets)
            parts = [loss_and_grad(kind, s[o:o + k], targets=y[o:o + k], ranks=ranks[o:o + k])
                     for o, k in zip(offsets, lengths)]
            assert loss == pytest.approx(sum(value for value, _ in parts), rel=1e-13)
            np.testing.assert_allclose(grad, np.concatenate([g for _, g in parts]),
                                       rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("offsets", [[1, 3], [0, 3, 3], [0, 4, 2], [0, 6], []])
    def test_malformed_offsets_rejected(self, offsets):
        with pytest.raises(ValueError, match="offsets"):
            loss_and_grad(RMSE, np.zeros(6), targets=np.ones(6), offsets=offsets)

    def test_ranks_are_checked_per_segment(self):
        scores = [0.3, 0.1, 0.2, 0.0]
        loss, _ = loss_and_grad(RANKNET, scores, ranks=[1, 2, 2, 1], offsets=[0, 2])
        assert loss == pytest.approx(loss_and_grad(RANKNET, scores[:2], ranks=[1, 2])[0]
                                     + loss_and_grad(RANKNET, scores[2:], ranks=[2, 1])[0])
        with pytest.raises(ValueError):
            loss_and_grad(RANKNET, scores, ranks=[1, 2, 3, 4], offsets=[0, 2])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown loss kind"):
            loss_and_grad("hinge", [0.0, 1.0], targets=[1.0, 0.0])
