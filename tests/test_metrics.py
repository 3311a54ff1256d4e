"""Ranking metrics against brute-force oracles, including ties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsvad.metrics import auc_pr, auc_roc

from helpers import ref_auc_pr_enumeration, ref_auc_roc_pairwise


def random_instance(rng, n=200, tie_prob=0.5):
    labels = (rng.random(n) < 0.4).astype(int)
    if labels.sum() == 0:
        labels[0] = 1
    if labels.sum() == n:
        labels[0] = 0
    scores = rng.random(n)
    if rng.random() < tie_prob:  # quantize to force ties
        scores = np.round(scores, 1)
    return scores, labels


class TestAucRoc:
    def test_perfect_separation(self):
        assert auc_roc([0.9, 0.1], [1, 0]) == 1.0

    def test_perfect_inversion(self):
        assert auc_roc([0.1, 0.9], [1, 0]) == 0.0

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            scores, labels = random_instance(rng)
            got = auc_roc(scores, labels)
            want = ref_auc_roc_pairwise(scores, labels)
            assert abs(got - want) < 1e-9

    def test_all_tied_scores_give_half(self):
        assert abs(auc_roc(np.ones(10), [0, 1] * 5) - 0.5) < 1e-12

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auc_roc([0.1, 0.2], [1, 1])

    def test_complement_identity_tie_free(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = 50
            scores = rng.permutation(n) / n  # distinct scores
            labels = (rng.random(n) < 0.5).astype(int)
            if labels.sum() in (0, n):
                labels[:2] = [0, 1]
            total = auc_roc(scores, labels) + auc_roc(scores, 1 - labels)
            assert abs(total - 1.0) < 1e-12

    @given(st.integers(0, 2**32 - 1), st.sampled_from(["exp", "affine"]))
    @settings(max_examples=30, deadline=None)
    def test_invariant_under_monotone_transforms(self, seed, kind):
        rng = np.random.default_rng(seed)
        scores, labels = random_instance(rng, n=60)
        base = auc_roc(scores, labels)
        mapped = np.exp(scores) if kind == "exp" else 3.0 * scores + 10.0
        assert abs(auc_roc(mapped, labels) - base) < 1e-12

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            auc_roc([0.1, 0.2], [1, 0, 1])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="empty input"):
            auc_roc([], [])


class TestAucPr:
    def test_perfect_ranking(self):
        assert auc_pr([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_constant_scores_give_positive_rate(self):
        labels = np.array([1, 0, 0, 1, 0, 0, 0, 0, 1, 0])
        got = auc_pr(np.full(10, 0.5), labels)
        assert abs(got - labels.mean()) < 1e-12

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(60):
            scores, labels = random_instance(rng)
            got = auc_pr(scores, labels)
            want = ref_auc_pr_enumeration(scores, labels)
            assert abs(got - want) < 1e-9

    def test_no_positives_rejected(self):
        with pytest.raises(ValueError):
            auc_pr([0.3, 0.4], [0, 0])

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError):
            auc_pr([0.3, 0.4], [0, 2])


@pytest.mark.parametrize("metric", [auc_roc, auc_pr])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_scores_rejected(metric, bad):
    # unchecked, a NaN is ranked like any score and yields a number (auc_roc 0.5, auc_pr 0.75)
    with pytest.raises(ValueError, match="finite"):
        metric([0.1, bad, 0.9, 0.2], [0, 1, 1, 0])


class TestWeights:
    @given(
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 1), st.integers(1, 6)),
            min_size=2,
            max_size=40,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_weighted_equals_repeated_entries(self, entries):
        """Integer weights keep every count exact, so the weighted areas are
        bit-identical to the unweighted ones on the repeated entries."""
        scores = np.array([s for s, _, _ in entries]) / 4.0  # five levels: tie-heavy
        labels = np.array([y for _, y, _ in entries])
        weights = np.array([w for _, _, w in entries])
        rep_scores, rep_labels = np.repeat(scores, weights), np.repeat(labels, weights)
        if labels.any():
            assert auc_pr(scores, labels, weights) == auc_pr(rep_scores, rep_labels)
        if labels.any() and not labels.all():
            assert auc_roc(scores, labels, weights) == auc_roc(rep_scores, rep_labels)

    def test_unit_weights_change_nothing(self):
        scores, labels = random_instance(np.random.default_rng(5))
        ones = np.ones(scores.size)
        assert auc_roc(scores, labels, ones) == auc_roc(scores, labels)
        assert auc_pr(scores, labels, ones) == auc_pr(scores, labels)

    @pytest.mark.parametrize("metric", [auc_roc, auc_pr])
    @pytest.mark.parametrize(
        "weights, match",
        [
            ([1, 0, 2, 1], "positive"),
            ([1, -1, 2, 1], "positive"),
            ([1, np.nan, 2, 1], "finite"),
            ([1, np.inf, 2, 1], "finite"),
            ([1, 2, 1], "length"),
            ([1, 2, 1, 1, 1], "length"),
        ],
    )
    def test_bad_weights_rejected(self, metric, weights, match):
        with pytest.raises(ValueError, match=match):
            metric([0.1, 0.4, 0.9, 0.2], [0, 1, 1, 0], weights)
