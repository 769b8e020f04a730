import itertools

import numpy as np
import pytest

from skewrec import losses
from skewrec.errors import NumericalError

LN2 = float(np.log(2.0))


class TestPredictionLoss:
    def test_perfect_separation_vanishes(self):
        s_pos = np.array([[60.0]])
        s_neg = np.array([[[-60.0]]])
        valid = np.ones((1, 1), dtype=bool)
        loss, _, _ = losses.prediction_loss(s_pos, s_neg, valid)
        assert loss == pytest.approx(0.0, abs=1e-20)

    def test_symmetric_zero_scores(self):
        loss, _, _ = losses.prediction_loss(np.zeros((1, 1)), np.zeros((1, 1, 1)),
                                            np.ones((1, 1), dtype=bool))
        assert loss == pytest.approx(2 * LN2, rel=1e-12)

    def test_monotone_in_positive_score(self):
        s_neg = np.zeros((1, 1, 1))
        valid = np.ones((1, 1), dtype=bool)
        vals = [losses.prediction_loss(np.array([[s]]), s_neg, valid)[0]
                for s in np.linspace(-4, 4, 30)]
        assert np.all(np.diff(vals) < 0)

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            s_pos = rng.normal(size=(3, 5)) * 3
            s_neg = rng.normal(size=(3, 5, 2)) * 3
            valid = rng.random((3, 5)) > 0.3
            valid[0, 0] = True
            loss, _, _ = losses.prediction_loss(s_pos, s_neg, valid)
            assert loss >= 0

    def test_invalid_positions_do_not_contribute(self):
        s_pos = np.array([[0.0, 100.0]])
        s_neg = np.array([[[0.0], [100.0]]])
        valid = np.array([[True, False]])
        loss, d_pos, d_neg = losses.prediction_loss(s_pos, s_neg, valid)
        assert loss == pytest.approx(2 * LN2, rel=1e-12)
        assert d_pos[0, 1] == 0.0
        assert d_neg[0, 1, 0] == 0.0

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(1)
        s_pos = rng.normal(size=(2, 3))
        s_neg = rng.normal(size=(2, 3, 2))
        valid = np.array([[True, True, False], [True, False, True]])
        _, d_pos, d_neg = losses.prediction_loss(s_pos, s_neg, valid)
        h = 1e-6
        for idx in np.ndindex(*s_pos.shape):
            sp = s_pos.copy()
            sp[idx] += h
            up = losses.prediction_loss(sp, s_neg, valid)[0]
            sp[idx] -= 2 * h
            dn = losses.prediction_loss(sp, s_neg, valid)[0]
            assert d_pos[idx] == pytest.approx((up - dn) / (2 * h), abs=1e-8)


def listmle_oracle(scores, counts):
    """Direct Plackett-Luce negative log-likelihood of the target order."""
    order = sorted(range(len(scores)), key=lambda i: (-counts[i], i))
    total = 0.0
    for m in range(len(order)):
        tail = [scores[i] for i in order[m:]]
        total -= scores[order[m]] - np.log(np.sum(np.exp(tail)))
    return total


class TestListmle:
    def test_singleton_is_zero(self):
        loss, grad = losses.listmle_loss(np.array([1.7]), np.array([3.0]))
        assert loss == 0.0 and not grad.any()

    def test_pair_formula(self):
        a, b = 0.4, -1.1
        loss, _ = losses.listmle_loss(np.array([a, b]), np.array([5.0, 2.0]))
        assert loss == pytest.approx(np.log1p(np.exp(b - a)), rel=1e-12)

    def test_perfectly_sorted_with_gaps_vanishes(self):
        scores = np.array([120.0, 80.0, 40.0, 0.0])
        counts = np.array([9.0, 7.0, 3.0, 1.0])
        loss, _ = losses.listmle_loss(scores, counts)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(120):
            m = int(rng.integers(2, 7))
            scores = rng.normal(size=m)
            counts = rng.integers(0, 5, size=m).astype(float)
            loss, _ = losses.listmle_loss(scores, counts)
            assert loss == pytest.approx(listmle_oracle(scores, counts), abs=1e-10)

    def test_tie_break_by_position(self):
        scores = np.array([0.3, 0.9, -0.2])
        counts = np.array([4.0, 4.0, 4.0])
        order = losses.cooc_rank_order(counts)
        np.testing.assert_array_equal(order, [0, 1, 2])

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(3)
        scores = rng.normal(size=5)
        counts = rng.integers(0, 6, size=5).astype(float)
        _, grad = losses.listmle_loss(scores, counts)
        h = 1e-6
        for i in range(5):
            s = scores.copy()
            s[i] += h
            up = losses.listmle_loss(s, counts)[0]
            s[i] -= 2 * h
            dn = losses.listmle_loss(s, counts)[0]
            assert grad[i] == pytest.approx((up - dn) / (2 * h), abs=1e-7)


class TestTotalLoss:
    def test_lambda_zero(self):
        report = losses.total_loss(1.25, 7.0, 0.0)
        assert report.total == 1.25

    def test_weighted_sum(self):
        report = losses.total_loss(1.0, 2.0, 0.001)
        assert report.total == pytest.approx(1.002)

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericalError):
            losses.total_loss(np.nan, 0.0, 0.001)
