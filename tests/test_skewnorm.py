"""The skew-normal law of the attention logits.

Every draw and mean here comes from `attention._head_forward`, the only
place noise becomes logits: `law_head` drives it with chosen per-key parameters, and
`TestProductionDraw` runs it on a featurized batch. The density is the test
oracle `oracles.msn_density`, which is checked against scipy first and then
used at the parameters `oracles.adv_params` gives for the draw.
"""

import json
import os

import numpy as np
import pytest
from scipy import integrate, stats

from skewrec import corpus, model, skewnorm

import oracles
from conftest import law_head, make_cooc, random_head, repeat_head


def density_1d(x, xi=0.0, omega=1.0, alpha=0.0):
    return oracles.msn_density([x], [xi], [omega], np.eye(1), [alpha])


def draws(cache):
    """Every row's logits of a `law_head` cache as [draws, keys]."""
    z = cache["z"]
    return z.reshape(-1, z.shape[-1])


class TestDensity:
    def test_standard_normal_peak(self):
        assert density_1d(0.0) == pytest.approx(1.0 / np.sqrt(2 * np.pi), rel=1e-12)

    def test_skew_gate_half_at_location(self):
        # Phi(0) = 0.5 cancels the factor 2 at x = xi
        assert density_1d(0.0, alpha=1.0) == pytest.approx(
            1.0 / np.sqrt(2 * np.pi), rel=1e-12)

    def test_matches_scipy_1d_grid(self):
        for alpha in (-2.0, 0.0, 0.7, 3.0):
            for x in (-1.5, 0.0, 0.4, 2.0):
                ref = stats.skewnorm.pdf(x, alpha, loc=0.3, scale=1.7)
                assert density_1d(x, 0.3, 1.7, alpha) == pytest.approx(ref, rel=1e-10)

    def test_zero_alpha_reduces_to_multivariate_normal(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 3))
        psi = a @ a.T
        d = np.sqrt(np.diag(psi))
        psi = psi / np.outer(d, d)
        xi, omega = rng.normal(size=3), rng.uniform(0.5, 2.0, 3)
        sigma = psi * np.outer(omega, omega)
        for _ in range(5):
            x = rng.normal(size=3)
            ref = stats.multivariate_normal.pdf(x, mean=xi, cov=sigma)
            assert oracles.msn_density(x, xi, omega, psi, np.zeros(3)) == pytest.approx(
                ref, rel=1e-10)

    def test_multivariate_skew_matches_reference_formula(self):
        rng = np.random.default_rng(1)
        xi, omega = rng.normal(size=3), rng.uniform(0.5, 2.0, 3)
        corr = np.array([[1.0, 0.3, 0.1], [0.3, 1.0, -0.2], [0.1, -0.2, 1.0]])
        alpha = rng.normal(size=3)
        sigma = corr * np.outer(omega, omega)
        x = rng.normal(size=3)
        ref = 2.0 * stats.multivariate_normal.pdf(x, mean=xi, cov=sigma) * \
            stats.norm.cdf(alpha @ ((x - xi) / omega))
        assert oracles.msn_density(x, xi, omega, corr, alpha) == pytest.approx(ref, rel=1e-10)

    def test_integrates_to_one(self):
        total, _ = integrate.quad(lambda x: density_1d(x, 0.5, 0.8, 2.5), -10, 10)
        assert total == pytest.approx(1.0, abs=1e-8)


class TestDelta:
    def test_zero(self):
        assert skewnorm.delta(0.0) == 0.0

    def test_unit_alpha(self):
        assert skewnorm.delta(1.0) == pytest.approx(1 / np.sqrt(2), rel=1e-12)

    def test_asymptote_stays_below_one(self):
        d = skewnorm.delta(1e8)
        assert d < 1.0
        assert d == pytest.approx(1.0, abs=1e-15)

    def test_odd_and_increasing(self):
        grid = np.linspace(-50, 50, 1001)
        d = skewnorm.delta(grid)
        np.testing.assert_allclose(d, -skewnorm.delta(-grid), atol=1e-15)
        assert np.all(np.diff(d) > 0)
        assert np.all(np.abs(d) < 1)


class TestSampling:
    """The head's draw with chosen per-key parameters."""

    def test_gaussian_mean_when_symmetric(self):
        xi, omega = np.array([2.0, -1.0]), np.array([0.5, 1.5])
        z = draws(law_head(xi, omega, np.zeros(2), rows=50_000,
                           rng=np.random.default_rng(0)))
        tol = 3 * omega / np.sqrt(z.shape[0])
        assert np.all(np.abs(z.mean(axis=0) - xi) < tol)

    def test_degenerate_scale_returns_location(self):
        cache = law_head([3.0], [1.0], [2.0], rng=np.random.default_rng(1),
                         omega_cap=1e-300)
        assert cache["z"][0, 0, 0] == pytest.approx(3.0, abs=1e-300)

    def test_skewness_against_analytic_oracle(self):
        # gamma1 = (4-pi)/2 * (delta*sqrt(2/pi))^3 / (1 - 2 delta^2/pi)^{3/2}
        d = 3.0 / np.sqrt(10.0)
        m = d * np.sqrt(2 / np.pi)
        expect = (4 - np.pi) / 2 * m**3 / (1 - 2 * d * d / np.pi) ** 1.5
        assert expect == pytest.approx(0.667, abs=2e-3)
        z = draws(law_head([0.0], [1.0], [3.0], rows=100_000,
                           rng=np.random.default_rng(2)))[:, 0]
        assert stats.skew(z) == pytest.approx(expect, abs=0.05)

    def test_bit_identical_given_seed(self):
        psi = np.array([[1, .5, .2], [.5, 1, .1], [.2, .1, 1.0]])
        args = (np.zeros(3), np.ones(3), np.array([1.0, -2.0, 0.3]), psi)
        a = law_head(*args, rng=np.random.default_rng(33))
        b = law_head(*args, rng=np.random.default_rng(33))
        assert np.array_equal(a["z"], b["z"])
        assert np.array_equal(a["y0"], b["y0"])

    def test_noise_record_replays(self):
        cache = law_head([0.5], [2.0], [1.5], rows=4, rng=np.random.default_rng(4))
        d = skewnorm.delta(1.5)
        y = cache["eps"][..., 0]  # psi = 1
        manual = 0.5 + 2.0 * (d * np.abs(cache["y0"]) + np.sqrt(1 - d * d) * y)
        np.testing.assert_allclose(cache["z"][..., 0], manual, rtol=1e-15)

    def test_correlated_draw_uses_cholesky(self):
        psi = np.array([[1.0, 0.8], [0.8, 1.0]])
        z = draws(law_head(np.zeros(2), np.ones(2), np.zeros(2), psi, rows=100_000,
                           rng=np.random.default_rng(5)))
        assert np.corrcoef(z.T)[0, 1] == pytest.approx(0.8, abs=0.01)


class TestFrozenVectors:
    """Cross-implementation vectors: frozen JSON produced by independent
    oracles (scipy densities, hand-applied reparameterization formula)."""

    @classmethod
    def setup_class(cls):
        path = os.path.join(os.path.dirname(__file__), "data", "msn_vectors.json")
        with open(path) as fh:
            cls.vec = json.load(fh)
        assert cls.vec["format_version"] == 1

    def test_density_vectors(self):
        for c in self.vec["density"]:
            got = oracles.msn_density(c["x"], c["xi"], c["omega"], c["psi"], c["alpha"])
            assert got == pytest.approx(c["expected"], rel=1e-10)

    def test_sample_vectors(self):
        for c in self.vec["samples"]:
            n = len(c["xi"])
            # the same recorded noise in every row
            eps = np.tile(np.asarray(c["eps"]), (1, n, 1))
            y0 = np.full((1, n), c["y0"])
            cache = law_head(c["xi"], c["omega"], c["alpha"], c["psi"], eps=eps, y0=y0)
            for row in cache["z"][0]:
                np.testing.assert_allclose(row, c["expected_z"], rtol=1e-12)

    def test_delta_vectors(self):
        for c in self.vec["delta"]:
            assert skewnorm.delta(c["alpha"]) == pytest.approx(c["expected"],
                                                               rel=1e-12)

    def test_mean_vectors(self):
        for c in self.vec["mean"]:
            cache = law_head(c["xi"], c["omega"], c["alpha"], c["psi"], mode="mean_shift")
            np.testing.assert_allclose(cache["z"][0, 0], c["expected"], rtol=1e-12,
                                       atol=1e-15)


class TestMeanShift:
    """The `mean_shift` mode of the head: xi + omega * delta * sqrt(2/pi)."""

    def test_symmetric_case(self):
        cache = law_head([1.5], [2.0], [0.0], mode="mean_shift")
        assert cache["z"][0, 0, 0] == pytest.approx(1.5)

    def test_hand_value(self):
        # delta = 1/sqrt(2) -> omega * delta * sqrt(2/pi) ~ 0.5642
        cache = law_head([0.0], [1.0], [1.0], mode="mean_shift")
        assert cache["z"][0, 0, 0] == pytest.approx(0.5642, abs=1e-4)

    def test_degenerate_scale(self):
        cache = law_head([0.7], [1.0], [5.0], mode="mean_shift", omega_cap=1e-300)
        assert cache["z"][0, 0, 0] == pytest.approx(0.7)

    def test_matches_empirical_mean(self):
        z = draws(law_head([0.3], [1.2], [2.0], rows=200_000,
                           rng=np.random.default_rng(6)))[:, 0]
        mean = law_head([0.3], [1.2], [2.0], mode="mean_shift")["z"][0, 0, 0]
        assert z.mean() == pytest.approx(mean, abs=0.01)


def box_probability(lo, hi, xi, omega, corr, alpha):
    """P(lo < x < hi) of a 2-D skew-normal, by integrating its density."""
    f = lambda b, a: oracles.msn_density([a, b], xi, omega, corr, alpha)
    return integrate.dblquad(f, lo[0], hi[0], lo[1], hi[1], epsabs=1e-10)[0]


class TestProductionDraw:
    """The law of the logits that training draws, on a featurized batch: one
    left-padded sequence with nonzero two-hop alignments under the C+I+U
    kernels, copied REPS times along the batch axis so that every copy draws
    its own noise. Rows q >= 3 see the valid keys 2..q."""

    REPS = 40_000
    L = 6
    FIRST = 2  # first valid position
    # the asymptotic Kolmogorov-Smirnov critical value at p = 0.001
    KS_BOUND = 1.95 / np.sqrt(REPS)

    @classmethod
    def setup_class(cls):
        cooc = make_cooc(8, {i: 6 + i for i in range(1, 9)},
                         {(1, 2): 4, (1, 3): 2, (2, 3): 5, (2, 4): 3, (3, 4): 1,
                          (1, 4): 2, (4, 5): 3})
        ids = np.array([[0, 0, 1, 2, 3, 4]])
        batch = corpus.Batch(item_ids=ids, targets=np.zeros_like(ids),
                             negatives=np.zeros((1, cls.L, 1), dtype=np.int64),
                             user_ids=np.array([0]), pad_mask=ids != 0)
        feats = model.Featurizer(cooc, cls.L).batch_features(batch, None)
        rng = np.random.default_rng(3)
        hp = random_head(4, rng, scale=0.7)
        x, u = rng.normal(size=(1, cls.L, 4)), rng.normal(size=(1, 4))
        args = (hp, x, u, feats, batch.pad_mask)
        drawn = repeat_head(*args, cls.REPS, "stochastic", np.random.default_rng(11))
        cls.z, cls.psi = drawn["z"], drawn["psi"][0]
        cls.loc = repeat_head(*args, 1, "location")["z"][0]
        shift = repeat_head(*args, 1, "mean_shift")
        cls.mean, cls.omega, cls.alpha = (shift[k][0] for k in ("z", "omega", "alpha"))

    def row(self, q):
        """(draws, xi, omega, alpha, psi) of row q over its valid keys."""
        keys = np.arange(self.FIRST, q + 1)
        return (self.z[:, q, keys], self.loc[q, keys], self.omega[q, keys],
                self.alpha[q, keys], self.psi[np.ix_(keys, keys)])

    def test_batch_has_skew(self):
        # the checks below only bite where alpha is far from 0 on several keys
        _, _, _, alpha, psi = self.row(self.L - 1)
        assert np.sum(alpha > 1.0) >= 3 and alpha.max() > 2.5
        assert np.abs(psi[np.triu_indices(len(alpha), 1)]).max() > 0.3

    @pytest.mark.parametrize("q", [3, 4, 5])
    def test_marginals_are_univariate_skew_normal(self, q):
        z, xi, omega, alpha, _ = self.row(q)
        for j in range(z.shape[1]):
            law = stats.skewnorm(alpha[j], loc=xi[j], scale=omega[j])
            assert stats.kstest(z[:, j], law.cdf).statistic < self.KS_BOUND, j

    @pytest.mark.parametrize("q", [3, 4, 5])
    def test_mean_is_the_mean_shift_mode(self, q):
        z = self.row(q)[0]
        se = z.std(axis=0) / np.sqrt(self.REPS)
        keys = np.arange(self.FIRST, q + 1)
        assert np.all(np.abs(z.mean(axis=0) - self.mean[q, keys]) < 4 * se)

    @pytest.mark.parametrize("q", [3, 4, 5])
    def test_covariance(self, q):
        z, _, omega, alpha, psi = self.row(q)
        d = skewnorm.delta(alpha)
        root = np.sqrt(1.0 - d * d)
        expect = omega[:, None] * (root[:, None] * psi * root[None, :]
                                   + (1.0 - 2.0 / np.pi) * np.outer(d, d)) * omega[None, :]
        centred = z - z.mean(axis=0)
        prod = centred[:, :, None] * centred[:, None, :]
        se = prod.std(axis=0) / np.sqrt(self.REPS)
        assert np.all(np.abs(prod.mean(axis=0) - expect) < 5 * se)

    def test_box_probability_follows_adv_law(self):
        z, xi, omega, alpha, psi = self.row(self.L - 1)
        pair = [1, 3]
        corr_bar, alpha_star = oracles.adv_params(psi[np.ix_(pair, pair)], alpha[pair])
        lo, hi = xi[pair], xi[pair] + omega[pair]
        p = box_probability(lo, hi, xi[pair], omega[pair], corr_bar, alpha_star)
        hit = np.mean(np.all((z[:, pair] > lo) & (z[:, pair] < hi), axis=1))
        assert abs(hit - p) < 4 * np.sqrt(p * (1 - p) / self.REPS)
