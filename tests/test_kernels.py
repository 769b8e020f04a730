import numpy as np
import pytest

from skewrec import corpus, kernels
from skewrec.errors import NumericalError

import oracles
from conftest import head_stages, make_cooc, random_head, run_head

LN2 = np.log(2.0)


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


class TestVarianceOmega:
    """hc["omega"]: softplus of the scaled bilinear scale-head score."""

    def test_zero_weights_give_ln2(self):
        rng = np.random.default_rng(0)
        hp = random_head(4, rng)
        hp.wq_om[:] = 0.0
        hp.wk_om[:] = 0.0
        _, hc = run_head(hp, rng.normal(size=(6, 4)), "mean_shift")
        np.testing.assert_allclose(hc["omega"], LN2, atol=1e-12)

    def test_always_positive(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.normal(scale=3.0, size=(5, 8))
            _, hc = run_head(random_head(8, rng), x, "mean_shift")
            assert hc["omega"].min() > 0

    def test_hand_value(self):
        # projected vectors [1,0,0,0] and [2,0,0,0], width 4 -> softplus(2/2)
        x = np.zeros((2, 4))
        x[0, 0] = 1.0
        x[1, 0] = 2.0
        hp = random_head(4, np.random.default_rng(2))
        hp.wq_om[:] = np.eye(4)
        hp.wk_om[:] = np.eye(4)
        _, hc = run_head(hp, x, "mean_shift")
        om = hc["omega"][0, 0]
        assert om[1] == pytest.approx(np.log1p(np.e), rel=1e-12)  # softplus(1)
        assert om[1] == pytest.approx(1.3133, abs=1e-4)


class TestCountingKernel:
    """`CoocStats.counting_base`, scaled by omega_i * omega_j."""

    def test_formula(self):
        cooc = make_cooc(4, {1: 4, 2: 2}, {(1, 2): 2})
        assert cooc.counting_base([1, 2])[0, 1] == pytest.approx(0.5)
        assert oracles.counting_kernel(1, 2, cooc) == pytest.approx(0.5)

    def test_zero_pair(self):
        cooc = make_cooc(4, {1: 4, 2: 2}, {})
        assert cooc.counting_base([1, 2])[0, 1] == 0.0

    def test_self_pair_is_omega_squared(self):
        cooc = make_cooc(4, {1: 4}, {})
        gram = cooc.counting_base([1, 1]) * 9.0  # omega = 3 at both positions
        np.testing.assert_allclose(gram, 9.0)
        assert oracles.counting_kernel(1, 1, cooc, 3.0, 3.0) == pytest.approx(9.0)

    def test_bounded_by_omega_product(self):
        rng = np.random.default_rng(2)
        cooc = make_cooc(3, {1: 5, 2: 3}, {(1, 2): 3})
        base = cooc.counting_base([1, 2])
        for _ in range(20):
            omega = rng.uniform(0.1, 4.0, size=2)
            val = (base * np.outer(omega, omega))[0, 1]
            assert 0.0 <= val <= omega[0] * omega[1] + 1e-12


class TestItemKernel:
    """`kernels.item_gram` on unit-norm representations."""

    def test_identical_unit_vectors(self):
        x = np.vstack([unit([1.0, 2.0, -1.0])] * 2)
        assert kernels.item_gram(x, "linear")[0, 1] == pytest.approx(1.0)
        assert kernels.item_gram(x, "rbf")[0, 1] == pytest.approx(1.0)

    def test_orthogonal_unit_vectors(self):
        x = np.eye(2)
        assert kernels.item_gram(x, "linear")[0, 1] == pytest.approx(0.0)
        assert kernels.item_gram(x, "rbf")[0, 1] == pytest.approx(np.exp(-2.0))

    def test_omega_scaling(self):
        x = np.vstack([unit([0.3, -0.7, 0.2])] * 2)
        gram = kernels.item_gram(x, "linear") * np.outer([2.0, 3.0], [2.0, 3.0])
        assert gram[0, 1] == pytest.approx(6.0)


class TestUserKernel:
    """`kernels.user_gram` with modulation w = W u_s."""

    def test_identity_modulation_reduces_to_linear(self):
        rng = np.random.default_rng(3)
        xhat = np.vstack([unit(rng.normal(size=4)), unit(rng.normal(size=4))])
        u = rng.normal(size=4)
        w_mod = np.outer(np.ones(4), u) / (u @ u)  # w_mod @ u = ones
        got, _ = kernels.user_gram(xhat, w_mod @ u)
        np.testing.assert_allclose(got, kernels.item_gram(xhat, "linear"), rtol=1e-12)

    def test_zero_modulation(self):
        xhat = np.vstack([unit([1, 0.0]), unit([0.5, 1])])
        got, _ = kernels.user_gram(xhat, np.zeros(2))
        assert not got.any()

    def test_hand_case(self):
        # modulation vector [1, 2], x_i = [1, 0], x_j = [1, 1] -> [1,0]@[1,2] = 1
        u = np.array([1.0, 0.0])
        w_mod = np.array([[1.0, 0.0], [2.0, 0.0]])  # w_mod @ u = [1, 2]
        got, _ = kernels.user_gram(np.array([[1.0, 0.0], [1.0, 1.0]]), w_mod @ u)
        assert got[0, 1] == pytest.approx(1.0)


class TestGramsMatchScalarOracles:
    def test_entry_by_entry(self):
        """Every batched Gram entry equals the paper's scalar kernel."""
        rng = np.random.default_rng(12)
        for _ in range(20):
            n_items, n, d = int(rng.integers(3, 9)), int(rng.integers(2, 9)), 5
            train = [list(rng.integers(1, n_items + 1, size=rng.integers(2, 7)))
                     for _ in range(5)]
            split = corpus.SplitDataset(
                train=train, valid_target=[1] * 5, test_target=[1] * 5,
                user_ids=list(range(5)), n_items=n_items, max_len=10,
                item_ids=list(range(1, n_items + 1)))
            cooc = corpus.build_cooc(split)
            items = rng.integers(1, n_items + 1, size=n)  # repeats included
            xhat = rng.normal(size=(n, d))
            xhat /= np.linalg.norm(xhat, axis=1, keepdims=True)
            u, w_mod = rng.normal(size=d), rng.normal(size=(d, d))
            base = cooc.counting_base(items)
            lin, rbf = kernels.item_gram(xhat, "linear"), kernels.item_gram(xhat, "rbf")
            user, _ = kernels.user_gram(xhat, w_mod @ u)
            for a in range(n):
                for b in range(n):
                    assert base[a, b] == pytest.approx(
                        oracles.counting_kernel(items[a], items[b], cooc), rel=1e-12)
                    assert lin[a, b] == pytest.approx(
                        oracles.item_kernel(xhat[a], xhat[b]), rel=1e-12, abs=1e-15)
                    assert rbf[a, b] == pytest.approx(
                        oracles.item_kernel(xhat[a], xhat[b], variant="rbf"), rel=1e-12)
                    assert user[a, b] == pytest.approx(
                        oracles.user_kernel(xhat[a], xhat[b], u, w_mod), rel=1e-12,
                        abs=1e-15)


class TestMixture:
    def test_uniform_at_zero(self):
        r = kernels.mixture(np.zeros(4), np.zeros((4, 3)), np.zeros(3))
        np.testing.assert_allclose(r, 1.0 / 3.0, atol=1e-12)

    def test_bias_dominance(self):
        r = kernels.mixture(np.zeros(4), np.zeros((4, 3)), np.array([10.0, 0.0, 0.0]))
        assert r[0] > 0.9999

    def test_sums_to_one(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            r = kernels.mixture(rng.normal(size=6), rng.normal(size=(6, 3)),
                                rng.normal(size=3))
            assert r.sum() == pytest.approx(1.0, abs=1e-6)
            assert r.min() >= 0

    def test_active_subset_renormalizes(self):
        rng = np.random.default_rng(5)
        u, w, b = rng.normal(size=5), rng.normal(size=(5, 3)), rng.normal(size=3)
        r = kernels.mixture(u, w, b, active=("C", "U"))
        assert r.shape == (2,)
        assert r.sum() == pytest.approx(1.0)


class TestCorrelationMatrix:
    """The correlation an attention head builds (`hc["psi"]`) from its
    kernel mixture, through `kernels.normalize_correlation`."""

    def _build(self, n=5, d=6, seed=0, active=("C", "I", "U"), variant="linear",
               x=None, cnt_base=None, u=None):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, d)) if x is None else x
        u = rng.normal(size=x.shape[1]) if u is None else u
        hp = random_head(x.shape[1], rng)
        hc = head_stages(hp, x, active, cnt_base=cnt_base, u=u,
                         kernel_item_variant=variant)
        return hc, x

    def test_unit_diagonal_rbf(self):
        hc, _ = self._build(active=("I",), variant="rbf")
        np.testing.assert_array_equal(np.diag(hc["psi"][0]), 1.0)

    def test_antiparallel_clamped(self):
        x = np.array([[1.0, 0.0], [-1.0, 0.0]])
        hc, _ = self._build(x=x, seed=1, active=("I",), variant="linear")
        psi = hc["psi"][0]
        assert psi[0, 1] == pytest.approx(-(1 - 1e-5) / (1 + 1e-5))
        np.linalg.cholesky(psi)

    def test_identical_rows_rbf_near_one(self):
        x = np.vstack([unit([1.0, 2.0, 3.0])] * 2)
        hc, _ = self._build(x=x, seed=2, active=("I",), variant="rbf")
        psi = hc["psi"][0]
        assert psi[0, 1] == pytest.approx((1 - 1e-5) / (1 + 1e-5))
        np.linalg.cholesky(psi)

    def test_gram_reports_omega_factors(self):
        # the mixed gram is the cancelled form; putting the omega_i * omega_j
        # factors back in leaves the normalized correlation unchanged
        hc, x = self._build(active=("I",))
        xhat = x / np.linalg.norm(x, axis=1, keepdims=True)
        np.testing.assert_allclose(hc["psi_tilde"][0], xhat @ xhat.T, rtol=1e-10)
        omega = hc["omega"][0, -1]
        scaled, _ = kernels.normalize_correlation(
            hc["psi_tilde"][0] * np.outer(omega, omega), 1e-5)
        np.testing.assert_allclose(scaled, hc["psi"][0], rtol=1e-10)

    def test_cholesky_always_succeeds(self):
        for seed in range(30):
            hc, _ = self._build(n=7, seed=seed)
            np.linalg.cholesky(hc["psi"][0])

    def test_repeated_item_counting_only_gives_clamped_ones(self):
        # one item at every timestep: the counting base is all ones, so the
        # correlation saturates at the clamp bound off the diagonal
        cooc = make_cooc(3, {1: 5}, {})
        base = cooc.counting_base([1, 1, 1])
        np.testing.assert_array_equal(base, np.ones((3, 3)))
        hc, _ = self._build(n=3, d=4, seed=4, active=("C",), cnt_base=base)
        psi = hc["psi"][0]
        off = psi[~np.eye(3, dtype=bool)]
        np.testing.assert_allclose(off, (1 - 1e-5) / (1 + 1e-5), rtol=1e-12)
        np.linalg.cholesky(psi)

    def test_nonpositive_self_similarity_raises(self):
        # only the user kernel active and a zero user embedding kills the diagonal
        with pytest.raises(NumericalError, match="row"):
            self._build(n=3, d=4, seed=3, active=("U",), u=np.zeros(4))


class TestPsdProperties:
    """Each kernel's Gram and any mixture must stay symmetric PSD."""

    def _random_counting_gram(self, rng):
        from skewrec import corpus as corpus_mod

        n_items = int(rng.integers(4, 12))
        n_users = int(rng.integers(2, 9))
        train = [list(rng.integers(1, n_items + 1, size=rng.integers(2, 8)))
                 for _ in range(n_users)]
        split = corpus_mod.SplitDataset(
            train=train, valid_target=[1] * n_users, test_target=[1] * n_users,
            user_ids=list(range(n_users)), n_items=n_items, max_len=20,
            item_ids=list(range(1, n_items + 1)))
        cooc = corpus_mod.build_cooc(split)
        n = int(rng.integers(2, 21))
        items = rng.integers(1, n_items + 1, size=n)
        return cooc.counting_base(items)

    def test_counting_gram_psd(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            base = self._random_counting_gram(rng)
            omega = rng.uniform(0.1, 3.0, size=base.shape[0])
            gram = base * np.outer(omega, omega)
            assert np.allclose(gram, gram.T)
            assert np.linalg.eigvalsh(gram).min() >= -1e-6

    def test_item_user_grams_psd(self):
        rng = np.random.default_rng(11)
        for variant in ("linear", "rbf"):
            for _ in range(30):
                n, d = int(rng.integers(2, 21)), int(rng.integers(2, 9))
                xhat = rng.normal(size=(n, d))
                xhat /= np.linalg.norm(xhat, axis=1, keepdims=True)
                gram = kernels.item_gram(xhat, variant)
                assert np.linalg.eigvalsh(gram).min() >= -1e-6
                w = rng.normal(size=d)
                ug, _ = kernels.user_gram(xhat[None], w[None])
                assert np.linalg.eigvalsh(ug[0]).min() >= -1e-6
