import numpy as np
import pytest

from skewrec import attention, corpus, model, skewnorm
from skewrec.config import TrainConfig
from skewrec.errors import DataError
from skewrec.nnops import bilinear_scores

import oracles
from oracles import alpha_hat_oracle
from conftest import make_cooc, random_head, run_head

LN2 = float(np.log(2.0))


def full_batch(ids, user=0):
    """Single-sequence batch with no padding."""
    ids = np.asarray(ids, dtype=np.int64)[None]
    return corpus.Batch(item_ids=ids, targets=np.zeros_like(ids),
                        negatives=np.zeros(ids.shape + (1,), dtype=np.int64),
                        user_ids=np.array([user]), pad_mask=ids != 0)


def tiny_setup(n=6, d=8, seed=0, blocks=1, heads=1, dtype="float64", **kw):
    cfg = TrainConfig(batch_size=2, dim=d, blocks=blocks, heads=heads, dropout=0.0,
                      max_len=n, dtype=dtype, k_neg_eval=2, **kw)
    rng = np.random.default_rng(seed)
    n_items = 9
    cooc = make_cooc(n_items, {i: 3 + i for i in range(1, n_items + 1)},
                     {(i, j): max(1, (i * j) % 4) for i in range(1, n_items + 1)
                      for j in range(i + 1, n_items + 1)})
    params = model.init_params(cfg, n_items, 4, rng)
    feat = model.Featurizer(cooc, n)
    return cfg, params, cooc, feat


class TestLocationXi:
    """The location of every row's logits is the scaled bilinear score."""

    def test_identity_weights_orthonormal_rows(self):
        d = 4
        x = np.eye(d)
        xi, _ = bilinear_scores(x, np.eye(d), np.eye(d))
        np.testing.assert_allclose(xi, np.eye(d) / np.sqrt(d), rtol=1e-12)

    def test_zero_weights(self):
        x = np.random.default_rng(0).normal(size=(5, 3))
        xi, _ = bilinear_scores(x, np.zeros((3, 3)), np.zeros((3, 3)))
        assert not xi.any()

    def test_shape(self):
        rng = np.random.default_rng(1)
        xi, _ = bilinear_scores(rng.normal(size=(2, 50, 16)),
                                rng.normal(size=(16, 16)), rng.normal(size=(16, 16)))
        assert xi.shape == (2, 50, 50)


class TestAlphaHat:
    def test_zero_matrix(self):
        assert not attention.alpha_hat(np.zeros((4, 4))).any()

    def test_hand_case(self):
        c = np.array([[9.0, 2.0, 1.0], [2.0, 9.0, 3.0], [1.0, 3.0, 9.0]])
        got = attention.alpha_hat(c)[-1]
        np.testing.assert_allclose(got, [9.5, 15.5, 14.0], rtol=1e-12)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            c = rng.integers(0, 10, size=(n, n)).astype(float)
            c = c + c.T
            np.testing.assert_allclose(attention.alpha_hat(c)[-1], alpha_hat_oracle(c),
                                       rtol=1e-12)

    def test_every_prefix_row_matches_oracle(self):
        """Row q is the alignment of the prefix ending at q; it is zero after
        q and on the first row."""
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            c = rng.integers(0, 10, size=(n, n)).astype(float)
            c = c + c.T
            got = attention.alpha_hat(c)
            assert not got[0].any()
            for q in range(1, n):
                np.testing.assert_allclose(got[q, :q + 1],
                                           alpha_hat_oracle(c[:q + 1, :q + 1]), rtol=1e-12)
                assert not got[q, q + 1:].any()

    def test_left_padded_block_matches_unpadded_windows(self):
        rng = np.random.default_rng(9)
        n = 6
        c = np.zeros((4, n, n))
        valid = np.zeros((4, n), dtype=bool)
        for r, m in enumerate((0, 1, 3, 6)):
            w = rng.integers(0, 10, size=(m, m)).astype(float)
            c[r, n - m:, n - m:] = w + w.T
            valid[r, n - m:] = True
        got = attention.alpha_hat(c, valid)
        for r, m in enumerate((0, 1, 3, 6)):
            o = n - m
            assert not got[r, :o].any() and not got[r, :, :o].any()
            if m >= 2:
                np.testing.assert_allclose(got[r, o:, o:],
                                           attention.alpha_hat(c[r, o:, o:]), rtol=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        n = 6
        c = rng.integers(0, 8, size=(n, n)).astype(float)
        c = c + c.T
        perm = np.concatenate([rng.permutation(n - 1), [n - 1]])
        cp = c[np.ix_(perm, perm)]
        np.testing.assert_allclose(attention.alpha_hat(cp)[-1],
                                   attention.alpha_hat(c)[-1][perm], rtol=1e-12)

    def test_window_too_small(self):
        with pytest.raises(DataError):
            attention.alpha_hat(np.ones((1, 1)))


def padded_batch(items, L, user=0):
    """Single-sequence batch, left-padded to L."""
    ids = np.zeros((1, L), dtype=np.int64)
    ids[0, L - len(items):] = items
    return corpus.Batch(item_ids=ids, targets=np.zeros_like(ids),
                        negatives=np.zeros((1, L, 1), dtype=np.int64),
                        user_ids=np.array([user]), pad_mask=ids != 0)


class TestFeaturizerCache:
    """The featurizer cache is keyed by a row's item ids, not by its tag and
    user, so a new window for a known user is featurized afresh."""

    FIELDS = ("cnt_base", "cooc_win", "ahat", "amax")

    def _assert_fresh(self, cooc, feats, items, L):
        fresh = model.Featurizer(cooc, L).batch_features(padded_batch(items, L), None)
        for name in self.FIELDS:
            np.testing.assert_array_equal(getattr(feats, name), getattr(fresh, name))

    def test_new_window_of_same_length_for_same_user(self):
        _, _, cooc, feat = tiny_setup(n=6)
        feat.batch_features(padded_batch([1, 2, 3, 4], 6), "train")
        feats = feat.batch_features(padded_batch([5, 6, 7, 8], 6), "train")
        self._assert_fresh(cooc, feats, [5, 6, 7, 8], 6)

    def test_new_window_of_other_length_for_same_user(self):
        _, _, cooc, feat = tiny_setup(n=6)
        feat.batch_features(padded_batch([1, 2, 3, 4], 6), "train")
        feats = feat.batch_features(padded_batch([5, 6, 7], 6), "train")
        self._assert_fresh(cooc, feats, [5, 6, 7], 6)

    def test_same_window_is_shared_across_users_and_tags(self):
        _, _, cooc, feat = tiny_setup(n=6)
        feat.batch_features(padded_batch([1, 2, 3], 6, user=0), "train")
        feats = feat.batch_features(padded_batch([1, 2, 3], 6, user=3), "valid")
        assert len(feat._cache) == 1
        self._assert_fresh(cooc, feats, [1, 2, 3], 6)


class TestShapeAlpha:
    """hc["alpha"]: softplus shape head times the max-normalized two-hop
    alignment of each query row; all-zero co-occurrence falls back to 0."""

    def test_zero_cooccurrence_falls_back_to_gaussian(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 4))
        hp = random_head(4, rng)
        _, hc = run_head(hp, x, "mean_shift", cooc_window=np.zeros((5, 5)))
        assert not hc["alpha"].any()

    def test_argmax_with_zero_head_gives_ln2(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 3))
        c = np.abs(rng.integers(1, 5, size=(4, 4))).astype(float)
        c = c + c.T
        hp = random_head(3, rng)
        hp.wq_sh[:] = 0.0
        hp.wk_sh[:] = 0.0
        _, hc = run_head(hp, x, "mean_shift", cooc_window=c)
        ah = attention.alpha_hat(c)[-1]
        assert hc["alpha"][0, -1, np.argmax(ah)] == pytest.approx(LN2, rel=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            x = rng.normal(size=(5, 4))
            c = np.abs(rng.normal(size=(5, 5)))
            c = c + c.T
            _, hc = run_head(random_head(4, rng), x, "mean_shift", cooc_window=c)
            assert hc["alpha"].min() >= 0


class TestSingleSequenceForward:
    """The batched model on a one-sequence batch, read through its traces."""

    def test_singleton_key_gets_full_weight(self):
        cfg, params, cooc, feat = tiny_setup(n=3)
        batch = full_batch([1, 2, 3])
        _, trace = model.collect_trace(params, cfg, batch, feat.batch_features(batch, None))
        assert trace[0][0]["attn"][0, 0] == pytest.approx(1.0)

    def test_rows_sum_to_one(self):
        cfg, params, cooc, feat = tiny_setup(n=5)
        batch = full_batch([1, 2, 3, 4, 5])
        _, trace = model.collect_trace(params, cfg, batch, feat.batch_features(batch, None),
                                       mode="stochastic", rng=np.random.default_rng(2))
        attn = trace[0][0]["attn"]
        for q in range(5):
            assert attn[q, :q + 1].sum() == pytest.approx(1.0, abs=1e-5)
            assert not attn[q, q + 1:].any()

    def test_degenerate_noise_matches_location(self):
        cfg, params, cooc, _ = tiny_setup(n=4, omega_cap=1e-9)
        zero_cooc = make_cooc(9, {}, {})
        batch = full_batch([1, 2, 3, 4])
        feats = model.Featurizer(zero_cooc, 4).batch_features(batch, None)
        _, c_sto = model.forward(params, cfg, batch, feats, "stochastic",
                                 rng=np.random.default_rng(5))
        _, c_loc = model.forward(params, cfg, batch, feats, "location")
        np.testing.assert_allclose(c_sto["block_caches"][0]["concat"],
                                   c_loc["block_caches"][0]["concat"], atol=1e-6)

    def test_mixture_weights_in_trace_simplex(self):
        cfg, params, cooc, feat = tiny_setup(n=4)
        batch = full_batch([2, 3, 4, 5], user=1)
        _, trace = model.collect_trace(params, cfg, batch, feat.batch_features(batch, None))
        t = trace[0][0]
        assert t["mixture_r"].sum() == pytest.approx(1.0, abs=1e-6)
        assert t["psi"].shape == (4, 4)
        np.testing.assert_array_equal(np.diag(t["psi"]), 1.0)


class TestSamplingConsistency:
    """The batched one-factorization path must equal per-row draws from the
    distribution module given identical noise."""

    def test_batched_rows_match_per_row_sampler(self):
        cfg, params, cooc, feat = tiny_setup(n=5, seed=8)
        items = [1, 3, 5, 7, 2]
        batch = full_batch(items)
        feats = feat.batch_features(batch, None)
        L = 5
        noise_rng = np.random.default_rng(42)
        noise = model.make_noise(cfg, 1, noise_rng)
        f, cache = model.forward(params, cfg, batch, feats, "stochastic", noise=noise)
        hc = cache["block_caches"][0]["head_caches"][0]
        eps, y0 = noise[0][0]
        psi = hc["psi"][0]
        for q in range(L):
            win = slice(0, q + 1)
            # reconstruct the row's distribution from the public pieces
            xi_row = model.bilinear_from_cache(hc)[q, win]
            omega_row = hc["omega"][0, q, win]
            alpha_row = hc["alpha"][0, q, win]
            psi_win = psi[win, win]
            chol = np.linalg.cholesky(psi_win)
            y = chol @ eps[0, q, win]
            d = skewnorm.delta(alpha_row)
            z_ref = xi_row + omega_row * (d * abs(y0[0, q]) + np.sqrt(1 - d * d) * y)
            np.testing.assert_allclose(hc["z"][0, q, win], z_ref, rtol=1e-10)

    def test_batched_psi_matches_public_correlation_op(self):
        """The batched correlation equals the per-window oracle built one
        kernel entry at a time, with the scales left in to cancel."""
        cfg, params, cooc, feat = tiny_setup(n=5, seed=9)
        items = [2, 4, 6, 8, 1]
        batch = full_batch(items, user=2)
        feats = feat.batch_features(batch, None)
        _, cache = model.forward(params, cfg, batch, feats, "stochastic",
                                 rng=np.random.default_rng(0))
        hc = cache["block_caches"][0]["head_caches"][0]
        hp = params.blocks[0].heads[0]
        x = params.item_emb[batch.item_ids[0]] + params.pos_emb
        om_ref = np.logaddexp(0.0, (x[4] @ hp.wq_om) @ (x @ hp.wk_om).T
                              / np.sqrt(hp.wq_om.shape[1]))
        psi_ref = oracles.window_correlation(
            items, x, params.user_emb[2], hp.w_user_mod, hp.w_mix, hp.b_mix, cooc,
            cfg.active_kernels(), cfg.kernel_item_variant, cfg.kernel_jitter,
            omega=hc["omega"][0, 4])
        np.testing.assert_allclose(hc["psi"][0], psi_ref, rtol=1e-10)
        np.testing.assert_allclose(hc["omega"][0, 4], om_ref, rtol=1e-10)


class TestNoiseStream:
    """`forward` draws all of a stochastic pass's noise from its generator
    in one fixed order: block outer, head inner, eps then y0."""

    def test_cached_noise_is_the_generator_stream_in_order(self):
        cfg, params, cooc, feat = tiny_setup(n=5, blocks=2, heads=2, dtype="float32")
        ids = np.array([[1, 2, 3, 4, 5], [0, 0, 3, 4, 5]])  # second row left-padded
        batch = corpus.Batch(item_ids=ids, targets=np.zeros_like(ids),
                             negatives=np.zeros(ids.shape + (1,), dtype=np.int64),
                             user_ids=np.array([0, 1]), pad_mask=ids != 0)
        b, L = ids.shape
        _, cache = model.forward(params, cfg, batch, feat.batch_features(batch, None),
                                 "stochastic", rng=np.random.default_rng(17))
        per_head = b * L * L + b * L
        stream = np.random.default_rng(17).standard_normal(4 * per_head)
        k = 0
        for bi in range(2):
            for h in range(2):
                hc = cache["block_caches"][bi]["head_caches"][h]
                eps = stream[k:k + b * L * L].reshape(b, L, L).astype(np.float32)
                y0 = stream[k + b * L * L:k + per_head].reshape(b, L).astype(np.float32)
                np.testing.assert_array_equal(hc["eps"], eps)
                np.testing.assert_array_equal(hc["y0"], y0)
                assert hc["eps"].dtype == hc["y0"].dtype == np.float32
                k += per_head


class TestStackProperties:
    def test_causality_under_future_perturbation(self):
        cfg, params, cooc, feat = tiny_setup(n=6, blocks=2, seed=10)
        items = [1, 2, 3, 4, 5, 6]
        batch = full_batch(items)
        feats = feat.batch_features(batch, None)
        f_base, _ = model.forward(params, cfg, batch, feats, "location")
        q = 2
        perturbed = list(items)
        perturbed[5] = 9  # change an item strictly after q
        batch2 = full_batch(perturbed)
        feats2 = feat.batch_features(batch2, None)
        f_pert, _ = model.forward(params, cfg, batch2, feats2, "location")
        np.testing.assert_allclose(f_base[0, :q + 1], f_pert[0, :q + 1], atol=1e-12)

    def test_eval_location_seed_invariant(self):
        cfg, params, cooc, feat = tiny_setup(n=5, blocks=2)
        batch = full_batch([1, 2, 3, 4, 5])
        feats = feat.batch_features(batch, None)
        f1, _ = model.forward(params, cfg, batch, feats, "location",
                              rng=np.random.default_rng(1))
        f2, _ = model.forward(params, cfg, batch, feats, "location",
                              rng=np.random.default_rng(999))
        np.testing.assert_array_equal(f1, f2)

    def test_residual_path_with_zeroed_block(self):
        cfg, params, cooc, feat = tiny_setup(n=4, blocks=1, seed=11)
        blk = params.blocks[0]
        blk.heads[0].wv[:] = 0.0
        blk.w_out[:] = 0.0
        blk.ffn_w1[:] = 0.0
        blk.ffn_w2[:] = 0.0
        blk.ffn_b1[:] = 0.0
        blk.ffn_b2[:] = 0.0
        batch = full_batch([1, 2, 3, 4])
        feats = feat.batch_features(batch, None)
        f, _ = model.forward(params, cfg, batch, feats, "location")
        x0 = params.item_emb[batch.item_ids[0]] + params.pos_emb
        from skewrec.nnops import layer_norm
        ln1, _ = layer_norm(x0, blk.ln1_g, blk.ln1_b)
        ln2, _ = layer_norm(ln1, blk.ln2_g, blk.ln2_b)
        np.testing.assert_allclose(f[0], ln2, rtol=1e-10)

    def test_multi_head_shapes_and_single_head_equivalence(self):
        cfg, params, cooc, feat = tiny_setup(n=4, d=8, heads=2, blocks=1)
        batch = full_batch([1, 2, 3, 4])
        feats = feat.batch_features(batch, None)
        f, cache = model.forward(params, cfg, batch, feats, "location")
        assert f.shape == (1, 4, 8)
        concat = cache["block_caches"][0]["concat"]
        assert concat.shape == (1, 4, 8)  # two heads of width 4
        # single head: the block's pre-projection output is causal
        # softmax((x wq)(x wk)^T / sqrt(d)) (x wv), row by row
        cfg1, params1, cooc1, feat1 = tiny_setup(n=4, d=8, heads=1, blocks=1, seed=12)
        batch1 = full_batch([1, 2, 3, 4])
        feats1 = feat1.batch_features(batch1, None)
        _, cache1 = model.forward(params1, cfg1, batch1, feats1, "location")
        hp = params1.blocks[0].heads[0]
        x = params1.item_emb[batch1.item_ids[0]] + params1.pos_emb
        h_ref = np.zeros((4, 8))
        for q in range(4):
            logits = (x[q] @ hp.wq_loc) @ (x[:q + 1] @ hp.wk_loc).T / np.sqrt(8)
            w = np.exp(logits - logits.max())
            h_ref[q] = (w / w.sum()) @ (x[:q + 1] @ hp.wv)
        np.testing.assert_allclose(cache1["block_caches"][0]["concat"][0], h_ref,
                                   rtol=1e-10)

    def test_ffn_zero_and_relu_behaviour(self):
        from skewrec.nnops import layer_norm
        cfg, params, cooc, feat = tiny_setup(n=3, blocks=1, seed=13)
        blk = params.blocks[0]
        # zero first-layer weights: the ReLU kills everything except b2
        blk.ffn_w1[:] = 0.0
        blk.ffn_b1[:] = -1.0  # negative pre-activation everywhere
        blk.ffn_b2[:] = 0.25
        batch = full_batch([1, 2, 3])
        feats = feat.batch_features(batch, None)
        _, cache = model.forward(params, cfg, batch, feats, "location")
        a = cache["block_caches"][0]["a"]
        expect, _ = layer_norm(a + 0.25, blk.ln2_g, blk.ln2_b)
        np.testing.assert_allclose(cache["block_caches"][0]["ln2_cache"][0] * 0 + expect,
                                   expect)  # shape sanity
        f = cache["F"]
        np.testing.assert_allclose(f, expect, rtol=1e-10)

    def test_ffn_is_position_wise(self):
        # permuting positions of the FFN input permutes its output rows
        cfg, params, cooc, feat = tiny_setup(n=4, blocks=1, seed=14)
        blk = params.blocks[0]
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, cfg.dim))
        ffn = lambda t: np.maximum(t @ blk.ffn_w1 + blk.ffn_b1, 0) @ blk.ffn_w2 + blk.ffn_b2
        perm = rng.permutation(4)
        np.testing.assert_allclose(ffn(a[perm]), ffn(a)[perm], rtol=1e-12)

    def test_scaled_dot_attention_recovered_on_hand_inputs(self):
        """Location-only path with identity value/weights is plain
        softmax(QK^T/sqrt(d)) V on a 3x3 example."""
        d = 3
        x = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [1.0, 1.0, 1.0]])
        wq = np.eye(d)
        wk = np.eye(d)
        wv = np.eye(d)
        hp = attention.HeadParams(wq_loc=wq, wk_loc=wk, wq_om=np.zeros((d, d)),
                                  wk_om=np.zeros((d, d)), wq_sh=np.zeros((d, d)),
                                  wk_sh=np.zeros((d, d)), wv=wv,
                                  w_user_mod=np.eye(d), w_mix=np.zeros((d, 3)),
                                  b_mix=np.zeros(3))
        h, _ = run_head(hp, x, "location", active=("I",))
        scores = x @ x.T / np.sqrt(d)
        expect = np.zeros((3, d))
        for q in range(3):
            logits = scores[q, :q + 1]
            w = np.exp(logits - logits.max())
            w /= w.sum()
            expect[q] = w @ x[:q + 1]
        np.testing.assert_allclose(h, expect, rtol=1e-12)


class TestRelevanceScores:
    """Tied-weight relevance (`model.score_positions`): a position's
    representation dotted with the item-table rows of its candidates."""

    def _scores(self, f_row, table, candidates, target=1):
        params = model.ModelParams(item_emb=table, pos_emb=None, user_emb=None, blocks=[])
        batch = corpus.Batch(item_ids=np.ones((1, 1), dtype=np.int64),
                             targets=np.array([[target]]),
                             negatives=np.array([[candidates]]),
                             user_ids=np.zeros(1, dtype=np.int64),
                             pad_mask=np.ones((1, 1), dtype=bool))
        s_pos, s_neg, _, _ = model.score_positions(params, f_row[None, None], batch)
        return s_pos[0, 0], s_neg[0, 0]

    def test_self_match_wins(self):
        rng = np.random.default_rng(14)
        table = rng.normal(size=(8, 4))
        table /= np.linalg.norm(table, axis=1, keepdims=True)
        _, scores = self._scores(table[3], table, list(range(1, 8)))
        assert scores.argmax() == 2  # row 3 is item id 3 -> index 2 among real items

    def test_subset_consistency(self):
        rng = np.random.default_rng(15)
        table = rng.normal(size=(10, 4))
        f = rng.normal(size=4)
        _, full = self._scores(f, table, list(range(1, 10)))
        _, subset = self._scores(f, table, [4, 7, 2])
        np.testing.assert_allclose(subset, full[[3, 6, 1]], rtol=1e-12)

    def test_padding_excluded(self):
        cfg, params, _, _ = tiny_setup(n=3)
        f = np.random.default_rng(16).normal(size=cfg.dim)
        s_pad, _ = self._scores(f, params.item_emb, [1], target=0)
        s_real, _ = self._scores(f, params.item_emb, [1], target=2)
        assert s_pad == 0.0  # the padding row is pinned to zero
        assert s_real != 0.0
