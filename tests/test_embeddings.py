"""The model's embedding stage: the tables `model.init_params` creates, the
attention input X[t] = item[id_t] + positional[t] and user row that
`model.forward` hands its first block, and the load-time check that keeps a
dataset's ids inside a checkpoint's tables."""

import numpy as np
import pytest

from skewrec import corpus, model, training
from skewrec.config import TrainConfig
from skewrec.errors import DataError


def tables(n_items=5, n_users=3, dim=4, max_len=6, seed=0):
    cfg = TrainConfig(batch_size=1, dim=dim, blocks=1, heads=1, dropout=0.0,
                      max_len=max_len, k_neg_eval=1, dtype="float64")
    return cfg, model.init_params(cfg, n_items, n_users, np.random.default_rng(seed))


def first_block_inputs(cfg, params, ids, user=0):
    """(X, u) as the first block of a one-sequence location forward sees them."""
    ids = np.asarray(ids, dtype=np.int64)[None]
    L = ids.shape[1]
    batch = corpus.Batch(item_ids=ids, targets=np.zeros_like(ids),
                         negatives=np.zeros((1, L, 1), dtype=np.int64),
                         user_ids=np.array([user]), pad_mask=ids != 0)
    feats = model.BatchFeatures(np.zeros((1, L, L)), np.zeros((1, L)),
                                np.zeros((1, L, L)), np.zeros((1, L)))
    _, cache = model.forward(params, cfg, batch, feats, "location")
    blk = cache["block_caches"][0]
    return blk["x_in"][0], blk["head_caches"][0]["u"][0]


def checkpoint_for(params, cfg):
    return training.Checkpoint(params=params, config=cfg, epoch=0)


def dataset(n_items, n_users):
    return corpus.SplitDataset(
        train=[[1, 2]] * n_users, valid_target=[1] * n_users,
        test_target=[2] * n_users, user_ids=list(range(n_users)),
        n_items=n_items, max_len=6, item_ids=list(range(1, n_items + 1)))


class TestBuildInputs:
    def test_padding_id_gives_pure_positional(self):
        cfg, p = tables()
        x, _ = first_block_inputs(cfg, p, np.zeros(6, dtype=int))
        np.testing.assert_array_equal(x, p.pos_emb)

    def test_sum_arithmetic(self):
        cfg, p = tables(dim=4)
        p.item_emb[2] = 1.0
        p.pos_emb[:] = 1.0
        x, _ = first_block_inputs(cfg, p, np.array([2] * 6))
        np.testing.assert_array_equal(x, np.full((6, 4), 2.0))

    def test_shape_contract(self):
        cfg, p = tables(n_items=100, dim=64, max_len=50)
        ids = np.random.default_rng(1).integers(0, 101, size=50)
        x, _ = first_block_inputs(cfg, p, ids)
        assert x.shape == (50, 64)

    def test_out_of_range_errors(self):
        cfg, p = tables(n_items=5)
        training.check_compatible(checkpoint_for(p, cfg), dataset(5, 3))
        with pytest.raises(DataError, match="5 items"):
            training.check_compatible(checkpoint_for(p, cfg), dataset(6, 3))

    def test_linear_in_item_table(self):
        rng = np.random.default_rng(2)
        cfg, p = tables()
        p.pos_emb[:] = 0.0
        ids = np.array([1, 2, 3, 1, 0, 5])
        e1 = rng.normal(size=p.item_emb.shape)
        e2 = rng.normal(size=p.item_emb.shape)
        a, b = 0.7, -1.3
        p.item_emb[:] = a * e1 + b * e2
        combined, _ = first_block_inputs(cfg, p, ids)
        p.item_emb[:] = e1
        x1, _ = first_block_inputs(cfg, p, ids)
        p.item_emb[:] = e2
        x2, _ = first_block_inputs(cfg, p, ids)
        np.testing.assert_allclose(combined, a * x1 + b * x2, rtol=1e-12)


class TestLookupUser:
    def test_identity(self):
        cfg, p = tables()
        _, u = first_block_inputs(cfg, p, [1, 2, 3, 4, 5, 1], user=0)
        np.testing.assert_array_equal(u, p.user_emb[0])

    def test_reflects_updates(self):
        cfg, p = tables()
        p.user_emb[2] += 5.0
        _, u = first_block_inputs(cfg, p, [1, 2, 3, 4, 5, 1], user=2)
        np.testing.assert_array_equal(u, p.user_emb[2])

    def test_bound_check(self):
        cfg, p = tables(n_users=3)
        with pytest.raises(DataError, match="3 users"):
            training.check_compatible(checkpoint_for(p, cfg), dataset(5, 4))


class TestInit:
    def test_padding_row_zero(self):
        _, p = tables()
        assert not p.item_emb[0].any()

    def test_tables_finite(self):
        _, p = tables(n_items=50, n_users=20, dim=16, max_len=30)
        for arr in (p.item_emb, p.pos_emb, p.user_emb):
            assert np.isfinite(arr).all()
