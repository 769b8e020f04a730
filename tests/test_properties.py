"""Property tests: the batched forward against the per-window oracle over
random left-padding, sequence lengths, kernel subsets, stochastic rows,
scale caps and dtypes, and the batched featurizer against the per-row one."""

import numpy as np
from hypothesis import given, settings, strategies as st

from skewrec import corpus, model
from skewrec.config import TrainConfig

import oracles

N_ITEMS = 9
_TRAIN = [list(np.random.default_rng(u).integers(1, N_ITEMS + 1, size=5)) for u in range(8)]
COOC = corpus.build_cooc(corpus.SplitDataset(
    train=_TRAIN, valid_target=[1] * 8, test_target=[1] * 8, user_ids=list(range(8)),
    n_items=N_ITEMS, max_len=10, item_ids=list(range(1, N_ITEMS + 1))))
KERNEL_SUBSETS = ("C", "I", "U", "C+I", "C+U", "I+U", "C+I+U")

# float32 and float64 forwards of the same parameters and noise agree to
# this absolute bound: every block output is layer-normed to O(1), and the
# correlation and Cholesky run in float64 under either dtype, so the gap is
# float32 rounding (about 1e-7 relative) carried through two blocks. 400
# random cases of this strategy peaked at 1.2e-6.
DTYPE_ATOL = 1e-4


@st.composite
def cases(draw):
    L = draw(st.integers(3, 7))
    b = draw(st.integers(1, 3))
    return dict(
        L=L,
        lengths=draw(st.lists(st.integers(1, L), min_size=b, max_size=b)),
        kernel_active=draw(st.sampled_from(KERNEL_SUBSETS)),
        kernel_item_variant=draw(st.sampled_from(("linear", "rbf"))),
        stochastic_rows=draw(st.sampled_from(("all", "last"))),
        omega_cap=draw(st.sampled_from((None, 0.5))),
        seed=draw(st.integers(0, 2 ** 16)),
    )


def build_case(case, dtype):
    rng = np.random.default_rng(case["seed"])
    L, lengths = case["L"], case["lengths"]
    b = len(lengths)
    cfg = TrainConfig(batch_size=b, dim=8, blocks=2, heads=2, dropout=0.0,
                      max_len=L, k_neg_eval=1, dtype=dtype,
                      **{k: case[k] for k in ("kernel_active", "kernel_item_variant",
                                              "stochastic_rows", "omega_cap")})
    params = model.init_params(cfg, N_ITEMS, 4, rng)
    item_ids = np.zeros((b, L), dtype=np.int64)
    for r, m in enumerate(lengths):
        item_ids[r, L - m:] = rng.integers(1, N_ITEMS + 1, size=m)
    batch = corpus.Batch(item_ids=item_ids, targets=np.zeros_like(item_ids),
                         negatives=np.zeros((b, L, 1), dtype=np.int64),
                         user_ids=rng.integers(0, 4, size=b), pad_mask=item_ids != 0)
    feats = model.Featurizer(COOC, L).batch_features(batch, None)
    noise = model.make_noise(cfg, b, rng)
    return cfg, params, batch, feats, noise


@settings(max_examples=60, deadline=None)
@given(case=cases(), dtype=st.sampled_from(("float32", "float64")))
def test_psi_matches_window_oracle_and_pads_identity(case, dtype):
    cfg, params, batch, feats, noise = build_case(case, dtype)
    _, cache = model.forward(params, cfg, batch, feats, "stochastic", noise=noise)
    L = case["L"]
    for bi, bc in enumerate(cache["block_caches"]):
        for h, hc in enumerate(bc["head_caches"]):
            hp = params.blocks[bi].heads[h]
            for r, m in enumerate(case["lengths"]):
                o = L - m
                psi = hc["psi"][r]
                ref = oracles.window_correlation(
                    batch.item_ids[r, o:], hc["x"][r, o:], hc["u"][r], hp.w_user_mod,
                    hp.w_mix, hp.b_mix, COOC, cfg.active_kernels(),
                    cfg.kernel_item_variant, cfg.kernel_jitter)
                np.testing.assert_allclose(psi[o:, o:], ref, rtol=1e-9, atol=1e-12)
                np.testing.assert_array_equal(psi[:o, :o], np.eye(o))
                assert not psi[:o, o:].any() and not psi[o:, :o].any()


@settings(max_examples=40, deadline=None)
@given(case=cases())
def test_float32_forward_tracks_float64(case):
    cfg64, params, batch, feats, noise = build_case(case, "float64")
    f64, _ = model.forward(params, cfg64, batch, feats, "stochastic", noise=noise)
    cfg32 = TrainConfig(**{**cfg64.to_dict(), "dtype": "float32"})
    params32 = model.init_params(cfg32, N_ITEMS, 4, np.random.default_rng(0))
    for (_, dst), (_, src) in zip(model.named_tensors(params32),
                                  model.named_tensors(params)):
        dst[...] = src
    noise32 = [[(e.astype(np.float32), y.astype(np.float32)) for e, y in blk]
               for blk in noise]
    f32, _ = model.forward(params32, cfg32, batch, feats, "stochastic", noise=noise32)
    assert f32.dtype == np.float32
    np.testing.assert_allclose(f32, f64, rtol=0, atol=DTYPE_ATOL)


# items N_ITEMS + 1 and N_ITEMS + 2 never occur in training: zero counts
COOC_UNSEEN = corpus.build_cooc(corpus.SplitDataset(
    train=_TRAIN, valid_target=[1] * 8, test_target=[1] * 8, user_ids=list(range(8)),
    n_items=N_ITEMS + 2, max_len=10, item_ids=list(range(1, N_ITEMS + 3))))


@st.composite
def id_blocks(draw):
    L = draw(st.integers(3, 8))
    b = draw(st.integers(1, 4))
    # a narrow id range makes repeated items within a window common
    top = draw(st.sampled_from((3, N_ITEMS + 2)))
    ids = np.zeros((b, L), dtype=np.int64)
    for r in range(b):
        m = draw(st.integers(0, L))
        ids[r, L - m:] = draw(st.lists(st.integers(1, top), min_size=m, max_size=m))
    return ids


@settings(max_examples=80, deadline=None)
@given(ids=id_blocks())
def test_batch_features_match_per_row_oracle(ids):
    b, L = ids.shape
    batch = corpus.Batch(item_ids=ids, targets=np.zeros_like(ids),
                         negatives=np.zeros((b, L, 1), dtype=np.int64),
                         user_ids=np.zeros(b, dtype=np.int64), pad_mask=ids != 0)
    cnt = np.zeros((b, L, L))
    cnt[:, np.arange(L), np.arange(L)] = 1.0
    expect = [cnt, np.zeros((b, L)), np.zeros((b, L, L)), np.zeros((b, L))]
    feat = model.Featurizer(COOC_UNSEEN, L)
    for r in range(b):
        o = L - int((ids[r] != 0).sum())
        if o == L:
            continue
        row = oracles.row_features(ids[r, o:], COOC_UNSEEN)
        for got, ref in zip(feat.row_features(ids[r, o:]), row):
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)
        cb, cw, ah, am = row
        expect[0][r, o:, o:] = cb
        expect[1][r, o:] = cw
        expect[2][r, o:, o:] = ah
        expect[3][r, o:] = am
    for tag in (None, "train", "train"):  # uncached, cold, then from the cache
        feats = feat.batch_features(batch, tag)
        for got, ref in zip((feats.cnt_base, feats.cooc_win, feats.ahat, feats.amax), expect):
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)
