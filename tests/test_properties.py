"""Property tests: the batched forward against the per-window oracle over
random left-padding, sequence lengths, kernel subsets, scale caps and
dtypes, the training gradient against a directional finite
difference, and the batched featurizer against the per-row one."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from skewrec import attention, corpus, losses, model, nnops
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
                                              "omega_cap")})
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


# central difference step and tolerance of the directional check; padded
# batches failed it at 0.07-1.7 while the Cholesky path leaked gradient into
# padded pairs, and 3,000 examples peaked at 2.2e-7 without the leak
DIRECTION_STEP = 1e-6
DIRECTION_RTOL = 1e-4
# a central difference across a kink of the loss (a ReLU input, a clamped
# correlation or a capped scale at its threshold) measures no derivative, so
# examples with one this close to its kink are drawn again
KINK_MARGIN = 1e-4


def kink_distance(cache, jitter, omega_cap):
    """Smallest distance of a ReLU input, a correlation before its clamp or
    a scale before its cap to the point where it switches branch."""
    dist = [np.abs(bc["f1"]).min() for bc in cache["block_caches"]]
    valid = cache["valid"]
    pairs = valid[:, :, None] & valid[:, None, :] & ~np.eye(valid.shape[1], dtype=bool)
    for bc in cache["block_caches"]:
        for hc in bc["head_caches"]:
            psi_hat = hc["norm_cache"][0]
            dist.append(np.abs(np.abs(psi_hat[pairs]) - (1.0 - jitter)).min(initial=1.0))
            if omega_cap is not None:
                dist.append(np.abs(nnops.softplus(hc["om_logits"]) - omega_cap).min())
    return min(dist)


@settings(max_examples=200, deadline=None)
@given(case=cases(), jitter=st.sampled_from((1e-5, 0.2)),
       dropout=st.sampled_from((0.0, 0.3)), lambda_r=st.sampled_from((0.0, 0.5)))
def test_training_gradient_matches_directional_difference(case, jitter, dropout, lambda_r):
    """<grad, v> of the full training loss (prediction + ranking) against
    (f(theta + h v) - f(theta - h v)) / 2h for a random direction v over
    every parameter, in float64 with frozen noise; jitter 0.2 clamps
    correlations, and dropout re-draws the same masks from a re-seeded
    generator on every evaluation."""
    cfg, params, batch, feats, noise = build_case(case, "float64")
    cfg = TrainConfig(**{**cfg.to_dict(), "kernel_jitter": jitter, "dropout": dropout,
                         "lambda_r": lambda_r})
    rng = np.random.default_rng(case["seed"] + 1)
    b, L = batch.item_ids.shape
    real = batch.pad_mask
    batch.targets = np.where(real, rng.integers(1, N_ITEMS + 1, size=(b, L)), 0)
    batch.negatives = np.where(real[..., None], rng.integers(1, N_ITEMS + 1, size=(b, L, 2)), 0)

    def loss(want_grads=False):
        return model.training_step_loss(
            params, cfg, batch, feats, noise=noise, want_grads=want_grads,
            drop_rng=np.random.default_rng(case["seed"] + 2))

    _, cache = loss()
    assume(kink_distance(cache, jitter, cfg.omega_cap) > KINK_MARGIN)
    _, grads = loss(want_grads=True)
    direction = {name: rng.standard_normal(arr.shape) for name, arr in
                 model.named_tensors(params)}
    direction["item_emb"][0] = 0.0  # the padding row is pinned
    analytic = sum(float(np.sum(g * direction[name]))
                   for name, g in model.named_tensors(grads))

    def shifted(sign):
        for name, arr in model.named_tensors(params):
            arr += sign * DIRECTION_STEP * direction[name]
        value = loss()[0].total
        for name, arr in model.named_tensors(params):
            arr -= sign * DIRECTION_STEP * direction[name]
        return value

    numeric = (shifted(1.0) - shifted(-1.0)) / (2.0 * DIRECTION_STEP)
    err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
    assert err < DIRECTION_RTOL, (analytic, numeric)


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


# ---------------------------------------------------------------------------
# the training step's numeric kernels against their plain forms in `oracles`
# ---------------------------------------------------------------------------

@st.composite
def rank_lists(draw):
    """Lists [b, m] with 0..m valid entries, left-padded or scattered, tied
    counts and scores up to +-30."""
    b = draw(st.integers(1, 4))
    m = draw(st.integers(1, 8))
    scores = np.array(draw(st.lists(st.floats(-30, 30), min_size=b * m, max_size=b * m)))
    counts = np.array(draw(st.lists(st.integers(0, 3), min_size=b * m, max_size=b * m)))
    valid = np.zeros((b, m), dtype=bool)
    for r in range(b):
        if draw(st.booleans()):
            valid[r, m - draw(st.integers(0, m)):] = True
        else:
            valid[r] = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    return scores.reshape(b, m), counts.reshape(b, m).astype(np.float64), valid


@settings(max_examples=200, deadline=None)
@given(lists=rank_lists())
def test_batched_listmle_matches_per_list_oracle(lists):
    scores, counts, valid = lists
    # the atol covers gradients near 0, which are differences of O(1) terms
    loss, grad = losses.listmle_loss(scores, counts, valid)
    total = 0.0
    for r in range(scores.shape[0]):
        ok = valid[r]
        ref_loss, ref_grad = oracles.listmle_loss(scores[r, ok], counts[r, ok])
        total += ref_loss
        np.testing.assert_allclose(grad[r, ok], ref_grad, rtol=1e-12, atol=1e-12)
        assert not grad[r, ~ok].any()
        one_loss, one_grad = losses.listmle_loss(scores[r, ok], counts[r, ok])
        assert one_loss == pytest.approx(ref_loss, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(one_grad, ref_grad, rtol=1e-12, atol=1e-12)
    assert loss == pytest.approx(total, rel=1e-12, abs=1e-12)


@st.composite
def spd_batches(draw):
    """Cholesky factors of random SPD batches G G^T / n + jitter I, and a
    random lower-triangular upstream gradient."""
    b = draw(st.integers(1, 3))
    n = draw(st.integers(1, 8))
    jitter = draw(st.sampled_from((1e-5, 1e-2, 1.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    g = rng.standard_normal((b, n, n))
    chol = np.linalg.cholesky(g @ np.swapaxes(g, -1, -2) / n + jitter * np.eye(n))
    return chol, np.tril(rng.standard_normal((b, n, n)))


@settings(max_examples=200, deadline=None)
@given(batch=spd_batches())
def test_cholesky_backward_matches_two_solve_oracle(batch):
    chol, d_chol = batch
    got = nnops.cholesky_backward(chol, d_chol)
    ref = oracles.cholesky_backward(chol, d_chol)
    # entries that cancel to far below the matrix's scale carry its rounding
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())
    # the upper triangle of the upstream gradient is ignored
    upper = np.triu(np.ones(chol.shape[-2:]), 1)
    np.testing.assert_array_equal(nnops.cholesky_backward(chol, d_chol + 3.0 * upper), got)


@settings(max_examples=100, deadline=None)
@given(dtype=st.sampled_from((np.float32, np.float64)),
       values=st.lists(st.floats(-60, 60), min_size=1, max_size=20))
def test_softplus_matches_logaddexp(dtype, values):
    x = np.array(values + [-1e4, 1e4, 0.0], dtype=dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = nnops.softplus(x)
    assert got.dtype == dtype
    ref = oracles.softplus(x)
    np.testing.assert_allclose(got, ref, rtol=4 * np.finfo(dtype).eps, atol=0)


@settings(max_examples=60, deadline=None)
@given(case=cases())
def test_noise_gradient_matches_einsum_oracle(case):
    """The Cholesky factor's gradient from the correlated-noise path y = eps
    @ L^T, as the head passes it on, equals sum_q d_y[q, j] eps[q, k]."""
    cfg, params, batch, feats, noise = build_case(case, "float64")
    _, cache = model.forward(params, cfg, batch, feats, "stochastic", noise=noise)
    hp = params.blocks[0].heads[0]
    hc = cache["block_caches"][0]["head_caches"][0]
    d_out = np.random.default_rng(case["seed"]).standard_normal(hc["v"].shape)
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(attention, "cholesky_backward",
                   lambda chol, d_chol: seen.append(d_chol) or np.zeros_like(chol))
        attention._head_backward(hp, hc, d_out, model.zeros_like_params(params).blocks[0].heads[0],
                                 cfg)
    d_z = nnops.masked_softmax_backward(d_out @ np.swapaxes(hc["v"], -1, -2), hc["probs"])
    d_y = d_z * hc["omega"] * np.sqrt(1.0 - hc["dlt"] ** 2)
    np.testing.assert_allclose(np.tril(seen[0]), oracles.noise_chol_grad(d_y, hc["eps"]),
                               rtol=1e-12, atol=1e-14)
