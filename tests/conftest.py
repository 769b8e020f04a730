import numpy as np
import pytest

from skewrec import attention, corpus, model
from skewrec.config import TrainConfig


def synth_log_lines(n_users, n_items, rng, min_len=3, max_len_actions=12,
                    distinct=False):
    """Random interaction lines, chronological per user.

    distinct=True samples without replacement per user, so a held-out target
    never also appears in the prefix (exchangeability for null-model checks).
    """
    lines = []
    for u in range(n_users):
        length = int(rng.integers(min_len, max_len_actions + 1))
        if distinct:
            items = rng.choice(np.arange(1, n_items + 1), size=length, replace=False)
        else:
            items = rng.integers(1, n_items + 1, size=length)
        for it in items:
            lines.append(f"{u} {int(it)}")
    return lines


def build_corpus(tmp_path, lines, max_len=20):
    path = tmp_path / "log.txt"
    path.write_text("\n".join(lines) + "\n")
    log = corpus.load_interactions(str(path))
    seqs, dropped = corpus.build_sequences(log, max_len)
    split = corpus.split_leave_one_out(seqs, log.n_items, max_len, log.item_ids, dropped)
    cooc = corpus.build_cooc(split)
    return log, split, cooc


@pytest.fixture
def small_corpus(tmp_path):
    rng = np.random.default_rng(7)
    lines = synth_log_lines(40, 25, rng, min_len=4, max_len_actions=10)
    return build_corpus(tmp_path, lines, max_len=12)


def make_cooc(n_items, item_count, pair_counts):
    """CoocStats from explicit {(i, j): count} pairs."""
    from scipy import sparse

    counts = np.zeros(n_items + 1, dtype=np.int64)
    for i, c in item_count.items():
        counts[i] = c
    mat = sparse.lil_matrix((n_items + 1, n_items + 1), dtype=np.int64)
    for (i, j), c in pair_counts.items():
        mat[i, j] = c
        mat[j, i] = c
    return corpus.CoocStats(counts, mat.tocsr())


def random_head(d, rng, dh=None, scale=1.0):
    """Head parameters with every weight drawn from N(0, scale^2)."""
    dh = d if dh is None else dh
    mat = lambda *shape: rng.normal(0.0, scale, size=shape)
    return attention.HeadParams(
        wq_loc=mat(d, dh), wk_loc=mat(d, dh), wq_om=mat(d, dh), wk_om=mat(d, dh),
        wq_sh=mat(d, dh), wk_sh=mat(d, dh), wv=mat(d, dh), w_user_mod=mat(d, d),
        w_mix=mat(d, 3), b_mix=mat(3))


def head_config(active, **fields):
    """Float64 TrainConfig of a head with the `active` kernels; `fields` are
    further TrainConfig fields (kernel_item_variant, kernel_jitter, ...)."""
    return TrainConfig(kernel_active="+".join(active), dtype="float64", **fields)


def window_inputs(x, cooc_window=None, cnt_base=None, u=None):
    """(x, u, feats, valid) of one unpadded window as a one-row batch.

    The two-hop alignments come from `cooc_window` (zeros when omitted) the
    way the featurizer derives them; the counting base is the identity when
    omitted and the user vector zero.
    """
    x = np.asarray(x, dtype=np.float64)
    n, d = x.shape
    c = np.zeros((n, n)) if cooc_window is None else np.asarray(cooc_window, dtype=float)
    ahat = np.zeros((n, n))
    for q in range(1, n):
        ahat[q, :q + 1] = attention.alpha_hat(c[:q + 1, :q + 1])[-1]
    cnt = np.eye(n) if cnt_base is None else np.asarray(cnt_base, dtype=float)
    u = np.zeros(d) if u is None else np.asarray(u, dtype=np.float64)
    feats = model.BatchFeatures(cnt[None], np.zeros((1, n)), ahat[None],
                                ahat.max(axis=1)[None])
    return x[None], u[None], feats, np.ones((1, n), dtype=bool)


def run_head(hp, x, mode="location", active=("I",), cooc_window=None,
             cnt_base=None, u=None, **fields):
    """One attention head in `location` or `mean_shift` mode over a single
    unpadded window, through the batched `attention._head_forward` on a
    one-row batch; returns (output, cache). Inputs are those of
    `window_inputs`, settings those of `head_config`.
    """
    x, u, feats, valid = window_inputs(x, cooc_window, cnt_base, u)
    attn_mask = np.tril(np.ones((x.shape[1],) * 2, dtype=bool))[None]
    out, cache = attention._head_forward(hp, x, u, feats, valid, attn_mask, mode,
                                         head_config(active, **fields))
    return out[0], cache


def head_stages(hp, x, active, cnt_base=None, u=None, **fields):
    """Both stages of one head over a single unpadded window, the way
    `model.collect_trace` reads them in every mode: `attention.scale_shape`
    and `attention.latent_correlation` merged into one dict (inputs as
    `window_inputs`, settings as `head_config`)."""
    x, u, feats, valid = window_inputs(x, cnt_base=cnt_base, u=u)
    cfg = head_config(active, **fields)
    return {**attention.scale_shape(hp, x, feats, cfg),
            **attention.latent_correlation(hp, x, u, feats, valid, cfg)}


def repeat_head(hp, x, u, feats, valid, reps, mode, rng=None):
    """One C+I+U head of one feature batch, stacked `reps` times along the
    batch axis and run through `attention._head_forward` in float64 with the
    causal, padding-aware mask of `model.forward`; returns the head cache.

    In `stochastic` mode every copy gets its own noise from `rng`, so
    cache["z"][:, q] holds `reps` independent draws of row q's logits.
    """
    L = valid.shape[1]
    attn_mask = valid[:, None, :] & valid[:, :, None] & np.tril(np.ones((L, L), bool))[None]
    rep = lambda a: np.repeat(np.asarray(a), reps, axis=0)
    feats = model.BatchFeatures(rep(feats.cnt_base), rep(feats.cooc_win), rep(feats.ahat),
                                rep(feats.amax))
    x = rep(x)
    eps = y0 = None
    if mode == "stochastic":
        b, n = x.shape[:2]
        eps, y0 = rng.standard_normal((b, n, n)), rng.standard_normal((b, n))
    _, cache = attention._head_forward(hp, x, rep(u), feats, rep(valid), rep(attn_mask),
                                       mode, head_config(("C", "I", "U")), eps, y0)
    return cache


def law_head(xi, omega, alpha, psi=None, rows=1, mode="stochastic", rng=None,
             eps=None, y0=None, omega_cap=None):
    """Drive `attention._head_forward` so that the logits of every row follow
    the skew-normal with the given per-key location xi, scale omega, shape
    alpha and latent correlation psi (identity when omitted); returns the head
    cache.

    The n = len(xi) inputs are the identity, so each bilinear head returns its
    query weights, set to the wanted xi, softplus^-1(omega) and softplus^-1(1)
    in every row; the counting kernel is the only one and its base is psi,
    which jitter 0 passes through; the alignments are alpha over row maxima
    1. Every row q of each of the `rows` sequences draws its own noise over
    all n keys (from `rng` unless `eps` and `y0` are given), so
    cache["z"].reshape(-1, n) holds rows * n independent draws.
    """
    xi, omega, alpha = (np.asarray(a, dtype=np.float64) for a in (xi, omega, alpha))
    n = xi.shape[0]
    psi = np.eye(n) if psi is None else np.asarray(psi, dtype=np.float64)
    inv_softplus = lambda w: w + np.log(-np.expm1(-w))
    every_row = lambda v: np.tile(v * np.sqrt(n), (n, 1))  # undoes the 1/sqrt(width)
    eye = np.eye(n)
    hp = attention.HeadParams(
        wq_loc=every_row(xi), wk_loc=eye, wq_om=every_row(inv_softplus(omega)), wk_om=eye,
        wq_sh=every_row(np.full(n, inv_softplus(1.0))), wk_sh=eye, wv=eye,
        w_user_mod=eye, w_mix=np.zeros((n, 3)), b_mix=np.zeros(3))
    stack = lambda a: np.broadcast_to(a, (rows,) + np.shape(a))
    valid = np.ones((rows, n), dtype=bool)
    feats = model.BatchFeatures(stack(psi), np.zeros((rows, n)), stack(np.tile(alpha, (n, 1))),
                                np.ones((rows, n)))
    if mode == "stochastic" and eps is None:
        eps, y0 = rng.standard_normal((rows, n, n)), rng.standard_normal((rows, n))
    _, cache = attention._head_forward(
        hp, stack(eye), np.zeros((rows, n)), feats, valid, np.ones((rows, n, n), dtype=bool),
        mode, head_config(("C",), kernel_jitter=0.0, omega_cap=omega_cap), eps, y0)
    return cache
