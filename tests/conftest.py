import numpy as np
import pytest

from skewrec import attention, corpus


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


def run_head(hp, x, mode="location", active=("I",), cooc_window=None,
             cnt_base=None, u=None, rng=None, want_psi=False, **opts):
    """One attention head over a single unpadded window, through the batched
    `attention._head_forward` on a one-row batch; returns (output, cache).

    The two-hop alignments come from `cooc_window` (zeros when omitted) the
    way the featurizer derives them; `opts` go to `attention.AttnOpts`.
    """
    x = np.asarray(x, dtype=np.float64)
    n, d = x.shape
    c = np.zeros((n, n)) if cooc_window is None else np.asarray(cooc_window, dtype=float)
    ahat = np.zeros((n, n))
    for q in range(1, n):
        ahat[q, :q + 1] = attention.alpha_hat(c[:q + 1, :q + 1])[-1]
    cnt = np.eye(n) if cnt_base is None else np.asarray(cnt_base, dtype=float)
    u = np.zeros(d) if u is None else np.asarray(u, dtype=np.float64)
    valid = np.ones((1, n), dtype=bool)
    attn_mask = np.tril(np.ones((n, n), dtype=bool))[None]
    out, cache = attention._head_forward(
        hp, x[None], u[None], cnt[None], ahat[None], ahat.max(axis=1)[None], valid,
        attn_mask, valid, mode, attention.AttnOpts(active=active, dtype=np.float64, **opts),
        rng=rng, want_psi=want_psi)
    return out[0], cache
