"""Full network: embedding assembly, stacked stochastic attention blocks with
residual + layer-norm + dropout, tied-weight relevance scoring, and the
combined training loss with its hand-written backward pass.

Parameters live in plain numpy arrays addressed through a flat name -> array
view (`named_tensors`), which the optimizer, checkpointing, and the gradient
checker all share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import losses
from .attention import BlockParams, HeadParams, alpha_hat, init_block, \
    latent_correlation, scale_shape, _head_backward, _head_forward
from .config import TrainConfig
from .corpus import Batch, CoocStats, SplitDataset
from .errors import NumericalError
from .nnops import dropout_mask, layer_norm, layer_norm_backward

@dataclass
class ModelParams:
    item_emb: np.ndarray
    pos_emb: np.ndarray
    user_emb: np.ndarray
    blocks: list


def init_params(cfg: TrainConfig, n_items: int, n_users: int,
                rng: np.random.Generator) -> ModelParams:
    dtype = np.dtype(cfg.dtype).type
    scale = 1.0 / np.sqrt(cfg.dim)
    item = rng.normal(0.0, scale, size=(n_items + 1, cfg.dim)).astype(dtype)
    item[0] = 0.0
    pos = rng.normal(0.0, scale, size=(cfg.max_len, cfg.dim)).astype(dtype)
    user = rng.normal(0.0, scale, size=(n_users, cfg.dim)).astype(dtype)
    blocks = [init_block(cfg.dim, cfg.heads, rng, dtype) for _ in range(cfg.blocks)]
    return ModelParams(item, pos, user, blocks)


_HEAD_FIELDS = ("wq_loc", "wk_loc", "wq_om", "wk_om", "wq_sh", "wk_sh", "wv",
                "w_user_mod", "w_mix", "b_mix")
_BLOCK_FIELDS = ("w_out", "ffn_w1", "ffn_b1", "ffn_w2", "ffn_b2",
                 "ln1_g", "ln1_b", "ln2_g", "ln2_b")


def named_tensors(params: ModelParams):
    """Deterministic (name, array) view of every parameter tensor."""
    yield "item_emb", params.item_emb
    yield "pos_emb", params.pos_emb
    yield "user_emb", params.user_emb
    for b, blk in enumerate(params.blocks):
        for h, hp in enumerate(blk.heads):
            for f in _HEAD_FIELDS:
                yield f"block{b}.h{h}.{f}", getattr(hp, f)
        for f in _BLOCK_FIELDS:
            yield f"block{b}.{f}", getattr(blk, f)


def zeros_like_params(params: ModelParams) -> ModelParams:
    blocks = []
    for blk in params.blocks:
        heads = [HeadParams(**{f: np.zeros_like(getattr(hp, f)) for f in _HEAD_FIELDS})
                 for hp in blk.heads]
        blocks.append(BlockParams(heads=heads, **{
            f: np.zeros_like(getattr(blk, f)) for f in _BLOCK_FIELDS}))
    return ModelParams(np.zeros_like(params.item_emb), np.zeros_like(params.pos_emb),
                       np.zeros_like(params.user_emb), blocks)


@dataclass
class BatchFeatures:
    """Parameter-free per-batch arrays derived from item ids and counts."""
    cnt_base: np.ndarray  # [B, L, L] counting-kernel base
    cooc_win: np.ndarray  # [B, L] last row of the raw co-occurrence window
    ahat: np.ndarray      # [B, L, L] two-hop alignment per query row
    amax: np.ndarray      # [B, L] row maxima of ahat


class Featurizer:
    """Computes and caches counting bases, two-hop alignments and the last
    co-occurrence row of each window.

    These depend only on item ids and global counts, never on parameters, so
    each row's features are cached across epochs, keyed by the row's item
    ids. Rows that miss the cache are featurized together in one batched
    pass: one co-occurrence gather and one prefix-alignment call.
    """

    def __init__(self, cooc: CoocStats, max_len: int):
        self.cooc = cooc
        self.max_len = max_len
        self._cache: dict = {}

    def _compute(self, item_ids) -> tuple:
        """Counting bases [b, L, L], last co-occurrence rows [b, L] and
        prefix alignments [b, L, L] of a left-padded id block [b, L], zero
        wherever a position is padded."""
        win = self.cooc.window(item_ids)
        cb = self.cooc.base_from_window(item_ids, win)
        return cb, win[:, -1], alpha_hat(win, item_ids != 0)

    def row_features(self, items):
        """(counting base, last co-occurrence row, alignments, alignment row
        maxima) of one unpadded window of item ids. One padded position is
        put in front, so a single item is a valid window too."""
        ids = np.concatenate(([0], np.asarray(items, dtype=np.int64)))[None]
        cb, cw, ah = self._compute(ids)
        ah = ah[0, 1:, 1:]
        return cb[0, 1:, 1:], cw[0, 1:], ah, ah.max(axis=1)

    def batch_features(self, batch: Batch, tag: str | None = "train") -> BatchFeatures:
        """Features of a batch; `tag=None` computes them without caching."""
        cache = self._cache if tag is not None else {}
        ids = batch.item_ids
        b, L = ids.shape
        lengths = batch.pad_mask.sum(axis=1)
        keys = [ids[r, L - m:].astype(np.int64, copy=False).tobytes() if m else None
                for r, m in enumerate(lengths)]
        missed = {}
        for r, key in enumerate(keys):
            if key is not None and key not in cache:
                missed.setdefault(key, r)
        if missed:
            rows = list(missed.values())
            computed = self._compute(ids[rows])
            for i, (key, r) in enumerate(missed.items()):
                o = L - lengths[r]
                cb, cw, a = (arr[i] for arr in computed)
                a = a[o:, o:].copy()
                cache[key] = (cb[o:, o:].copy(), cw[o:].copy(), a, a.max(axis=1))

        cnt = np.zeros((b, L, L))
        cwin = np.zeros((b, L))
        ah = np.zeros((b, L, L))
        amax = np.zeros((b, L))
        idx = np.arange(L)
        cnt[:, idx, idx] = 1.0  # pad block stays an identity in the correlation
        for r, key in enumerate(keys):
            if key is None:
                continue
            o = L - lengths[r]
            cb, cw, a, am = cache[key]
            cnt[r, o:, o:] = cb
            cwin[r, o:] = cw
            ah[r, o:, o:] = a
            amax[r, o:] = am
        return BatchFeatures(cnt, cwin, ah, amax)


def make_noise(cfg: TrainConfig, b: int, rng: np.random.Generator):
    """Reparameterization noise for every block/head, in a fixed draw order."""
    dtype = np.dtype(cfg.dtype).type
    L = cfg.max_len
    return [[(rng.standard_normal((b, L, L)).astype(dtype),
              rng.standard_normal((b, L)).astype(dtype))
             for _ in range(cfg.heads)] for _ in range(cfg.blocks)]


def _block_forward(bp: BlockParams, cfg, x_in, u, feats, valid, attn_mask, mode,
                   noise_blk, drop_rng):
    heads = []
    for h, hp in enumerate(bp.heads):
        eps, y0 = noise_blk[h] if noise_blk is not None else (None, None)
        heads.append(_head_forward(hp, x_in, u, feats, valid, attn_mask, mode, cfg, eps, y0))
    concat = np.concatenate([out for out, _ in heads], axis=-1)
    proj = concat @ bp.w_out
    rate = cfg.dropout if drop_rng is not None else 0.0  # dropout iff drop_rng
    mask1 = dropout_mask(proj.shape, rate, drop_rng, proj.dtype)
    res1 = x_in + (proj * mask1 if mask1 is not None else proj)
    a, ln1_cache = layer_norm(res1, bp.ln1_g, bp.ln1_b)
    f1 = a @ bp.ffn_w1 + bp.ffn_b1
    relu = np.maximum(f1, 0.0)
    f2 = relu @ bp.ffn_w2 + bp.ffn_b2
    mask2 = dropout_mask(f2.shape, rate, drop_rng, f2.dtype)
    res2 = a + (f2 * mask2 if mask2 is not None else f2)
    out, ln2_cache = layer_norm(res2, bp.ln2_g, bp.ln2_b)
    cache = dict(x_in=x_in, head_caches=[hc for _, hc in heads], concat=concat,
                 mask1=mask1, ln1_cache=ln1_cache, a=a, f1=f1, relu=relu, mask2=mask2,
                 ln2_cache=ln2_cache)
    return out, cache


def _block_backward(bp: BlockParams, cfg, cache, d_out, gblk: BlockParams,
                    d_psi_seeds=None):
    x_in = cache["x_in"]
    flat = lambda t: t.reshape(-1, t.shape[-1])

    d_res2, dg2, db2 = layer_norm_backward(d_out, cache["ln2_cache"], bp.ln2_g)
    gblk.ln2_g += dg2
    gblk.ln2_b += db2
    d_a = d_res2.copy()
    d_f2 = d_res2 * cache["mask2"] if cache["mask2"] is not None else d_res2
    gblk.ffn_w2 += flat(cache["relu"]).T @ flat(d_f2)
    gblk.ffn_b2 += d_f2.sum(axis=(0, 1))
    d_relu = d_f2 @ bp.ffn_w2.T
    d_f1 = d_relu * (cache["f1"] > 0)
    gblk.ffn_w1 += flat(cache["a"]).T @ flat(d_f1)
    gblk.ffn_b1 += d_f1.sum(axis=(0, 1))
    d_a += d_f1 @ bp.ffn_w1.T

    d_res1, dg1, db1 = layer_norm_backward(d_a, cache["ln1_cache"], bp.ln1_g)
    gblk.ln1_g += dg1
    gblk.ln1_b += db1
    d_x = d_res1.copy()
    d_proj = d_res1 * cache["mask1"] if cache["mask1"] is not None else d_res1
    gblk.w_out += flat(cache["concat"]).T @ flat(d_proj)
    d_concat = d_proj @ bp.w_out.T

    dh = d_concat.shape[-1] // len(bp.heads)
    d_u = None
    for h, hp in enumerate(bp.heads):
        d_ho = d_concat[..., h * dh:(h + 1) * dh]
        seed = d_psi_seeds[h] if d_psi_seeds is not None else None
        dx_h, du_h = _head_backward(hp, cache["head_caches"][h], d_ho,
                                    gblk.heads[h], cfg, d_psi_extra=seed)
        d_x += dx_h
        d_u = du_h if d_u is None else d_u + du_h
    return d_x, d_u


def forward(params: ModelParams, cfg: TrainConfig, batch, feats: BatchFeatures,
            mode: str, noise=None, rng=None, drop_rng=None):
    """Run the stacked blocks; returns (F, cache).

    In `stochastic` mode the heads read their noise from `noise`
    (`make_noise`'s layout), drawn from `rng` when not given. Dropout runs
    iff `drop_rng` is given."""
    ids = batch.item_ids
    b, L = ids.shape
    if mode == "stochastic" and noise is None:
        noise = make_noise(cfg, b, rng)
    valid = batch.pad_mask
    x = params.item_emb[ids] + params.pos_emb[None]
    u = params.user_emb[batch.user_ids]
    causal = np.tril(np.ones((L, L), dtype=bool))
    attn_mask = valid[:, None, :] & valid[:, :, None] & causal[None]
    block_caches = []
    for bi, bp in enumerate(params.blocks):
        noise_blk = noise[bi] if noise is not None else None
        x, bc = _block_forward(bp, cfg, x, u, feats, valid, attn_mask, mode, noise_blk,
                               drop_rng)
        block_caches.append(bc)
    cache = dict(ids=ids, valid=valid, u_ids=batch.user_ids,
                 block_caches=block_caches, F=x)
    return x, cache


def scatter_rows(out, ids, vals):
    """out[ids[k]] += vals[k] over flattened leading dims (bincount-based;
    much faster than np.add.at for embedding-sized tables)."""
    ids = np.asarray(ids).reshape(-1)
    vals = vals.reshape(-1, vals.shape[-1])
    n = out.shape[0]
    for j in range(vals.shape[1]):
        out[:, j] += np.bincount(ids, weights=vals[:, j], minlength=n)


def backward(params: ModelParams, cfg: TrainConfig, cache, d_f,
             d_psi_seeds=None) -> ModelParams:
    """Backward through blocks and embeddings; returns a grads ModelParams."""
    grads = zeros_like_params(params)
    d_x = d_f
    d_u_total = None
    for bi in range(len(params.blocks) - 1, -1, -1):
        seeds = d_psi_seeds[bi] if d_psi_seeds is not None else None
        d_x, d_u = _block_backward(params.blocks[bi], cfg, cache["block_caches"][bi],
                                   d_x, grads.blocks[bi], seeds)
        d_u_total = d_u if d_u_total is None else d_u_total + d_u
    ids = cache["ids"]
    scatter_rows(grads.item_emb, ids, d_x)
    grads.pos_emb += d_x.sum(axis=0)
    if d_u_total is not None:
        scatter_rows(grads.user_emb, cache["u_ids"], d_u_total)
    grads.item_emb[0] = 0.0  # padding row is pinned
    return grads


def score_positions(params: ModelParams, f, batch):
    """Tied-weight scores for targets and negatives at every position."""
    e_pos = params.item_emb[batch.targets]
    e_neg = params.item_emb[batch.negatives]
    s_pos = np.einsum("bld,bld->bl", f, e_pos)
    s_neg = np.einsum("bld,blkd->blk", f, e_neg)
    return s_pos, s_neg, e_pos, e_neg


def training_step_loss(params: ModelParams, cfg: TrainConfig, batch: Batch,
                       feats: BatchFeatures, noise=None, rng=None, drop_rng=None,
                       want_grads=True):
    """Total training loss (and grads) for one batch.

    The stochastic forward estimates the expected log-likelihood with a single
    reparameterized sample; the baseline config trains the deterministic
    location path instead and skips the ranking loss.
    """
    mode = "location" if cfg.baseline else "stochastic"
    f, cache = forward(params, cfg, batch, feats, mode, noise=noise, rng=rng,
                       drop_rng=drop_rng)
    s_pos, s_neg, e_pos, e_neg = score_positions(params, f, batch)
    valid_t = batch.targets != 0
    l_z, d_spos, d_sneg = losses.prediction_loss(s_pos, s_neg, valid_t)

    l_rank = 0.0
    d_psi_seeds = None
    if mode == "stochastic" and cfg.lambda_r != 0.0:
        l_rank, d_psi_seeds = _rank_loss(params, cfg, cache, batch, feats,
                                         want_grads=want_grads)
    report = losses.total_loss(l_z, l_rank, cfg.lambda_r)
    if not want_grads:
        return report, cache

    d_f = d_spos[..., None] * e_pos + np.einsum("blk,blkd->bld", d_sneg, e_neg)
    grads = backward(params, cfg, cache, d_f.astype(f.dtype), d_psi_seeds)
    scatter_rows(grads.item_emb, batch.targets, d_spos[..., None] * f)
    scatter_rows(grads.item_emb, batch.negatives,
                 d_sneg[..., None] * f[:, :, None, :])
    grads.item_emb[0] = 0.0
    return report, grads


def _rank_loss(params, cfg, cache, batch, feats, want_grads):
    """ListMLE on the final valid row of every correlation matrix, averaged
    over (sequence, block, head); returns (mean loss, psi gradient seeds).

    Row L-1 of psi ranks the sequence's earlier valid positions, so each
    (block, head) is one batched call over the batch's lists."""
    valid = cache["valid"]
    b, L = batch.item_ids.shape
    nb, nh = len(params.blocks), cfg.heads
    seeds = [[None] * nh for _ in range(nb)] if want_grads else None
    total = 0.0
    denom = b * nb * nh
    lam_scale = cfg.lambda_r / denom
    for bi in range(nb):
        for h in range(nh):
            psi = cache["block_caches"][bi]["head_caches"][h]["psi"]
            loss, grad = losses.listmle_loss(psi[:, L - 1, :L - 1], feats.cooc_win[:, :L - 1],
                                             valid[:, :L - 1])
            total += loss
            if want_grads:
                seed = np.zeros((b, L, L))
                seed[:, L - 1, :L - 1] = lam_scale * grad
                seeds[bi][h] = seed
    return total / denom, seeds


def last_hidden(params: ModelParams, cfg: TrainConfig, batch, feats, mode,
                rng=None):
    """Final-position representations for ranking, [batch, dim]."""
    f, _ = forward(params, cfg, batch, feats, mode, rng=rng)
    return f[:, -1, :]


def collect_trace(params: ModelParams, cfg: TrainConfig, batch, feats, mode="location",
                  rng=None):
    """Per-block/head attention diagnostics for a single-sequence batch.

    The scales, shapes and correlation are recomputed from each head's
    input, so every mode reports them."""
    if batch.item_ids.shape[0] != 1:
        raise ValueError("traces are collected one sequence at a time")
    f, cache = forward(params, cfg, batch, feats, mode, rng=rng)
    valid = cache["valid"]
    m = int(valid.sum())
    L = valid.shape[1]
    win = slice(L - m, L)
    out = []
    for bp, bc in zip(params.blocks, cache["block_caches"]):
        per_head = []
        for hp, hc in zip(bp.heads, bc["head_caches"]):
            ss = scale_shape(hp, hc["x"], feats, cfg)
            lc = latent_correlation(hp, hc["x"], hc["u"], feats, valid, cfg)
            per_head.append({
                "xi": bilinear_from_cache(hc)[win, win],
                "logits": hc["z"][0][win, win],
                "attn": hc["probs"][0][win, win],
                "omega": ss["omega"][0, -1, win],
                "psi": lc["psi"][0][win, win],
                "alpha": ss["alpha"][0, -1, win],
                "mixture_r": lc["r"][0],
            })
        out.append(per_head)
    return f, out


def bilinear_from_cache(hc):
    q, k, scale = hc["loc"]
    return (q @ np.swapaxes(k, -1, -2) * scale)[0]
