"""Stochastic self-attention block.

Each attention row q gets its own skew-normal over the visible keys: the
scaled bilinear score is the location, a softplus bilinear head gives the
per-key scales, the kernel mixture gives the correlation, and a two-hop
co-occurrence alignment scaled by another softplus head gives the shape.
The softmax logits are one reparameterized draw from that distribution
(training) or its location / analytic mean (evaluation).

Everything here is batched over [batch, seq, ...] and written forward +
backward by hand; `model.py` stacks blocks and owns parameter storage.

One batching trick keeps this fast: the correlation matrix of a window is
independent of the query row (the per-row scales cancel in the
normalization), and the Cholesky factor of a leading principal submatrix is
the leading submatrix of the full factor. So one factorization per sequence
serves every causal window, and correlated noise for all rows is a single
matrix product eps @ L^T. Padded positions are spliced in as an identity
block so one batched factorization covers variable-length windows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels, skewnorm
from .errors import DataError, NumericalError
from .nnops import (bilinear_scores, bilinear_scores_backward, cholesky_backward,
                    cholesky_lower, l2_normalize, l2_normalize_backward,
                    masked_softmax, masked_softmax_backward, sigmoid, softplus)

@dataclass
class HeadParams:
    wq_loc: np.ndarray
    wk_loc: np.ndarray
    wq_om: np.ndarray
    wk_om: np.ndarray
    wq_sh: np.ndarray
    wk_sh: np.ndarray
    wv: np.ndarray
    w_user_mod: np.ndarray
    w_mix: np.ndarray
    b_mix: np.ndarray


@dataclass
class BlockParams:
    heads: list
    w_out: np.ndarray
    ffn_w1: np.ndarray
    ffn_b1: np.ndarray
    ffn_w2: np.ndarray
    ffn_b2: np.ndarray
    ln1_g: np.ndarray
    ln1_b: np.ndarray
    ln2_g: np.ndarray
    ln2_b: np.ndarray


@dataclass
class AttnOpts:
    active: tuple
    item_variant: str = "linear"
    jitter: float = 1e-5
    dtype: type = np.float32
    omega_cap: float | None = None


def alpha_hat(c_window):
    """Two-hop co-occurrence alignment of every position with the last one.

    The diagonal of the window matrix is first replaced row-wise by the mean
    of the other entries, then row j is dotted with the final column.
    """
    c = np.asarray(c_window, dtype=np.float64)
    n = c.shape[-1]
    if n < 2:
        raise DataError("two-hop alignment needs a window of at least 2 positions")
    mod = c.copy()
    idx = np.arange(n)
    diag = c[..., idx, idx]
    row_means = (c.sum(axis=-1) - diag) / (n - 1)
    mod[..., idx, idx] = row_means
    return mod @ mod[..., :, -1]


def _head_forward(hp: HeadParams, x, u, cnt_base, ahat, amax, valid, attn_mask,
                  stoch_rows, mode, opts: AttnOpts, eps=None, y0=None, rng=None,
                  want_psi=False):
    """One attention head over a batch. Returns (head_out, cache)."""
    b, n, _ = x.shape
    dtype = opts.dtype
    cache = {"mode": mode, "x": x, "u": u}

    xi, loc_cache = bilinear_scores(x, hp.wq_loc, hp.wk_loc)
    cache["loc"] = loc_cache

    need_scale = mode in ("stochastic", "mean_shift") or want_psi
    need_psi = mode == "stochastic" or want_psi

    z = xi
    if need_scale:
        om_logits, om_cache = bilinear_scores(x, hp.wq_om, hp.wk_om)
        omega = softplus(om_logits)
        if opts.omega_cap is not None:
            cache["om_cap_mask"] = omega < opts.omega_cap
            omega = np.minimum(omega, opts.omega_cap)
        sh_logits, sh_cache = bilinear_scores(x, hp.wq_sh, hp.wk_sh)
        s = softplus(sh_logits)
        ratio = np.where(amax[:, :, None] > 0,
                         ahat / np.maximum(amax[:, :, None], 1e-300),
                         0.0).astype(x.dtype)
        alpha = s * ratio
        dlt = skewnorm.delta(alpha)
        cache.update(om_logits=om_logits, om_cache=om_cache, omega=omega,
                     sh_logits=sh_logits, sh_cache=sh_cache, s=s, ratio=ratio,
                     alpha=alpha, dlt=dlt)

    if need_psi:
        xhat, xnorm = l2_normalize(x.astype(np.float64, copy=False))
        grams = {}
        if "C" in opts.active:
            grams["C"] = cnt_base.astype(np.float64, copy=False)
        if "I" in opts.active:
            grams["I"] = kernels.item_gram(xhat, opts.item_variant)
        if "U" in opts.active:
            w_vec = u.astype(np.float64, copy=False) @ hp.w_user_mod.T.astype(np.float64)
            grams["U"], mod = kernels.user_gram(xhat, w_vec)
            cache.update(w_vec=w_vec, mod=mod)
        r = kernels.mixture(u.astype(np.float64, copy=False), hp.w_mix.astype(np.float64),
                            hp.b_mix.astype(np.float64), opts.active)
        psi_tilde = np.zeros((b, n, n), dtype=np.float64)
        for a, key in enumerate(opts.active):
            psi_tilde += r[:, a, None, None] * grams[key]
        psi, norm_cache = kernels.normalize_correlation(psi_tilde, opts.jitter, valid)
        try:
            chol = cholesky_lower(psi)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("correlation Cholesky failed after jitter") from exc
        cache.update(xhat=xhat, xnorm=xnorm, grams=grams, r=r, psi_tilde=psi_tilde,
                     psi=psi, norm_cache=norm_cache, chol=chol)

    if mode == "stochastic":
        if eps is None:
            eps = rng.standard_normal((b, n, n)).astype(dtype)
            y0 = rng.standard_normal((b, n)).astype(dtype)
        chol_t = np.swapaxes(cache["chol"], -1, -2).astype(dtype)
        y = eps @ chol_t
        zhat = dlt * np.abs(y0)[:, :, None] + np.sqrt(1.0 - dlt * dlt) * y
        sr = stoch_rows[:, :, None].astype(dtype)
        z = xi + sr * (omega * zhat).astype(dtype)
        cache.update(eps=eps, y0=y0, y=y, zhat=zhat, sr=sr)
    elif mode == "mean_shift":
        z = xi + (omega * dlt * np.sqrt(2.0 / np.pi)).astype(dtype)
    elif mode != "location":
        raise ValueError(f"unknown attention mode {mode!r}")

    if np.any(valid & ~attn_mask.any(axis=-1)):
        raise NumericalError("attention row with every key masked")
    probs = masked_softmax(z, attn_mask)
    v = x @ hp.wv
    head_out = probs @ v
    cache.update(z=z, probs=probs, v=v)
    return head_out, cache


def _head_backward(hp: HeadParams, cache, d_head_out, grads: HeadParams,
                   opts: AttnOpts, d_psi_extra=None):
    """Backward of one head; returns (d_x, d_u)."""
    x, u = cache["x"], cache["u"]
    probs, v = cache["probs"], cache["v"]
    mode = cache["mode"]

    d_probs = d_head_out @ np.swapaxes(v, -1, -2)
    d_v = np.swapaxes(probs, -1, -2) @ d_head_out
    flat = lambda a: a.reshape(-1, a.shape[-1])
    grads.wv += flat(x).T @ flat(d_v)
    d_x = d_v @ hp.wv.T
    d_z = masked_softmax_backward(d_probs, probs)

    d_xi = d_z
    d_u = np.zeros_like(u)
    d_psi = None

    if mode == "stochastic":
        omega, zhat, dlt = cache["omega"], cache["zhat"], cache["dlt"]
        sr, y0, y, eps = cache["sr"], cache["y0"], cache["y"], cache["eps"]
        d_om = d_z * sr * zhat
        d_zhat = d_z * sr * omega
        root = np.sqrt(1.0 - dlt * dlt)
        d_dlt = d_zhat * (np.abs(y0)[:, :, None] - dlt / root * y)
        d_y = d_zhat * root
        d_alpha = d_dlt * (1.0 + cache["alpha"] ** 2) ** -1.5
        d_s = d_alpha * cache["ratio"]
        d_sh_logits = d_s * sigmoid(cache["sh_logits"])
        dx_sh, d_wq_sh, d_wk_sh = bilinear_scores_backward(
            d_sh_logits.astype(x.dtype), cache["sh_cache"], x, hp.wq_sh, hp.wk_sh)
        grads.wq_sh += d_wq_sh
        grads.wk_sh += d_wk_sh
        d_x += dx_sh
        if "om_cap_mask" in cache:
            d_om = d_om * cache["om_cap_mask"]
        d_om_logits = d_om * sigmoid(cache["om_logits"])
        dx_om, d_wq_om, d_wk_om = bilinear_scores_backward(
            d_om_logits, cache["om_cache"], x, hp.wq_om, hp.wk_om)
        grads.wq_om += d_wq_om
        grads.wk_om += d_wk_om
        d_x += dx_om
        # correlated-noise path: Y = eps @ L^T
        d_chol = np.tril(np.einsum("bqj,bqk->bjk", d_y, eps).astype(np.float64))
        d_psi = cholesky_backward(cache["chol"], d_chol)

    if d_psi_extra is not None:
        d_psi = d_psi_extra if d_psi is None else d_psi + d_psi_extra

    if d_psi is not None:
        d_tilde = kernels.normalize_correlation_backward(d_psi, cache["norm_cache"],
                                                         opts.jitter)
        r, grams = cache["r"], cache["grams"]
        xhat = cache["xhat"]
        d_r = np.zeros_like(r)
        d_xhat = np.zeros_like(xhat)
        for a, key in enumerate(opts.active):
            d_r[:, a] = np.einsum("bij,bij->b", d_tilde, grams[key])
            d_gram = r[:, a, None, None] * d_tilde
            if key == "I":
                d_xhat += kernels.item_gram_backward(d_gram, xhat, opts.item_variant,
                                                     grams["I"])
            elif key == "U":
                dxh, d_wvec = kernels.user_gram_backward(d_gram, cache["mod"], xhat,
                                                         cache["w_vec"])
                d_xhat += dxh
                grads.w_user_mod += np.einsum("bj,bk->jk", d_wvec,
                                              u.astype(np.float64, copy=False))
                d_u += (d_wvec @ hp.w_user_mod.astype(np.float64)).astype(u.dtype)
        # mixture softmax over the active subset
        idx = [kernels.KERNEL_ORDER.index(a) for a in opts.active]
        d_logits = r * (d_r - np.sum(d_r * r, axis=-1, keepdims=True))
        grads.w_mix[:, idx] += np.einsum("bd,ba->da", u.astype(np.float64, copy=False),
                                         d_logits)
        grads.b_mix[idx] += d_logits.sum(axis=0)
        d_u += (d_logits @ hp.w_mix[:, idx].T.astype(np.float64)).astype(u.dtype)
        d_x += l2_normalize_backward(d_xhat, xhat, cache["xnorm"]).astype(x.dtype)

    dx_loc, d_wq_loc, d_wk_loc = bilinear_scores_backward(
        d_xi.astype(x.dtype), cache["loc"], x, hp.wq_loc, hp.wk_loc)
    grads.wq_loc += d_wq_loc
    grads.wk_loc += d_wk_loc
    d_x += dx_loc
    return d_x, d_u


def init_block(dim, heads, rng, dtype=np.float32) -> BlockParams:
    dh = dim // heads
    scale = 1.0 / np.sqrt(dim)
    mat = lambda *shape: rng.normal(0.0, scale, size=shape).astype(dtype)
    hps = []
    for _ in range(heads):
        hps.append(HeadParams(
            wq_loc=mat(dim, dh), wk_loc=mat(dim, dh),
            wq_om=mat(dim, dh), wk_om=mat(dim, dh),
            wq_sh=mat(dim, dh), wk_sh=mat(dim, dh),
            wv=mat(dim, dh),
            w_user_mod=mat(dim, dim), w_mix=mat(dim, 3),
            b_mix=np.zeros(3, dtype=dtype)))
    return BlockParams(
        heads=hps, w_out=mat(dim, dim),
        ffn_w1=mat(dim, dim), ffn_b1=np.zeros(dim, dtype=dtype),
        ffn_w2=mat(dim, dim), ffn_b2=np.zeros(dim, dtype=dtype),
        ln1_g=np.ones(dim, dtype=dtype), ln1_b=np.zeros(dim, dtype=dtype),
        ln2_g=np.ones(dim, dtype=dtype), ln2_b=np.zeros(dim, dtype=dtype))
