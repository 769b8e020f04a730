"""Differentiable numpy primitives with hand-written backward passes.

All functions broadcast over leading batch dimensions. Backward functions
take the upstream gradient plus whatever the forward cached and return
gradients with respect to the inputs.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs
from scipy.special import expit

LN_EPS = 1e-8
NEG_INF = -1e30


def sigmoid(x):
    return expit(x)


def softplus(x):
    """log(1 + exp(x)) in the dtype of x, without overflow for large |x|."""
    return np.maximum(x, 0) + np.log1p(np.exp(-np.abs(x)))


def l2_normalize(x, axis=-1, eps=1e-12):
    norm = np.maximum(np.linalg.norm(x, axis=axis, keepdims=True), eps)
    return x / norm, norm


def l2_normalize_backward(d_xhat, xhat, norm):
    inner = np.sum(d_xhat * xhat, axis=-1, keepdims=True)
    return (d_xhat - xhat * inner) / norm


def layer_norm(x, gain, bias, eps=LN_EPS):
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean) * inv
    return xhat * gain + bias, (xhat, inv)


def layer_norm_backward(d_out, cache, gain):
    xhat, inv = cache
    d_xhat = d_out * gain
    d_gain = np.sum(d_out * xhat, axis=tuple(range(d_out.ndim - 1)))
    d_bias = np.sum(d_out, axis=tuple(range(d_out.ndim - 1)))
    m1 = d_xhat.mean(axis=-1, keepdims=True)
    m2 = (d_xhat * xhat).mean(axis=-1, keepdims=True)
    d_x = (d_xhat - m1 - xhat * m2) * inv
    return d_x, d_gain, d_bias


def masked_softmax(logits, mask):
    """Row softmax over entries where mask is True; fully masked rows -> 0."""
    filled = np.where(mask, logits, NEG_INF)
    top = filled.max(axis=-1, keepdims=True)
    any_valid = mask.any(axis=-1, keepdims=True)
    ex = np.exp(filled - np.where(any_valid, top, 0.0))
    ex = np.where(mask, ex, 0.0)
    total = ex.sum(axis=-1, keepdims=True)
    return np.divide(ex, total, out=np.zeros_like(ex), where=total > 0)


def masked_softmax_backward(d_probs, probs):
    inner = np.sum(d_probs * probs, axis=-1, keepdims=True)
    return probs * (d_probs - inner)


def dropout_mask(shape, rate, rng, dtype):
    """Inverted-dropout scale mask: entries are 0 or 1/(1-rate)."""
    if rate <= 0.0:
        return None
    keep = rng.random(shape) >= rate
    return keep.astype(dtype) / (1.0 - rate)


def cholesky_lower(mat):
    """Batched lower Cholesky factor (computed in float64 for stability)."""
    return np.linalg.cholesky(mat.astype(np.float64, copy=False))


def cholesky_backward(chol, d_chol):
    """Gradient of a loss through A = L L^T with respect to the full
    symmetric matrix A, given the gradient with respect to lower-triangular L.

    Uses the standard reverse-mode identity: with P the lower triangle of
    L^T dL with halved diagonal, dA = sym(L^{-T} P L^{-1}). That triangle
    reads only the lower triangle of dL, so the upper one is ignored. L^{-1}
    is formed once per matrix by LAPACK's triangular inverse, so the rest is
    two batched matrix products.
    """
    n = chol.shape[-1]
    half_tril = np.tril(np.ones((n, n))) - 0.5 * np.eye(n)
    p = (np.swapaxes(chol, -1, -2) @ d_chol) * half_tril
    trtri, = get_lapack_funcs(("trtri",), (chol,))
    flat = chol.reshape(-1, n, n)
    inv = np.empty_like(flat)
    for i, mat in enumerate(flat):
        inv[i], info = trtri(mat, lower=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"singular Cholesky factor (trtri info {info})")
    inv = inv.reshape(chol.shape)
    g = np.swapaxes(inv, -1, -2) @ p @ inv
    return 0.5 * (g + np.swapaxes(g, -1, -2))


def bilinear_scores(x, w_q, w_k):
    """Scaled bilinear score matrix S = (x w_q)(x w_k)^T / sqrt(width)."""
    q = x @ w_q
    k = x @ w_k
    scale = 1.0 / float(np.sqrt(w_q.shape[1]))  # python float keeps the dtype
    return q @ np.swapaxes(k, -1, -2) * scale, (q, k, scale)


def bilinear_scores_backward(d_scores, cache, x, w_q, w_k):
    q, k, scale = cache
    d_q = (d_scores @ k) * scale
    d_k = (np.swapaxes(d_scores, -1, -2) @ q) * scale
    flat = lambda a: a.reshape(-1, a.shape[-1])
    d_wq = flat(x).T @ flat(d_q)
    d_wk = flat(x).T @ flat(d_k)
    d_x = d_q @ w_q.T + d_k @ w_k.T
    return d_x, d_wq, d_wk
