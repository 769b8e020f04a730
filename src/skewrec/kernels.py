"""Relation kernels, their learned mixture, and the normalized correlation
matrix used by the stochastic attention logits, batched over windows.

Three kernels measure item relatedness: a counting kernel driven by global
pair co-occurrence (`CoocStats.counting_base`), an item kernel on the
(L2-normalized) timestep representations, and a user kernel on the same
representations modulated elementwise by a transformed user embedding. Each
carries an omega_i*omega_j scale factor; the correlation matrix divides it
back out, so the Gram helpers below already work on the cancelled form.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError

KERNEL_ORDER = ("C", "I", "U")


def mixture(u_s, w_mix, b_mix, active=KERNEL_ORDER):
    """Softmax mixture weights over the active kernel subset."""
    idx = [KERNEL_ORDER.index(a) for a in active]
    logits = u_s @ w_mix[:, idx] + b_mix[idx]
    logits = logits - logits.max(axis=-1, keepdims=True)
    ex = np.exp(logits)
    return ex / ex.sum(axis=-1, keepdims=True)


def item_gram(xhat, variant="linear"):
    """Normalized-representation kernel matrix over one or more windows."""
    lin = xhat @ np.swapaxes(xhat, -1, -2)
    if variant == "linear":
        return lin
    sq = np.sum(xhat * xhat, axis=-1)
    dist = sq[..., :, None] + sq[..., None, :] - 2.0 * lin
    return np.exp(-np.maximum(dist, 0.0))


def item_gram_backward(d_gram, xhat, variant, gram):
    if variant == "linear":
        return (d_gram + np.swapaxes(d_gram, -1, -2)) @ xhat
    d_dist = -gram * d_gram
    t = d_dist + np.swapaxes(d_dist, -1, -2)
    return 2.0 * (np.sum(t, axis=-1)[..., None] * xhat - t @ xhat)


def user_gram(xhat, w_vec):
    """Gram of the user-modulated representations; w_vec broadcasts per window."""
    mod = xhat * w_vec[..., None, :]
    return mod @ np.swapaxes(mod, -1, -2), mod


def user_gram_backward(d_gram, mod, xhat, w_vec):
    d_mod = (d_gram + np.swapaxes(d_gram, -1, -2)) @ mod
    d_xhat = d_mod * w_vec[..., None, :]
    d_wvec = np.sum(d_mod * xhat, axis=-2)
    return d_xhat, d_wvec


def normalize_correlation(psi_tilde, jitter, valid=None):
    """Turn a mixed kernel matrix into a usable correlation matrix.

    Divides by sqrt of the diagonal pair, clamps off-diagonal entries into
    (-1, 1), adds jitter*I and renormalizes so the diagonal stays exactly 1.
    With `valid` (a boolean window mask per row), invalid rows/columns become
    an identity block so a single batched Cholesky covers every window.
    """
    diag = np.diagonal(psi_tilde, axis1=-2, axis2=-1)
    if valid is not None:
        bad = (diag <= 0.0) & valid
    else:
        bad = diag <= 0.0
    if np.any(bad):
        rows = np.argwhere(bad)
        raise NumericalError(
            f"nonpositive kernel self-similarity at row index {rows[0].tolist()}")
    safe = np.where(diag > 0.0, diag, 1.0)
    droot = np.sqrt(safe)
    psi_hat = psi_tilde / (droot[..., :, None] * droot[..., None, :])
    bound = 1.0 - jitter
    clamped = np.clip(psi_hat, -bound, bound)
    pass_mask = np.abs(psi_hat) < bound
    psi = clamped / (1.0 + jitter)
    idx = np.arange(psi.shape[-1])
    psi[..., idx, idx] = 1.0
    if valid is not None:
        pair_valid = valid[..., :, None] & valid[..., None, :]
        psi = np.where(pair_valid, psi, 0.0)
        psi[..., idx, idx] = 1.0
    cache = (psi_hat, droot, pass_mask)
    return psi, cache


def normalize_correlation_backward(d_psi, cache, jitter):
    """Backward of normalize_correlation; d_psi diagonal is ignored (the
    output diagonal is the constant 1)."""
    psi_hat, droot, pass_mask = cache
    idx = np.arange(d_psi.shape[-1])
    d_ph = d_psi / (1.0 + jitter)
    d_ph[..., idx, idx] = 0.0
    d_ph = np.where(pass_mask, d_ph, 0.0)
    d_tilde = d_ph / (droot[..., :, None] * droot[..., None, :])
    # diagonal sensitivity through the sqrt-normalization
    contrib = d_ph * psi_hat
    d_droot = -(contrib.sum(axis=-1) + contrib.sum(axis=-2)) / droot
    d_tilde[..., idx, idx] += 0.5 * d_droot / droot
    return d_tilde
