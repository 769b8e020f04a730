"""Training objectives.

The prediction loss is binary cross-entropy with sampled negatives over the
single stochastic forward (a one-sample Monte-Carlo estimate of the expected
log-likelihood). The ranking loss aligns each sequence's learned correlation
row against the co-occurrence ordering of its items via ListMLE, the negative
log-likelihood of the target permutation under a Plackett-Luce model. The
total is l_z + lambda_r * l_rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .nnops import sigmoid, softplus


@dataclass
class LossReport:
    l_z: float
    l_rank: float
    total: float
    lambda_r: float


def prediction_loss(s_pos, s_neg, valid):
    """Mean BCE over valid positions; returns (loss, d_s_pos, d_s_neg).

    s_pos: [batch, seq] positive scores; s_neg: [batch, seq, k] negative
    scores; valid: [batch, seq] bool. Log-sigmoids are computed via softplus
    so extreme scores stay finite.
    """
    n_valid = int(valid.sum())
    if n_valid == 0:
        raise ValueError("no valid positions in batch")
    vm = valid.astype(s_pos.dtype)
    loss = float((softplus(-s_pos) * vm).sum() + (softplus(s_neg) * vm[..., None]).sum())
    loss /= n_valid
    d_pos = (sigmoid(s_pos) - 1.0) * vm / n_valid
    d_neg = sigmoid(s_neg) * vm[..., None] / n_valid
    return loss, d_pos, d_neg


def cooc_rank_order(counts):
    """Target permutation of each list along the last axis: descending
    co-occurrence, ties by ascending index."""
    counts = np.asarray(counts)
    idx = np.broadcast_to(np.arange(counts.shape[-1]), counts.shape)
    return np.lexsort((idx, -counts), axis=-1)


def listmle_loss(scores, counts, valid=None):
    """ListMLE of the co-occurrence ordering under `scores`, for one list or
    a batch of lists along the last axis.

    scores, counts: [..., m]; valid: [..., m] mask of the entries each list
    holds (all when None). Returns (loss summed over the lists, d_scores
    [..., m]); a list with fewer than 2 valid entries contributes 0, and
    entries outside `valid` get zero gradient.

    Per list, with s sorted into the target order, the suffix log-sum-exp
    lse_i = log sum_{l >= i} exp(s_l) gives the loss sum_i (lse_i - s_i) and
    the gradient d/ds_l = exp(s_l) sum_{i <= l} exp(-lse_i) - 1.
    """
    scores = np.asarray(scores, dtype=np.float64)
    valid = np.ones(scores.shape, bool) if valid is None else \
        np.broadcast_to(np.asarray(valid, bool), scores.shape)
    order = cooc_rank_order(counts)
    ok = np.take_along_axis(valid, order, axis=-1)
    # an entry outside `valid` holds -inf in both sums, so it drops out of
    # them wherever the sort puts it
    s = np.where(ok, np.take_along_axis(scores, order, axis=-1), -np.inf)
    lse = np.logaddexp.accumulate(s[..., ::-1], axis=-1)[..., ::-1]
    loss = float(np.sum(np.where(ok, lse, 0.0) - np.where(ok, s, 0.0)))
    prefix = np.logaddexp.accumulate(np.where(ok, -lse, -np.inf), axis=-1)
    grad_sorted = np.where(ok, np.exp(s + prefix) - 1.0, 0.0)
    grad = np.empty_like(scores)
    np.put_along_axis(grad, order, grad_sorted, axis=-1)
    return loss, grad


def total_loss(l_z, l_rank, lambda_r) -> LossReport:
    total = l_z + lambda_r * l_rank
    if not np.isfinite(total):
        raise NumericalError(f"non-finite loss: l_z={l_z}, l_rank={l_rank}")
    return LossReport(l_z=float(l_z), l_rank=float(l_rank), total=float(total),
                      lambda_r=float(lambda_r))
