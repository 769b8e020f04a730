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
    """Target permutation: descending co-occurrence, ties by ascending index."""
    counts = np.asarray(counts)
    return np.lexsort((np.arange(counts.shape[0]), -counts))


def listmle_loss(scores, counts):
    """ListMLE of the co-occurrence ordering under `scores`.

    Returns (loss, d_scores). Lists of fewer than 2 entries contribute 0.
    """
    scores = np.asarray(scores, dtype=np.float64)
    m = scores.shape[0]
    if m < 2:
        return 0.0, np.zeros_like(scores)
    order = cooc_rank_order(counts)
    s = scores[order]
    # suffix log-sum-exp: lse[i] = log sum_{l >= i} exp(s_l)
    lse = np.empty(m)
    lse[-1] = s[-1]
    for i in range(m - 2, -1, -1):
        lse[i] = np.logaddexp(s[i], lse[i + 1])
    loss = float(np.sum(lse - s))
    # d/ds_l = sum_{m' <= l} exp(s_l - lse_{m'}) - 1
    expo = np.exp(s[None, :] - lse[:, None])
    lower = np.tril(np.ones((m, m)))
    grad_sorted = (expo * lower.T).sum(axis=0) - 1.0
    grad = np.zeros_like(scores)
    grad[order] = grad_sorted
    return loss, grad


def total_loss(l_z, l_rank, lambda_r) -> LossReport:
    total = l_z + lambda_r * l_rank
    if not np.isfinite(total):
        raise NumericalError(f"non-finite loss: l_z={l_z}, l_rank={l_rank}")
    return LossReport(l_z=float(l_z), l_rank=float(l_rank), total=float(total),
                      lambda_r=float(lambda_r))
