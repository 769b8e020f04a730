"""Ranking evaluation with sampled negatives: Hit@K, NDCG@K, per-user ranks,
and per-frequency breakdowns of the predicted rank of the target item.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import model
from .config import TrainConfig
from .corpus import Batch, CoocStats, SplitDataset, sample_negatives


@dataclass
class EvalMetrics:
    hit: dict
    ndcg: dict
    per_user_ranks: np.ndarray
    frequency_buckets: dict = field(default_factory=dict)
    n_users: int = 0
    n_candidates: int = 0


def rank_target(scores, target_index: int = 0) -> int:
    """1-based rank of the target among the candidates; ties count against
    the target (pessimistic)."""
    scores = np.asarray(scores)
    target = scores[target_index]
    others = np.delete(scores, target_index)
    return 1 + int(np.sum(others >= target))


def hit_at_k(ranks, k: int) -> float:
    ranks = np.asarray(ranks)
    return float(np.mean(ranks <= k))


def ndcg_at_k(ranks, k: int) -> float:
    ranks = np.asarray(ranks, dtype=np.float64)
    gains = np.where(ranks <= k, 1.0 / np.log2(ranks + 1.0), 0.0)
    return float(np.mean(gains))


def eval_negatives(user: int, history: set, n_items: int, k: int, seed: int):
    """Evaluation negatives, fixed per (user, seed) for run comparability."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, user]))
    return sample_negatives(history, n_items, k, rng)


def _eval_batch(split: SplitDataset, users, which: str, max_len: int):
    b = len(users)
    item_ids = np.zeros((b, max_len), dtype=np.int64)
    user_ids = np.zeros(b, dtype=np.int64)
    targets = np.zeros(b, dtype=np.int64)
    for r, u in enumerate(users):
        prefix, target = split.eval_row(u, which)
        prefix = prefix[-max_len:]
        m = len(prefix)
        item_ids[r, max_len - m:] = prefix
        user_ids[r] = u
        targets[r] = target
    batch = Batch(item_ids=item_ids, targets=np.zeros_like(item_ids),
                  negatives=np.zeros((b, max_len, 1), dtype=np.int64),
                  user_ids=user_ids, pad_mask=item_ids != 0)
    return batch, targets


def evaluate(params, cfg: TrainConfig, split: SplitDataset, cooc: CoocStats,
             which: str = "test", seed: int = 0, ks=(5, 10),
             featurizer: model.Featurizer | None = None) -> EvalMetrics:
    """Rank the held-out target of every user against sampled negatives.

    Deterministic given `seed` (negatives are fixed per user). With
    cfg.full_catalog_eval the candidate set is the whole catalog instead.
    With cfg.eval_mode == "stochastic", scores average cfg.eval_samples
    seeded stochastic forwards.
    """
    feat = featurizer or model.Featurizer(cooc, cfg.max_len)
    users = [u for u in range(split.n_users) if len(split.train[u]) >= 1]
    ranks = np.zeros(len(users), dtype=np.int64)
    target_items = np.zeros(len(users), dtype=np.int64)
    samples = cfg.eval_samples if cfg.eval_mode == "stochastic" else 1
    pos = 0
    for start in range(0, len(users), cfg.batch_size):
        chunk = users[start:start + cfg.batch_size]
        batch, targets = _eval_batch(split, chunk, which, cfg.max_len)
        feats = feat.batch_features(batch, which)
        last = None
        for s in range(samples):
            rng = np.random.default_rng(np.random.SeedSequence([seed, 7, s]))
            h = model.last_hidden(params, cfg, batch, feats, cfg.eval_mode, rng=rng)
            last = h if last is None else last + h
        last = last / samples
        for r, u in enumerate(chunk):
            target = int(targets[r])
            history = split.history(u)
            # degenerate corpora (history covering the catalog) rank over
            # the full catalog instead of failing negative sampling
            full = cfg.full_catalog_eval or split.n_items - len(history) < cfg.k_neg_eval
            if full:
                cands = np.arange(1, split.n_items + 1)
                scores = params.item_emb[cands] @ last[r]
                t_idx = target - 1
            else:
                negs = eval_negatives(u, history, split.n_items,
                                      cfg.k_neg_eval, seed)
                cands = np.array([target] + list(negs))
                scores = params.item_emb[cands] @ last[r]
                t_idx = 0
            ranks[pos] = rank_target(scores, t_idx)
            target_items[pos] = target
            pos += 1
    hit = {k: hit_at_k(ranks, k) for k in ks}
    ndcg = {k: ndcg_at_k(ranks, k) for k in ks}
    buckets = frequency_buckets(ranks, target_items, cooc.item_count)
    n_cand = split.n_items if cfg.full_catalog_eval else cfg.k_neg_eval + 1
    return EvalMetrics(hit=hit, ndcg=ndcg, per_user_ranks=ranks,
                       frequency_buckets=buckets, n_users=len(users),
                       n_candidates=n_cand)


def frequency_buckets(ranks, target_items, item_counts, n_buckets: int = 10) -> dict:
    """Mean predicted rank of the target grouped by the target item's
    training-occurrence decile (low deciles = infrequent items)."""
    ranks = np.asarray(ranks, dtype=np.float64)
    occ = np.asarray(item_counts)[np.asarray(target_items)]
    order = np.argsort(occ, kind="stable")
    out = {}
    chunks = np.array_split(order, n_buckets)
    for b, idx in enumerate(chunks):
        if idx.size:
            out[b] = float(ranks[idx].mean())
    return out


def metrics_payload(metrics: EvalMetrics, dataset: str, mode: str, seed: int) -> dict:
    return {
        "dataset": dataset,
        "mode": mode,
        "seed": seed,
        "hit": {str(k): v for k, v in metrics.hit.items()},
        "ndcg": {str(k): v for k, v in metrics.ndcg.items()},
        "n_users": metrics.n_users,
    }
