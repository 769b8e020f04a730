"""Seeded MovieLens-1M-shaped interaction corpus, generated in process.

6,040 users and 3,416 items, as MovieLens-1M after the usual filtering.
Item popularity follows a Zipf law. Items are grouped into clusters, and a
user's next item stays in the current cluster with high probability, so
co-occurrence carries signal for the counting kernel and the rank loss.
Per-user lengths follow a shifted log-normal with MovieLens-1M's minimum of
20 actions, so most users fill the L=50 window and a minority are padded.

The program sees only the written `user item` lines.
"""

from __future__ import annotations

import numpy as np

N_USERS = 6040
N_ITEMS = 3416
MAX_LEN = 50
MIN_ACTIONS = 20
N_CLUSTERS = 40
STAY_PROB = 0.8
ZIPF_EXPONENT = 0.8


def generate(seed: int) -> list[str]:
    """`user item` lines, chronological within each user; same seed, same lines."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1911]))
    weight = 1.0 / np.arange(1, N_ITEMS + 1) ** ZIPF_EXPONENT
    cluster_of = rng.integers(0, N_CLUSTERS, size=N_ITEMS)
    cluster_of[:N_CLUSTERS] = np.arange(N_CLUSTERS)  # no cluster is empty
    # items sorted by cluster; cdf[k] = cluster + within-cluster cumulative share
    by_cluster = np.argsort(cluster_of, kind="stable")
    cl_sorted = cluster_of[by_cluster]
    w_sorted = weight[by_cluster]
    cl_total = np.bincount(cl_sorted, weights=w_sorted, minlength=N_CLUSTERS)
    within = np.cumsum(w_sorted)
    first = np.searchsorted(cl_sorted, np.arange(N_CLUSTERS))
    before = np.concatenate(([0.0], within))[first]
    cdf = cl_sorted + (within - before[cl_sorted]) / cl_total[cl_sorted]
    cluster_p = cl_total / cl_total.sum()

    lengths = MIN_ACTIONS + np.floor(
        rng.lognormal(np.log(76.0), 1.1, size=N_USERS)).astype(np.int64)
    lengths = np.minimum(lengths, 2314)
    n = int(lengths.sum())
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    jump = rng.random(n) >= STAY_PROB
    jump[starts] = True
    target = rng.choice(N_CLUSTERS, size=n, p=cluster_p)
    last_jump = np.maximum.accumulate(np.where(jump, np.arange(n), 0))
    cluster = target[last_jump]
    pos = np.searchsorted(cdf, cluster + rng.random(n), side="right")
    end = np.searchsorted(cl_sorted, cluster, side="right") - 1
    rank = by_cluster[np.minimum(pos, end)]
    # any item the walk never reached replaces one random action, so the
    # catalogue always has exactly N_ITEMS items
    missing = np.setdiff1d(np.arange(N_ITEMS), rank)
    if missing.size:
        rank[rng.choice(n, size=missing.size, replace=False)] = missing
    raw_item = rng.permutation(N_ITEMS)[rank] + 1
    raw_user = np.repeat(np.arange(1, N_USERS + 1), lengths)
    return [f"{u} {i}" for u, i in zip(raw_user.tolist(), raw_item.tolist())]


def write(seed: int, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(generate(seed)))
        fh.write("\n")


def summary(log, split, cooc) -> dict:
    """Corpus shape as the program sees it after prepare."""
    actions = len(log.records)
    return {
        "users": split.n_users,
        "items": split.n_items,
        "actions": actions,
        "mean_train_len": float(np.mean([len(t) for t in split.train])),
        "max_train_len": max(len(t) for t in split.train),
        "cooc_nnz": int(cooc.pairs.nnz),
    }


def check_shape(summ: dict) -> list[str]:
    """Failures if the prepared corpus drifted from 6,040 x 3,416 with L=50."""
    out = []
    if summ["users"] != N_USERS:
        out.append(f"corpus has {summ['users']} users, expected {N_USERS}")
    if summ["items"] != N_ITEMS:
        out.append(f"corpus has {summ['items']} items, expected {N_ITEMS}")
    if summ["max_train_len"] != MAX_LEN - 2:
        out.append(f"longest training sequence is {summ['max_train_len']}, "
                   f"expected {MAX_LEN - 2} for L={MAX_LEN}")
    return out
