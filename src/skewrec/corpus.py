"""Interaction-log ingestion, leave-one-out splits, co-occurrence statistics,
and padded batch streaming with negative sampling.

Raw input is plain text, one "user item" pair per line (whitespace separated
integers), pre-sorted chronologically within each user. Users and items are
densely re-indexed on load; item id 0 is reserved for padding.
"""

from __future__ import annotations

import json
import zipfile
import zlib
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .errors import DataError

DATASET_FORMAT_VERSION = 1
COOC_FORMAT_VERSION = 1


@dataclass
class InteractionLog:
    """Densely re-indexed (user, item) records in chronological order per user."""
    records: list[tuple[int, int, int]]  # (user, item, ordinal)
    user_ids: list[int]                  # dense user u -> original id
    item_ids: list[int]                  # dense item i -> original id, i starting at 1
    user_index: dict[int, int] = field(repr=False, default_factory=dict)
    item_index: dict[int, int] = field(repr=False, default_factory=dict)

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def n_items(self) -> int:
        return len(self.item_ids)


@dataclass
class UserSequence:
    user_id: int
    items: list[int]


@dataclass
class SplitDataset:
    """Leave-one-out split: per user, train items, then the validation target
    (second-to-last item) and the test target (last item)."""
    train: list[list[int]]
    valid_target: list[int]
    test_target: list[int]
    user_ids: list[int]
    n_items: int
    max_len: int
    item_ids: list[int]
    dropped_users: int = 0

    @property
    def n_users(self) -> int:
        return len(self.train)

    def full_sequence(self, u: int) -> list[int]:
        return self.train[u] + [self.valid_target[u], self.test_target[u]]

    def history(self, u: int) -> set[int]:
        return set(self.full_sequence(u))

    def eval_row(self, u: int, split: str) -> tuple[list[int], int]:
        """Input prefix and target for the validation or test split."""
        if split == "valid":
            return list(self.train[u]), self.valid_target[u]
        if split == "test":
            return self.train[u] + [self.valid_target[u]], self.test_target[u]
        raise ValueError(f"unknown split {split!r}")


class CoocStats:
    """Global occurrence counts and per-user-pair co-occurrence counts.

    item_count[i] is the number of occurrences of item i over all training
    sequences. pairs[i, j] counts the users whose training sequence contains
    both i and j (once per user, regardless of how often either item repeats).
    """

    def __init__(self, item_count: np.ndarray, pairs: sparse.csr_matrix):
        self.item_count = item_count          # [n_items + 1], index 0 unused
        self.pairs = pairs                    # symmetric csr, same indexing
        self.pairs.sum_duplicates()           # sorted rows, for `window`'s lookups

    @property
    def n_items(self) -> int:
        return self.item_count.shape[0] - 1

    def window(self, items) -> np.ndarray:
        """Dense co-occurrence windows of one id sequence [n] or a block of
        them [..., n], as [..., n, n].

        Off-diagonal [a, b] holds the pair count of items[a] and items[b];
        the diagonal holds the occurrence count P_i (every consumer of the
        diagonal replaces it, so the stored value is inert). The padding id 0
        gives zero rows and columns: it is in no pair, and its diagonal is
        zeroed. One sparse gather of the block's unique ids' rows serves
        every window; the upper triangle is looked up and mirrored, since the
        pair counts are symmetric.
        """
        idx = np.asarray(items, dtype=np.intp)
        n = idx.shape[-1]
        dense = np.zeros(idx.shape + (n,))
        a, b = np.triu_indices(n, k=1)
        if a.size:
            uniq, inv = np.unique(idx, return_inverse=True)
            rows = self.pairs[uniq]
            # entry (r, j) of the gathered rows as the key r * width + j: the
            # keys ascend (rows in order, sorted columns within a row), so
            # each lookup is one binary search, done once per distinct pair
            width = self.pairs.shape[1]
            starts = np.append(np.arange(uniq.size) * width, np.iinfo(np.int64).max)
            keys = np.repeat(starts, np.append(np.diff(rows.indptr), 1))
            keys[:-1] += rows.indices  # the last key, above every lookup, ends the search
            want, back = np.unique(inv.reshape(idx.shape)[..., a] * width + idx[..., b],
                                   return_inverse=True)
            pos = np.searchsorted(keys, want)
            found = keys[pos] == want
            counts = np.zeros(want.size)
            counts[found] = rows.data[pos[found]]
            upper = counts[back].reshape(idx.shape[:-1] + (a.size,))
            dense[..., a, b] = upper
            dense[..., b, a] = upper
        k = np.arange(n)
        dense[..., k, k] = np.where(idx != 0, self.item_count[idx], 0)
        return dense

    def counting_base(self, items) -> np.ndarray:
        """Normalized counting similarity P_ij^2 / (P_i P_j) for a window
        [n] or a block of windows [..., n]; see `base_from_window`."""
        return self.base_from_window(items, self.window(items))

    def base_from_window(self, items, window) -> np.ndarray:
        """The counting base of `items` from their already gathered window.

        Self-pairs (on the diagonal, and wherever the same item occupies two
        timesteps) take the value 1; pairs involving an item never seen in
        training contribute 0 off the self-pair, and pairs involving a
        padded position contribute 0.
        """
        idx = np.asarray(items, dtype=np.intp)
        counts = self.item_count[idx].astype(np.float64)
        denom = counts[..., :, None] * counts[..., None, :]
        base = np.zeros_like(window)
        np.divide(window * window, denom, out=base, where=denom > 0)
        same = (idx[..., :, None] == idx[..., None, :]) & (idx != 0)[..., None, :]
        base[same] = 1.0
        return base


@dataclass
class Batch:
    item_ids: np.ndarray   # [batch, max_len] int64, left-padded with 0
    targets: np.ndarray    # [batch, max_len] next-item ids, 0 where invalid
    negatives: np.ndarray  # [batch, max_len, k_neg]
    user_ids: np.ndarray   # [batch]
    pad_mask: np.ndarray   # [batch, max_len] bool, True where a real item sits


def load_interactions(path: str, format: str = "user_item_lines") -> InteractionLog:
    """Parse a "user item" lines file and densely re-index users and items."""
    if format != "user_item_lines":
        raise DataError(f"unsupported corpus format {format!r}")
    user_index: dict[int, int] = {}
    item_index: dict[int, int] = {}
    user_ids: list[int] = []
    item_ids: list[int] = []
    records: list[tuple[int, int, int]] = []
    try:
        fh = open(path)
    except OSError as exc:
        raise DataError(f"cannot open corpus file {path}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            parts = stripped.split()
            if len(parts) != 2:
                raise DataError(f"{path}:{lineno}: expected 'user item', got {stripped!r}")
            try:
                raw_u, raw_i = int(parts[0]), int(parts[1])
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-integer fields in {stripped!r}") from None
            if raw_u not in user_index:
                user_index[raw_u] = len(user_ids)
                user_ids.append(raw_u)
            if raw_i not in item_index:
                item_index[raw_i] = len(item_ids) + 1  # 0 reserved for padding
                item_ids.append(raw_i)
            records.append((user_index[raw_u], item_index[raw_i], lineno))
    if not records:
        raise DataError(f"corpus file {path} contains no interactions")
    return InteractionLog(records, user_ids, item_ids, user_index, item_index)


def build_sequences(log: InteractionLog, max_len: int = 50) -> tuple[list[UserSequence], int]:
    """Per-user chronological sequences, capped to the trailing max_len items.

    Users with fewer than 3 actions are dropped (train, validation, and test
    each need one target). Returns the sequences and the dropped-user count.
    """
    if max_len < 3:
        raise DataError(f"max_len must be >= 3, got {max_len}")
    per_user: dict[int, list[int]] = {}
    for u, i, _ in log.records:  # records carry file order, already chronological
        per_user.setdefault(u, []).append(i)
    seqs: list[UserSequence] = []
    dropped = 0
    for u in sorted(per_user):
        items = per_user[u]
        if len(items) < 3:
            dropped += 1
            continue
        seqs.append(UserSequence(u, items[-max_len:]))
    if not seqs:
        raise DataError("no user has the minimum of 3 actions")
    return seqs, dropped


def split_leave_one_out(seqs: list[UserSequence], n_items: int, max_len: int,
                        item_ids: list[int] | None = None,
                        dropped_users: int = 0) -> SplitDataset:
    """Last item per user becomes the test target, second-to-last the
    validation target, the remainder the training sequence."""
    train, valid_t, test_t, users = [], [], [], []
    for s in seqs:
        if len(s.items) < 3:
            raise DataError(f"user {s.user_id}: sequence shorter than 3 after preprocessing")
        train.append(list(s.items[:-2]))
        valid_t.append(s.items[-2])
        test_t.append(s.items[-1])
        users.append(s.user_id)
    return SplitDataset(train, valid_t, test_t, users, n_items, max_len,
                        item_ids if item_ids is not None else list(range(1, n_items + 1)),
                        dropped_users)


def build_cooc(split: SplitDataset) -> CoocStats:
    """Co-occurrence statistics over the training portions only.

    Every unordered pair of distinct items appearing together in one user's
    training sequence increments the pair count by 1 (once per user); the
    per-item count P_i counts every training occurrence.
    """
    if not split.train or all(len(t) == 0 for t in split.train):
        raise DataError("empty training split")
    n = split.n_items
    item_count = np.zeros(n + 1, dtype=np.int64)
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    for items in split.train:
        if not items:
            continue
        arr = np.asarray(items, dtype=np.intp)
        np.add.at(item_count, arr, 1)
        uniq = np.unique(arr)
        if uniq.size >= 2:
            a, b = np.triu_indices(uniq.size, k=1)
            rows.append(uniq[a])
            cols.append(uniq[b])
    if rows:
        i = np.concatenate(rows)
        j = np.concatenate(cols)
        data = np.ones(i.size, dtype=np.int64)
        upper = sparse.coo_matrix((data, (i, j)), shape=(n + 1, n + 1))
        pairs = (upper + upper.T).tocsr()
    else:
        pairs = sparse.csr_matrix((n + 1, n + 1), dtype=np.int64)
    return CoocStats(item_count, pairs)


def sample_negatives(history: set[int], n_items: int, k: int,
                     rng: np.random.Generator) -> list[int]:
    """k distinct items outside the user's history, never the padding id."""
    available = n_items - len(history)
    if available < k:
        raise DataError(f"catalog too small: need {k} negatives, only {available} items free")
    if available <= 2 * k:
        pool = np.array([i for i in range(1, n_items + 1) if i not in history])
        return list(rng.choice(pool, size=k, replace=False))
    picked: list[int] = []
    seen = set(history)
    while len(picked) < k:
        cand = int(rng.integers(1, n_items + 1))
        if cand not in seen:
            picked.append(cand)
            seen.add(cand)
    return picked


def _train_negatives(history: set[int], targets: np.ndarray, n_items: int, k: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Per-position training negatives, [len(targets), k].

    Excludes the full history when possible; on degenerate corpora where the
    history covers (almost) the whole catalog, falls back to excluding just
    the position's target.
    """
    out = np.zeros((targets.shape[0], k), dtype=np.int64)
    fallback = n_items - len(history) < k
    for t, tgt in enumerate(targets):
        if tgt == 0:
            continue
        excluded = {int(tgt)} if fallback else history
        if n_items - len(excluded) < k:
            raise DataError("catalog too small for training negative sampling")
        out[t] = sample_negatives(excluded, n_items, k, rng)
    return out


def make_batches(split: SplitDataset, batch_size: int, max_len: int, k_neg: int,
                 rng: np.random.Generator):
    """Stream shuffled left-padded training batches; deterministic given rng.

    Users whose training sequence has fewer than 2 items yield no
    (input, target) pair and are skipped.
    """
    eligible = [u for u in range(split.n_users) if len(split.train[u]) >= 2]
    if not eligible:
        raise DataError("no user has a trainable sequence (>= 2 training items)")
    order = rng.permutation(len(eligible))
    for start in range(0, len(order), batch_size):
        chunk = [eligible[o] for o in order[start:start + batch_size]]
        b = len(chunk)
        item_ids = np.zeros((b, max_len), dtype=np.int64)
        targets = np.zeros((b, max_len), dtype=np.int64)
        negatives = np.zeros((b, max_len, k_neg), dtype=np.int64)
        users = np.zeros(b, dtype=np.int64)
        for r, u in enumerate(chunk):
            tr = split.train[u]
            inputs = tr[:-1][-max_len:]
            nexts = tr[1:][-max_len:]
            m = len(inputs)
            item_ids[r, max_len - m:] = inputs
            targets[r, max_len - m:] = nexts
            users[r] = u
            negatives[r, max_len - m:] = _train_negatives(
                split.history(u), targets[r, max_len - m:], split.n_items, k_neg, rng)
        yield Batch(item_ids, targets, negatives, users, item_ids != 0)


def save_dataset(split: SplitDataset, path: str) -> None:
    payload = {
        "format_version": DATASET_FORMAT_VERSION,
        "max_len": split.max_len,
        "n_items": split.n_items,
        "item_ids": split.item_ids,
        "user_ids": split.user_ids,
        "train": split.train,
        "valid_target": split.valid_target,
        "test_target": split.test_target,
        "dropped_users": split.dropped_users,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_dataset(path: str) -> SplitDataset:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot load dataset {path}: {exc}") from exc
    version = payload.get("format_version")
    if version != DATASET_FORMAT_VERSION:
        raise DataError(f"dataset {path}: format version {version} != {DATASET_FORMAT_VERSION}")
    return SplitDataset(
        train=[list(map(int, t)) for t in payload["train"]],
        valid_target=list(map(int, payload["valid_target"])),
        test_target=list(map(int, payload["test_target"])),
        user_ids=list(map(int, payload["user_ids"])),
        n_items=int(payload["n_items"]),
        max_len=int(payload["max_len"]),
        item_ids=list(map(int, payload["item_ids"])),
        dropped_users=int(payload.get("dropped_users", 0)),
    )


def save_cooc(cooc: CoocStats, path: str) -> None:
    upper = sparse.triu(cooc.pairs, k=1).tocoo()
    np.savez_compressed(path, format_version=np.int64(COOC_FORMAT_VERSION),
                        item_count=cooc.item_count, pair_i=upper.row.astype(np.int64),
                        pair_j=upper.col.astype(np.int64), pair_count=upper.data.astype(np.int64))


def load_cooc(path: str) -> CoocStats:
    try:
        blob = np.load(path)
        if not isinstance(blob, np.lib.npyio.NpzFile):
            raise DataError(f"cooc {path}: not an .npz archive")
        with blob:
            version = int(blob["format_version"])
            if version != COOC_FORMAT_VERSION:
                raise DataError(f"cooc {path}: format version {version} != {COOC_FORMAT_VERSION}")
            item_count = blob["item_count"]
            pair_i, pair_j, pair_count = blob["pair_i"], blob["pair_j"], blob["pair_count"]
    except (OSError, EOFError, ValueError, TypeError, KeyError, zipfile.BadZipFile,
            zlib.error) as exc:
        raise DataError(f"cannot load cooc stats {path}: {exc}") from exc
    _check_cooc_arrays(path, item_count, pair_i, pair_j, pair_count)
    n = item_count.shape[0]
    upper = sparse.coo_matrix((pair_count, (pair_i, pair_j)), shape=(n, n))
    return CoocStats(item_count, (upper + upper.T).tocsr())


def _check_cooc_arrays(path, item_count, pair_i, pair_j, pair_count) -> None:
    """Integer count vectors of matching lengths, no negative count, pair
    indices that name real items (1..n_items; 0 is the padding id), and no
    pair counted more often than either of its items."""
    arrays = {"item_count": item_count, "pair_i": pair_i, "pair_j": pair_j,
              "pair_count": pair_count}
    for name, arr in arrays.items():
        if arr.ndim != 1 or not np.issubdtype(arr.dtype, np.integer):
            raise DataError(f"cooc {path}: {name} is not a 1-d integer array "
                            f"(shape {arr.shape}, dtype {arr.dtype})")
    if not pair_i.size == pair_j.size == pair_count.size:
        raise DataError(f"cooc {path}: pair arrays differ in length "
                        f"({pair_i.size}, {pair_j.size}, {pair_count.size})")
    for name in ("item_count", "pair_count"):
        if arrays[name].size and arrays[name].min() < 0:
            raise DataError(f"cooc {path}: negative {name}")
    n_items = item_count.size - 1
    for name in ("pair_i", "pair_j"):
        idx = arrays[name]
        if idx.size and (idx.min() < 1 or idx.max() > n_items):
            raise DataError(f"cooc {path}: {name} outside the catalog 1..{n_items}")
    # a user holding both items adds 1 to the pair and at least 1 to each
    # item's count; repeated entries of one pair add up when loaded
    ends = (np.minimum(pair_i, pair_j), np.maximum(pair_i, pair_j))
    pairs = sparse.coo_matrix((pair_count, ends), shape=(n_items + 1,) * 2)
    pairs.sum_duplicates()
    over = pairs.data > np.minimum(item_count[pairs.row], item_count[pairs.col])
    if over.any():
        i, j, c = (int(a[np.argmax(over)]) for a in (pairs.row, pairs.col, pairs.data))
        raise DataError(f"cooc {path}: pair ({i}, {j}) counts {c}, above its items' "
                        f"counts ({item_count[i]}, {item_count[j]})")
