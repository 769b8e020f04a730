"""Data pipeline walk-through: raw lines -> sequences -> leave-one-out split
-> co-occurrence statistics -> padded training batches.

Run: python3 demos/01_data_pipeline.py
"""

import tempfile

import numpy as np

from skewrec import corpus

# A tiny interaction log: one "user item" pair per line, chronological per user.
raw = """\
100 7
100 9
100 7
100 3
100 5
200 9
200 7
200 5
200 1
300 3
300 9
300 7
"""
with tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False) as fh:
    fh.write(raw)
    path = fh.name

log = corpus.load_interactions(path)
print(f"loaded {len(log.records)} records, {log.n_users} users, {log.n_items} items")
print(f"  original item ids {log.item_ids} -> dense 1..{log.n_items} (0 = padding)")

seqs, dropped = corpus.build_sequences(log, max_len=50)
print(f"\nper-user sequences (dropped {dropped} short users):")
for s in seqs:
    print(f"  user {s.user_id}: {s.items}")

split = corpus.split_leave_one_out(seqs, log.n_items, 50, log.item_ids, dropped)
print("\nleave-one-out split (last item = test target, second-to-last = validation):")
for u in range(split.n_users):
    print(f"  user {u}: train {split.train[u]}, valid target {split.valid_target[u]}, "
          f"test target {split.test_target[u]}")

cooc = corpus.build_cooc(split)
print("\nco-occurrence over training portions (once per user per unordered pair):")
print("  occurrence counts:", dict(enumerate(cooc.item_count)))
win = cooc.window(np.arange(1, 5))  # pair counts of items 1..4, counts on the diagonal
pairs = [(i, j, int(win[i - 1, j - 1])) for i in range(1, 5) for j in range(i + 1, 5)
         if win[i - 1, j - 1]]
print("  nonzero pairs:", pairs)

print("\none training batch (left-padded, targets shifted by one):")
batch = next(corpus.make_batches(split, batch_size=4, max_len=6, k_neg=1,
                                 rng=np.random.default_rng(0)))
print("  item_ids:\n", batch.item_ids)
print("  targets:\n", batch.targets)
print("  negatives[..., 0]:\n", batch.negatives[..., 0])
