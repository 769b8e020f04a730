"""One stochastic attention head under the microscope: the location scores,
per-key scales, two-hop shape, the sampled logits, and how evaluation modes
differ. Also shows causality and the degenerate limit where the block is
plain scaled-dot attention. Everything is read from `model.collect_trace`
on a one-sequence batch.

Run: python3 demos/04_stochastic_attention.py
"""

import numpy as np
from scipy import sparse

from skewrec import corpus, model
from skewrec.config import TrainConfig

rng = np.random.default_rng(3)

split = corpus.SplitDataset(
    train=[[1, 2, 3, 4, 5], [2, 3, 5], [1, 4, 5], [3, 4]],
    valid_target=[2, 1, 2, 1], test_target=[3, 4, 3, 2],
    user_ids=[0, 1, 2, 3], n_items=5, max_len=10, item_ids=[1, 2, 3, 4, 5])
cooc = corpus.build_cooc(split)

cfg = TrainConfig(dim=8, blocks=1, heads=1, dropout=0.0, max_len=5,
                  batch_size=1, dtype="float64", k_neg_eval=1)
params = model.init_params(cfg, 5, 4, rng)

items = np.array([[1, 2, 3, 4, 5]])
batch = corpus.Batch(item_ids=items, targets=np.zeros_like(items),
                     negatives=np.zeros((1, 5, 1), dtype=np.int64),
                     user_ids=np.array([0]), pad_mask=items != 0)
feats = model.Featurizer(cooc, cfg.max_len).batch_features(batch, None)

_, trace = model.collect_trace(params, cfg, batch, feats, mode="stochastic",
                               rng=np.random.default_rng(7))
t = trace[0][0]  # block 0, head 0

print("location scores xi (deterministic alignment), final row:")
print(np.round(t["xi"][-1], 3))
print("per-key scales omega for the final row (softplus, > 0):")
print(np.round(t["omega"], 3))
print("shape alpha for the final row (two-hop co-occurrence, >= 0):")
print(np.round(t["alpha"], 3))
print("correlation psi shared by every row:")
print(np.round(t["psi"], 3))
print("kernel mixture weights:", np.round(t["mixture_r"], 3))
print("\nsampled logits (upper triangle masked):")
print(np.round(np.where(np.tril(np.ones((5, 5), dtype=bool)), t["logits"], np.nan), 3))
print("attention weights (rows sum to 1 over visible keys):")
print(np.round(t["attn"], 3))
print("row sums:", np.round(t["attn"].sum(axis=1), 6))

# Evaluation modes: location drops the noise, mean_shift adds the skew mean.
for mode in ("location", "mean_shift"):
    _, tr = model.collect_trace(params, cfg, batch, feats, mode=mode)
    print(f"\n{mode}: final attention row {np.round(tr[0][0]['attn'][-1], 3)}")

# Degenerate limit: no co-occurrence (alpha=0) and omega capped near zero
# turns the stochastic draw into the plain deterministic attention.
zero = corpus.CoocStats(np.zeros(6, dtype=np.int64),
                        sparse.csr_matrix((6, 6), dtype=np.int64))
feats0 = model.Featurizer(zero, cfg.max_len).batch_features(batch, None)
cfg_cap = TrainConfig(**{**cfg.to_dict(), "omega_cap": 1e-9})
f_sto, _ = model.forward(params, cfg_cap, batch, feats0, "stochastic",
                         rng=np.random.default_rng(0))
f_loc, _ = model.forward(params, cfg, batch, feats0, "location")
print(f"\ndegenerate limit |stochastic - location|: {np.abs(f_sto - f_loc).max():.2e}")
