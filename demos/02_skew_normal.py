"""The multivariate skew-normal behind the attention logits, read off the
attention head that training samples from: the shape -> skew transform,
the marginal skew, the analytic mean (the `mean_shift` mode), and the
covariance, which shows that the kernels set the correlation psi of the
latent Gaussian rather than the correlation of the logits.

Run: python3 demos/02_skew_normal.py
"""

import numpy as np
from scipy import stats

from skewrec import corpus, model, skewnorm
from skewrec.config import TrainConfig

print("delta transform (squashes shape into (-1, 1)):")
for a in (0.0, 1.0, 3.0, 100.0):
    print(f"  delta({a:5.1f}) = {skewnorm.delta(a):.6f}")

# A one-block model over one sequence of co-occurring items; the shape head's
# weights are scaled up so the skew is plain to see.
split = corpus.SplitDataset(
    train=[[1, 2, 3, 4], [1, 2, 4], [2, 3, 4], [1, 3]],
    valid_target=[2, 1, 2, 1], test_target=[3, 4, 3, 2],
    user_ids=[0, 1, 2, 3], n_items=4, max_len=10, item_ids=[1, 2, 3, 4])
cooc = corpus.build_cooc(split)
cfg = TrainConfig(dim=8, blocks=1, heads=1, dropout=0.0, max_len=4, batch_size=1,
                  dtype="float64", k_neg_eval=1)
params = model.init_params(cfg, 4, 4, np.random.default_rng(1))
head = params.blocks[0].heads[0]
head.wq_sh *= 4.0
head.wk_sh *= 4.0

# The same sequence copied R times: each copy draws its own noise, so row
# q = 3 of the copies gives R independent draws of that row's logits.
R = 40_000
items = np.tile([1, 2, 3, 4], (R, 1))
batch = corpus.Batch(item_ids=items, targets=np.zeros_like(items),
                     negatives=np.zeros((R, 4, 1), dtype=np.int64),
                     user_ids=np.zeros(R, dtype=np.int64), pad_mask=items != 0)
feats = model.Featurizer(cooc, cfg.max_len).batch_features(batch, None)


def head_cache(mode, rng=None):
    _, cache = model.forward(params, cfg, batch, feats, mode, rng=rng)
    return cache["block_caches"][0]["head_caches"][0]


drawn = head_cache("stochastic", np.random.default_rng(0))
z = drawn["z"][:, 3]
xi = head_cache("location")["z"][0, 3]
mean = head_cache("mean_shift")["z"][0, 3]
omega, alpha, psi = drawn["omega"][0, 3], drawn["alpha"][0, 3], drawn["psi"][0]
dlt = skewnorm.delta(alpha)

print(f"\nfinal-row logits over the 4 keys, {R} draws:")
print("  key  alpha  omega   mean (draw)  mean_shift   skew (draw)  skew SN(alpha)")
for j in range(4):
    m = dlt[j] * np.sqrt(2 / np.pi)
    gamma1 = (4 - np.pi) / 2 * m ** 3 / (1 - m * m) ** 1.5
    print(f"  {j}  {alpha[j]:6.2f} {omega[j]:6.2f}   {z[:, j].mean():+9.4f}  "
          f"{mean[j]:+9.4f}   {stats.skew(z[:, j]):+9.3f}    {gamma1:+9.3f}")

# Covariance: omega (Delta psi Delta + (1 - 2/pi) delta delta^T) omega with
# Delta = diag(sqrt(1 - delta^2)); omega psi omega holds only when alpha = 0.
root = np.sqrt(1 - dlt * dlt)
law = omega[:, None] * (root[:, None] * psi * root[None, :]
                        + (1 - 2 / np.pi) * np.outer(dlt, dlt)) * omega[None, :]
print("\nempirical covariance of the draw:")
print(np.round(np.cov(z.T), 3))
print("omega (Delta psi Delta + (1 - 2/pi) delta delta^T) omega:")
print(np.round(law, 3))
print("omega psi omega (the alpha = 0 law, not this one):")
print(np.round(psi * np.outer(omega, omega), 3))

# The cache keeps the noise, so a draw can be replayed exactly.
y = drawn["eps"][7, 3] @ drawn["chol"][7].T
replay = xi + omega * (dlt * abs(drawn["y0"][7, 3]) + root * y)
print(f"\nreplayed draw matches: {np.allclose(replay, drawn['z'][7, 3])}")
