"""Relation kernels and the learned correlation matrix: counting, item, and
user kernels, their softmax mixture, and the normalization/jitter pipeline
that makes the result a usable correlation matrix. Every kernel is a
batched Gram matrix over a whole window.

Run: python3 demos/03_relation_kernels.py
"""

import numpy as np

from skewrec import corpus, kernels
from skewrec.nnops import bilinear_scores, l2_normalize, softplus

rng = np.random.default_rng(1)

# Counting kernel from explicit statistics: P_12 = 2, P_1 = 4, P_2 = 2.
split = corpus.SplitDataset(
    train=[[1, 2, 3], [1, 2], [1, 3], [1, 4]], valid_target=[2, 3, 2, 2],
    test_target=[3, 4, 4, 3], user_ids=[0, 1, 2, 3], n_items=4, max_len=10,
    item_ids=[1, 2, 3, 4])
cooc = corpus.build_cooc(split)
items = [1, 2, 3, 4]
base = cooc.counting_base(items)
print("counting kernel k_c(i,j) = w_i w_j P_ij^2 / (P_i P_j):")
print(f"  P_1={cooc.item_count[1]}, P_2={cooc.item_count[2]}, "
      f"P_12={cooc.window([1, 2])[0, 1]:.0f}  ->  k_c(1,2) = {base[0, 1]:.4f}")
print(f"  self-pair k_c(1,1) with w=2: {base[0, 0] * 2 * 2:.1f}")
print("  base over the window [1, 2, 3, 4]:")
print(np.round(base, 4))

# Item kernel on unit-normalized representations.
x = rng.normal(size=(4, 6))
xhat, _ = l2_normalize(x)
print("\nitem kernel on normalized vectors:")
print(f"  linear(x0, x1) = {kernels.item_gram(xhat, 'linear')[0, 1]:+.4f} (cosine)")
print(f"  rbf(x0, x1)    = {kernels.item_gram(xhat, 'rbf')[0, 1]:.4f}")

# User kernel: the user embedding modulates which coordinates matter.
u = rng.normal(size=6)
w_mod = rng.normal(size=(6, 6))
user, _ = kernels.user_gram(xhat, w_mod @ u)
print(f"  user(x0, x1)   = {user[0, 1]:+.4f}")

# Learned mixture weights: a per-user softmax over the active kernels.
w_mix, b_mix = rng.normal(size=(6, 3)), np.zeros(3)
r = kernels.mixture(u, w_mix, b_mix)
print(f"\nmixture weights (counting, item, user): {np.round(r, 3)}, sum {r.sum():.3f}")

# Full correlation construction for one window. The per-key scales omega
# multiply every kernel by omega_i * omega_j; the normalization divides them
# back out, so the mixture is built on the cancelled form.
psi_tilde = r[0] * base + r[1] * kernels.item_gram(xhat, "linear") + r[2] * user
psi, _ = kernels.normalize_correlation(psi_tilde, jitter=1e-5)
print("\ncorrelation matrix psi (unit diagonal, clamped, jittered):")
print(np.round(psi, 3))
print("eigenvalues:", np.round(np.linalg.eigvalsh(psi), 5))
print("Cholesky factorizes:", np.linalg.cholesky(psi) is not None)

om_logits, _ = bilinear_scores(x, rng.normal(size=(6, 6)), rng.normal(size=(6, 6)))
omega = softplus(om_logits[3])
scaled, _ = kernels.normalize_correlation(psi_tilde * np.outer(omega, omega), 1e-5)
print("per-key scales omega of the last row (softplus, always positive):",
      np.round(omega, 3))
print(f"omega cancels: |psi(scaled) - psi| = {np.abs(scaled - psi).max():.1e}")
