"""Term-by-term reference implementations of the paper's kernel formulas,
of the featurizer, of the training step's numeric kernels and of the
skew-normal law of the attention logits.

The package computes every kernel as a batched Gram matrix over whole
windows, and featurizes a whole batch of windows at once. These versions
follow the paper one pair, one window or one prefix at a time, with the
omega_i * omega_j scale factors written out. Then come the plain forms of
the softplus, the noise and Cholesky gradients and the ListMLE loss that
the package computes in faster ways, and the density that the attention
head's draw follows, which the package never evaluates. All exist only for
the tests to compare the production code against.
"""

import numpy as np
from scipy.special import ndtr

KERNEL_ORDER = ("C", "I", "U")


def pair_count(cooc, i, j):
    """Number of users whose training sequence holds both items i and j."""
    return int(cooc.pairs[i, j])


def counting_kernel(i, j, cooc, omega_i=1.0, omega_j=1.0):
    """omega_i * omega_j * P_ij^2 / (P_i P_j); 1 * scales on self-pairs."""
    if i == j:
        return omega_i * omega_j
    pi = cooc.item_count[i]
    pj = cooc.item_count[j]
    if pi == 0 or pj == 0:
        return 0.0
    pij = pair_count(cooc, i, j)
    return omega_i * omega_j * (pij * pij) / (pi * pj)


def item_kernel(x_i, x_j, omega_i=1.0, omega_j=1.0, variant="linear"):
    """Similarity of two unit-norm representations, scaled by omega_i*omega_j."""
    if variant == "linear":
        return omega_i * omega_j * float(np.dot(x_i, x_j))
    if variant == "rbf":
        return omega_i * omega_j * float(np.exp(-np.sum((x_i - x_j) ** 2)))
    raise ValueError(f"unknown item kernel variant {variant!r}")


def user_kernel(x_i, x_j, u_s, w_user_mod, omega_i=1.0, omega_j=1.0):
    """Linear kernel on representations modulated by w = W u_s (Hadamard)."""
    w = w_user_mod @ u_s
    return omega_i * omega_j * float(np.dot(w * x_i, w * x_j))


def mixture_weights(u_s, w_mix, b_mix, active):
    """Softmax over the active kernels of u_s . w_mix[:, k] + b_mix[k]."""
    logits = {k: float(u_s @ w_mix[:, KERNEL_ORDER.index(k)]) + b_mix[KERNEL_ORDER.index(k)]
              for k in active}
    top = max(logits.values())
    ex = {k: np.exp(v - top) for k, v in logits.items()}
    total = sum(ex.values())
    return {k: ex[k] / total for k in active}


def window_correlation(items, x, u_s, w_user_mod, w_mix, b_mix, cooc, active,
                       variant="linear", jitter=1e-5, omega=None):
    """Correlation matrix of one sequence window, one entry at a time.

    items: the window's item ids; x: [n, d] raw representations (normalized
    here); omega: per-key scales, which the normalization must cancel.
    Mixes the scalar kernels, divides by the square root of the diagonal
    pair, clamps into (-(1 - jitter), 1 - jitter), divides by 1 + jitter and
    sets the diagonal to 1.
    """
    x, u_s, w_user_mod, w_mix, b_mix = (np.asarray(a, dtype=np.float64) for a in
                                         (x, u_s, w_user_mod, w_mix, b_mix))
    n = len(items)
    omega = np.ones(n) if omega is None else np.asarray(omega, dtype=np.float64)
    xhat = [x[a] / np.linalg.norm(x[a]) for a in range(n)]
    r = mixture_weights(u_s, w_mix, b_mix, active)
    gram = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            oa, ob = omega[a], omega[b]
            terms = {
                "C": lambda: counting_kernel(items[a], items[b], cooc, oa, ob),
                "I": lambda: item_kernel(xhat[a], xhat[b], oa, ob, variant),
                "U": lambda: user_kernel(xhat[a], xhat[b], u_s, w_user_mod, oa, ob),
            }
            gram[a, b] = sum(r[k] * terms[k]() for k in active)
    bound = 1.0 - jitter
    psi = np.eye(n)
    for a in range(n):
        for b in range(n):
            if a != b:
                corr = gram[a, b] / np.sqrt(gram[a, a] * gram[b, b])
                psi[a, b] = min(max(corr, -bound), bound) / (1.0 + jitter)
    return psi


def alpha_hat_oracle(c):
    """Two-hop alignment of every position of a window with its last one,
    term by term: the diagonal is replaced row-wise by the mean of the other
    entries, then row j is dotted with the final column."""
    c = np.asarray(c, dtype=np.float64)
    n = c.shape[0]
    mod = c.copy()
    for k in range(n):
        mod[k, k] = (c[k].sum() - c[k, k]) / (n - 1)
    out = np.zeros(n)
    for j in range(n):
        for k in range(n):
            out[j] += mod[j, k] * mod[k, n - 1]
    return out


def cooc_window(items, cooc):
    """Dense co-occurrence window of one sequence from its own sparse gather;
    the diagonal holds the occurrence counts."""
    idx = np.asarray(items, dtype=np.intp)
    dense = np.asarray(cooc.pairs[idx][:, idx].todense(), dtype=np.float64)
    np.fill_diagonal(dense, cooc.item_count[idx])
    return dense


def counting_base(items, cooc):
    """P_ij^2 / (P_i P_j) over one window; 1 on self-pairs, 0 for unseen items."""
    idx = np.asarray(items, dtype=np.intp)
    counts = cooc.item_count[idx].astype(np.float64)
    pij = np.asarray(cooc.pairs[idx][:, idx].todense(), dtype=np.float64)
    denom = np.outer(counts, counts)
    base = np.zeros_like(pij)
    np.divide(pij * pij, denom, out=base, where=denom > 0)
    base[idx[:, None] == idx[None, :]] = 1.0
    return base


def row_features(items, cooc):
    """(counting base, last co-occurrence row, alignments, alignment row
    maxima) of one unpadded window: one gather per window and one alignment
    per prefix, row q holding the alignment over the prefix ending at q."""
    m = len(items)
    cw = cooc_window(items, cooc)
    ah = np.zeros((m, m))
    for q in range(1, m):
        ah[q, :q + 1] = alpha_hat_oracle(cw[:q + 1, :q + 1])
    return counting_base(items, cooc), cw[-1].copy(), ah, ah.max(axis=1)


def softplus(x):
    """log(1 + exp(x)) as numpy's two-argument log-sum-exp."""
    return np.logaddexp(0.0, x)


def noise_chol_grad(d_y, eps):
    """Gradient of the correlated noise y = eps @ L^T with respect to the
    lower-triangular L: sum over rows q of d_y[q, j] eps[q, k]."""
    return np.tril(np.einsum("bqj,bqk->bjk", d_y, eps))


def cholesky_backward(chol, d_chol):
    """dA = sym(L^{-T} P L^{-1}) for A = L L^T, with P the lower triangle of
    L^T dL with halved diagonal, through two general linear solves."""
    lt = np.swapaxes(chol, -1, -2)
    p = np.tril(lt @ d_chol)
    idx = np.arange(chol.shape[-1])
    p[..., idx, idx] *= 0.5
    w = np.linalg.solve(lt, p)            # L^{-T} P
    g = np.swapaxes(np.linalg.solve(lt, np.swapaxes(w, -1, -2)), -1, -2)  # W L^{-1}
    return 0.5 * (g + np.swapaxes(g, -1, -2))


def listmle_loss(scores, counts):
    """ListMLE of one list, position by position: target order by descending
    count, ties by index; the suffix log-sum-exp built by a loop and the
    gradient summed over an m x m matrix. Lists under 2 entries give 0."""
    scores = np.asarray(scores, dtype=np.float64)
    m = scores.shape[0]
    if m < 2:
        return 0.0, np.zeros_like(scores)
    order = np.lexsort((np.arange(m), -np.asarray(counts)))
    s = scores[order]
    lse = np.empty(m)
    lse[-1] = s[-1]
    for i in range(m - 2, -1, -1):
        lse[i] = np.logaddexp(s[i], lse[i + 1])
    loss = float(np.sum(lse - s))
    # d/ds_l = sum_{i <= l} exp(s_l - lse_i) - 1
    expo = np.exp(s[None, :] - lse[:, None])
    grad_sorted = (expo * np.tril(np.ones((m, m))).T).sum(axis=0) - 1.0
    grad = np.zeros_like(scores)
    grad[order] = grad_sorted
    return loss, grad


def msn_density(x, xi, omega, corr, alpha):
    """SN_k density 2 phi_k(x; xi, omega corr omega) Phi(alpha^T omega^{-1} (x - xi))
    (Azzalini & Capitanio, JRSS-B 1999) at one point x."""
    x, xi, omega, corr, alpha = (np.asarray(a, dtype=np.float64)
                                 for a in (x, xi, omega, corr, alpha))
    n = xi.shape[0]
    chol = np.linalg.cholesky(corr * np.outer(omega, omega))
    diff = x - xi
    white = np.linalg.solve(chol, diff)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    log_phi = -0.5 * (n * np.log(2.0 * np.pi) + logdet + white @ white)
    return float(2.0 * np.exp(log_phi) * ndtr(alpha @ (diff / omega)))


def adv_params(psi, alpha):
    """(corr_bar, alpha_star) of the draw delta |y0| + sqrt(1 - delta^2) y with
    y ~ N(0, psi) and delta = alpha / sqrt(1 + alpha^2) (Azzalini & Dalla Valle,
    Biometrika 1996, with lambda = alpha): its law is SN_k(0, corr_bar,
    alpha_star) in `msn_density`'s parameterization."""
    psi = np.asarray(psi, dtype=np.float64)
    lam = np.asarray(alpha, dtype=np.float64)
    root = 1.0 / np.sqrt(1.0 + lam * lam)  # sqrt(1 - delta^2)
    corr_bar = root[:, None] * (psi + np.outer(lam, lam)) * root[None, :]
    psi_inv_lam = np.linalg.solve(psi, lam)
    alpha_star = psi_inv_lam / root / np.sqrt(1.0 + lam @ psi_inv_lam)
    return corr_bar, alpha_star
