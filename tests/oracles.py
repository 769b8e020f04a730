"""Term-by-term reference implementations of the paper's kernel formulas.

The package computes every kernel as a batched Gram matrix over whole
windows. These scalar versions follow the paper one pair at a time, with the
omega_i * omega_j scale factors written out, and exist only for the tests to
compare the batched code against.
"""

import numpy as np

KERNEL_ORDER = ("C", "I", "U")


def counting_kernel(i, j, cooc, omega_i=1.0, omega_j=1.0):
    """omega_i * omega_j * P_ij^2 / (P_i P_j); 1 * scales on self-pairs."""
    if i == j:
        return omega_i * omega_j
    pi = cooc.item_count[i]
    pj = cooc.item_count[j]
    if pi == 0 or pj == 0:
        return 0.0
    pij = cooc.pair(i, j)
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
