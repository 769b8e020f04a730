"""The shape -> skew transform of the attention logits' skew-normal.

`attention._head_forward` draws the logits of attention row q over its
visible keys as

    z = xi + omega * (delta * |y0| + sqrt(1 - delta^2) * y),

with y0 one standard normal shared by the row's keys, y ~ N(0, psi) drawn
through the Cholesky factor of the latent correlation psi, and
delta = alpha / sqrt(1 + alpha^2) per key. This is the additive
construction of Azzalini & Dalla Valle (Biometrika 1996) with lambda = alpha.
With Delta = diag(sqrt(1 - delta^2)) the draw follows

    SN_k(xi, omega Omega_bar omega, alpha_star),
    Omega_bar  = Delta (psi + lambda lambda^T) Delta,
    alpha_star = Delta^{-1} psi^{-1} lambda / sqrt(1 + lambda^T psi^{-1} lambda),

in the density parameterization of Azzalini & Capitanio (JRSS-B 1999), so
psi is the correlation of the latent Gaussian, not of the logits. Its
moments are

    mean       xi + omega * delta * sqrt(2 / pi)   (the `mean_shift` mode),
    covariance omega (Delta psi Delta + (1 - 2/pi) delta delta^T) omega.

Each key's marginal is the univariate SN(xi_j, omega_j, alpha_j), and
alpha = 0 gives N(xi, omega psi omega).
"""

from __future__ import annotations

import numpy as np


def delta(alpha):
    """Elementwise alpha / sqrt(1 + alpha^2); odd, increasing, |delta| < 1.

    Clamped to the largest float below 1 in the working precision so the
    formula's saturation at huge alpha cannot produce exactly +-1. Preserves
    float32/float64 input dtype (non-float input is computed in float64).
    """
    alpha = np.asarray(alpha)
    if alpha.dtype not in (np.float32, np.float64):
        alpha = alpha.astype(np.float64)
    one = alpha.dtype.type(1.0)
    limit = np.nextafter(one, alpha.dtype.type(0.0))
    return np.clip(alpha / np.sqrt(one + alpha * alpha), -limit, limit)
