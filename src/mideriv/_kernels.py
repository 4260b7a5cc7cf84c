"""Numeric inner loops over the quadrature grid, in an atom-major layout.

Shared argument layout, for A atoms on a P-point grid:
    probs, logp : (A,)   atom masses and their logs
    M           : (A, A) cross terms sum_i l_i x_ai x_bi
    G           : (A, P) atom-grid terms sum_i sqrt(l_i) x_bi z_i
    c           : (A,)   half self-energies sum_i l_i x_bi**2 / 2
    W           : (P,)   product quadrature weights
so logp[b] + M[a, b] + G[b, g] - c[b] is the log posterior weight of
atom b at grid point g of the mixture component a, up to normalization.

Every max, exp and sum over atoms runs elementwise along the contiguous
grid axis, one (A, P) buffer per mixture component.  Components are
accumulated in atom order and grid points in lexicographic order, so
results are bit-stable run to run.
"""
from __future__ import annotations

import numpy as np

# exp underflows to 0 below roughly -745; a max-posterior term below the
# floor means every weight at that grid point is indistinguishable from 0
LOG_FLOOR = -745.0


def _log_posterior(logp, Mrow, G, c):
    """Unnormalized (A, P) log posterior of one mixture component."""
    row = (logp + Mrow)[:, None] + G
    row -= c[:, None]
    return row


def mi_accumulate(probs, logp, M, G, c, W):
    """Mixture average of log-likelihood-ratio terms.

    Returns (value, underflow_flag); the flag is True when some grid
    point had every posterior term below the log floor.
    """
    total = 0.0
    under = False
    for a in range(probs.shape[0]):
        row = _log_posterior(logp, M[a], G, c)
        own = M[a, a] + G[a] - c[a]
        mx = row.max(axis=0)
        under = under or bool(mx.min() < LOG_FLOOR)
        row -= mx
        np.exp(row, out=row)
        lse = mx + np.log(row.sum(axis=0))
        total += probs[a] * float(W @ (own - lse))
    return total, under


def posterior_weights(logp, Mrow, G, c):
    """Normalized posterior atom weights at every grid point.

    Returns ((A, P) weights, underflow_flag) for the mixture component
    whose cross-term row is Mrow.
    """
    w = _log_posterior(logp, Mrow, G, c)
    mx = w.max(axis=0)
    under = bool(mx.min() < LOG_FLOOR)
    w -= mx
    np.exp(w, out=w)
    w /= w.sum(axis=0)
    return w, under
