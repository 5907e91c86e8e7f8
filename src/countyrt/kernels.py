"""The per-day negative log-likelihood, vectorized over regions with numpy.

It is evaluated hundreds of times per fitted day inside the simplex
search, so it is the one hot kernel.

Inside the optimizer, impossible observations (i > 0 with mean 0) use a
large finite sentinel instead of -inf so the simplex stays ordered.
"""

from __future__ import annotations

import numpy as np
from scipy import special

LOGPMF_SENTINEL = -1e100


# Above this shape, lgamma(a+i)-lgamma(a) loses enough precision to swamp
# the optimizer tolerance; switch to an exact log-product.
_LGAMMA_DIFF_A_MAX = 1e4
_LGAMMA_DIFF_I_MAX = 64


def day_negloglik(counts, phi, a, s, p):
    """Negative log-likelihood of one day's counts.

    Sums -log NB(I_c; a, s * Lambda_c) over regions, with Lambda the
    transfer redistribution of phi. Accepts p slightly outside [0, 1]
    (needed for finite-difference Hessians at boundary fits).
    """
    counts = np.asarray(counts, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    K = phi.shape[0]
    lam = (1.0 - p) * phi + p * (phi.sum() - phi) / (K - 1.0)
    m = s * lam
    ll = np.empty(K)
    bad = m <= 0.0
    ll[bad] = np.where(counts[bad] > 0, LOGPMF_SENTINEL, 0.0)
    ok = ~bad
    if np.any(ok):
        mo = m[ok]
        io = counts[ok]
        imax = int(io.max())
        if a > _LGAMMA_DIFF_A_MAX or imax <= _LGAMMA_DIFF_I_MAX:
            # cumulative log-product table: entry i is lgamma(a+i)-lgamma(a)
            table = np.concatenate([[0.0], np.cumsum(np.log(a + np.arange(imax)))])
            rising = table[io.astype(np.int64)]
        else:
            rising = special.gammaln(a + io) - special.gammaln(a)
        ll[ok] = (
            rising
            - special.gammaln(io + 1.0)
            + io * np.log(mo / (1.0 + mo))
            - a * np.log1p(mo)
        )
    return -float(ll.sum())
