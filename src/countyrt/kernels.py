"""The per-day negative log-likelihood, vectorized over regions with numpy.

It is evaluated hundreds of times per fitted day inside the simplex
search, so it is the one hot kernel. Most of its work is the log rising
factorial lgamma(a+i) - lgamma(a), computed in one of two regimes:

- small counts (largest count at most 64): a cumulative log-product
  table, accurate at every shape a and cheapest when the table is short;
- large counts: an O(1) form per region, so the cost no longer grows
  with the largest count. For a >= 10 it is Stirling's series written
  with log1p, which stays accurate up to the a ~ e^30 Poisson ridge;
  below that the plain gammaln difference has no cancellation to lose.

Inside the optimizer, impossible observations (i > 0 with mean 0) use a
large finite sentinel instead of -inf so the simplex stays ordered.
"""

from __future__ import annotations

import numpy as np
from scipy import special

LOGPMF_SENTINEL = -1e100

# Up to this count the rising factorial is read from a log-product table.
_TABLE_I_MAX = 64
# From this shape on the O(1) form uses Stirling's series; its first
# omitted term is below 2e-14 here.
_STIRLING_A_MIN = 10.0
# B_2k / (2k (2k-1)), k = 1..5: lgamma(x) = (x-1/2) log x - x + log(2 pi)/2
# + sum_k c_k x^(1-2k) + O(x^-11).
_STIRLING_COEFFS = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188)


def _stirling_tail(x):
    """The series part of lgamma(x) past (x-1/2) log x - x + log(2 pi)/2."""
    r2 = 1.0 / (x * x)
    acc = _STIRLING_COEFFS[-1]
    for c in _STIRLING_COEFFS[-2::-1]:
        acc = acc * r2 + c
    return acc / x


def log_rising_factorial(a: float, counts: np.ndarray) -> np.ndarray:
    """lgamma(a + i) - lgamma(a) for each non-negative integer i in counts."""
    counts = np.asarray(counts, dtype=np.float64)
    imax = int(counts.max(initial=0.0))
    if imax <= _TABLE_I_MAX:
        # cumulative log-product table: entry i is lgamma(a+i)-lgamma(a)
        table = np.concatenate([[0.0], np.cumsum(np.log(a + np.arange(imax)))])
        return table[counts.astype(np.int64)]
    if a < _STIRLING_A_MIN:
        return special.gammaln(a + counts) - special.gammaln(a)
    x = a + counts
    return (
        (a - 0.5) * np.log1p(counts / a)
        + counts * np.log(x)
        - counts
        + (_stirling_tail(x) - _stirling_tail(a))
    )


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
        ll[ok] = (
            log_rising_factorial(a, io)
            - special.gammaln(io + 1.0)
            + io * np.log(mo / (1.0 + mo))
            - a * np.log1p(mo)
        )
    return -float(ll.sum())
