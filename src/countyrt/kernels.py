"""Unchecked array formulas of the model, and the per-day negative log-likelihood.

``transfer`` (Lambda) and ``log_nb_terms`` (the NB log-pmf) are the only
copies of those formulas; ``countyrt.model`` checks arguments and calls them.

``day_negloglik`` is evaluated hundreds of times per fitted day inside the
simplex search, so it is the one hot kernel. Most of its work is the log
rising factorial lgamma(a+i) - lgamma(a), computed in one of two regimes:

- small counts (largest count at most 64): a cumulative log-product
  table, accurate at every shape a and cheapest when the table is short;
- large counts: an O(1) form per region, so the cost no longer grows
  with the largest count. For a >= 10 it is Stirling's series written
  with log1p, which stays accurate up to the a ~ e^30 Poisson ridge;
  below that the plain gammaln difference has no cancellation to lose.

The other count term, the log-factorial lgamma(i + 1), does not depend
on (a, s, p). It is a per-day constant that the caller computes once per
fitted day and passes in, so the kernel does not recompute it on every
evaluation.

A region whose mean is 0 takes a large finite sentinel log-pmf for a
positive count instead of -inf. Only a direct caller can reach that
branch, with p exactly 0 or 1 and a zero-Phi region: the fit searches in
logit p, which keeps p within [9.4e-14, 1 - 9.4e-14].
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


def transfer(phi, p):
    """Lambda (see ``countyrt.model.compute_lambda``) over the last axis of phi."""
    K = phi.shape[-1]
    return (1.0 - p) * phi + p * (phi.sum(axis=-1, keepdims=True) - phi) / (K - 1)


def log_nb_terms(a, counts, m, log_factorial):
    """log NB(i; a, m) for positive m: the rising factorial, the count's
    log-factorial and the two mean terms."""
    return (
        log_rising_factorial(a, counts)
        - log_factorial
        + counts * np.log(m / (1.0 + m))
        - a * np.log1p(m)
    )


def day_negloglik(counts, phi, a, s, p, log_factorial=None):
    """Negative log-likelihood of one day's counts.

    Sums -log NB(I_c; a, s * Lambda_c) over regions, with Lambda the
    transfer redistribution of phi. A region with mean 0 (p exactly 0 or
    1 and a zero-Phi region) adds 0 for a zero count and
    -LOGPMF_SENTINEL for a positive one.

    ``log_factorial`` is lgamma(counts + 1), a constant of the day that a
    caller evaluating one day many times computes once and passes in;
    when it is left out it is computed here.
    """
    counts = np.asarray(counts, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    if log_factorial is None:
        log_factorial = special.gammaln(counts + 1.0)
    m = s * transfer(phi, p)
    bad = m <= 0.0
    if not bad.any():
        return -float(log_nb_terms(a, counts, m, log_factorial).sum())
    ok = ~bad
    ll = np.where(counts > 0, LOGPMF_SENTINEL, 0.0)
    ll[ok] = log_nb_terms(a, counts[ok], m[ok], log_factorial[ok])
    return -float(ll.sum())
