"""Unchecked array formulas of the model, and the per-day negative log-likelihood.

``transfer`` (Lambda) and ``log_nb_terms`` (the NB log-pmf) are the only
copies of those formulas; ``countyrt.model`` checks arguments and calls them.

``day_negloglik`` is evaluated hundreds of times per fitted day inside the
simplex search, so it is the one hot kernel. Most of its work is the NB
coefficient lgamma(a+i) - lgamma(a) - lgamma(i+1). ``nb_coefficient`` is
its only builder: it picks one of two regimes once per set of counts and
folds the count's log-factorial into the log rising factorial.

The rest of what the kernel reads does not depend on (a, s, p):
``DayConstants`` holds it for one day's (counts, Phi). That is the
transfer's sum(Phi) - Phi and the day's NB coefficient as a function of
a. The caller builds the constants once per day and passes them to
every evaluation.

The kernel's domain is every region's mean s * Lambda_c positive, and it
makes no check. The fit keeps it there: a day whose Phi is 0 everywhere
is skipped, and the search's clamp keeps p within [9.4e-14, 1 - 9.4e-14]
and s >= e^-30, so every mean is at least about
8.8e-27 * (smallest positive Phi) / (K - 1). Only a ``--gen-time
weights:`` file with a positive weight below about 1e-290 can make a mean
underflow to 0; the sum is then not finite, and the simplex search treats
it as +inf. ``countyrt.model.negbin_logpmf`` is the checked view, and the
one that defines the mean-0 case.
"""

from __future__ import annotations

import numpy as np
from scipy import special

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


def _large_count_rising(a: float, counts: np.ndarray) -> np.ndarray:
    if a < _STIRLING_A_MIN:
        return special.gammaln(a + counts) - special.gammaln(a)
    x = a + counts
    return (
        (a - 0.5) * np.log1p(counts / a)
        + counts * np.log(x)
        - counts
        + (_stirling_tail(x) - _stirling_tail(a))
    )


def nb_coefficient(counts: np.ndarray):
    """a -> lgamma(a + i) - lgamma(a) - lgamma(i + 1) for each count i, the
    regime chosen once.

    - largest count at most 64: a cumulative log-product table with the
      log-factorial taken off its at most 65 entries before the gather,
      accurate at every shape a and cheapest when the table is short;
    - larger counts: an O(1) form per region, so the cost no longer grows
      with the largest count. For a >= 10 it is Stirling's series written
      with log1p, which stays accurate up to the a ~ e^30 Poisson ridge;
      below that the plain gammaln difference has no cancellation to lose.
    """
    imax = int(counts.max(initial=0.0))
    if imax > _TABLE_I_MAX:
        lf = special.gammaln(counts + 1.0)
        return lambda a: _large_count_rising(a, counts) - lf
    steps = np.arange(-1.0, imax)
    index = counts.astype(np.int64)
    lf = special.gammaln(np.arange(imax + 1.0) + 1.0)

    def table(a):
        # entry i is log(a) + ... + log(a+i-1); the first input is 1, so entry 0 is 0
        x = a + steps
        x[0] = 1.0
        return (np.log(x).cumsum() - lf)[index]

    return table


def _others(phi):
    return phi.sum(axis=-1, keepdims=True) - phi


def transfer(phi, p, others=None):
    """Lambda (see ``countyrt.model.compute_lambda``) over the last axis of phi.

    ``others`` is sum(Phi) - Phi over that axis, computed here when left out.
    """
    K = phi.shape[-1]
    if others is None:
        others = _others(phi)
    return (1.0 - p) * phi + p * others / (K - 1)


def log_nb_terms(a, counts, m, coefficient):
    """log NB(i; a, m) for positive m: the NB coefficient
    lgamma(a + i) - lgamma(a) - lgamma(i + 1) of each count, as
    ``nb_coefficient(counts)(a)`` gives it, and the two mean terms.
    """
    return coefficient + counts * np.log(m / (1.0 + m)) - a * np.log1p(m)


class DayConstants:
    """What ``day_negloglik`` reads of one day's (counts, Phi) that does
    not depend on (a, s, p).

    ``others`` is sum(Phi) - Phi, and ``coefficient`` the function
    a -> lgamma(a + i) - lgamma(a) - lgamma(i + 1) over the counts, from
    ``nb_coefficient``.
    """

    __slots__ = ("others", "coefficient")

    def __init__(self, counts, phi):
        self.others = _others(np.asarray(phi, dtype=np.float64))
        self.coefficient = nb_coefficient(np.asarray(counts, dtype=np.float64))


def day_negloglik(counts, phi, a, s, p, constants):
    """Negative log-likelihood of one day's counts.

    Sums -log NB(I_c; a, s * Lambda_c) over regions, with Lambda the
    transfer redistribution of phi; every mean s * Lambda_c must be
    positive (see the module docstring). ``constants`` is the day's
    ``DayConstants(counts, phi)``, and counts and phi are float64 arrays.
    """
    m = s * transfer(phi, p, constants.others)
    return -float(log_nb_terms(a, counts, m, constants.coefficient(a)).sum())
