"""Core types and pure math for the county-level renewal model.

The model: on day t, region c reports a Poisson number of new cases whose
mean is R_c(t) times the transfer-adjusted active cases Lambda_c(t), where
R_c(t) is Gamma(a, s) distributed across regions. Marginally the counts are
negative binomial; the Gamma prior is conjugate, so per-region posteriors
are available in closed form.

The public functions here check their arguments. Lambda and the NB term are
written once, in ``countyrt.kernels``; the posterior once, in the array
functions ``gamma_posterior`` and ``gamma_quantiles``, whose scalar views are
``posterior`` and ``gamma_quantile``.
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import kernels


@dataclass(frozen=True)
class GenerationTimePmf:
    """Discrete generation-time distribution w(tau) on integer days.

    ``weights[j]`` is the probability that a secondary infection occurs
    ``support_start + j`` days after the primary's own infection.
    """

    support_start: int
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        if int(self.support_start) != self.support_start or self.support_start < 1:
            raise ValueError("support_start must be an integer >= 1")
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty 1-d array")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 within 1e-12")

    @property
    def support_end(self) -> int:
        """Largest lag (in days) with positive support."""
        return self.support_start + len(self.weights) - 1

    @property
    def days(self) -> np.ndarray:
        return np.arange(self.support_start, self.support_end + 1)

    @property
    def mean(self) -> float:
        return float(np.dot(self.days, self.weights))


def trapezoid_pmf(
    support_start: int, ramp_up_len: int, plateau_len: int, ramp_down_len: int
) -> GenerationTimePmf:
    """Trapezoidal generation-time pmf.

    Weights rise linearly over the ramp-up, sit flat over the plateau, and
    fall linearly (mirroring the ramp-up construction) over the ramp-down,
    then are normalized to sum to 1. ``trapezoid_pmf(1, 3, 4, 3)`` gives
    weights proportional to 1,2,3,4,4,4,4,3,2,1 on days 1-10 (mean 5.5).
    """
    for name, val in (
        ("ramp_up_len", ramp_up_len),
        ("plateau_len", plateau_len),
        ("ramp_down_len", ramp_down_len),
    ):
        if val < 1:
            raise ValueError(f"{name} must be >= 1, got {val}")
    up = np.arange(1, ramp_up_len + 1) / (ramp_up_len + 1)
    flat = np.ones(plateau_len)
    down = np.arange(ramp_down_len, 0, -1) / (ramp_down_len + 1)
    w = np.concatenate([up, flat, down])
    return GenerationTimePmf(support_start, w / w.sum())


@dataclass(frozen=True)
class IncidencePanel:
    """K regions x T days of nonnegative integer case counts."""

    region_ids: tuple
    dates: tuple
    counts: np.ndarray  # shape (K, T), int64

    def __post_init__(self):
        ids = tuple(str(r) for r in self.region_ids)
        dates = tuple(self.dates)
        counts = np.asarray(self.counts)
        if not np.issubdtype(counts.dtype, np.integer):
            if not np.all(counts == np.floor(counts)):
                raise ValueError("counts must be integers")
            counts = counts.astype(np.int64)
        else:
            counts = counts.astype(np.int64)
        counts.flags.writeable = False
        object.__setattr__(self, "region_ids", ids)
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "counts", counts)
        if len(set(ids)) != len(ids):
            raise ValueError("region_ids must be unique")
        if len(ids) < 1:
            raise ValueError("need at least one region")
        if counts.shape != (len(ids), len(dates)):
            raise ValueError(
                f"counts shape {counts.shape} does not match "
                f"{len(ids)} regions x {len(dates)} dates"
            )
        if np.any(counts < 0):
            raise ValueError("counts must be nonnegative")
        for d0, d1 in zip(dates, dates[1:]):
            if (d1 - d0) != datetime.timedelta(days=1):
                raise ValueError("dates must be consecutive calendar days")

    @property
    def n_regions(self) -> int:
        return len(self.region_ids)

    @property
    def n_days(self) -> int:
        return len(self.dates)


def _convolve(counts: np.ndarray, w: GenerationTimePmf) -> np.ndarray:
    """Phi(t) = sum_tau counts(t - tau) w(tau) for each row of a (rows, T) array.

    Lags reaching before the first column contribute zero.
    """
    rows, T = counts.shape
    phi = np.zeros((rows, T))
    for tau, wt in zip(w.days, w.weights):
        if tau < T:
            phi[:, tau:] += counts[:, : T - tau] * wt
    return phi


def _check_day(panel: IncidencePanel, t: int) -> None:
    if t < 0 or t >= panel.n_days:
        raise IndexError(f"day index {t} outside panel of {panel.n_days} days")


def compute_phi(panel: IncidencePanel, w: GenerationTimePmf, t: int) -> np.ndarray:
    """Expected active cases Phi_c(t) = sum_tau I_c(t - tau) w(tau).

    Lags reaching before the start of the panel contribute zero.
    """
    _check_day(panel, t)
    start = max(0, t - w.support_end)
    return _convolve(panel.counts[:, start : t + 1], w)[:, -1]


def phi_matrix(panel: IncidencePanel, w: GenerationTimePmf) -> np.ndarray:
    """Phi_c(t) for every day of the panel at once, shape (K, T)."""
    return _convolve(panel.counts, w)


def compute_lambda(phi: np.ndarray, p) -> np.ndarray:
    """Transfer-adjusted active cases, over the last axis of phi.

    Lambda_c = (1-p) Phi_c + p/(K-1) * sum_{c' != c} Phi_{c'}. A fraction p
    of each region's active cases is redistributed equally among the other
    regions; total mass is preserved. p may be an array that broadcasts
    against the leading axes of phi, one fraction per row.
    """
    phi = np.asarray(phi, dtype=np.float64)
    if phi.shape[-1] < 2:
        raise ValueError("transfer redistribution requires at least 2 regions")
    if not np.all((0 <= p) & (p <= 1)):
        raise ValueError(f"transfer fraction must be in [0, 1], got {p}")
    return kernels.transfer(phi, p)


def naive_series(panel: IncidencePanel, w: GenerationTimePmf) -> tuple:
    """Country-level ratio estimator I(t) / Phi(t) for every day.

    The panel is summed over regions first. Returns the country counts
    I(t), their Phi(t) and the ratios, with None where Phi(t) = 0.
    """
    country = panel.counts.sum(axis=0, keepdims=True)
    phi = _convolve(country, w)[0]
    r_hat = [None if f == 0.0 else float(i) / f for i, f in zip(country[0], phi)]
    return country[0], phi, r_hat


def naive_r_hat(panel: IncidencePanel, w: GenerationTimePmf, t: int):
    """Day t of ``naive_series``: I(t) / Phi(t), or None when Phi(t) = 0."""
    _check_day(panel, t)
    return naive_series(panel, w)[2][t]


def negbin_logpmf(i: int, a: float, m: float) -> float:
    """Log-pmf of the Gamma-Poisson mixture count with shape a and mean a*m.

    m is the scaled Poisson divisor s * Lambda_c. For m = 0 the count is
    almost surely 0: returns 0.0 for i = 0 and -inf otherwise.
    """
    if i < 0 or int(i) != i:
        raise ValueError(f"count must be a nonnegative integer, got {i}")
    if a <= 0:
        raise ValueError(f"shape must be positive, got {a}")
    if m < 0:
        raise ValueError(f"mean parameter must be nonnegative, got {m}")
    if m == 0.0:
        return 0.0 if i == 0 else -math.inf
    return float(kernels.log_nb_terms(a, float(i), m, special.gammaln(i + 1.0)))


@dataclass(frozen=True)
class GammaPosterior:
    """Gamma(shape, scale) distribution of a region's reproduction number."""

    shape: float
    scale: float

    def __post_init__(self):
        if self.shape <= 0 or self.scale <= 0:
            raise ValueError("shape and scale must be positive")

    @property
    def mean(self) -> float:
        return self.shape * self.scale

    @property
    def variance(self) -> float:
        return self.shape * self.scale**2

    def cdf(self, x: float) -> float:
        if x <= 0:
            return 0.0
        return float(special.gammainc(self.shape, x / self.scale))


def gamma_posterior(a, s, lambda_c, cases) -> tuple:
    """Conjugate Gamma posterior of R_c given its count, elementwise.

    Prior Gamma(a, s) and a Poisson count with divisor lambda_c give the
    posterior Gamma(a + cases, s / (1 + s * lambda_c)). The arguments
    broadcast against each other; returns the (shape, scale) pair.
    """
    if not (np.all(a > 0) and np.all(s > 0)):
        raise ValueError("prior shape and scale must be positive")
    if not np.all(lambda_c >= 0):
        raise ValueError("lambda must be nonnegative")
    if not np.all((cases >= 0) & (np.floor(cases) == cases)):
        raise ValueError("count must be a nonnegative integer")
    return a + cases, s / (1.0 + s * lambda_c)


def gamma_quantiles(shape, scale, probs) -> np.ndarray:
    """Inverse CDF of Gamma(shape, scale) at each of probs, on a new last axis."""
    probs = np.asarray(probs, dtype=np.float64)
    if not np.all((0 < probs) & (probs < 1)):
        raise ValueError(f"quantile probabilities must lie in (0, 1), got {probs.tolist()}")
    return special.gammaincinv(np.asarray(shape)[..., None], probs) * np.asarray(scale)[..., None]


def posterior(a: float, s: float, lambda_c: float, i_c: int) -> GammaPosterior:
    """The scalar view of ``gamma_posterior``, as a GammaPosterior."""
    return GammaPosterior(*map(float, gamma_posterior(a, s, lambda_c, i_c)))


def gamma_quantile(post: GammaPosterior, q: float) -> float:
    """The scalar view of ``gamma_quantiles``: the q-quantile of post."""
    return float(gamma_quantiles(post.shape, post.scale, [q])[0])
