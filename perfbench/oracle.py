"""Independent check of the files one `countyrt fit` run writes.

Nothing here imports countyrt. The reference re-reads the input CSV,
rebuilds Phi with the CLI's default generation time, and scores every
fitted day with its own negative-binomial log-likelihood. A day fails when

- an independent optimizer (scipy L-BFGS-B with an analytic gradient,
  started from the reported point and from a moment start, inside the
  same +-30 log/logit box the fit uses) beats the reported
  (a_hat, s_hat, p_hat) by more than ``OPTIMALITY_TOL`` log-likelihood
  units, or
- a county posterior mean differs from (a + i) * s / (1 + s * Lambda) by
  more than ``POSTERIOR_RTOL`` relative, or a county row is missing.

The log rising factorial uses a Stirling/log1p form, so the reference stays
accurate on the Poisson ridge up to a = e^30.
"""

from __future__ import annotations

import csv
import datetime
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import optimize, special

# CLI defaults: --gen-time trapezoid:1,3,4,3 (weights on days 1..10) and
# --backdate-days 7.
GEN_TIME_START = 1
GEN_TIME_WEIGHTS = np.array([1, 2, 3, 4, 4, 4, 4, 3, 2, 1], dtype=np.float64) / 28.0
BACKDATE_DAYS = 7
BURN_IN_DAYS = GEN_TIME_START + len(GEN_TIME_WEIGHTS) - 1  # fit_panel's default
BOX = 30.0
OPTIMALITY_TOL = 1e-3
POSTERIOR_RTOL = 1e-9
# At and above this shape the asymptotic series below is accurate to
# about 2e-14; beneath it gammaln(a+i) - gammaln(a) has no cancellation.
_STIRLING_MIN = 10.0


def _lgamma_tail(x):
    """S(x) in lgamma(x) = (x - 1/2) log x - x + log(2 pi)/2 + S(x)."""
    r = 1.0 / (x * x)
    return (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r * (1 / 1680 - r / 1188)))) / x


def _digamma_tail(x):
    """P(x) in digamma(x) = log x - 1/(2x) - P(x)."""
    r = 1.0 / (x * x)
    return r * (1 / 12 - r * (1 / 120 - r * (1 / 252 - r / 240)))


def log_rising_factorial(a, i):
    """lgamma(a + i) - lgamma(a), elementwise, for a > 0 and i >= 0.

    For a >= 10 this is (a - 1/2) log1p(i/a) + i log(a + i) - i plus the
    difference of the Stirling tails, which costs O(1) and keeps its
    accuracy for a up to e^30, where the plain gammaln difference loses
    whole log-likelihood units.
    """
    a, i = np.broadcast_arrays(np.asarray(a, np.float64), np.asarray(i, np.float64))
    out = np.empty(a.shape)
    big = a >= _STIRLING_MIN
    x, n = a[big], i[big]
    out[big] = (
        (x - 0.5) * np.log1p(n / x)
        + n * np.log(x + n)
        - n
        + (_lgamma_tail(x + n) - _lgamma_tail(x))
    )
    small = ~big
    out[small] = special.gammaln(a[small] + i[small]) - special.gammaln(a[small])
    return out


def digamma_difference(a, i):
    """digamma(a + i) - digamma(a), elementwise, in the same two regimes."""
    a, i = np.broadcast_arrays(np.asarray(a, np.float64), np.asarray(i, np.float64))
    out = np.empty(a.shape)
    big = a >= _STIRLING_MIN
    x, n = a[big], i[big]
    out[big] = (
        np.log1p(n / x)
        + n / (2.0 * x * (x + n))
        - (_digamma_tail(x + n) - _digamma_tail(x))
    )
    small = ~big
    out[small] = special.digamma(a[small] + i[small]) - special.digamma(a[small])
    return out


def phi_matrix(counts: np.ndarray) -> np.ndarray:
    """Phi_c(t) = sum_tau I_c(t - tau) w(tau), lags before day 0 dropped."""
    K, T = counts.shape
    phi = np.zeros((K, T))
    for j, wt in enumerate(GEN_TIME_WEIGHTS):
        tau = GEN_TIME_START + j
        if tau < T:
            phi[:, tau:] += counts[:, : T - tau] * wt
    return phi


def transfer(phi: np.ndarray, p: float) -> np.ndarray:
    """Lambda_c: a share p of each region's Phi spread evenly over the others."""
    K = phi.shape[0]
    return (1.0 - p) * phi + p * (phi.sum() - phi) / (K - 1.0)


class DayObjective:
    """Negative day log-likelihood and its gradient in u = (ln a, ln s, logit p)."""

    def __init__(self, counts: np.ndarray, phi: np.ndarray):
        self.counts = np.asarray(counts, np.float64)
        self.phi = np.asarray(phi, np.float64)
        self.log_fact = special.gammaln(self.counts + 1.0)
        K = self.phi.shape[0]
        self.dlam_dp = (self.phi.sum() - self.phi) / (K - 1.0) - self.phi

    def __call__(self, u):
        a, s = math.exp(u[0]), math.exp(u[1])
        p = float(special.expit(u[2]))
        i = self.counts
        lam = transfer(self.phi, p)
        m = s * lam
        log1p_m = np.log1p(m)
        ll = np.sum(
            log_rising_factorial(a, i) - self.log_fact + special.xlogy(i, m) - (i + a) * log1p_m
        )
        dm = np.where(m > 0, i / np.where(m > 0, m, 1.0), 0.0) - (i + a) / (1.0 + m)
        grad = np.array(
            [
                a * float(np.sum(digamma_difference(a, i) - log1p_m)),
                s * float(np.sum(dm * lam)),
                p * (1.0 - p) * s * float(np.sum(dm * self.dlam_dp)),
            ]
        )
        return -float(ll), -grad


def moment_start(counts: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """(ln a, ln s, logit p) from the mean and variance of i_c / Phi_c."""
    mask = phi > 0
    ratios = counts[mask] / phi[mask]
    mean = float(ratios.mean()) if ratios.size else 0.0
    scale = max(float(ratios.var()) / mean, 0.01) if mean > 0 else 0.5
    shape = max(mean / scale, 0.05)
    return np.array([math.log(shape), math.log(scale), math.log(0.1 / 0.9)])


def best_loglik(objective: DayObjective, starts) -> float:
    """Highest log-likelihood L-BFGS-B reaches from any start in the box."""
    best = -math.inf
    for u0 in starts:
        res = optimize.minimize(
            objective,
            np.clip(u0, -BOX, BOX),
            jac=True,
            method="L-BFGS-B",
            bounds=[(-BOX, BOX)] * 3,
            options={"ftol": 1e-15, "gtol": 1e-10, "maxiter": 5000},
        )
        if math.isfinite(res.fun):
            best = max(best, -float(res.fun))
    return best


def read_panel(path) -> tuple:
    """(region ids, first date, counts (K, T)) from a long region_id,date,cases CSV."""
    cells: dict = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            key = (row["region_id"], datetime.date.fromisoformat(row["date"]))
            cells[key] = cells.get(key, 0) + int(row["cases"])
    regions = sorted({r for r, _ in cells})
    first = min(d for _, d in cells)
    n_days = (max(d for _, d in cells) - first).days + 1
    index = {r: k for k, r in enumerate(regions)}
    counts = np.zeros((len(regions), n_days))
    for (region, day), cases in cells.items():
        counts[index[region], (day - first).days] = cases
    return regions, first, counts


@dataclass
class DayFailure:
    date: str
    reason: str
    gap: float | None = None


@dataclass
class CheckResult:
    fitted_days: int = 0
    failures: list = field(default_factory=list)
    errors: list = field(default_factory=list)  # malformed or missing output

    @property
    def failed_days(self) -> int:
        return len({f.date for f in self.failures})


def check_fit(input_csv, output_dir) -> CheckResult:
    """Score every fitted day in ``output_dir`` against ``input_csv``."""
    result = CheckResult()
    output_dir = Path(output_dir)
    regions, first, counts = read_panel(input_csv)
    phi = phi_matrix(counts)
    try:
        with open(output_dir / "country_estimates.csv", newline="", encoding="utf-8") as fh:
            country = list(csv.DictReader(fh))
        with open(output_dir / "county_estimates.csv", newline="", encoding="utf-8") as fh:
            county: dict = {}
            for row in csv.DictReader(fh):
                county.setdefault(row["date"], []).append(row)
        if len(country) != counts.shape[1]:
            result.errors.append(
                f"country_estimates.csv has {len(country)} rows for {counts.shape[1]} days"
            )
        for row in country:
            if row["a_hat"]:
                result.fitted_days += 1
                day_rows = county.get(row["date"], [])
                result.failures += _check_day(row, day_rows, regions, first, counts, phi)
    except (OSError, KeyError, ValueError) as exc:
        result.errors.append(f"unreadable fit output: {exc!r}")
    return result


def _check_day(row, county_rows, regions, first, counts, phi) -> list:
    date = row["date"]
    t = (datetime.date.fromisoformat(date) + datetime.timedelta(days=BACKDATE_DAYS) - first).days
    a, s, p = float(row["a_hat"]), float(row["s_hat"]), float(row["p_hat"])
    if not (BURN_IN_DAYS <= t < counts.shape[1] and a > 0 and s > 0 and 0.0 <= p <= 1.0):
        return [DayFailure(date, "reported day or parameters out of range")]
    failures = []
    i_t, phi_t = counts[:, t], phi[:, t]
    objective = DayObjective(i_t, phi_t)
    u_rep = np.array([math.log(a), math.log(s), float(special.logit(p))])
    reported = -objective(u_rep)[0]
    best = best_loglik(objective, (u_rep, moment_start(i_t, phi_t)))
    gap = best - reported if math.isfinite(reported) else math.inf
    if gap > OPTIMALITY_TOL:
        failures.append(DayFailure(date, "not the optimum", gap))

    index = {r: k for k, r in enumerate(regions)}
    k = np.array([index.get(r["region_id"], -1) for r in county_rows], dtype=np.int64)
    if len(county_rows) != len(regions) or len(set(k.tolist()) - {-1}) != len(regions):
        return failures + [DayFailure(date, "county rows missing")]
    expected = (a + i_t[k]) * s / (1.0 + s * transfer(phi_t, p)[k])
    got = np.array([float(r["post_mean"]) for r in county_rows])
    cases = np.array([float(r["cases"]) for r in county_rows])
    if np.any(cases != i_t[k]) or np.any(np.abs(got - expected) > POSTERIOR_RTOL * expected):
        failures.append(DayFailure(date, "posterior mean off"))
    return failures
