"""Spatial branching-process simulator on a flat torus.

The torus [0, k)^2 is tiled into k^2 unit-square counties. Every infected
individual of infection age tau spawns Pois(R(t) * w(tau)) offspring per
day, displaced by an isotropic Gaussian and wrapped around the torus.
County-aggregated incidence feeds the estimator; the R schedule is the
ground truth for scoring.

Reproducibility contract: a single PCG64 stream seeded from the config,
with a fixed draw order (seed ages, seed positions, then per day:
optional per-county R draws, offspring counts for active individuals in
creation order, then all displacements). Identical configs give
bit-identical results.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field

import numpy as np

from .model import GenerationTimePmf, IncidencePanel, trapezoid_pmf

DEFAULT_SCHEDULE = ((20, 2.5), (40, 0.7), (40, 1.2))


def default_generation_time() -> GenerationTimePmf:
    """Trapezoid on days 1-10, mean 5.5 days."""
    return trapezoid_pmf(1, 3, 4, 3)


@dataclass
class SimConfig:
    k: int = 20
    sigma: float = 0.14
    schedule: tuple = DEFAULT_SCHEDULE
    initial_cases: int = 400
    w: GenerationTimePmf = field(default_factory=default_generation_time)
    seed: int = 0
    start_date: datetime.date = datetime.date(2020, 3, 1)  # model day 0
    county_r_scale: float | None = None  # Gamma scale for per-county R draws

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if not 0 < self.sigma < np.inf:
            raise ValueError("sigma must be positive and finite")
        if self.initial_cases < 1:
            raise ValueError("initial_cases must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not self.schedule:
            raise ValueError("schedule must be non-empty")
        for dur, r in self.schedule:
            if dur < 1:
                raise ValueError("schedule durations must be >= 1")
            if not 0 <= r < np.inf:
                raise ValueError("schedule R values must be >= 0 and finite")
        if self.county_r_scale is not None and not 0 < self.county_r_scale < np.inf:
            raise ValueError("county_r_scale must be positive and finite")
        # offsets of the first burn-in date and the last simulated date
        first, last = 1 - self.w.support_end, sum(dur for dur, _ in self.schedule)
        span = (datetime.date.max - datetime.date.min).days
        if last - first > span:  # the burn-in is to blame if it leaves no room for day 1
            w_end = self.w.support_end
            cause = f"generation time of {w_end}" if w_end > span else f"schedule of {last}"
            raise ValueError(
                f"a {cause} days puts simulated dates outside years 1-9999 from any start_date"
            )
        try:
            for days in (first, last):
                self.start_date + datetime.timedelta(days=days)
        except OverflowError:
            raise ValueError(
                f"start_date {self.start_date} puts simulated dates outside years 1-9999"
            ) from None


@dataclass
class SimResult:
    panel: IncidencePanel
    true_r: np.ndarray  # R(t) for model days 1..D
    truth_dates: tuple
    cross_county_fraction: float  # realized share of exported offspring
    config: SimConfig


def _region_ids(k: int) -> tuple:
    width = len(str(k - 1))
    return tuple(f"sq{ix:0{width}d}_{iy:0{width}d}" for ix in range(k) for iy in range(k))


def _county_index(pos: np.ndarray, k: int) -> np.ndarray:
    cell = np.floor(pos).astype(np.int64)
    return cell[:, 0] * k + cell[:, 1]


def simulate(config: SimConfig) -> SimResult:
    """Run the branching process and aggregate incidence by county.

    Seeds get an infection age uniform on the support of w as of model
    day 1, so their births land on days 1 - support_end .. 0 and warm the
    renewal history before the scored days begin.
    """
    rng = np.random.default_rng(config.seed)
    w = config.w
    k = config.k
    lo, hi = w.support_start, w.support_end
    weights = np.asarray(w.weights)

    r_sched = np.concatenate([np.full(d, r, dtype=np.float64) for d, r in config.schedule])
    n_days = r_sched.size

    ages = rng.integers(lo, hi + 1, size=config.initial_cases)
    pos = rng.uniform(0.0, k, size=(config.initial_cases, 2))
    births = 1 - ages

    day_min = 1 - hi
    T = n_days - day_min + 1
    counts = np.zeros((k * k, T), dtype=np.int64)
    np.add.at(counts, (_county_index(pos, k), births - day_min), 1)

    exported = 0
    total_offspring = 0
    for t in range(1, n_days + 1):
        age = t - births
        keep = age <= hi  # expired individuals never spawn again
        pos = pos[keep]
        births = births[keep]
        age = age[keep]
        infectious = age >= lo
        par = pos[infectious]
        if par.shape[0] == 0:
            continue
        if config.county_r_scale is not None:
            scale = config.county_r_scale
            shape = r_sched[t - 1] / scale if r_sched[t - 1] > 0 else 0.0
            county_r = (
                rng.gamma(shape, scale, size=k * k) if shape > 0 else np.zeros(k * k)
            )
            rates = county_r[_county_index(par, k)] * weights[age[infectious] - lo]
        else:
            rates = r_sched[t - 1] * weights[age[infectious] - lo]
        n_off = rng.poisson(rates)
        n_new = int(n_off.sum())
        if n_new == 0:
            continue
        parent_pos = np.repeat(par, n_off, axis=0)
        child_pos = (parent_pos + rng.normal(0.0, config.sigma, size=(n_new, 2))) % k
        child_county = _county_index(child_pos, k)
        exported += int(np.sum(child_county != _county_index(parent_pos, k)))
        total_offspring += n_new
        np.add.at(counts, (child_county, np.full(n_new, t - day_min)), 1)
        pos = np.concatenate([pos, child_pos])
        births = np.concatenate([births, np.full(n_new, t, dtype=births.dtype)])

    dates = tuple(
        config.start_date + datetime.timedelta(days=int(d))
        for d in range(day_min, n_days + 1)
    )
    panel = IncidencePanel(_region_ids(k), dates, counts)
    truth_dates = tuple(
        config.start_date + datetime.timedelta(days=t) for t in range(1, n_days + 1)
    )
    frac = exported / total_offspring if total_offspring else 0.0
    return SimResult(panel, r_sched, truth_dates, frac, config)


def cross_county_fraction(
    sigma: float, samples: int = 10**6, seed: int = 0, k: int = 20
) -> float:
    """Monte-Carlo probability that a Gaussian displacement from a uniform
    position inside a unit square of the torus lands in a different county."""
    if not 0 < sigma < np.inf:
        raise ValueError("sigma must be positive and finite")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if k < 1:
        raise ValueError("torus size k must be >= 1")
    rng = np.random.default_rng(seed)
    start = rng.uniform(0.0, 1.0, size=(samples, 2))
    child = (start + rng.normal(0.0, sigma, size=(samples, 2))) % k
    cell = np.floor(child)
    return float(np.mean((cell[:, 0] != 0) | (cell[:, 1] != 0)))


def calibrate_sigma(
    target_fraction: float,
    tol: float = 1e-3,
    seed: int = 0,
    samples: int = 200_000,
    k: int = 20,
) -> float:
    """Dispersal sigma whose cross-county fraction hits the target.

    Bisection with common random numbers (same seed every evaluation),
    which makes the estimated fraction monotone in sigma.
    """
    if not 0.0 < target_fraction < 1.0:
        raise ValueError("target fraction must be in (0, 1)")
    if not tol > 0:
        raise ValueError("tol must be positive")
    if k < 1:
        raise ValueError("torus size k must be >= 1")
    lo_s, hi_s = 1e-6, k / 2.0
    f_lo = cross_county_fraction(lo_s, samples, seed, k)
    f_hi = cross_county_fraction(hi_s, samples, seed, k)
    if not f_lo <= target_fraction <= f_hi:
        raise ValueError(
            f"target {target_fraction} outside reachable range [{f_lo:.4g}, {f_hi:.4g}]"
        )
    while hi_s - lo_s > tol:
        mid = (lo_s + hi_s) / 2.0
        if not lo_s < mid < hi_s:  # tol is below the float spacing at sigma
            break
        if cross_county_fraction(mid, samples, seed, k) < target_fraction:
            lo_s = mid
        else:
            hi_s = mid
    return (lo_s + hi_s) / 2.0
