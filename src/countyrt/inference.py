"""Per-day maximum-likelihood fitting and posterior county summaries.

Each day t is fitted independently: the triple (a, s, p) maximizes the
product of negative-binomial likelihoods across regions, the country-level
estimate is r_tilde = a*s with a delta-method confidence interval from the
pseudo-inverse of the observed information, and per-county reproduction
numbers come from the conjugate Gamma posterior at the fitted
hyperparameters.

The search and the Hessian run in (ln a, ln s, logit p) coordinates.
Only the simplex sees the box +-LOGIT_CLAMP, through ``into_box``; the
Hessian is the likelihood's own at the boxed optimum, and its probes
reach about 3.1e-3 past the box, where every mean stays positive.
``from_transformed`` is the one map out to (a, s, p), and the covariance
follows with its Jacobian. Every date is a report date; shifting to
infection dates is left to the caller.
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import kernels
from .model import GenerationTimePmf, IncidencePanel, compute_lambda, compute_phi, phi_matrix
from .model import gamma_posterior, gamma_quantiles

# perfbench counts calls to these names on this module, so they stay
# importable here.
from .model import gamma_quantile, posterior  # noqa: F401
from .optim import nelder_mead, numeric_hessian

# dLambda/dp below this fraction of max(Phi) everywhere leaves p unidentified.
P_IDENTIFIABLE_RTOL = 1e-12
# Bound on every fit coordinate: exp(30) ~ 1e13, and logit p = +-30 is p
# within 9.4e-14 of 0 or 1.
LOGIT_CLAMP = 30.0


@dataclass
class FitConfig:
    level: float = 0.95
    quantile_probs: tuple = (0.05, 0.5, 0.95)

    def __post_init__(self):
        if not 0.0 < self.level < 1.0:
            raise ValueError("confidence level must be in (0, 1)")
        if any(not 0.0 < q < 1.0 for q in self.quantile_probs):
            raise ValueError("quantile probabilities must be in (0, 1)")


@dataclass
class DayParams:
    """Fitted (a, s, p) for one day with covariance in natural coordinates."""

    a: float
    s: float
    p: float
    cov: np.ndarray | None
    converged: bool
    log_likelihood: float
    p_identifiable: bool = True
    evaluations: int = 0  # objective calls of both simplex runs and the Hessian
    iterations: int = 0  # simplex iterations of both runs


@dataclass
class DayFit:
    date: datetime.date
    params: DayParams | None = None  # None for a skipped day
    r_tilde: float | None = None
    ci: tuple | None = None
    skip_reason: str | None = None

    @property
    def skipped(self) -> bool:
        return self.params is None


@dataclass(frozen=True, eq=False)
class CountyPosteriors:
    """Gamma posteriors of R_c for every fitted day d and county c.

    The arrays have shape (D, K), and ``quantiles`` (D, K, Q) with its last
    axis following ``quantile_probs``; row d belongs to ``dates[d]``.
    """

    dates: tuple
    region_ids: tuple
    lambda_c: np.ndarray
    cases: np.ndarray
    mean: np.ndarray
    quantile_probs: tuple
    quantiles: np.ndarray


def _moment_start(counts: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """The simplex start in (ln a, ln s, logit p): moment estimates of a and s, p = 0.1."""
    mask = phi > 0
    ratios = counts[mask] / phi[mask]
    m = float(ratios.mean()) if ratios.size else 0.0
    if m > 0:
        v = float(ratios.var())
        s0 = max(v / m, 0.01)
    else:
        s0 = 0.5
    a0 = max(m / s0, 0.05)
    return np.array([math.log(a0), math.log(s0), math.log(0.1 / 0.9)])


def from_transformed(u) -> tuple:
    """(ln a, ln s, logit p) -> (a, s, p), the plain coordinate map."""
    return math.exp(u[0]), math.exp(u[1]), 1.0 / (1.0 + math.exp(-u[2]))


def into_box(u: np.ndarray) -> list:
    """u clamped to +-LOGIT_CLAMP, as floats: the one place the search's box is applied."""
    return [min(max(v, -LOGIT_CLAMP), LOGIT_CLAMP) for v in u.tolist()]


def _pinv_information(H: np.ndarray):
    """Pseudo-inverse of an observed information matrix, or None.

    This is the one rule for a day without covariance: None when any entry
    of H is not finite (checked on the whole matrix, since ``eigh`` reads
    only the lower triangle), or when no eigenvalue is above
    max(1e-10, 1e-9 * the largest). The caller passes H exactly symmetric,
    as ``numeric_hessian`` returns it. Directions whose eigenvalue is at or
    below that floor are treated as constrained: their variance
    contribution is dropped, whether rounding left that eigenvalue slightly
    positive or negative. On a well conditioned matrix this is the
    inverse. Valid for the r_tilde delta method because its gradient is
    orthogonal to the flat directions (the a->inf Poisson ridge and an
    unidentified p both leave a*s fixed).
    """
    if not np.isfinite(H).all():
        return None
    vals, vecs = np.linalg.eigh(H)
    floor = max(1e-10, 1e-9 * float(vals.max(initial=0.0)))
    if vals.max(initial=0.0) <= floor:
        return None
    inv_vals = np.where(vals > floor, 1.0 / np.where(vals > floor, vals, 1.0), 0.0)
    return (vecs * inv_vals) @ vecs.T


def p_moves_lambda(phi: np.ndarray) -> bool:
    """Whether the transfer fraction p changes Lambda, so the data can identify it.

    Lambda is linear in p with slope (sum(Phi) - Phi)/(K-1) - Phi. It is
    zero only when Phi is the same in every region, and then the
    likelihood is exactly flat in p.
    """
    slope = kernels.transfer(phi, 1.0) - phi  # Lambda at p = 1 minus Lambda at p = 0
    return bool(np.abs(slope).max() > P_IDENTIFIABLE_RTOL * phi.max())


def _fit_counts_phi(counts: np.ndarray, phi: np.ndarray) -> DayParams:
    counts = np.ascontiguousarray(counts, dtype=np.float64)
    phi = np.ascontiguousarray(phi, dtype=np.float64)
    constants = kernels.DayConstants(counts, phi)
    evaluations = 0

    def negloglik(u):
        nonlocal evaluations
        evaluations += 1
        return kernels.day_negloglik(counts, phi, *from_transformed(u), constants)

    def objective(u):
        return negloglik(into_box(u))

    first = nelder_mead(objective, _moment_start(counts, phi))
    # restart from the first optimum with a fresh simplex; perfbench knows a
    # restart by its objective object, so both runs get the same one
    res = nelder_mead(objective, first.x)
    # the one fitted point: it gives (a, s, p), the p-at-box flag and the Hessian
    u_hat = into_box(res.x)
    a, s, p = from_transformed(u_hat)

    # Observed information of the likelihood (not the boxed objective) in
    # log/logit coordinates, pseudo-inverted (the near-Poisson a -> inf
    # ridge and an unidentified p are flat there), then mapped to natural
    # coordinates: cov_x = J cov_u J^T with J = diag(a, s, p(1-p)).
    cov_u = _pinv_information(numeric_hessian(negloglik, u_hat))
    jac = np.diag([a, s, p * (1.0 - p)])
    cov = None if cov_u is None else jac @ cov_u @ jac.T
    return DayParams(
        a=a,
        s=s,
        p=p,
        cov=cov,
        converged=res.converged,
        log_likelihood=-res.fun,
        p_identifiable=abs(u_hat[2]) < LOGIT_CLAMP - 1e-9 and p_moves_lambda(phi),
        evaluations=evaluations,
        iterations=first.iterations + res.iterations,
    )


def r_tilde_ci(params: DayParams, level: float = 0.95):
    """Delta-method interval for a*s, truncated below at zero.

    Returns None when no covariance is available or the propagated
    variance is not a finite nonnegative number (a non-PSD or non-finite
    covariance).
    """
    if not 0.0 < level < 1.0:
        raise ValueError("confidence level must be in (0, 1)")
    if params.cov is None:
        return None
    # Python floats, so opposite infinities give a quiet nan, not a warning
    a, s, cov = params.a, params.s, params.cov.tolist()
    var = s * s * cov[0][0] + a * a * cov[1][1] + 2.0 * a * s * cov[0][1]
    if not 0.0 <= var < math.inf:
        return None
    z = float(special.ndtri((1.0 + level) / 2.0))
    half = z * var**0.5
    r = a * s
    return (max(0.0, r - half), r + half)


def _day_fit(panel: IncidencePanel, w: GenerationTimePmf, t: int, phi, config) -> DayFit:
    """Day t of ``fit_panel``, given that day's Phi."""
    if panel.n_regions < 2:
        raise ValueError("fitting requires at least 2 regions")
    date, counts = panel.dates[t], panel.counts[:, t]
    if t < w.support_end:
        return DayFit(date, skip_reason="burn-in")
    if phi.sum() <= 0:
        return DayFit(date, skip_reason="zero-phi")
    # without cases the likelihood grows as a*s -> 0 and the fit ends at the clamps
    if not counts.any():
        return DayFit(date, skip_reason="no-cases")
    params = _fit_counts_phi(counts, phi)
    r = params.a * params.s
    return DayFit(date, params, r, r_tilde_ci(params, config.level))


def fit_day(
    panel: IncidencePanel,
    w: GenerationTimePmf,
    t: int,
    config: FitConfig | None = None,
) -> DayFit:
    """``fit_panel(panel, w, config)[t]``, computing only day t's Phi."""
    return _day_fit(panel, w, t, compute_phi(panel, w, t), config or FitConfig())


def fit_panel(
    panel: IncidencePanel,
    w: GenerationTimePmf,
    config: FitConfig | None = None,
) -> list:
    """One DayFit per panel day, each fitted independently by maximum
    likelihood and kept at its report date.

    A day is skipped, with ``params`` None, as
    - ``burn-in``: one of the first ``w.support_end`` days, whose Phi
      lacks part of the generation-time support;
    - ``zero-phi``: Phi vanishes in every region;
    - ``no-cases``: no region has a case that day.

    Checked in that order; every other day is fitted, and an optimizer
    that fails to converge still yields parameters with converged=False.
    A panel of fewer than 2 regions raises ValueError.
    """
    config = config or FitConfig()
    phi = phi_matrix(panel, w)
    return [_day_fit(panel, w, t, phi[:, t], config) for t in range(panel.n_days)]


def county_estimates(
    panel: IncidencePanel,
    w: GenerationTimePmf,
    fits: list,
    config: FitConfig | None = None,
) -> CountyPosteriors:
    """Posterior mean and quantiles of R_c for every (unskipped day, county).

    ``gamma_posterior`` and ``gamma_quantiles`` at each day's fitted
    (a, s, p), with Lambda from ``compute_lambda``, over (D, K) arrays.
    """
    config = config or FitConfig()
    date_to_t = {d: t for t, d in enumerate(panel.dates)}
    fitted = [f for f in fits if not f.skipped]
    days = [date_to_t[f.date] for f in fitted]
    a, s, p = (
        np.array([getattr(f.params, name) for f in fitted], dtype=np.float64)[:, None]
        for name in "asp"
    )
    # one contiguous row per day, so each row sums as a 1-d Phi does
    phi = np.ascontiguousarray(phi_matrix(panel, w)[:, days].T)
    lam = compute_lambda(phi, p)
    cases = np.ascontiguousarray(panel.counts[:, days].T)
    shape, scale = gamma_posterior(a, s, lam, cases)
    return CountyPosteriors(
        dates=tuple(f.date for f in fitted),
        region_ids=panel.region_ids,
        lambda_c=lam,
        cases=cases,
        mean=shape * scale,
        quantile_probs=tuple(config.quantile_probs),
        quantiles=gamma_quantiles(shape, scale, config.quantile_probs),
    )
