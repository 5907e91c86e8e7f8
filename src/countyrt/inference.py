"""Per-day maximum-likelihood fitting and posterior county summaries.

Each day t is fitted independently: the triple (a, s, p) maximizes the
product of negative-binomial likelihoods across regions, the country-level
estimate is r_tilde = a*s with a delta-method confidence interval from the
inverse observed information, and per-county reproduction numbers come
from the conjugate Gamma posterior at the fitted hyperparameters.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, replace

import numpy as np
from scipy import special

from . import kernels
from .model import (
    GenerationTimePmf,
    IncidencePanel,
    compute_lambda,
    compute_phi,
    gamma_quantile,
    phi_matrix,
    posterior,
)
from .optim import (
    LOGIT_CLAMP,
    from_transformed,
    invert_3x3_spd,
    nelder_mead,
    numeric_hessian,
    to_transformed,
)

# dLambda/dp below this fraction of max(Phi) everywhere leaves p unidentified.
P_IDENTIFIABLE_RTOL = 1e-12


@dataclass
class FitConfig:
    tol: float = 1e-8
    max_iter: int = 2000
    restarts: int = 1
    hessian_step: float = 1e-4
    level: float = 0.95
    quantile_probs: tuple = (0.05, 0.5, 0.95)
    burn_in: int | None = None  # None: generation-time support length

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


@dataclass
class DayFit:
    date: datetime.date
    params: DayParams | None
    r_tilde: float | None
    ci: tuple | None
    skipped: bool
    skip_reason: str | None = None


@dataclass
class CountyEstimate:
    date: datetime.date
    region_id: str
    posterior_mean: float
    quantiles: dict
    lambda_c: float
    i_c: int


def day_neg_loglik(
    panel: IncidencePanel,
    w: GenerationTimePmf,
    t: int,
    a: float,
    s: float,
    p: float,
) -> float:
    """Negative log-likelihood of day t's counts at parameters (a, s, p).

    Impossible observations (positive count, zero mean) contribute the
    finite optimizer sentinel rather than +inf.
    """
    if a <= 0 or s <= 0:
        raise ValueError("a and s must be positive")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    if panel.n_regions < 2:
        raise ValueError("fitting requires at least 2 regions")
    phi = compute_phi(panel, w, t)
    return kernels.day_negloglik(panel.counts[:, t].astype(np.float64), phi, a, s, p)


def _moment_start(counts: np.ndarray, phi: np.ndarray) -> tuple:
    mask = phi > 0
    ratios = counts[mask] / phi[mask]
    m = float(ratios.mean()) if ratios.size else 0.0
    if m > 0:
        v = float(ratios.var())
        s0 = max(v / m, 0.01)
    else:
        s0 = 0.5
    a0 = max(m / s0, 0.05)
    return a0, s0, 0.1


def _pinv_information(H: np.ndarray):
    """Pseudo-inverse of a singular observed information matrix.

    Unidentified directions (eigenvalues at or below a floor relative to
    the largest) are treated as constrained: their variance contribution
    is dropped. Valid for the r_tilde delta method because its gradient
    is orthogonal to the flat directions (the a->inf Poisson ridge and an
    unidentified p both leave a*s fixed).
    """
    vals, vecs = np.linalg.eigh((H + H.T) / 2.0)
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
    slope = (phi.sum() - phi) / (phi.shape[0] - 1.0) - phi
    return bool(np.abs(slope).max() > P_IDENTIFIABLE_RTOL * phi.max())


def _fit_counts_phi(counts: np.ndarray, phi: np.ndarray, config: FitConfig) -> DayParams:
    counts = np.ascontiguousarray(counts, dtype=np.float64)
    phi = np.ascontiguousarray(phi, dtype=np.float64)

    def objective(u):
        a, s, p = from_transformed(u)
        return kernels.day_negloglik(counts, phi, a, s, p)

    u0 = to_transformed(*_moment_start(counts, phi))
    res = nelder_mead(objective, u0, tol=config.tol, max_iter=config.max_iter)
    for _ in range(config.restarts):
        res = nelder_mead(objective, res.x, tol=config.tol, max_iter=config.max_iter)
    a, s, p = from_transformed(res.x)
    at_clamp = abs(res.x[2]) >= LOGIT_CLAMP - 1e-9

    # Observed information in log/logit coordinates (well conditioned even
    # in the near-Poisson a -> inf ridge), then mapped to natural
    # coordinates: cov_x = J cov_u J^T with J = diag(a, s, p(1-p)).
    cov = None
    try:
        u_hat = to_transformed(a, s, p)
        H_u = numeric_hessian(objective, u_hat, step=config.hessian_step)
        cov_u = invert_3x3_spd(H_u)
        if cov_u is None:
            cov_u = _pinv_information(H_u)
        if cov_u is not None:
            jac = np.diag([a, s, p * (1.0 - p)])
            cov = jac @ cov_u @ jac.T
    except (ArithmeticError, ValueError):
        cov = None
    return DayParams(
        a=a,
        s=s,
        p=p,
        cov=cov,
        converged=res.converged,
        log_likelihood=-res.fun,
        p_identifiable=not at_clamp and p_moves_lambda(phi),
    )


def r_tilde_ci(params: DayParams, level: float = 0.95):
    """Delta-method interval for a*s, truncated below at zero.

    Returns None when no covariance is available or the propagated
    variance is negative (non-PSD covariance).
    """
    if params.cov is None:
        return None
    a, s, cov = params.a, params.s, params.cov
    var = s * s * cov[0, 0] + a * a * cov[1, 1] + 2.0 * a * s * cov[0, 1]
    if var < 0:
        return None
    z = float(special.ndtri((1.0 + level) / 2.0))
    half = z * var**0.5
    r = a * s
    return (max(0.0, r - half), r + half)


def _make_day_fit(date, counts, phi, config: FitConfig) -> DayFit:
    if phi.sum() <= 0:
        return DayFit(date, None, None, None, skipped=True, skip_reason="zero-phi")
    params = _fit_counts_phi(counts, phi, config)
    r = params.a * params.s
    return DayFit(date, params, r, r_tilde_ci(params, config.level), skipped=False)


def fit_day(
    panel: IncidencePanel,
    w: GenerationTimePmf,
    t: int,
    config: FitConfig | None = None,
) -> DayFit:
    """Fit one day's (a, s, p) by maximum likelihood.

    Days where Phi vanishes everywhere are returned skipped; an optimizer
    that fails to converge still yields parameters with converged=False.
    """
    config = config or FitConfig()
    if panel.n_regions < 2:
        raise ValueError("fitting requires at least 2 regions")
    phi = compute_phi(panel, w, t)
    return _make_day_fit(panel.dates[t], panel.counts[:, t], phi, config)


def fit_panel(
    panel: IncidencePanel,
    w: GenerationTimePmf,
    config: FitConfig | None = None,
) -> list:
    """One DayFit per panel day; the leading burn-in days are skipped.

    Days are fitted independently of each other.
    """
    config = config or FitConfig()
    if panel.n_regions < 2:
        raise ValueError("fitting requires at least 2 regions")
    burn_in = config.burn_in if config.burn_in is not None else w.support_end
    phi = phi_matrix(panel, w)
    return [
        DayFit(date, None, None, None, skipped=True, skip_reason="burn-in")
        if t < burn_in
        else _make_day_fit(date, panel.counts[:, t], phi[:, t], config)
        for t, date in enumerate(panel.dates)
    ]


def county_estimates(
    panel: IncidencePanel,
    w: GenerationTimePmf,
    fits: list,
    config: FitConfig | None = None,
) -> list:
    """Posterior mean and quantiles of R_c for every (unskipped day, county)."""
    config = config or FitConfig()
    date_to_t = {d: t for t, d in enumerate(panel.dates)}
    phi = phi_matrix(panel, w)
    out = []
    for fit in fits:
        if fit.skipped or fit.params is None:
            continue
        t = date_to_t[fit.date]
        lam = compute_lambda(phi[:, t], fit.params.p)
        for c, region in enumerate(panel.region_ids):
            i_c = int(panel.counts[c, t])
            post = posterior(fit.params.a, fit.params.s, float(lam[c]), i_c)
            out.append(
                CountyEstimate(
                    date=fit.date,
                    region_id=region,
                    posterior_mean=post.mean,
                    quantiles={q: gamma_quantile(post, q) for q in config.quantile_probs},
                    lambda_c=float(lam[c]),
                    i_c=i_c,
                )
            )
    return out


def backdate(fits: list, days: int) -> list:
    """Shift every fit's date back by the reporting delay."""
    if days < 0:
        raise ValueError("backdate days must be >= 0")
    delta = datetime.timedelta(days=days)
    return [replace(f, date=f.date - delta) for f in fits]
