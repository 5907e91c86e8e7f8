"""County-level reproduction number estimation via small-area Gamma-Poisson
modeling, with a spatial branching-process simulator for validation."""

__version__ = "0.1.0"

from .inference import (
    CountyPosteriors,
    DayFit,
    DayParams,
    FitConfig,
    county_estimates,
    fit_day,
    fit_panel,
    r_tilde_ci,
)
from .ingest import aggregate_country, load_panel, write_panel
from .model import (
    GammaPosterior,
    GenerationTimePmf,
    IncidencePanel,
    compute_lambda,
    compute_phi,
    gamma_posterior,
    gamma_quantile,
    gamma_quantiles,
    naive_r_hat,
    negbin_logpmf,
    posterior,
    trapezoid_pmf,
)
from .simulator import (
    SimConfig,
    SimResult,
    calibrate_sigma,
    cross_county_fraction,
    default_generation_time,
    simulate,
)

__all__ = [
    "CountyPosteriors",
    "DayFit",
    "DayParams",
    "FitConfig",
    "GammaPosterior",
    "GenerationTimePmf",
    "IncidencePanel",
    "SimConfig",
    "SimResult",
    "aggregate_country",
    "calibrate_sigma",
    "compute_lambda",
    "compute_phi",
    "county_estimates",
    "cross_county_fraction",
    "default_generation_time",
    "fit_day",
    "fit_panel",
    "gamma_posterior",
    "gamma_quantile",
    "gamma_quantiles",
    "load_panel",
    "naive_r_hat",
    "negbin_logpmf",
    "posterior",
    "r_tilde_ci",
    "simulate",
    "trapezoid_pmf",
    "write_panel",
]
