"""The benchmark's input panels, each a pure function of the seed.

- ``sim-default``: the paper's default torus scenario (k=20, K=400,
  sigma=0.14, 400 seed cases, R schedule 20:2.5 / 40:0.7 / 40:1.2), which
  the acceptance suite validates. 100 fitted days with small counts: the
  optimizer and the kernel dominate.
- ``national-counts``: 50 state-sized regions, homogeneous R near 1, sizes
  log-spread up to 1e5 cases per day. Fits run up the a -> inf Poisson
  ridge, where the kernel's exact log-product costs O(max count) per call.
  Counts come from the model's own renewal process, because the torus
  simulator creates one individual per case. Few fitted days keep the run
  short without capping the counts.
- ``us-counties``: a k=56 torus (K=3,136, about the number of US counties)
  with 20,000 seed cases at R=1.3 for 30 days. Much of the wall time is
  ingest, county posteriors and CSV output rather than the optimizer.
"""

from __future__ import annotations

import datetime

import numpy as np
from countyrt import simulator
from countyrt.model import IncidencePanel

from . import oracle

NATIONAL_REGIONS = 50
NATIONAL_TOP = 1e5  # cases per day in the largest region
NATIONAL_FITTED_DAYS = 6
NATIONAL_TRANSFER = 0.005
START_DATE = datetime.date(2020, 3, 1)


def sim_default(seed: int) -> IncidencePanel:
    return simulator.simulate(simulator.SimConfig(seed=seed)).panel


def us_counties(seed: int) -> IncidencePanel:
    config = simulator.SimConfig(k=56, initial_cases=20_000, schedule=((30, 1.3),), seed=seed)
    return simulator.simulate(config).panel


def national_counts(seed: int) -> IncidencePanel:
    """Poisson renewal I_c(t) ~ Pois(R * Lambda_c(t)) after a flat history.

    The history spans the generation-time support, which the CLI skips as
    burn-in, so exactly ``NATIONAL_FITTED_DAYS`` days are fitted.
    """
    rng = np.random.default_rng(seed)
    K = NATIONAL_REGIONS
    history = oracle.BURN_IN_DAYS
    T = history + NATIONAL_FITTED_DAYS
    size = np.exp(rng.uniform(np.log(NATIONAL_TOP / 1000), np.log(NATIONAL_TOP), K))
    size[0] = NATIONAL_TOP
    r = rng.uniform(0.97, 1.03)
    counts = np.zeros((K, T), dtype=np.int64)
    counts[:, :history] = rng.poisson(np.repeat(size[:, None], history, axis=1))
    for t in range(history, T):
        phi = oracle.phi_matrix(counts[:, : t + 1])[:, t]
        counts[:, t] = rng.poisson(r * oracle.transfer(phi, NATIONAL_TRANSFER))
    ids = tuple(f"st{c:02d}" for c in range(K))
    dates = tuple(START_DATE + datetime.timedelta(days=t) for t in range(T))
    return IncidencePanel(ids, dates, counts)


WORKLOADS = {
    "sim-default": sim_default,
    "national-counts": national_counts,
    "us-counties": us_counties,
}
