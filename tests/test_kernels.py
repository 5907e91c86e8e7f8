import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from countyrt import cli, inference, kernels, negbin_logpmf
from countyrt.kernels import LOGPMF_SENTINEL, day_negloglik
from countyrt.simulator import SimConfig, simulate
from perfbench import workloads


def literal_negloglik(counts, phi, a, s, p):
    """Independently coded sum of NB terms (double-implementation oracle)."""
    K = len(phi)
    total = sum(phi)
    nll = 0.0
    for c in range(K):
        lam = (1 - p) * phi[c] + p * (total - phi[c]) / (K - 1)
        m = s * lam
        i = int(counts[c])
        if m == 0:
            nll -= 0.0 if i == 0 else LOGPMF_SENTINEL
        else:
            nll -= (
                math.lgamma(a + i)
                - math.lgamma(a)
                - math.lgamma(i + 1)
                + i * math.log(m / (1 + m))
                - a * math.log1p(m)
            )
    return nll


def random_cases(seed, n=30):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        K = int(rng.integers(2, 12))
        counts = rng.integers(0, 40, size=K).astype(float)
        phi = rng.uniform(0, 50, size=K)
        phi[rng.uniform(size=K) < 0.2] = 0.0
        a = float(rng.uniform(0.1, 30))
        s = float(rng.uniform(0.01, 5))
        p = float(rng.uniform(0, 1))
        yield counts, phi, a, s, p


def test_numpy_matches_literal():
    for counts, phi, a, s, p in random_cases(11):
        assert day_negloglik(counts, phi, a, s, p) == pytest.approx(
            literal_negloglik(counts, phi, a, s, p), rel=1e-10, abs=1e-8
        )


def test_matches_public_pmf_sum():
    counts = np.array([3.0, 0.0, 7.0])
    phi = np.array([5.0, 2.0, 9.0])
    a, s, p = 2.5, 0.4, 0.15
    K = 3
    lam = (1 - p) * phi + p * (phi.sum() - phi) / (K - 1)
    expected = -sum(
        negbin_logpmf(int(counts[c]), a, s * lam[c]) for c in range(K)
    )
    assert kernels.day_negloglik(counts, phi, a, s, p) == pytest.approx(expected)


def test_large_shape_stays_accurate():
    # lgamma(a+i) - lgamma(a) = sum log(a+j) exactly; naive subtraction
    # loses ~1e-4 at this scale
    counts = np.array([12.0, 3.0])
    phi = np.array([10.0, 4.0])
    a = 1e9
    s = 1.0 / a
    literal_sum = 0.0
    lam = phi  # p = 0
    for c, i in enumerate(counts.astype(int)):
        m = s * lam[c]
        rising = sum(math.log(a + j) for j in range(i))
        literal_sum -= (
            rising - math.lgamma(i + 1) + i * math.log(m / (1 + m)) - a * math.log1p(m)
        )
    got = kernels.day_negloglik(counts, phi, a, s, 0.0)
    assert got == pytest.approx(literal_sum, rel=1e-12)


def test_zero_phi_all_zero_counts_is_zero():
    assert kernels.day_negloglik(
        np.zeros(4), np.zeros(4), 1.0, 1.0, 0.3
    ) == pytest.approx(0.0)


def test_impossible_observation_uses_sentinel():
    val = kernels.day_negloglik(
        np.array([2.0, 0.0]), np.zeros(2), 1.0, 1.0, 0.0
    )
    assert val == pytest.approx(-LOGPMF_SENTINEL)


def mp_log_rising(a, i):
    import mpmath

    with mpmath.workdps(60):
        return mpmath.loggamma(mpmath.mpf(a) + int(i)) - mpmath.loggamma(mpmath.mpf(a))


RISING_COUNTS = [0, 1, 2, 5, 63, 64, 65, 100, 1_000, 12_345, 100_000, 1_000_000, 10_000_000]


@pytest.mark.parametrize("a", [1.0, 9.999, 10.0, 1e4, 1e8, 1e13])
def test_log_rising_factorial_matches_mpmath(a):
    pytest.importorskip("mpmath")
    # a small-count array takes the table, a large-count one the O(1) form
    for counts in (RISING_COUNTS[:6], RISING_COUNTS):
        got = kernels.log_rising_factorial(a, np.array(counts, dtype=float))
        for g, i in zip(got, counts):
            ref = float(mp_log_rising(a, i))
            assert abs(g - ref) <= 1e-14 * max(abs(ref), 1.0), (a, i)


def mp_negloglik(counts, phi, a, s, p):
    """-sum log NB(I_c; a, s Lambda_c), every term in 60-digit arithmetic."""
    import mpmath

    K = len(phi)
    total = sum(phi)
    with mpmath.workdps(60):
        nll = mpmath.mpf(0)
        for i, ph in zip(counts, phi):
            m = mpmath.mpf(s) * ((1 - mpmath.mpf(p)) * ph + mpmath.mpf(p) * (total - ph) / (K - 1))
            nll -= (
                mp_log_rising(a, i)
                - mpmath.loggamma(int(i) + 1)
                + int(i) * mpmath.log(m / (1 + m))
                - mpmath.mpf(a) * mpmath.log1p(m)
            )
        return float(nll)


@pytest.mark.parametrize("a", [0.5, 3.0, 9.99, 10.0, 250.0, 1e4, 1e8, 1e13])
def test_large_counts_match_mpmath_literal(a):
    pytest.importorskip("mpmath")
    rng = np.random.default_rng(int(math.log(a) * 1000) % 2**32)
    K = 12
    phi = rng.uniform(10.0, 1e5, size=K)
    counts = rng.poisson(1.2 * phi).astype(float)
    counts[:2] = [0.0, 1e5]
    p = float(rng.uniform(0.0, 0.5))
    s = 1.2 / a
    got = day_negloglik(counts, phi, a, s, p)
    # terms of size ~1e6 per region cancel to ~1e1, which leaves float64
    # about 1e-11 relative on the sum
    assert got == pytest.approx(mp_negloglik(counts, phi, a, s, p), rel=1e-10)


def kernel_constant_days():
    rng = np.random.default_rng(5)
    # regions with Phi = 0 have mean 0 at p = 0 and are masked out
    zero_mean = (np.array([0.0, 3.0, 0.0, 7.0]), np.array([0.0, 4.0, 0.0, 6.0]), 0.0)
    phi = rng.uniform(0.5, 40.0, size=50)
    table = (rng.poisson(phi).astype(float), phi, 0.3)
    phi = rng.uniform(50.0, 1e4, size=50)
    large = (rng.poisson(phi).astype(float), phi, 0.05)
    assert zero_mean[0].max() <= 64 < large[0].max() and table[0].max() <= 64
    return {"zero-mean": zero_mean, "table": table, "large-counts": large}


def masked_negloglik(counts, phi, a, s, p):
    """The kernel's sum with lgamma(i + 1) computed inline, every term masked."""
    K = phi.shape[0]
    lam = (1.0 - p) * phi + p * (phi.sum() - phi) / (K - 1.0)
    m = s * lam
    ll = np.empty(K)
    bad = m <= 0.0
    ll[bad] = np.where(counts[bad] > 0, LOGPMF_SENTINEL, 0.0)
    ok = ~bad
    mo, io = m[ok], counts[ok]
    ll[ok] = (
        kernels.log_rising_factorial(a, io)
        - special.gammaln(io + 1.0)
        + io * np.log(mo / (1.0 + mo))
        - a * np.log1p(mo)
    )
    return -float(ll.sum())


@pytest.mark.parametrize("day", ["zero-mean", "table", "large-counts"])
def test_day_constants_are_bit_identical(day):
    counts, phi, p = kernel_constant_days()[day]
    constants = kernels.DayConstants(counts, phi)
    for a in (0.7, 12.0, 3e5, 1e13):
        for s in (0.02, 1.3, 40.0 / a):
            with_constants = day_negloglik(counts, phi, a, s, p, constants)
            assert with_constants == day_negloglik(counts, phi, a, s, p), (a, s)
            assert with_constants == masked_negloglik(counts, phi, a, s, p), (a, s)


@st.composite
def kernel_days(draw):
    """A day and a point (a, s, p): table or Stirling-regime counts, some
    zero-Phi regions, p at 0 or 1 as often as inside, a up to 1e13."""
    K = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    largest = draw(st.sampled_from([0, 1, 64, 65, 1_000, 100_000]))
    counts = rng.integers(0, largest + 1, size=K).astype(float)
    counts[rng.integers(K)] = largest
    phi = rng.uniform(0.0, 2.0 * largest + 1.0, size=K)
    phi[rng.uniform(size=K) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    a = draw(st.floats(1e-3, 1e13))
    s = draw(st.floats(1e-6, 1e3))
    p = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    return counts, phi, a, s, p


@settings(max_examples=300, deadline=None)
@given(kernel_days())
def test_day_constants_are_bit_identical_everywhere(day):
    counts, phi, a, s, p = day
    with_constants = day_negloglik(counts, phi, a, s, p, kernels.DayConstants(counts, phi))
    assert with_constants == day_negloglik(counts, phi, a, s, p)
    assert with_constants == masked_negloglik(counts, phi, a, s, p)


FIT_PANELS = {
    "torus-k5": lambda: simulate(
        SimConfig(k=5, initial_cases=100, schedule=((25, 1.3),), seed=1)
    ).panel,
    "national-counts": lambda: workloads.national_counts(1),
}


@pytest.mark.parametrize("name", FIT_PANELS)
def test_fit_with_day_constants_matches_masked_kernel(name, monkeypatch):
    """The fit's per-day constants leave every fitted number bit-identical
    to a fit whose kernel computes every term per call."""
    panel = FIT_PANELS[name]()
    w = cli.parse_gen_time(cli.DEFAULT_GEN_TIME)
    fitted = inference.fit_panel(panel, w)
    monkeypatch.setattr(
        kernels,
        "day_negloglik",
        lambda counts, phi, a, s, p, constants=None: masked_negloglik(counts, phi, a, s, p),
    )
    masked = inference.fit_panel(panel, w)
    days = [(f.params, g.params) for f, g in zip(fitted, masked) if not f.skipped]
    assert days and len(fitted) == len(masked)
    for got, ref in days:
        assert np.array_equal(got.cov, ref.cov)
        assert replace(got, cov=None) == replace(ref, cov=None)
