import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from countyrt import cli, inference, kernels, negbin_logpmf
from countyrt.inference import LOGIT_CLAMP, from_transformed
from countyrt.model import compute_phi
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
        nll -= (
            math.lgamma(a + i)
            - math.lgamma(a)
            - math.lgamma(i + 1)
            + i * math.log(m / (1 + m))
            - a * math.log1p(m)
        )
    return nll


def day_negloglik(counts, phi, a, s, p):
    """The kernel with the day's constants built for this one call."""
    return kernels.day_negloglik(counts, phi, a, s, p, kernels.DayConstants(counts, phi))


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
    assert day_negloglik(counts, phi, a, s, p) == pytest.approx(expected)


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
    got = day_negloglik(counts, phi, a, s, 0.0)
    assert got == pytest.approx(literal_sum, rel=1e-12)


def test_clamp_box_corners_keep_every_mean_positive():
    """The fit's domain: on days with zero-Phi regions, every corner of the
    search's clamp box, and of the Hessian's reach past it (a step of
    1e-4 * (1 + 30) from the box), gives positive means and a finite
    kernel value."""
    panel = simulate(SimConfig(k=5, initial_cases=100, schedule=((25, 1.3),), seed=1)).panel
    w = cli.parse_gen_time(cli.DEFAULT_GEN_TIME)
    reach = LOGIT_CLAMP + 1e-4 * (1.0 + LOGIT_CLAMP)
    edges = (-reach, -LOGIT_CLAMP, LOGIT_CLAMP, reach)
    corners = [from_transformed(np.array(u)) for u in itertools.product(edges, repeat=3)]
    days = 0
    for t in range(w.support_end, len(panel.dates)):
        counts = panel.counts[:, t].astype(np.float64)
        phi = compute_phi(panel, w, t)
        if not (phi == 0.0).any():
            continue
        days += 1
        constants = kernels.DayConstants(counts, phi)
        for a, s, p in corners:
            assert (s * kernels.transfer(phi, p) > 0.0).all(), (t, a, s, p)
            nll = kernels.day_negloglik(counts, phi, a, s, p, constants)
            assert math.isfinite(nll), (t, a, s, p)
    assert days > 0


def mp_log_rising(a, i):
    import mpmath

    with mpmath.workdps(60):
        return mpmath.loggamma(mpmath.mpf(a) + int(i)) - mpmath.loggamma(mpmath.mpf(a))


RISING_COUNTS = [0, 1, 2, 5, 63, 64, 65, 100, 1_000, 12_345, 100_000, 1_000_000, 10_000_000]


@pytest.mark.parametrize("a", [1.0, 9.999, 10.0, 1e4, 1e8, 1e13])
def test_nb_coefficient_matches_mpmath(a):
    mpmath = pytest.importorskip("mpmath")
    # a small-count array takes the table, a large-count one the O(1) form
    for counts in (RISING_COUNTS[:6], RISING_COUNTS):
        got = kernels.nb_coefficient(np.array(counts, dtype=float))(a)
        for g, i in zip(got, counts):
            rising = mp_log_rising(a, i)
            with mpmath.workdps(60):
                ref = float(rising - mpmath.loggamma(i + 1))
            # a >= 1 makes the rising factorial at least lgamma(i + 1)
            assert abs(g - ref) <= 1e-14 * max(abs(float(rising)), 1.0), (a, i)


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
    phi = rng.uniform(0.5, 40.0, size=50)
    table = (rng.poisson(phi).astype(float), phi, 0.3)
    phi = rng.uniform(50.0, 1e4, size=50)
    large = (rng.poisson(phi).astype(float), phi, 0.05)
    assert table[0].max() <= 64 < large[0].max()
    return {"table": table, "large-counts": large}


def unfolded_rising(a, counts):
    """lgamma(a + i) - lgamma(a) per count in the kernel's regime for the day:
    a cumulative sum of log(a + j) after a leading 0 up to count 64, the
    O(1) form above that."""
    if counts.max() > 64:
        return kernels._large_count_rising(a, counts)
    table = np.concatenate(([0.0], np.log(a + np.arange(counts.max()))))
    return table.cumsum()[counts.astype(np.int64)]


def masked_negloglik(counts, phi, a, s, p):
    """The kernel's sum with every term, lgamma(i + 1) and the rising
    factorial included, computed inline per call."""
    K = phi.shape[0]
    lam = (1.0 - p) * phi + p * (phi.sum() - phi) / (K - 1.0)
    m = s * lam
    ll = (
        unfolded_rising(a, counts)
        - special.gammaln(counts + 1.0)
        + counts * np.log(m / (1.0 + m))
        - a * np.log1p(m)
    )
    return -float(ll.sum())


@pytest.mark.parametrize("day", ["table", "large-counts"])
def test_day_constants_are_bit_identical(day):
    counts, phi, p = kernel_constant_days()[day]
    constants = kernels.DayConstants(counts, phi)
    for a in (0.7, 12.0, 3e5, 1e13):
        for s in (0.02, 1.3, 40.0 / a):
            with_constants = kernels.day_negloglik(counts, phi, a, s, p, constants)
            assert with_constants == masked_negloglik(counts, phi, a, s, p), (a, s)


@pytest.mark.parametrize("day", ["table", "large-counts"])
def test_negbin_logpmf_is_the_kernel_term(day):
    """The checked single-count pmf gives the kernel's term bit for bit
    wherever the single count takes the day's regime."""
    counts, phi, p = kernel_constant_days()[day]
    coefficient = kernels.DayConstants(counts, phi).coefficient
    regions = np.flatnonzero(counts > 64) if day == "large-counts" else range(len(counts))
    assert len(regions) > 0
    for a in (0.7, 12.0, 3e5, 1e13):
        m = 1.3 / a * kernels.transfer(phi, p)
        terms = kernels.log_nb_terms(a, counts, m, coefficient(a))
        for c in regions:
            assert negbin_logpmf(int(counts[c]), a, m[c]) == terms[c], (a, c)
        assert negbin_logpmf(0, a, 0.0) == 0.0
        assert negbin_logpmf(int(counts.max()), a, 0.0) == -math.inf


# p at the search's clamp edges, 1 / (1 + e^30) from 0 or 1
P_EDGE = from_transformed(np.array([0.0, 0.0, -LOGIT_CLAMP]))[2]


@st.composite
def kernel_days(draw):
    """A day and a point (a, s, p) with every mean positive: table or
    Stirling-regime counts, some zero-Phi regions but never all, p at the
    clamp edges as often as inside, a up to 1e13."""
    K = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    largest = draw(st.sampled_from([0, 1, 64, 65, 1_000, 100_000]))
    counts = rng.integers(0, largest + 1, size=K).astype(float)
    counts[rng.integers(K)] = largest
    phi = rng.uniform(0.0, 2.0 * largest + 1.0, size=K)
    zero = rng.uniform(size=K) < draw(st.sampled_from([0.0, 0.3]))
    zero[rng.integers(K)] = False
    phi[zero] = 0.0
    a = draw(st.floats(1e-3, 1e13))
    s = draw(st.floats(1e-6, 1e3))
    p = draw(st.sampled_from([P_EDGE, 1.0 - P_EDGE]) | st.floats(P_EDGE, 1.0 - P_EDGE))
    assert (s * kernels.transfer(phi, p) > 0.0).all()
    return counts, phi, a, s, p


@settings(max_examples=300, deadline=None)
@given(kernel_days())
def test_day_constants_are_bit_identical_everywhere(day):
    counts, phi, a, s, p = day
    assert day_negloglik(counts, phi, a, s, p) == masked_negloglik(counts, phi, a, s, p)


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
        lambda counts, phi, a, s, p, constants: masked_negloglik(counts, phi, a, s, p),
    )
    masked = inference.fit_panel(panel, w)
    days = [(f.params, g.params) for f, g in zip(fitted, masked) if not f.skipped]
    assert days and len(fitted) == len(masked)
    for got, ref in days:
        assert np.array_equal(got.cov, ref.cov)
        assert replace(got, cov=None) == replace(ref, cov=None)
