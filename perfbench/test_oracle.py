"""The benchmark's reference log-likelihood against mpmath."""

import datetime
import math

import mpmath
import numpy as np
import pytest
from scipy import optimize

from perfbench import oracle

SHAPES = (1.0, 1e4, 1e8, 1e13)
COUNTS = (0, 1, 7, 100, 12_345, 10**7)


def _mp_log_rising(a, i):
    # mpmath's default 15 digits are themselves off by ~4e-3 at a = 1e13.
    with mpmath.workdps(60):
        return float(mpmath.loggamma(mpmath.mpf(a) + i) - mpmath.loggamma(mpmath.mpf(a)))


def _mp_digamma_diff(a, i):
    with mpmath.workdps(60):
        return float(mpmath.digamma(mpmath.mpf(a) + i) - mpmath.digamma(mpmath.mpf(a)))


@pytest.mark.parametrize("a", SHAPES)
def test_log_rising_factorial_matches_mpmath(a):
    got = oracle.log_rising_factorial(a, np.array(COUNTS, dtype=float))
    want = np.array([_mp_log_rising(a, i) for i in COUNTS])
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("a", SHAPES)
def test_digamma_difference_matches_mpmath(a):
    got = oracle.digamma_difference(a, np.array(COUNTS, dtype=float))
    want = np.array([_mp_digamma_diff(a, i) for i in COUNTS])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-25)


def test_series_and_gammaln_regimes_meet():
    below = np.nextafter(oracle._STIRLING_MIN, 0.0)
    i = np.array(COUNTS, dtype=float)
    np.testing.assert_allclose(
        oracle.log_rising_factorial(below, i),
        oracle.log_rising_factorial(oracle._STIRLING_MIN, i),
        rtol=1e-12,
    )


def test_objective_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    phi = rng.uniform(0.0, 40.0, size=30)
    counts = rng.poisson(phi).astype(float)
    objective = oracle.DayObjective(counts, phi)
    for u in ([1.0, -0.5, -2.0], [20.0, -20.0, -5.0], [-1.0, 1.0, 0.5]):
        err = optimize.check_grad(
            lambda x: objective(x)[0], lambda x: objective(x)[1], np.array(u)
        )
        assert err < 1e-4 * (1.0 + np.linalg.norm(objective(np.array(u))[1]))


@pytest.mark.parametrize("u", [[0.5, 0.2, -2.0], [18.0, -17.9, -4.0], [29.9, -29.9, -29.9]])
def test_objective_matches_mpmath_log_likelihood(u):
    rng = np.random.default_rng(5)
    phi = rng.uniform(0.0, 2e3, size=5)
    counts = rng.poisson(phi).astype(float)
    with mpmath.workdps(60):
        a, s = mpmath.exp(u[0]), mpmath.exp(u[1])
        p = 1 / (1 + mpmath.exp(-u[2]))
        total = sum(mpmath.mpf(x) for x in phi)
        want = 0
        for i, f in zip(counts, phi):
            m = s * ((1 - p) * f + p * (total - f) / 4)
            want += (
                mpmath.loggamma(a + i) - mpmath.loggamma(a) - mpmath.loggamma(i + 1)
                + i * mpmath.log(m / (1 + m)) - a * mpmath.log1p(m)
            )
    got = -oracle.DayObjective(counts, phi)(np.array(u))[0]
    assert got == pytest.approx(float(want), rel=1e-12, abs=1e-9)


def _write_fit_output(tmp_path, perturb=None):
    """A tiny panel and the files `countyrt fit` would write for it."""
    rng = np.random.default_rng(7)
    K, T = 6, oracle.BURN_IN_DAYS + 2
    counts = rng.poisson(rng.uniform(5.0, 40.0, size=(K, 1)), size=(K, T)).astype(float)
    first = datetime.date(2021, 1, 1)
    day = lambda t: (first + datetime.timedelta(days=t)).isoformat()  # noqa: E731
    out_day = lambda t: day(t - oracle.BACKDATE_DAYS)  # noqa: E731
    regions = [f"r{c}" for c in range(K)]
    with open(tmp_path / "panel.csv", "w") as fh:
        fh.write("region_id,date,cases\n")
        for c in range(K):
            for t in range(T):
                fh.write(f"{regions[c]},{day(t)},{int(counts[c, t])}\n")
    phi = oracle.phi_matrix(counts)
    country = ["date,a_hat,s_hat,p_hat,r_tilde,ci_lower,ci_upper,converged,skipped_reason"]
    county = ["date,region_id,lambda,cases,post_mean"]
    for t in range(T):
        if t < oracle.BURN_IN_DAYS:
            country.append(f"{out_day(t)},,,,,,,,burn-in")
            continue
        objective = oracle.DayObjective(counts[:, t], phi[:, t])
        res = optimize.minimize(
            objective, oracle.moment_start(counts[:, t], phi[:, t]), jac=True,
            method="L-BFGS-B", bounds=[(-30, 30)] * 3, options={"ftol": 1e-15, "gtol": 1e-10},
        )
        a, s, p = math.exp(res.x[0]), math.exp(res.x[1]), 1.0 / (1.0 + math.exp(-res.x[2]))
        if perturb == "s_hat":
            s *= 1.1
        country.append(f"{out_day(t)},{a:.10g},{s:.10g},{p:.10g},{a * s:.10g},,,true,")
        lam = oracle.transfer(phi[:, t], float(f"{p:.10g}"))
        a, s = float(f"{a:.10g}"), float(f"{s:.10g}")
        for c in range(K):
            mean = (a + counts[c, t]) * s / (1.0 + s * lam[c])
            if perturb == "post_mean" and c == 2:
                mean *= 1.0 + 1e-7
            county.append(f"{out_day(t)},{regions[c]},{lam[c]:.10g},{int(counts[c, t])},{mean:.10g}")
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "country_estimates.csv").write_text("\n".join(country) + "\n")
    (tmp_path / "out" / "county_estimates.csv").write_text("\n".join(county) + "\n")
    return tmp_path / "panel.csv", tmp_path / "out"


@pytest.mark.parametrize(
    "perturb, reason",
    [(None, None), ("s_hat", "not the optimum"), ("post_mean", "posterior mean off")],
)
def test_check_fit_flags_each_kind_of_bad_day(tmp_path, perturb, reason):
    result = oracle.check_fit(*_write_fit_output(tmp_path, perturb))
    assert result.errors == [] and result.fitted_days == 2
    assert {f.reason for f in result.failures} == ({reason} if reason else set())
    assert result.failed_days == (2 if reason else 0)
