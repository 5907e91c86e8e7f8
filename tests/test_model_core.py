import datetime
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from countyrt import (
    GammaPosterior,
    GenerationTimePmf,
    IncidencePanel,
    compute_lambda,
    compute_phi,
    gamma_quantile,
    naive_r_hat,
    negbin_logpmf,
    posterior,
    trapezoid_pmf,
)
from countyrt.model import phi_matrix


def make_panel(counts, start=datetime.date(2020, 3, 1)):
    counts = np.asarray(counts)
    dates = tuple(start + datetime.timedelta(days=i) for i in range(counts.shape[1]))
    return IncidencePanel(
        tuple(f"r{i}" for i in range(counts.shape[0])), dates, counts
    )


def mixture_logpmf_quadrature(i, a, s, lam):
    """Independent oracle: log of the Gamma-Poisson integral."""

    def integrand(r):
        return stats.poisson.pmf(i, r * lam) * stats.gamma.pdf(r, a, scale=s)

    mean = a * s
    sd = math.sqrt(a) * s
    upper = max(mean + 40 * sd, 10.0 * (i + 1) / max(lam, 1e-9))
    val, _ = integrate.quad(integrand, 0, upper, epsabs=1e-14, epsrel=1e-11, limit=200)
    return math.log(val)


class TestTrapezoidPmf:
    def test_symmetric_triangle(self):
        w = trapezoid_pmf(1, 1, 1, 1)
        np.testing.assert_allclose(w.weights, np.array([1, 2, 1]) / 4)
        assert w.support_start == 1
        assert w.mean == pytest.approx(2.0)

    def test_default_shape(self):
        w = trapezoid_pmf(1, 3, 4, 3)
        expected = np.array([1, 2, 3, 4, 4, 4, 4, 3, 2, 1]) / 28
        np.testing.assert_allclose(w.weights, expected)
        assert w.mean == pytest.approx(154 / 28)

    def test_shift_adds_to_mean(self):
        assert trapezoid_pmf(2, 3, 4, 3).mean == pytest.approx(6.5)

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            trapezoid_pmf(1, 0, 4, 3)

    @given(
        st.integers(1, 5),
        st.integers(1, 6),
        st.integers(1, 6),
        st.integers(1, 6),
    )
    def test_always_normalized(self, start, up, flat, down):
        w = trapezoid_pmf(start, up, flat, down)
        assert abs(w.weights.sum() - 1.0) < 1e-12
        assert np.all(w.weights >= 0)
        assert w.support_start == start


class TestGenerationTimePmf:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            GenerationTimePmf(1, np.array([0.5, 0.4]))

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            GenerationTimePmf(1, np.array([1.5, -0.5]))

    def test_rejects_zero_start(self):
        with pytest.raises(ValueError):
            GenerationTimePmf(0, np.array([1.0]))


class TestComputePhi:
    def test_one_lag_identity(self):
        panel = make_panel([[10, 0]])
        w = GenerationTimePmf(1, np.array([1.0]))
        np.testing.assert_allclose(compute_phi(panel, w, 1), [10.0])

    def test_zero_history(self):
        panel = make_panel(np.zeros((3, 5), dtype=int))
        w = trapezoid_pmf(1, 1, 1, 1)
        np.testing.assert_allclose(compute_phi(panel, w, 4), np.zeros(3))

    def test_two_lag_mix(self):
        panel = make_panel([[7, 0, 0]])
        w = GenerationTimePmf(1, np.array([0.5, 0.5]))
        np.testing.assert_allclose(compute_phi(panel, w, 2), [3.5])

    def test_out_of_range(self):
        panel = make_panel([[1, 2]])
        w = trapezoid_pmf(1, 1, 1, 1)
        with pytest.raises(IndexError):
            compute_phi(panel, w, 2)

    def test_linearity_superposition(self):
        rng = np.random.default_rng(7)
        w = trapezoid_pmf(1, 2, 3, 2)
        a = rng.integers(0, 30, size=(4, 15))
        b = rng.integers(0, 30, size=(4, 15))
        t = 12
        combined = compute_phi(make_panel(a + b), w, t)
        np.testing.assert_allclose(
            combined,
            compute_phi(make_panel(a), w, t) + compute_phi(make_panel(b), w, t),
            rtol=1e-12,
        )

    def test_matches_phi_matrix_columns_exactly(self):
        rng = np.random.default_rng(8)
        panel = make_panel(rng.integers(0, 50, size=(6, 25)))
        w = trapezoid_pmf(2, 3, 4, 3)
        phi = phi_matrix(panel, w)
        for t in range(panel.n_days):
            assert np.array_equal(compute_phi(panel, w, t), phi[:, t])


class TestComputeLambda:
    def test_no_transfer(self):
        phi = np.array([3.0, 1.0, 4.0])
        np.testing.assert_allclose(compute_lambda(phi, 0.0), phi)

    def test_two_region_arithmetic(self):
        np.testing.assert_allclose(
            compute_lambda(np.array([10.0, 0.0]), 0.4), [6.0, 4.0]
        )

    def test_homogeneous_fixed_point(self):
        phi = np.full(400, 3.7)
        np.testing.assert_allclose(compute_lambda(phi, 0.63), phi)

    def test_single_region_rejected(self):
        with pytest.raises(ValueError):
            compute_lambda(np.array([1.0]), 0.2)

    def test_rows_equal_one_day_calls_exactly(self):
        rng = np.random.default_rng(13)
        # wide enough that summing Phi in another order changes its rounding
        phi = rng.uniform(0.0, 50.0, size=(6, 300))
        p = rng.uniform(0.0, 1.0, size=(6, 1))
        p[0] = 0.0
        p[1] = 1.0
        lam = compute_lambda(phi, p)
        for d in range(6):
            assert np.array_equal(lam[d], compute_lambda(phi[d], float(p[d, 0])))

    @pytest.mark.parametrize("p", [-0.1, 1.5, math.nan])
    def test_fraction_outside_unit_interval_rejected(self, p):
        phi = np.ones((3, 4))
        with pytest.raises(ValueError):
            compute_lambda(phi[0], p)
        with pytest.raises(ValueError):
            compute_lambda(phi, np.array([[0.2], [p], [0.3]]))

    @settings(max_examples=50)
    @given(
        st.lists(st.floats(0, 1e6), min_size=2, max_size=20),
        st.floats(0, 1),
    )
    def test_mass_conservation(self, phi, p):
        phi = np.array(phi)
        lam = compute_lambda(phi, p)
        assert lam.sum() == pytest.approx(phi.sum(), rel=1e-9, abs=1e-9)


class TestNaiveRHat:
    def test_equal_ratio(self):
        panel = make_panel([[10, 10]])
        w = GenerationTimePmf(1, np.array([1.0]))
        assert naive_r_hat(panel, w, 1) == pytest.approx(1.0)

    def test_zero_numerator(self):
        panel = make_panel([[5, 0]])
        w = GenerationTimePmf(1, np.array([1.0]))
        assert naive_r_hat(panel, w, 1) == 0.0

    def test_zero_denominator_returns_none(self):
        panel = make_panel([[0, 3]])
        w = GenerationTimePmf(1, np.array([1.0]))
        assert naive_r_hat(panel, w, 1) is None

    def test_sums_regions(self):
        panel = make_panel([[4, 0], [6, 0]])
        w = GenerationTimePmf(1, np.array([1.0]))
        assert naive_r_hat(panel, w, 1) == pytest.approx(0.0)
        panel = make_panel([[4, 5], [6, 5]])
        assert naive_r_hat(panel, w, 1) == pytest.approx(1.0)


class TestNegbinLogpmf:
    def test_geometric_zero(self):
        assert negbin_logpmf(0, 1.0, 1.0) == pytest.approx(math.log(0.5))

    def test_zero_count_collapses(self):
        for a, m in [(0.3, 2.5), (7.0, 0.01), (2.0, 9.0)]:
            assert negbin_logpmf(0, a, m) == pytest.approx(-a * math.log1p(m))

    def test_hand_value(self):
        assert negbin_logpmf(3, 2.0, 2.0) == pytest.approx(math.log(32 / 243))

    def test_zero_mean_point_mass(self):
        assert negbin_logpmf(0, 2.0, 0.0) == 0.0
        assert negbin_logpmf(3, 2.0, 0.0) == -math.inf

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            negbin_logpmf(-1, 1.0, 1.0)
        with pytest.raises(ValueError):
            negbin_logpmf(1, 0.0, 1.0)
        with pytest.raises(ValueError):
            negbin_logpmf(1, 1.0, -0.5)

    def test_matches_quadrature(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.uniform(0.2, 10)
            s = rng.uniform(0.05, 3)
            lam = rng.uniform(0.1, 30)
            i = int(rng.integers(0, 20))
            expected = mixture_logpmf_quadrature(i, a, s, lam)
            assert negbin_logpmf(i, a, s * lam) == pytest.approx(expected, abs=1e-8)

    def test_sums_to_one(self):
        for a, m in [(1.0, 3.0), (4.0, 0.7), (20.0, 0.1)]:
            mean = a * m
            sd = math.sqrt(a * m * (1 + m))
            n = int(mean + 20 * sd) + 1
            total = sum(math.exp(negbin_logpmf(i, a, m)) for i in range(n))
            assert total == pytest.approx(1.0, abs=1e-8)


class TestPosterior:
    def test_no_information_returns_prior(self):
        post = posterior(2.0, 0.5, 0.0, 0)
        assert post.shape == 2.0
        assert post.scale == 0.5

    def test_hand_update(self):
        post = posterior(2.0, 0.5, 10.0, 5)
        assert post.shape == 7.0
        assert post.scale == pytest.approx(1 / 12)
        assert post.mean == pytest.approx(7 / 12)

    def test_data_dominates_for_flat_prior(self):
        post = posterior(1e-8, 1e8, 20.0, 10)
        assert post.mean == pytest.approx(0.5, rel=1e-6)

    def test_matches_numerical_integration(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a = rng.uniform(0.3, 8)
            s = rng.uniform(0.05, 2)
            lam = rng.uniform(0.0, 25)
            i = int(rng.integers(0, 15))
            post = posterior(a, s, lam, i)

            def density(r):
                return r ** (a + i - 1) * math.exp(-r * (1 / s + lam))

            hi = post.mean + 40 * math.sqrt(post.variance)
            kw = dict(points=[post.mean], epsabs=0, epsrel=1e-11, limit=500)
            z, _ = integrate.quad(density, 0, hi, **kw)
            m1, _ = integrate.quad(lambda r: r * density(r), 0, hi, **kw)
            m2, _ = integrate.quad(lambda r: r * r * density(r), 0, hi, **kw)
            assert post.mean == pytest.approx(m1 / z, rel=1e-6)
            assert post.variance == pytest.approx(m2 / z - (m1 / z) ** 2, rel=1e-6)


class TestGammaQuantile:
    def test_exponential_median(self):
        assert gamma_quantile(GammaPosterior(1.0, 1.0), 0.5) == pytest.approx(math.log(2))

    def test_exponential_scale(self):
        assert gamma_quantile(GammaPosterior(1.0, 2.0), 0.95) == pytest.approx(
            2 * math.log(20)
        )

    def test_median_against_bisection(self):
        post = GammaPosterior(7.0, 1 / 12)
        lo, hi = 0.0, 10.0
        for _ in range(200):
            mid = (lo + hi) / 2
            if post.cdf(mid) < 0.5:
                lo = mid
            else:
                hi = mid
        assert gamma_quantile(post, 0.5) == pytest.approx((lo + hi) / 2, abs=1e-10)

    def test_roundtrip_with_cdf(self):
        post = GammaPosterior(3.2, 0.7)
        for q in [0.005, 0.05, 0.3, 0.5, 0.8, 0.995]:
            x = gamma_quantile(post, q)
            assert gamma_quantile(post, post.cdf(x)) == pytest.approx(x, rel=1e-8)

    def test_monotone(self):
        post = GammaPosterior(2.5, 1.3)
        qs = np.linspace(0.01, 0.99, 25)
        vals = [gamma_quantile(post, q) for q in qs]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            gamma_quantile(GammaPosterior(1.0, 1.0), 0.0)
        with pytest.raises(ValueError):
            gamma_quantile(GammaPosterior(1.0, 1.0), 1.0)


class TestIncidencePanel:
    def test_rejects_date_gap(self):
        dates = (
            datetime.date(2020, 3, 1),
            datetime.date(2020, 3, 3),
        )
        with pytest.raises(ValueError):
            IncidencePanel(("a", "b"), dates, np.zeros((2, 2), dtype=int))

    def test_rejects_duplicate_regions(self):
        dates = (datetime.date(2020, 3, 1),)
        with pytest.raises(ValueError):
            IncidencePanel(("a", "a"), dates, np.zeros((2, 1), dtype=int))

    def test_rejects_negative_counts(self):
        dates = (datetime.date(2020, 3, 1),)
        with pytest.raises(ValueError):
            IncidencePanel(("a", "b"), dates, np.array([[1], [-1]]))
