import datetime
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import gammaincinv, gammaln, ndtri

from countyrt import (
    DayParams,
    FitConfig,
    IncidencePanel,
    SimConfig,
    compute_lambda,
    compute_phi,
    county_estimates,
    fit_day,
    fit_panel,
    inference,
    kernels,
    naive_r_hat,
    r_tilde_ci,
    simulate,
    trapezoid_pmf,
)
from countyrt.inference import (
    LOGIT_CLAMP,
    _pinv_information,
    from_transformed,
    into_box,
    p_moves_lambda,
)
from countyrt.model import GenerationTimePmf, phi_matrix
from countyrt.optim import OptimResult

W = trapezoid_pmf(1, 3, 4, 3)


def make_panel(counts, start=datetime.date(2020, 3, 1), ids=None):
    counts = np.asarray(counts)
    dates = tuple(start + datetime.timedelta(days=i) for i in range(counts.shape[1]))
    if ids is None:
        ids = tuple(f"r{i:03d}" for i in range(counts.shape[0]))
    return IncidencePanel(ids, dates, counts)


def panel_with_constant_phi(level, day_counts):
    """History of `level` cases/day in every county, so Phi = level on the
    day after the generation-time support."""
    day_counts = np.asarray(day_counts)
    K = day_counts.shape[0]
    hist = np.full((K, W.support_end), level, dtype=np.int64)
    return make_panel(np.column_stack([hist, day_counts])), W.support_end


def grid_best_loglik(counts, phi, a_range=(0.05, 50), s_range=(0.01, 10), p_max=0.5, n=61):
    """Exhaustive-grid oracle for the day likelihood, coded independently."""
    counts = np.asarray(counts, dtype=float)
    phi = np.asarray(phi, dtype=float)
    K = phi.shape[0]
    a_grid = np.geomspace(*a_range, n)
    s_grid = np.geomspace(*s_range, n)
    p_grid = np.linspace(0.0, p_max, n)
    best = -np.inf
    I = counts[None, None, :]
    A = a_grid[:, None, None]
    for p in p_grid:
        lam = (1 - p) * phi + p * (phi.sum() - phi) / (K - 1)
        M = s_grid[None, :, None] * lam[None, None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            term = (
                gammaln(A + I)
                - gammaln(A)
                - gammaln(I + 1)
                + I * np.log(M / (1 + M))
                - A * np.log1p(M)
            )
        term = np.where(M == 0, np.where(I > 0, -1e100, 0.0), term)
        best = max(best, float(term.sum(axis=2).max()))
    return best


def day_negloglik(panel, w, t, a, s, p):
    """The fit's kernel on day t of a panel."""
    counts = panel.counts[:, t].astype(np.float64)
    phi = compute_phi(panel, w, t)
    return kernels.day_negloglik(counts, phi, a, s, p, kernels.DayConstants(counts, phi))


class TestDayNegLoglik:
    def test_two_geometric_zeros(self):
        w1 = GenerationTimePmf(1, np.array([1.0]))
        panel = make_panel([[1, 0], [1, 0]])
        assert day_negloglik(panel, w1, 1, 1.0, 1.0, 0.0) == pytest.approx(
            2 * math.log(2)
        )

    def test_matches_literal_reimplementation(self):
        rng = np.random.default_rng(21)
        panel = make_panel(rng.integers(0, 25, size=(6, 14)))
        t, a, s, p = 12, 2.3, 0.6, 0.25
        phi = compute_phi(panel, W, t)
        lam = compute_lambda(phi, p)
        expected = 0.0
        for c in range(6):
            i = int(panel.counts[c, t])
            m = s * lam[c]
            expected -= (
                math.lgamma(a + i)
                - math.lgamma(a)
                - math.lgamma(i + 1)
                + i * math.log(m / (1 + m))
                - a * math.log1p(m)
            )
        assert day_negloglik(panel, W, t, a, s, p) == pytest.approx(expected)


class TestFitDay:
    def test_homogeneous_panel_recovers_r(self):
        rng = np.random.default_rng(42)
        day = rng.poisson(1.2 * 50, size=400)
        panel, t = panel_with_constant_phi(50, day)
        fit = fit_day(panel, W, t)
        assert not fit.skipped
        assert 1.1 <= fit.r_tilde <= 1.3
        # homogeneous Phi leaves the likelihood flat in p
        assert not fit.params.p_identifiable

    def test_beats_grid_oracle_on_small_panel(self):
        rng = np.random.default_rng(7)
        K = 8
        hist = rng.integers(0, 60, size=(K, W.support_end))
        day = rng.poisson(rng.gamma(4.0, 0.25, size=K) * hist.mean(axis=1))
        panel = make_panel(np.column_stack([hist, day[:, None]]))
        t = W.support_end
        fit = fit_day(panel, W, t)
        phi = compute_phi(panel, W, t)
        best = grid_best_loglik(panel.counts[:, t], phi)
        assert fit.params.log_likelihood >= best - 1e-6

    def test_zero_phi_day_skipped(self):
        counts = np.zeros((3, 12), dtype=int)
        counts[:, 11] = 5
        panel = make_panel(counts)
        fit = fit_day(panel, W, 10)
        assert fit.skipped
        assert fit.skip_reason == "zero-phi"

    def test_no_cases_day_skipped(self):
        # Phi > 0 but no cases: the likelihood grows without bound as a*s -> 0
        counts = np.ones((3, 12), dtype=int)
        counts[:, 11] = 0
        panel = make_panel(counts)
        fits = fit_panel(panel, W)
        assert fits[11].skipped and fits[11].params is None
        assert fits[11].skip_reason == "no-cases"
        assert not fits[10].skipped
        assert county_estimates(panel, W, fits).dates == (fits[10].date,)

    def test_single_hot_county_infers_overdispersion(self):
        # one county with huge count against homogeneous history: the fitted
        # prior variance a*s^2 must exceed a homogeneous panel's by orders
        # of magnitude
        K = 50
        hot = np.zeros(K, dtype=np.int64)
        hot[0] = 400
        panel_hot, t = panel_with_constant_phi(10, hot)
        flat = np.full(K, 8, dtype=np.int64)
        panel_flat, _ = panel_with_constant_phi(10, flat)
        fit_hot = fit_day(panel_hot, W, t)
        fit_flat = fit_day(panel_flat, W, t)
        var_hot = fit_hot.params.a * fit_hot.params.s**2
        var_flat = fit_flat.params.a * fit_flat.params.s**2
        assert var_hot > 100 * var_flat

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        counts = rng.integers(0, 30, size=(7, 14))
        panel = make_panel(counts)
        perm = rng.permutation(7)
        panel_perm = make_panel(counts[perm], ids=tuple(f"r{i:03d}" for i in perm))
        f1 = fit_day(panel, W, 12)
        f2 = fit_day(panel_perm, W, 12)
        assert f1.params.a == pytest.approx(f2.params.a, abs=1e-6, rel=1e-6)
        assert f1.params.s == pytest.approx(f2.params.s, abs=1e-6, rel=1e-6)
        assert f1.params.p == pytest.approx(f2.params.p, abs=1e-6, rel=1e-6)
        assert f1.params.log_likelihood == pytest.approx(
            f2.params.log_likelihood, abs=1e-6
        )

    def test_region_replication_leaves_mle_alone(self):
        rng = np.random.default_rng(9)
        counts = rng.integers(0, 40, size=(5, 14))
        panel = make_panel(counts)
        tiled = make_panel(np.tile(counts, (3, 1)))
        f1 = fit_day(panel, W, 12)
        f2 = fit_day(tiled, W, 12)
        assert f2.params.a == pytest.approx(f1.params.a, rel=1e-3)
        assert f2.params.s == pytest.approx(f1.params.s, rel=1e-3)


def panel_with_transfers(seed, p_true=0.3, K=30):
    """Constant but region-specific histories (Phi_c = level_c) and one day
    of overdispersed counts drawn around Lambda(p_true)."""
    rng = np.random.default_rng(seed)
    levels = rng.integers(5, 200, size=K)
    hist = np.repeat(levels[:, None], W.support_end, axis=1)
    lam = compute_lambda(levels.astype(float), p_true)
    day = rng.poisson(rng.gamma(20.0, 1.2 / 20.0, size=K) * lam)
    return make_panel(np.column_stack([hist, day])), W.support_end


def p_interior(params):
    return abs(math.log(params.p / (1.0 - params.p))) < LOGIT_CLAMP - 1e-9


class TestPIdentifiable:
    def test_heterogeneous_phi_identifies_p(self):
        panel, t = panel_with_transfers(5)
        fit = fit_day(panel, W, t)
        assert p_interior(fit.params)
        assert fit.params.p_identifiable

    def test_rule_is_exact_on_phi(self):
        assert not p_moves_lambda(np.full(3136, 17.3))
        phi = np.full(400, 50.0)
        phi[7] = 50.0 * (1.0 + 1e-9)
        assert p_moves_lambda(phi)

    @pytest.mark.parametrize("homogeneous", [True, False])
    def test_flag_depends_only_on_phi(self, homogeneous, monkeypatch):
        if homogeneous:
            rng = np.random.default_rng(42)
            panel, t = panel_with_constant_phi(50, rng.poisson(60, size=40))
        else:
            panel, t = panel_with_transfers(6)
        expected = p_moves_lambda(compute_phi(panel, W, t))
        assert expected is not homogeneous
        fitted = fit_day(panel, W, t).params
        # a kernel with added curvature in p moves the optimizer and the
        # Hessian, but not the flag
        exact = kernels.day_negloglik
        monkeypatch.setattr(
            kernels,
            "day_negloglik",
            lambda c, phi, a, s, p, *day: exact(c, phi, a, s, p, *day) + 1e-3 * (p - 0.3) ** 2,
        )
        bent = fit_day(panel, W, t).params
        assert p_interior(bent)
        for params in (fitted, bent):
            assert params.p_identifiable is (expected and p_interior(params))


class TestTransforms:
    def test_inverse_always_in_domain(self):
        for u in ([50, -50, 100], [-80, 80, -100]):
            a, s, p = from_transformed(into_box(np.array(u, dtype=float)))
            assert a > 0 and s > 0 and 0 < p < 1

    @pytest.mark.parametrize("x", [[29.99, -3.1, 29.5], [35.0, -40.0, -31.0]])
    def test_hessian_taken_at_the_clipped_optimum(self, monkeypatch, x):
        # the simplex "ends" at x; the Hessian must be probed at x clipped
        # to the clamp, not at x mapped out to (a, s, p) and back, and it
        # must see the likelihood past the box, not the boxed objective
        points = []

        def fixed_simplex(objective, start):
            return OptimResult(np.array(x), float(objective(np.array(x))), 1, True)

        def recording_hessian(objective, point):
            points.append(np.array(point))
            past, edge = (objective(np.array([0.0, v, 0.0])) for v in (31.0, LOGIT_CLAMP))
            assert past != edge
            return np.eye(3)

        monkeypatch.setattr(inference, "nelder_mead", fixed_simplex)
        monkeypatch.setattr(inference, "numeric_hessian", recording_hessian)
        rng = np.random.default_rng(3)
        panel = make_panel(rng.integers(1, 20, size=(4, 12)))
        params = fit_day(panel, W, 11).params
        clipped = np.clip(x, -LOGIT_CLAMP, LOGIT_CLAMP)
        assert len(points) == 1 and np.array_equal(points[0], clipped)
        assert (params.a, params.s, params.p) == from_transformed(clipped)


@pytest.mark.parametrize(
    "config",
    [SimConfig(seed=1)]
    + [SimConfig(initial_cases=60, schedule=((60, 1.0),), seed=seed) for seed in range(3)],
    ids=["sim-default-1", "low-count-0", "low-count-1", "low-count-2"],
)
def test_poisson_ridge_interval_is_the_closed_form(config):
    """On every day fitted on the Poisson ridge (a > 1e12), the r interval
    is the Poisson one, I/Phi -+ z sqrt(I)/Phi cut at 0: its information
    comes from the likelihood, whether or not the optimum is at the box.
    The low-count torus (about 5 cases a day) fits most days there."""
    panel = simulate(config).panel
    cases, phi = panel.counts.sum(axis=0), phi_matrix(panel, W).sum(axis=0)
    z = float(ndtri(0.975))
    ridge = 0
    for t, fit in enumerate(fit_panel(panel, W)):
        if fit.skipped or fit.params.a <= 1e12:
            continue
        ridge += 1
        r, half = cases[t] / phi[t], z * math.sqrt(cases[t]) / phi[t]
        want = (max(0.0, r - half), r + half)
        assert fit.ci is not None, fit.date
        worst = max(abs(got - closed) for got, closed in zip(fit.ci, want))
        assert worst <= 1e-6 * want[1], (fit.date, fit.ci, want)
    assert ridge > 0


def rotated(eigenvalues, seed=8):
    """A symmetric matrix with the given eigenvalues along random axes."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
    return (q * np.asarray(eigenvalues)) @ q.T, q


class TestPinvInformation:
    def test_well_conditioned_is_the_inverse(self):
        B = np.random.default_rng(6).normal(size=(3, 3))
        H = B @ B.T + 0.5 * np.eye(3)
        inv = np.linalg.inv(H)
        assert np.abs(_pinv_information(H) - inv).max() <= 1e-12 * np.abs(inv).max()

    def test_below_floor_direction_dropped(self):
        H, q = rotated([2.0, 0.5, 1e-12])
        cov = _pinv_information(H)
        np.testing.assert_allclose(cov, cov.T, rtol=0, atol=1e-14)
        assert np.linalg.eigvalsh(cov).min() >= -1e-14
        np.testing.assert_allclose(cov @ q[:, 2], 0.0, atol=1e-12)
        expected = (q * [0.5, 2.0, 0.0]) @ q.T
        np.testing.assert_allclose(cov, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "H",
        [
            np.zeros((3, 3)),
            -np.eye(3),
            np.array([[1.0, 0.0, math.nan], [0.0, 1.0, 0.0], [math.nan, 0.0, 1.0]]),
            np.array([[1.0, 0.0, math.inf], [0.0, 1.0, 0.0], [math.inf, 0.0, 1.0]]),
        ],
        ids=["zero", "negative-definite", "nan-entry", "inf-entry"],
    )
    def test_no_direction_left(self, H):
        assert _pinv_information(H) is None

    def test_fit_without_covariance_has_no_interval(self, monkeypatch):
        panel, t = panel_with_transfers(5)
        H = np.eye(3)
        H[1, 1] = math.inf
        monkeypatch.setattr(inference, "numeric_hessian", lambda objective, u: H)
        fit = fit_day(panel, W, t)
        assert fit.params.cov is None and fit.ci is None

    def test_fit_covariance_ignores_the_sign_of_a_flat_direction(self, monkeypatch):
        panel, t = panel_with_transfers(5)
        covs = []
        for flat in (1e-12, -1e-12):
            H, q = rotated([2.0, 0.5, flat])
            monkeypatch.setattr(inference, "numeric_hessian", lambda objective, u, H=H: H)
            params = fit_day(panel, W, t).params
            covs.append(params.cov)
        jac = np.diag([params.a, params.s, params.p * (1.0 - params.p)])
        expected = jac @ ((q * [0.5, 2.0, 0.0]) @ q.T) @ jac
        scale = np.abs(expected).max()
        for cov in covs:
            np.testing.assert_allclose(cov, expected, rtol=0, atol=1e-9 * scale)


@pytest.mark.parametrize("probs", [(0.05, 1.0), (0.0, 0.5), (math.nan,)])
def test_fit_config_rejects_quantile_outside_unit_interval(probs):
    with pytest.raises(ValueError, match=r"quantile probabilities must be in \(0, 1\)"):
        FitConfig(quantile_probs=probs)


class TestRTildeCi:
    def test_zero_covariance_degenerate(self):
        params = DayParams(2.0, 0.5, 0.1, np.zeros((3, 3)), True, 0.0)
        lo, hi = r_tilde_ci(params, 0.95)
        assert lo == hi == pytest.approx(1.0)

    def test_hand_computed_half_width(self):
        cov = np.diag([0.01, 0.0004, 0.0])
        params = DayParams(2.0, 0.5, 0.1, cov, True, 0.0)
        lo, hi = r_tilde_ci(params, 0.95)
        half = 1.959964 * math.sqrt(0.25 * 0.01 + 4 * 0.0004)
        assert hi - lo == pytest.approx(2 * half, rel=1e-5)
        assert (lo + hi) / 2 == pytest.approx(1.0)

    @pytest.mark.parametrize("level", [0.0, 1.0, 1.5, math.nan])
    def test_level_outside_unit_interval_rejected(self, level):
        params = DayParams(2.0, 0.5, 0.1, np.zeros((3, 3)), True, 0.0)
        with pytest.raises(ValueError, match=r"confidence level must be in \(0, 1\)"):
            r_tilde_ci(params, level)

    def test_absent_covariance(self):
        params = DayParams(2.0, 0.5, 0.1, None, True, 0.0)
        assert r_tilde_ci(params, 0.95) is None

    @pytest.mark.parametrize(
        "var_a, cov_as", [(0.01, math.nan), (0.01, math.inf), (math.inf, -math.inf)]
    )
    def test_non_finite_covariance_has_no_interval(self, var_a, cov_as):
        cov = np.diag([var_a, 0.0004, 0.0])
        cov[0, 1] = cov[1, 0] = cov_as
        params = DayParams(2.0, 0.5, 0.1, cov, True, 0.0)
        assert r_tilde_ci(params, 0.95) is None

    def test_negative_variance_signalled(self):
        cov = np.array([[0.01, -1.0, 0.0], [-1.0, 0.01, 0.0], [0.0, 0.0, 0.0]])
        params = DayParams(1.0, 1.0, 0.1, cov, True, 0.0)
        assert r_tilde_ci(params, 0.95) is None

    def test_truncated_at_zero(self):
        cov = np.diag([100.0, 100.0, 0.0])
        params = DayParams(0.5, 0.1, 0.0, cov, True, 0.0)
        lo, hi = r_tilde_ci(params, 0.95)
        assert lo == 0.0
        assert hi > 0.05


class TestFitPanel:
    def test_all_zero_panel_all_skipped(self):
        panel = make_panel(np.zeros((3, 15), dtype=int))
        fits = fit_panel(panel, W)
        assert len(fits) == 15
        assert all(f.skipped for f in fits)
        assert fits[0].skip_reason == "burn-in"
        assert fits[-1].skip_reason == "zero-phi"

    def test_burn_in_length(self):
        rng = np.random.default_rng(4)
        panel = make_panel(rng.integers(1, 20, size=(4, 14)))
        fits = fit_panel(panel, W)
        assert [f.skip_reason for f in fits[: W.support_end]] == ["burn-in"] * 10
        assert not fits[10].skipped

    def test_agrees_with_naive_on_homogeneous_high_incidence(self):
        rng = np.random.default_rng(11)
        K, T, R = 20, 26, 1.1
        counts = np.zeros((K, T), dtype=np.int64)
        counts[:, : W.support_end] = 600
        panel = make_panel(counts)
        for t in range(W.support_end, T):
            phi = compute_phi(make_panel(counts), W, t)
            counts[:, t] = rng.poisson(R * phi)
        panel = make_panel(counts)
        fits = fit_panel(panel, W)
        for t in range(W.support_end, T):
            r_hat = naive_r_hat(panel, W, t)
            fit = fits[t]
            assert not fit.skipped
            assert abs(fit.r_tilde - r_hat) / r_hat < 0.05

    def test_solver_counts_match_the_calls(self, monkeypatch):
        kernel_calls, nm_iterations = [0], [0]
        kernel, nelder_mead = kernels.day_negloglik, inference.nelder_mead

        def counted_kernel(*args):
            kernel_calls[0] += 1
            return kernel(*args)

        def counted_nelder_mead(*args):
            res = nelder_mead(*args)
            nm_iterations[0] += res.iterations
            return res

        monkeypatch.setattr(kernels, "day_negloglik", counted_kernel)
        monkeypatch.setattr(inference, "nelder_mead", counted_nelder_mead)
        panel = make_panel(np.random.default_rng(6).integers(0, 30, size=(8, 14)))
        params = [f.params for f in fit_panel(panel, W) if not f.skipped]
        assert len(params) == 4
        assert sum(p.evaluations for p in params) == kernel_calls[0]
        assert sum(p.iterations for p in params) == nm_iterations[0]


def assert_same_day_fit(got, want):
    assert (got.date, got.skip_reason, got.r_tilde, got.ci) == (
        want.date,
        want.skip_reason,
        want.r_tilde,
        want.ci,
    )
    if want.params is None:
        assert got.params is None
        return
    for name in DayParams.__dataclass_fields__:
        g, w = getattr(got.params, name), getattr(want.params, name)
        assert np.array_equal(g, w) if name == "cov" else g == w, name


class TestOneDayRule:
    def test_fit_day_is_fit_panel_day(self):
        counts = np.random.default_rng(31).integers(1, 20, size=(3, 22))
        counts[:, 6:17] = 0  # days 10-15 have Phi but no cases, days 16-17 no Phi
        panel = make_panel(counts)
        fits = fit_panel(panel, W)
        expected = ["burn-in"] * 10 + ["no-cases"] * 6 + ["zero-phi"] * 2 + [None] * 4
        assert [f.skip_reason for f in fits] == expected
        for t in range(panel.n_days):
            assert_same_day_fit(fit_day(panel, W, t), fits[t])

    def test_one_region_rejected_by_both_entry_points(self):
        panel = make_panel(np.ones((1, 12), dtype=int))
        with pytest.raises(ValueError, match="at least 2 regions"):
            fit_panel(panel, W)
        with pytest.raises(ValueError, match="at least 2 regions"):
            fit_day(panel, W, 11)
        # no day, so nothing to fit or reject
        assert fit_panel(make_panel(np.ones((1, 0), dtype=int)), W) == []

    def test_cases_only_where_phi_is_zero(self):
        # only region 0 has a history, and only the others have cases: the
        # moment start sees no case where Phi > 0 and falls back to s = 0.5
        counts = np.zeros((3, 11), dtype=int)
        counts[0, :10] = 8
        counts[1:, 10] = [5, 9]
        panel = make_panel(counts)
        t = W.support_end
        phi = compute_phi(panel, W, t)
        start = inference._moment_start(panel.counts[:, t].astype(float), phi)
        assert start[1] == math.log(0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_day(panel, W, t)
        assert not fit.skipped
        assert math.isfinite(fit.r_tilde) and fit.r_tilde > 0


class TestCountyEstimates:
    def _fitted(self, counts):
        panel = make_panel(counts)
        fits = fit_panel(panel, W)
        return panel, fits, county_estimates(panel, W, fits)

    def test_zero_lambda_county_gets_prior_mean(self):
        rng = np.random.default_rng(13)
        counts = rng.integers(0, 20, size=(6, 12))
        counts[0, :] = 0  # silent county: Phi = 0 history
        panel = make_panel(counts)
        config = FitConfig()
        fits = fit_panel(panel, W, config)
        fit = fits[11]
        lam = compute_lambda(compute_phi(panel, W, 11), fit.params.p)
        ests = county_estimates(panel, W, [fit], config)
        assert ests.dates == (fit.date,)
        # county 0 still receives transfer mass, so check the closed form
        for c, region in enumerate(panel.region_ids):
            expected = (fit.params.a + panel.counts[c, 11]) * fit.params.s / (
                1 + fit.params.s * lam[c]
            )
            assert ests.mean[0, ests.region_ids.index(region)] == pytest.approx(expected)

    def test_shrinkage_bracketing(self):
        rng = np.random.default_rng(17)
        counts = rng.integers(0, 35, size=(8, 13))
        panel, fits, ests = self._fitted(counts)
        for (d, c), lam in np.ndenumerate(ests.lambda_c):
            if lam <= 0:
                continue
            fit = next(f for f in fits if f.date == ests.dates[d])
            prior_mean = fit.params.a * fit.params.s
            ratio = ests.cases[d, c] / lam
            lo, hi = sorted((prior_mean, ratio))
            assert lo - 1e-9 <= ests.mean[d, c] <= hi + 1e-9

    def test_quantiles_monotone(self):
        rng = np.random.default_rng(19)
        counts = rng.integers(0, 35, size=(5, 12))
        _, _, ests = self._fitted(counts)
        vals = ests.quantiles[..., np.argsort(ests.quantile_probs)]
        assert np.all(vals[..., :-1] <= vals[..., 1:])

    def test_skipped_days_produce_no_rows(self):
        panel = make_panel(np.zeros((3, 12), dtype=int))
        fits = fit_panel(panel, W)
        ests = county_estimates(panel, W, fits)
        assert ests.dates == ()
        assert ests.mean.size == 0
        assert ests.quantiles.shape == (0, 3, 3)

    def test_data_dominates_with_large_counts(self):
        K = 10
        day = np.full(K, 5000, dtype=np.int64)
        day[0] = 12000
        panel, t = panel_with_constant_phi(5000, day)
        fits = [fit_day(panel, W, t)]
        ests = county_estimates(panel, W, fits)
        c0 = ests.region_ids.index("r000")
        assert ests.mean[0, c0] == pytest.approx(
            ests.cases[0, c0] / ests.lambda_c[0, c0], rel=0.05
        )

    def test_equals_scalar_posterior_exactly(self):
        # wide enough that summing Phi in another order changes its rounding
        rng = np.random.default_rng(29)
        counts = rng.integers(0, 40, size=(300, 14))
        counts[0, :] = 0  # Phi = 0 on every day
        counts[1, :11] = 0  # Phi = 0 on the first fitted day only
        panel = make_panel(counts)
        config = FitConfig(quantile_probs=(0.025, 0.5, 0.9, 0.975))
        fits = fit_panel(panel, W, config)
        ests = county_estimates(panel, W, fits, config)
        fitted = [f for f in fits if not f.skipped]
        assert ests.dates == tuple(f.date for f in fitted)
        assert ests.region_ids == panel.region_ids
        phi = phi_matrix(panel, W)
        assert np.any(phi[:, [panel.dates.index(d) for d in ests.dates]] == 0.0)
        for d, fit in enumerate(fitted):
            t = panel.dates.index(fit.date)
            a, s = fit.params.a, fit.params.s
            lam = compute_lambda(phi[:, t], fit.params.p)
            for c in range(panel.n_regions):
                i_c = int(panel.counts[c, t])
                shape, scale = a + i_c, s / (1 + s * lam[c])
                assert ests.lambda_c[d, c] == lam[c]
                assert ests.cases[d, c] == i_c
                assert ests.mean[d, c] == shape * scale
                for j, q in enumerate(config.quantile_probs):
                    assert ests.quantiles[d, c, j] == gammaincinv(shape, q) * scale

    @pytest.mark.parametrize(
        "params",
        [dict(a=-0.5), dict(s=0.0), dict(p=1.5)],
        ids=["a", "s", "p"],
    )
    def test_domain_errors(self, params):
        panel = make_panel(np.random.default_rng(31).integers(1, 9, size=(4, 12)))
        fit = fit_panel(panel, W)[11]
        bad = replace(fit, params=replace(fit.params, **params))
        with pytest.raises(ValueError):
            county_estimates(panel, W, [bad])

