import datetime
import math

import numpy as np
import pytest

from countyrt import (
    GenerationTimePmf,
    SimConfig,
    calibrate_sigma,
    cross_county_fraction,
    simulate,
    simulator,
    trapezoid_pmf,
)
from countyrt.simulator import default_generation_time

SMALL = dict(k=4, initial_cases=50, schedule=((15, 1.5),))


class TestSimulate:
    def test_extinction_with_zero_r(self):
        res = simulate(SimConfig(k=4, initial_cases=30, schedule=((12, 0.0),), seed=5))
        w = default_generation_time()
        # only the seeded cohort appears, all on pre-history days
        dates = np.array([(d - res.config.start_date).days for d in res.panel.dates])
        daily = res.panel.counts.sum(axis=0)
        assert daily[dates <= 0].sum() == 30
        assert daily[dates >= 1].sum() == 0

    def test_bit_reproducible(self):
        cfg = SimConfig(seed=77, **SMALL)
        r1 = simulate(cfg)
        r2 = simulate(SimConfig(seed=77, **SMALL))
        assert np.array_equal(r1.panel.counts, r2.panel.counts)
        assert r1.panel.dates == r2.panel.dates
        assert r1.cross_county_fraction == r2.cross_county_fraction

    def test_seed_changes_output(self):
        r1 = simulate(SimConfig(seed=1, **SMALL))
        r2 = simulate(SimConfig(seed=2, **SMALL))
        assert not np.array_equal(r1.panel.counts, r2.panel.counts)

    def test_panel_shape_default_scenario(self):
        res = simulate(SimConfig(seed=3))
        w = default_generation_time()
        assert res.panel.n_regions == 400
        # pre-history spans days 1-support_end .. 0, scored days 1..100
        assert res.panel.n_days == 100 + w.support_end
        assert len(res.true_r) == 100
        assert res.true_r[0] == 2.5
        assert res.true_r[20] == 0.7  # change on day 21
        assert res.true_r[60] == 1.2  # change on day 61
        assert res.truth_dates[0] == res.config.start_date + datetime.timedelta(days=1)

    def test_count_conservation_and_positivity(self):
        res = simulate(SimConfig(seed=9, **SMALL))
        assert np.all(res.panel.counts >= 0)
        assert res.panel.counts.sum() >= SMALL["initial_cases"]

    def test_expected_offspring_matches_r(self):
        # with constant R every individual spawns Pois(R w(tau)) per day of
        # its infectious window, so mean total offspring per individual = R
        R = 1.3
        cfg = SimConfig(
            k=10, initial_cases=20000, schedule=((10, R),), sigma=0.5, seed=13
        )
        res = simulate(cfg)
        # day 1 has only seed offspring: seed ages are uniform on the
        # support, so the expected total is initial * R * mean(w)
        weights = np.asarray(cfg.w.weights)
        dates = np.array([(d - cfg.start_date).days for d in res.panel.dates])
        day1 = int(res.panel.counts.sum(axis=0)[dates == 1][0])
        expected = cfg.initial_cases * R * weights.mean()
        se = np.sqrt(expected)
        assert abs(day1 - expected) < 3 * se

    def test_torus_wrap_spreads_mass(self):
        # huge dispersal: offspring counties approach uniform over the torus
        cfg = SimConfig(
            k=5, initial_cases=20000, schedule=((1, 2.0),), sigma=50.0, seed=21
        )
        res = simulate(cfg)
        dates = np.array([(d - cfg.start_date).days for d in res.panel.dates])
        day1 = res.panel.counts[:, dates == 1].ravel()
        assert day1.sum() > 1000
        frac = day1.max() / day1.sum()
        assert frac == pytest.approx(1 / 25, rel=0.25)
        assert res.cross_county_fraction > 0.9

    def test_county_r_sampling_mode_runs(self):
        cfg = SimConfig(seed=31, county_r_scale=0.2, **SMALL)
        res = simulate(cfg)
        assert res.panel.counts.sum() > 0

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SimConfig(k=1)
        with pytest.raises(ValueError):
            SimConfig(sigma=0.0)
        with pytest.raises(ValueError):
            SimConfig(schedule=((5, -1.0),))
        with pytest.raises(ValueError, match="^initial_cases must be >= 1$"):
            SimConfig(initial_cases=0)
        with pytest.raises(ValueError, match="^schedule must be non-empty$"):
            SimConfig(schedule=())
        with pytest.raises(ValueError, match="^seed must be >= 0$"):
            SimConfig(seed=-1)

    def test_non_finite_schedule_r_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            SimConfig(schedule=((5, 1.2), (20, math.nan)))

    def test_dates_outside_years_1_to_9999_rejected(self):
        # the default w's burn-in starts 9 days before start_date, and the
        # 5-day schedule ends 5 days after it
        last = datetime.date(9999, 12, 31)
        for start in (datetime.date(1, 1, 9), last - datetime.timedelta(days=4)):
            with pytest.raises(ValueError, match="outside years 1-9999"):
                SimConfig(schedule=((5, 1.2),), start_date=start)
        for start in (datetime.date(1, 1, 10), last - datetime.timedelta(days=5)):
            SimConfig(schedule=((5, 1.2),), start_date=start)
        # a schedule longer than years 1-9999 less the burn-in fits no start date
        first = datetime.date(1, 1, 10)
        longest = (last - first).days
        SimConfig(schedule=((longest, 1.2),), start_date=first)
        for days in (longest + 1, 10**9):
            with pytest.raises(ValueError, match=f"^a schedule of {days} days puts simulated"):
                SimConfig(schedule=((days, 1.2),))
        # a burn-in longer than years 1-9999 less one day fits no schedule; only the
        # config is built, since simulating a support this long is out of reach
        span = (last - datetime.date.min).days
        one_day = dict(schedule=((1, 1.2),), start_date=last - datetime.timedelta(days=1))
        SimConfig(w=GenerationTimePmf(span, np.array([1.0])), **one_day)
        for days in (span + 1, 4_000_000):
            w = GenerationTimePmf(days, np.array([1.0]))
            with pytest.raises(ValueError, match=f"^a generation time of {days} days puts"):
                SimConfig(w=w, **one_day)
            with pytest.raises(ValueError, match=f"^a generation time of {days} days puts"):
                SimConfig(w=w)


class TestCrossCountyFraction:
    def test_tiny_sigma(self):
        assert cross_county_fraction(1e-6, samples=20000, seed=1) < 1e-3

    def test_reference_dispersal_value(self):
        frac = cross_county_fraction(0.14, samples=10**6, seed=2)
        assert frac == pytest.approx(0.20, abs=0.02)

    def test_large_sigma_uniform_limit(self):
        frac = cross_county_fraction(10.0, samples=200000, seed=3, k=20)
        assert frac == pytest.approx(1 - 1 / 400, abs=0.01)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf])
    def test_sigma_outside_positive_finite_rejected(self, sigma):
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            cross_county_fraction(sigma, samples=10)

    def test_no_samples_rejected(self):
        with pytest.raises(ValueError, match="samples must be >= 1"):
            cross_county_fraction(0.14, samples=0)

    @pytest.mark.parametrize("k", [0, -3])
    def test_torus_below_one_county_rejected(self, k):
        with pytest.raises(ValueError, match="torus size k must be >= 1"):
            cross_county_fraction(0.1, samples=10, k=k)

    def test_monotone_in_sigma(self):
        vals = [
            cross_county_fraction(s, samples=100000, seed=4)
            for s in (0.05, 0.1, 0.2, 0.4, 0.8)
        ]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestCalibrateSigma:
    def test_reference_target(self):
        sigma = calibrate_sigma(0.20, tol=1e-3, seed=5)
        assert 0.13 <= sigma <= 0.15

    def test_small_target_gives_small_sigma(self):
        assert calibrate_sigma(0.01, tol=1e-3, seed=6) < 0.05

    def test_reproducible_and_consistent(self):
        s1 = calibrate_sigma(0.5, tol=1e-4, seed=7)
        s2 = calibrate_sigma(0.5, tol=1e-4, seed=7)
        assert s1 == s2
        achieved = cross_county_fraction(s1, samples=400000, seed=8)
        assert achieved == pytest.approx(0.5, abs=0.01)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    def test_nonpositive_tolerance_rejected(self, tol, monkeypatch):
        def unreached(*args):
            raise AssertionError("tol is checked before the first evaluation")

        monkeypatch.setattr(simulator, "cross_county_fraction", unreached)
        with pytest.raises(ValueError, match="tol must be positive"):
            calibrate_sigma(0.3, tol=tol, samples=10)

    def test_tolerance_below_float_spacing_terminates(self, monkeypatch):
        calls = []

        def counted(sigma, *args):
            calls.append(sigma)
            assert len(calls) < 200, "bisection does not stop"
            return fraction(sigma, *args)

        fraction = simulator.cross_county_fraction
        monkeypatch.setattr(simulator, "cross_county_fraction", counted)
        sigma = calibrate_sigma(0.3, tol=1e-300, seed=10, samples=1000)
        # the bracket has closed to adjacent floats around the answer
        assert fraction(np.nextafter(sigma, 0.0), 1000, 10) < 0.3 <= fraction(
            np.nextafter(sigma, np.inf), 1000, 10
        )

    @pytest.mark.parametrize("target", [0.0, 1.0, -0.2, math.nan])
    def test_target_outside_unit_interval_rejected(self, target):
        with pytest.raises(ValueError, match=r"target fraction must be in \(0, 1\)"):
            calibrate_sigma(target, samples=10)

    @pytest.mark.parametrize("k", [0, -3])
    def test_torus_below_one_county_rejected(self, k):
        with pytest.raises(ValueError, match="torus size k must be >= 1"):
            calibrate_sigma(0.3, samples=10, k=k)

    def test_unreachable_target(self):
        with pytest.raises(ValueError):
            calibrate_sigma(0.999999, tol=1e-3, seed=9, samples=10000)
