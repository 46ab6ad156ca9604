"""Tests for differencing, integration, and auto order selection."""
import numpy as np
import pytest

from repro.forecast.arima import auto_arima, difference, fit_arima, select_d
from repro.forecast.metrics import relative_error


def trend_season(n, *, slope=5.0, level=1000.0, amp=100.0, noise=20.0, seed=0):
    g = np.random.default_rng(seed)
    t = np.arange(n)
    return level + slope * t + amp * np.sin(2 * np.pi * t / 7) + g.normal(0, noise, n)


class TestDifference:
    def test_d0_identity(self):
        x = np.array([1.0, 4.0, 9.0])
        assert np.allclose(difference(x, 0), x)

    def test_d1(self):
        assert np.allclose(difference(np.array([1.0, 4.0, 9.0]), 1), [3.0, 5.0])

    def test_d2(self):
        assert np.allclose(difference(np.array([1.0, 4.0, 9.0, 16.0]), 2), [2.0, 2.0])

    def test_d2_kills_linear_trend(self):
        x = 3.0 + 2.0 * np.arange(50)
        assert np.allclose(difference(x, 2), 0.0)


class TestSelectD:
    def test_stationary_gives_zero(self):
        g = np.random.default_rng(1)
        assert select_d(g.normal(0, 1, 300)) == 0

    def test_random_walk_gives_one(self):
        g = np.random.default_rng(2)
        assert select_d(np.cumsum(g.normal(0, 1, 300))) == 1

    def test_integrated_twice_gives_two(self):
        g = np.random.default_rng(3)
        assert select_d(np.cumsum(np.cumsum(g.normal(0, 1, 300)))) == 2

    def test_max_d_cap(self):
        g = np.random.default_rng(4)
        x = np.cumsum(np.cumsum(g.normal(0, 1, 300)))
        assert select_d(x, max_d=1) == 1


class TestFitArima:
    def test_d1_forecast_integrates_last_value(self):
        # Deterministic linear trend: ∇x is constant; forecasts continue it.
        x = 10.0 + 3.0 * np.arange(60)
        fit = fit_arima(x, 0, 1, 0)
        point, _, _ = fit.forecast(5)
        assert np.allclose(point, x[-1] + 3.0 * np.arange(1, 6), rtol=1e-6)

    def test_order_property(self):
        x = trend_season(120)
        fit = fit_arima(x, 2, 1, 1)
        assert fit.order == (2, 1, 1)

    def test_sigma2_rescaled_to_original_units(self):
        g = np.random.default_rng(5)
        x = np.cumsum(g.normal(0, 3.0, 800))
        fit = fit_arima(x, 0, 1, 0)
        assert fit.sigma2 == pytest.approx(9.0, rel=0.15)

    def test_intervals_widen_faster_when_integrated(self):
        g = np.random.default_rng(6)
        x = np.cumsum(g.normal(0, 1, 400))
        f1 = fit_arima(x, 0, 1, 0)
        _, lo, hi = f1.forecast(10)
        w = hi - lo
        # Random-walk interval width grows like sqrt(h): strictly increasing.
        assert np.all(np.diff(w) > 0)
        assert w[-1] / w[0] == pytest.approx(np.sqrt(10), rel=0.1)

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            fit_arima(np.arange(5.0), 2, 1, 2)


class TestAutoArima:
    def test_forecasts_trend_season_accurately(self):
        x = trend_season(157, seed=7)
        fit = auto_arima(x[:150])
        point, lo, hi = fit.forecast(7)
        truth = x[150:]
        assert relative_error(point, truth) < 0.05
        assert np.mean((truth >= lo) & (truth <= hi)) >= 0.7

    def test_picks_differencing_for_trend(self):
        x = trend_season(150, slope=10.0, noise=5.0, seed=8)
        assert auto_arima(x).d >= 1

    def test_white_noise_low_order(self):
        g = np.random.default_rng(9)
        x = g.normal(50, 1, 200)
        fit = auto_arima(x, max_p=2, max_q=2)
        p, d, q = fit.order
        assert d == 0 and p + q <= 3

    def test_respects_grid_limits(self):
        x = trend_season(100, seed=10)
        fit = auto_arima(x, max_p=1, max_q=1, max_d=1)
        p, d, q = fit.order
        assert p <= 1 and q <= 1 and d <= 1

    def test_aic_optimality_within_grid(self):
        x = trend_season(120, seed=11)
        best = auto_arima(x, max_p=2, max_q=2)
        d = best.d
        for p in range(3):
            for q in range(3):
                if p == 0 and q == 0 and d == 0:
                    continue
                assert best.aic <= fit_arima(x, p, d, q).aic + 1e-6
