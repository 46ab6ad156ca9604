"""Tests for the numpy LSTM forecaster, including a numerical gradient
check of the hand-written BPTT against finite differences."""
import numpy as np
import pytest

from repro.forecast.lstm import LSTMForecaster
from repro.forecast.metrics import relative_error


def loss_of(model: LSTMForecaster, X: np.ndarray, y: np.ndarray) -> float:
    pred, _, _ = model._forward(X)
    return float(np.mean((pred - y) ** 2) / 2.0)


class TestGradients:
    def test_bptt_matches_finite_differences(self):
        """The analytic gradients must match central finite differences."""
        m = LSTMForecaster(window=4, hidden=3, seed=0)
        g = np.random.default_rng(1)
        X = g.normal(0, 1, (5, 4))
        y = g.normal(0, 1, 5)

        # Analytic gradients (replicating one fit() backward pass).
        pred, h_last, caches = m._forward(X)
        N = len(y)
        err = pred - y
        gWd = h_last.T @ err / N
        dh = np.outer(err, m.Wd) / N
        dc = np.zeros_like(dh)
        gWx = np.zeros_like(m.Wx)
        gWh = np.zeros_like(m.Wh)
        gb = np.zeros_like(m.b)
        H = m.hidden
        for t in range(m.window - 1, -1, -1):
            x_t, h_prev, c_prev, i, f, o, gg, c_new, tanh_c = caches[t]
            do = dh * tanh_c
            dc = dc + dh * o * (1 - tanh_c**2)
            di, dg, df = dc * gg, dc * i, dc * c_prev
            dzi = di * i * (1 - i)
            dzf = df * f * (1 - f)
            dzo = do * o * (1 - o)
            dzg = dg * (1 - gg**2)
            dz = np.concatenate([dzi, dzf, dzo, dzg], axis=1)
            gWx += dz.T @ x_t
            gWh += dz.T @ h_prev
            gb += dz.sum(axis=0)
            dh = dz @ m.Wh
            dc = dc * f

        eps = 1e-6
        for name, param, grad in (
            ("Wx", m.Wx, gWx), ("Wh", m.Wh, gWh), ("b", m.b, gb), ("Wd", m.Wd, gWd)
        ):
            flat_p = param.reshape(-1)
            flat_g = grad.reshape(-1)
            idxs = np.linspace(0, flat_p.size - 1, min(8, flat_p.size)).astype(int)
            for idx in idxs:
                orig = flat_p[idx]
                flat_p[idx] = orig + eps
                lp = loss_of(m, X, y)
                flat_p[idx] = orig - eps
                lm = loss_of(m, X, y)
                flat_p[idx] = orig
                num = (lp - lm) / (2 * eps)
                assert num == pytest.approx(flat_g[idx], rel=1e-3, abs=1e-7), name


class TestTraining:
    def test_loss_decreases(self):
        g = np.random.default_rng(2)
        t = np.arange(120)
        series = 50 + 10 * np.sin(2 * np.pi * t / 7) + g.normal(0, 1, 120)
        few = LSTMForecaster(epochs=5, seed=3).fit(series)
        many = LSTMForecaster(epochs=300, seed=3).fit(series)
        assert many._resid_std < few._resid_std

    def test_learns_weekly_pattern(self):
        g = np.random.default_rng(4)
        t = np.arange(157)
        x = 100 + 30 * np.sin(2 * np.pi * t / 7) + g.normal(0, 2, 157)
        m = LSTMForecaster(epochs=400, seed=5).fit(x[:150])
        point, _, _ = m.forecast(7)
        assert relative_error(point, x[150:]) < 0.15

    def test_deterministic_given_seed(self):
        series = np.arange(50.0) + 7.0
        a = LSTMForecaster(epochs=30, seed=6).fit(series).forecast(3)[0]
        b = LSTMForecaster(epochs=30, seed=6).fit(series).forecast(3)[0]
        assert np.allclose(a, b)

    def test_seed_changes_result(self):
        g = np.random.default_rng(7)
        series = g.normal(10, 1, 60)
        a = LSTMForecaster(epochs=30, seed=1).fit(series).forecast(3)[0]
        b = LSTMForecaster(epochs=30, seed=2).fit(series).forecast(3)[0]
        assert not np.allclose(a, b)

    def test_too_short_series_raises(self):
        with pytest.raises(ValueError):
            LSTMForecaster(window=7).fit(np.arange(8.0))


class TestForecastAPI:
    def _fitted(self):
        g = np.random.default_rng(8)
        return LSTMForecaster(epochs=50, seed=9).fit(g.normal(100, 5, 80))

    def test_shapes(self):
        point, lo, hi = self._fitted().forecast(7)
        assert point.shape == lo.shape == hi.shape == (7,)

    def test_interval_ordering(self):
        point, lo, hi = self._fitted().forecast(7)
        assert np.all(lo <= point) and np.all(point <= hi)

    def test_interval_widens(self):
        _, lo, hi = self._fitted().forecast(10)
        w = hi - lo
        assert np.all(np.diff(w) > -1e-12)

    def test_forecast_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            LSTMForecaster().forecast(3)

    def test_original_units(self):
        # A constant series must forecast near that constant.
        series = np.full(60, 1234.0) + np.random.default_rng(10).normal(0, 1, 60)
        point, _, _ = LSTMForecaster(epochs=200, seed=11).fit(series).forecast(5)
        assert np.all(np.abs(point - 1234.0) < 50)
