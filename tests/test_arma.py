"""Tests for the CSS ARMA fitter and its forecast machinery."""
import numpy as np
import pytest

from repro.forecast.arma import ARMAResult, _root_penalty, css_residuals, fit_arma


def simulate_arma(ar, ma, n, *, sigma=1.0, const=0.0, seed=0):
    ar, ma = np.atleast_1d(ar), np.atleast_1d(ma)
    g = np.random.default_rng(seed)
    u = g.normal(0, sigma, n + 50)
    x = np.zeros(n + 50)
    for t in range(max(len(ar), len(ma)) + 1, n + 50):
        x[t] = const + u[t]
        for i, a in enumerate(ar):
            x[t] += a * x[t - 1 - i]
        for j, b in enumerate(ma):
            x[t] += b * u[t - 1 - j]
    return x[50:]


class TestCssResiduals:
    def test_white_noise_model(self):
        x = np.array([1.0, -2.0, 3.0])
        e = css_residuals(x, 0.0, np.array([]), np.array([]))
        assert np.allclose(e, x)

    def test_constant_only(self):
        x = np.array([5.0, 5.0, 5.0])
        e = css_residuals(x, 5.0, np.array([]), np.array([]))
        assert np.allclose(e, 0.0)

    def test_ar1_hand_computed(self):
        x = np.array([1.0, 2.0, 3.0])
        e = css_residuals(x, 0.0, np.array([0.5]), np.array([]))
        # conditioned on x0: e1 = 2-0.5·1 = 1.5, e2 = 3-0.5·2 = 2
        assert np.allclose(e, [1.5, 2.0])

    def test_ma1_recursion(self):
        x = np.array([1.0, 1.0, 1.0])
        e = css_residuals(x, 0.0, np.array([]), np.array([0.5]))
        # e0 = 1; e1 = 1-0.5·1 = 0.5; e2 = 1-0.5·0.5 = 0.75
        assert np.allclose(e, [1.0, 0.5, 0.75])

    def test_exact_ar1_residuals_recover_noise(self):
        g = np.random.default_rng(1)
        u = g.normal(0, 1, 100)
        x = np.zeros(100)
        for t in range(1, 100):
            x[t] = 0.7 * x[t - 1] + u[t]
        e = css_residuals(x, 0.0, np.array([0.7]), np.array([]))
        assert np.allclose(e, u[1:])

    def test_length_conditioning(self):
        x = np.arange(10.0)
        assert len(css_residuals(x, 0.0, np.array([0.1, 0.1]), np.array([]))) == 8


def css_residuals_reference(x, c, ar, ma):
    """The plain scalar CSS recursion, kept as the exactness reference."""
    p, q = len(ar), len(ma)
    n = len(x)
    arpart = x.copy() - c
    for i in range(p):
        arpart[p:] -= ar[i] * x[p - 1 - i : n - 1 - i]
    if q == 0:
        return arpart[p:]
    e = np.zeros(n)
    for t in range(p, n):
        acc = arpart[t]
        for j in range(min(q, t)):
            acc -= ma[j] * e[t - 1 - j]
        e[t] = acc
    return e[p:]


def root_penalty_reference(coefs, kind):
    sign = -1.0 if kind == "ar" else 1.0
    roots = np.roots(np.concatenate(([1.0], sign * coefs))[::-1])
    return float(1e4 * np.sum(np.clip(1.05 - np.abs(roots), 0.0, None) ** 2))


class TestCssExactness:
    @pytest.mark.parametrize("p", [0, 1, 2])
    @pytest.mark.parametrize("q", [0, 1, 2, 3])
    def test_bit_identical_to_scalar_recursion(self, p, q):
        g = np.random.default_rng(10 * p + q)
        for n in (0, 1, 2, 3, 5, 150):
            for scale in (0.1, 0.9, 3.0):
                x = g.normal(size=n) * 100
                ar, ma = g.normal(size=p) * scale, g.normal(size=q) * scale
                c = float(g.normal())
                got = css_residuals(x, c, ar, ma)
                want = css_residuals_reference(x, c, ar, ma)
                assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("kind", ["ar", "ma"])
    def test_root_penalty_equals_roots_formula(self, kind):
        g = np.random.default_rng(0)
        cases = [g.normal(size=k) * s for k in (1, 2, 3) for s in (0.1, 0.5, 1.0, 2.0)
                 for _ in range(50)]
        # Coefficients whose Σ|c_i|·1.05^i straddles 1: roots near |z| = 1.05.
        for k in (1, 2, 3):
            base = np.abs(g.normal(size=k)) * g.choice([-1.0, 1.0], size=k)
            norm = float(np.sum(np.abs(base) * 1.05 ** np.arange(1, k + 1)))
            for f in (1 - 1e-6, 1 - 1e-9, 1 - 1e-12, 1.0, 1 + 1e-12, 1 + 1e-6):
                cases.append(base / norm * f)
        cases.append(np.array([1 / 1.05]))  # a root exactly at 1.05
        cases.append(np.array([0.999, 0.0]))  # near-unit root, zero lead
        for coefs in cases:
            assert _root_penalty(coefs, kind) == root_penalty_reference(coefs, kind)


class TestFitRecovery:
    def test_recovers_ar1(self):
        x = simulate_arma([0.7], [], 3000, seed=2)
        fit = fit_arma(x, 1, 0)
        assert fit.ar[0] == pytest.approx(0.7, abs=0.05)

    def test_recovers_ma1(self):
        x = simulate_arma([], [0.5], 3000, seed=3)
        fit = fit_arma(x, 0, 1)
        assert fit.ma[0] == pytest.approx(0.5, abs=0.05)

    def test_recovers_arma11(self):
        x = simulate_arma([0.6], [0.3], 4000, seed=4)
        fit = fit_arma(x, 1, 1)
        assert fit.ar[0] == pytest.approx(0.6, abs=0.07)
        assert fit.ma[0] == pytest.approx(0.3, abs=0.07)

    def test_recovers_sigma2(self):
        x = simulate_arma([0.5], [], 4000, sigma=2.0, seed=5)
        fit = fit_arma(x, 1, 0)
        assert fit.sigma2 == pytest.approx(4.0, rel=0.1)

    def test_recovers_mean(self):
        x = simulate_arma([0.5], [], 3000, const=5.0, seed=6)  # mean = 10
        fit = fit_arma(x, 1, 0)
        mean = fit.const / (1 - fit.ar[0])
        assert mean == pytest.approx(x.mean(), rel=0.1)

    def test_aic_prefers_true_order(self):
        x = simulate_arma([0.8], [], 1500, seed=7)
        aic_right = fit_arma(x, 1, 0).aic
        aic_wrong = fit_arma(x, 0, 0).aic  # white noise can't explain AR(1)
        assert aic_right < aic_wrong

    def test_series_too_short_raises(self):
        with pytest.raises(ValueError):
            fit_arma(np.array([1.0, 2.0]), 2, 1)

    def test_stationarity_penalty_keeps_roots_outside(self):
        # A near-random-walk series: the fitted AR root must stay ≥ ~1.
        g = np.random.default_rng(8)
        x = np.cumsum(g.normal(0, 1, 500))
        fit = fit_arma(x, 1, 0)
        assert abs(fit.ar[0]) < 1.01


class TestPsiWeights:
    def _fit(self, ar, ma):
        # Build a result directly: ψ-weights depend only on coefficients.
        return ARMAResult(
            p=len(ar), q=len(ma), const=0.0, ar=np.asarray(ar, float),
            ma=np.asarray(ma, float), sigma2=1.0, aic=0.0,
            resid=np.zeros(10), x=np.zeros(10),
        )

    def test_ar1_psi_geometric(self):
        psi = self._fit([0.5], []).psi_weights(6)
        assert np.allclose(psi, 0.5 ** np.arange(6))

    def test_ma1_psi_truncates(self):
        psi = self._fit([], [0.4]).psi_weights(5)
        assert np.allclose(psi, [1.0, 0.4, 0.0, 0.0, 0.0])

    def test_arma11_psi_closed_form(self):
        a, b = 0.6, 0.3
        psi = self._fit([a], [b]).psi_weights(6)
        expect = np.array([1.0] + [(a + b) * a ** (j - 1) for j in range(1, 6)])
        assert np.allclose(psi, expect)

    def test_psi_zero_horizon(self):
        assert len(self._fit([0.5], []).psi_weights(0)) == 0


class TestForecast:
    def test_white_noise_forecast_is_mean(self):
        g = np.random.default_rng(9)
        x = g.normal(10.0, 1.0, 500)
        fit = fit_arma(x, 0, 1)
        point, lo, hi = fit.forecast(5)
        # MA(1) forecast reverts to the unconditional mean after step 1.
        assert np.allclose(point[1:], fit.const, atol=1e-9)
        assert fit.const == pytest.approx(10.0, abs=0.2)

    def test_ar1_forecast_decays_to_mean(self):
        x = simulate_arma([0.8], [], 2000, const=2.0, seed=10)  # mean = 10
        fit = fit_arma(x, 1, 0)
        point, _, _ = fit.forecast(50)
        mean = fit.const / (1 - fit.ar[0])
        assert point[-1] == pytest.approx(mean, rel=0.05)

    def test_intervals_widen_with_horizon(self):
        x = simulate_arma([0.7], [], 1000, seed=11)
        point, lo, hi = fit_arma(x, 1, 0).forecast(10)
        widths = hi - lo
        assert np.all(np.diff(widths) >= -1e-9)

    def test_interval_contains_point(self):
        x = simulate_arma([0.5], [0.2], 1000, seed=12)
        point, lo, hi = fit_arma(x, 1, 1).forecast(7)
        assert np.all(lo <= point) and np.all(point <= hi)

    def test_higher_confidence_wider(self):
        x = simulate_arma([0.5], [], 1000, seed=13)
        fit = fit_arma(x, 1, 0)
        _, lo90, hi90 = fit.forecast(7, conf=0.9)
        _, lo99, hi99 = fit.forecast(7, conf=0.99)
        assert np.all(hi99 - lo99 > hi90 - lo90)

    def test_interval_coverage_monte_carlo(self):
        """90% intervals should cover ≈90% of one-step-ahead futures."""
        hits = 0
        runs = 120
        for s in range(runs):
            x = simulate_arma([0.6], [], 260, seed=100 + s)
            train, future = x[:250], x[250]
            fit = fit_arma(train, 1, 0)
            _, lo, hi = fit.forecast(1, conf=0.9)
            hits += int(lo[0] <= future <= hi[0])
        assert 0.80 <= hits / runs <= 0.98
