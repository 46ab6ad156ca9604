"""End-to-end tests for the FlashP pipeline (sample → estimate → fit →
forecast), matching the two online phases of Section 2.2."""
import numpy as np
import pytest

from repro.core.estimators import exact_series
from repro.core.pipeline import FlashP
from repro.forecast.metrics import relative_error
from repro.synth_data import ADS_MEASURES
from tests.conftest import DAYS

TRAIN_END = DAYS - 8  # train on days 0..21, evaluate forecasts on 22..28
ARIMA_FAST = {"max_p": 1, "max_q": 1, "max_d": 1}


@pytest.fixture(scope="module")
def flashp(ads_df):
    fp = FlashP(ads_df, days=DAYS)
    fp.add_gsw_sample("opt_imp", rate=0.1, weights="impression", seed=1)
    fp.add_gsw_sample("agsw", rate=0.1, weights=list(ADS_MEASURES), seed=1)
    fp.add_gsw_sample("ggsw", rate=0.1, weights="geometric:" + ",".join(ADS_MEASURES), seed=1)
    fp.add_uniform_sample("unif", rate=0.1, seed=1)
    fp.add_priority_sample("prio_imp", rate=0.1, measure="impression", seed=1)
    fp.build_pim()
    return fp


TASK = (
    f"FORECAST SUM(impression) FROM ads WHERE gender = 1 "
    f"USING (0, {TRAIN_END}) OPTION (MODEL='arima', FORE_PERIOD=7)"
)


class TestSources:
    def test_full_source_matches_exact_series(self, flashp, ads_df):
        o = flashp.run(TASK, source="full", arima_kwargs=ARIMA_FAST)
        truth = exact_series(ads_df, "gender IN (1)", "impression", DAYS)
        assert np.allclose(o.series, truth[: TRAIN_END + 1])

    @pytest.mark.parametrize("src", ["opt_imp", "agsw", "ggsw", "unif", "prio_imp"])
    def test_sampled_sources_track_truth(self, flashp, ads_df, src):
        o = flashp.run(TASK, source=src, arima_kwargs=ARIMA_FAST)
        truth = exact_series(ads_df, "gender IN (1)", "impression", DAYS)[: TRAIN_END + 1]
        rel = np.mean(np.abs(o.series - truth) / truth)
        assert rel < 0.5
        assert np.corrcoef(o.series, truth)[0, 1] > 0.3

    @pytest.mark.parametrize("src", ["opt_imp", "agsw", "ggsw", "unif", "prio_imp"])
    def test_sampled_sources_serve_pinned_layer(self, flashp, src):
        # The reference: Spark's SUM(impression_est) GROUP BY t on the
        # layer's cached DataFrame.
        o = flashp.run(TASK, source=src, arima_kwargs=ARIMA_FAST)
        want = exact_series(flashp.sample(src), "gender IN (1)", "impression_est", DAYS)
        np.testing.assert_allclose(o.series, want[: TRAIN_END + 1], rtol=1e-12, atol=0)

    def test_pim_source_runs(self, flashp):
        o = flashp.run(TASK, source="pim", arima_kwargs=ARIMA_FAST)
        assert len(o.series) == TRAIN_END + 1

    def test_unknown_source_raises(self, flashp):
        with pytest.raises(KeyError):
            flashp.run(TASK, source="nope", arima_kwargs=ARIMA_FAST)

    def test_pim_requires_build(self, ads_df):
        fp = FlashP(ads_df, days=DAYS)
        with pytest.raises(RuntimeError):
            fp.run(TASK, source="pim")


class TestOutcome:
    def test_shapes(self, flashp):
        o = flashp.run(TASK, source="full", arima_kwargs=ARIMA_FAST)
        assert len(o.series) == TRAIN_END + 1
        assert o.point.shape == o.lower.shape == o.upper.shape == (7,)
        assert np.all(o.lower <= o.point) and np.all(o.point <= o.upper)

    def test_timings_recorded(self, flashp):
        o = flashp.run(TASK, source="opt_imp", arima_kwargs=ARIMA_FAST)
        for key in ("aggregate_s", "fit_s", "forecast_s", "total_s"):
            assert o.timings[key] >= 0.0
        assert o.timings["total_s"] == pytest.approx(
            o.timings["aggregate_s"] + o.timings["fit_s"] + o.timings["forecast_s"],
            rel=0.01,
        )

    def test_model_order_set_for_arima(self, flashp):
        o = flashp.run(TASK, source="full", arima_kwargs=ARIMA_FAST)
        assert o.model_order is not None and len(o.model_order) == 3

    def test_forecast_quality_on_full_data(self, flashp, ads_df):
        o = flashp.run(TASK, source="full")
        truth = exact_series(ads_df, "gender IN (1)", "impression", DAYS)
        future = truth[TRAIN_END + 1 : TRAIN_END + 8]
        # Tiny scale: 23 training days cannot resolve the 30-day cycle and
        # the 1.5k-rows/day aggregate is compositionally noisy — just bound
        # the error loosely here; forecast quality is asserted at benchmark
        # scale (150 training days) in benchmarks/.
        assert relative_error(o.point, future) < 0.6

    def test_lstm_model_path(self, flashp, ads_df):
        o = flashp.run(TASK.replace("'arima'", "'lstm'"), source="full", lstm_epochs=150)
        truth = exact_series(ads_df, "gender IN (1)", "impression", DAYS)
        future = truth[TRAIN_END + 1 : TRAIN_END + 8]
        assert o.model_order is None
        assert relative_error(o.point, future) < 0.6

    def test_task_object_accepted(self, flashp):
        from repro.core.task import parse_task

        o = flashp.run(parse_task(TASK), source="full", arima_kwargs=ARIMA_FAST)
        assert len(o.point) == 7

    def test_using_window_past_last_day_rejected(self, flashp):
        task = "FORECAST SUM(click) FROM ads USING (0, 999)"
        with pytest.raises(ValueError, match="ends past the relation's last day"):
            flashp.run(task, source="full", arima_kwargs=ARIMA_FAST)

    def test_using_window_respected(self, flashp):
        task = (
            f"FORECAST SUM(click) FROM ads WHERE device = 0 USING (5, {TRAIN_END})"
        )
        o = flashp.run(task, source="full", arima_kwargs=ARIMA_FAST)
        assert len(o.series) == TRAIN_END - 5 + 1


class TestSampleManagement:
    def test_sample_sizes_near_rate(self, flashp, ads_df):
        n = ads_df.count()
        for name in ("opt_imp", "agsw", "unif"):
            frac = flashp.sample(name).count() / n
            assert 0.05 <= frac <= 0.15

    def test_priority_sample_fixed_size(self, flashp, ads_df):
        n_day = ads_df.count() / DAYS
        got = flashp.sample("prio_imp").count()
        assert got == DAYS * round(0.1 * n_day)

    @pytest.mark.parametrize("rate", [0.0, -1.0, 1.5])
    def test_gsw_rejects_out_of_range_rate(self, ads_df, rate):
        with pytest.raises(ValueError, match="rate must be in"):
            FlashP(ads_df, days=DAYS).add_gsw_sample("bad", rate=rate, weights="impression")

    @pytest.mark.parametrize("rate", [0.0, -1.0, 1.5])
    def test_priority_rejects_out_of_range_rate(self, ads_df, rate):
        with pytest.raises(ValueError, match="rate must be in"):
            FlashP(ads_df, days=DAYS).add_priority_sample("bad", rate=rate, measure="impression")

    def test_sample_has_calibrated_columns(self, flashp):
        from repro.sampling.base import est_col

        s = flashp.sample("agsw")
        for m in ADS_MEASURES:
            assert est_col(m) in s.columns
