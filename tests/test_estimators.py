"""Tests for per-day aggregation (eq. 4), oracle-checked against DuckDB."""
import numpy as np
import pytest

from repro.core.estimators import SampleLayer, estimated_series, exact_series
from repro.core.gsw import (
    arithmetic_weight,
    delta_for_rate,
    geometric_weight,
    gsw_sample,
    optimal_weight,
)
from repro.forecast.metrics import relative_error
from repro.oracle import assert_equivalent
from repro.sampling.base import est_col
from repro.sampling.priority import priority_sample
from repro.sampling.uniform import uniform_sample
from repro.synth_data import ADS_MEASURES, random_constraint
from tests.conftest import DAYS

MEASURES = list(ADS_MEASURES)


class TestExactSeries:
    @pytest.mark.parametrize(
        "where",
        [
            None,
            "gender IN (1)",
            "age_group IN (0, 1, 2) AND device IN (0)",
            "interest IN (2, 4) AND city_tier IN (1, 2, 3)",
        ],
    )
    def test_matches_duckdb(self, ads_df, ads_pdf, where):
        import duckdb

        got = exact_series(ads_df, where, "impression", DAYS)
        w = f"WHERE {where}" if where else ""
        rows = duckdb.sql(
            f"SELECT t, SUM(impression) s FROM ads_pdf {w} GROUP BY t"
        ).fetchall()
        want = np.zeros(DAYS)
        for t, s in rows:
            want[int(t)] = float(s)
        assert np.allclose(got, want)

    def test_spark_groupby_oracle(self, ads_df, ads_pdf):
        """The exact Catalyst plan (Filter→Aggregate) against the oracle."""
        from pyspark.sql import functions as F

        where = "gender IN (1) AND device IN (0, 1)"
        spark_df = (
            ads_df.where(where)
            .groupBy("t")
            .agg(F.sum("impression").alias("total"))
        )
        assert_equivalent(
            spark_df,
            f"SELECT t, SUM(impression) AS total FROM ads WHERE {where} GROUP BY t",
            ads=ads_pdf,
        )

    def test_dense_output_with_missing_days(self, ads_df):
        # An impossible constraint yields an all-zero series of full length.
        got = exact_series(ads_df, "gender IN (0) AND gender IN (1)", "impression", DAYS)
        assert got.shape == (DAYS,) and np.all(got == 0)

    def test_each_measure(self, ads_df, ads_pdf):
        for m in ("favorite", "click", "cart"):
            got = exact_series(ads_df, None, m, DAYS)
            want = ads_pdf.groupby("t")[m].sum().to_numpy(dtype=float)
            assert np.allclose(got, want)


class TestEstimatedSeries:
    def test_unsampled_estimate_vs_oracle(self, ads_df, ads_pdf):
        """HT estimate recomputed in DuckDB over the same sample rows."""
        import duckdb

        delta = delta_for_rate(ads_df, optimal_weight("impression"), 0.05)
        s = gsw_sample(ads_df, optimal_weight("impression"), delta,
                       measures=["impression"], seed=0)
        got = estimated_series(s, "gender IN (1)", "impression", DAYS)
        spdf = s.toPandas()
        rows = duckdb.sql(
            "SELECT t, SUM(impression_est) FROM spdf WHERE gender IN (1) GROUP BY t"
        ).fetchall()
        want = np.zeros(DAYS)
        for t, v in rows:
            want[int(t)] = float(v)
        assert np.allclose(got, want)

    def test_estimates_track_truth(self, ads_df):
        where, _ = random_constraint(0.1, seed=0)
        truth = exact_series(ads_df, where, "impression", DAYS)
        delta = delta_for_rate(ads_df, optimal_weight("impression"), 0.10)
        s = gsw_sample(ads_df, optimal_weight("impression"), delta,
                       measures=["impression"], seed=1).cache()
        est = estimated_series(s, where, "impression", DAYS)
        assert relative_error(est, truth) < 0.5
        # correlated day-to-day: the estimated series follows the true one
        assert np.corrcoef(est, truth)[0, 1] > 0.5


@pytest.fixture(scope="module")
def layers(ads_df):
    """One pinned layer per sampler; pinning also fills each cache."""
    def gsw(weight, measures):
        return gsw_sample(ads_df, weight, delta_for_rate(ads_df, weight, 0.05),
                          measures=measures, seed=3)

    samples = {
        "opt": gsw(optimal_weight("impression"), ["impression"]),
        "agsw": gsw(arithmetic_weight(MEASURES), MEASURES),
        "ggsw": gsw(geometric_weight(MEASURES), MEASURES),
        "uniform": uniform_sample(ads_df, 0.05, measures=MEASURES, seed=3),
        "priority": priority_sample(ads_df, 75, measure="impression", seed=3),
    }
    out = {name: SampleLayer.pin(s.cache()) for name, s in samples.items()}
    yield out
    for layer in out.values():
        layer.df.unpersist()


class TestPinnedLayer:
    """The driver-side serving path against Spark's GROUP BY on the same rows."""

    @pytest.mark.parametrize("name", ["opt", "agsw", "ggsw", "uniform", "priority"])
    @pytest.mark.parametrize(
        "where",
        [
            None,
            "device IN (0, 2)",
            "age_group IN (0, 1, 2) AND interest IN (3, 5, 7) AND city_tier IN (1, 2)",
            "gender IN (0) AND gender IN (1)",  # matches no row
        ],
    )
    def test_matches_spark_groupby(self, layers, name, where):
        layer = layers[name]
        assert layer.est, "layer pinned no calibrated column"
        for col in layer.est:
            measure = col.removesuffix("_est")
            got = estimated_series(layer, where, measure, DAYS)
            want = exact_series(layer.df, where, col, DAYS)
            assert got.dtype == np.float64 and got.shape == (DAYS,)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_pins_only_serving_columns(self, layers):
        layer = layers["agsw"]
        assert set(layer.est) == {est_col(m) for m in MEASURES}
        assert layer.t.shape == (layer.df.count(),)
        assert all(codes.dtype == np.uint8 for codes in layer.dims.values())

    def test_unknown_measure_raises(self, layers):
        with pytest.raises(KeyError):
            estimated_series(layers["opt"], None, "click", DAYS)


class TestRelativeAggError:
    def test_zero_for_exact(self):
        t = np.array([1.0, 2.0, 3.0])
        assert relative_error(t.copy(), t) == 0.0

    def test_simple_value(self):
        t = np.array([10.0, 10.0])
        e = np.array([11.0, 9.0])
        assert relative_error(e, t) == pytest.approx(0.1)

    def test_skips_zero_truth_days(self):
        t = np.array([0.0, 10.0])
        e = np.array([5.0, 12.0])
        assert relative_error(e, t) == pytest.approx(0.2)

    def test_all_zero_truth(self):
        assert relative_error(np.zeros(3), np.zeros(3)) == 0.0
        assert relative_error(np.ones(3), np.zeros(3)) == float("inf")
