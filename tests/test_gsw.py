"""Tests for the GSW sampler as a Spark DataFrame transform."""
import uuid

import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.core.gsw import (
    arithmetic_weight,
    delta_for_rate,
    expected_sample_size,
    geometric_weight,
    gsw_sample,
    increase_delta,
    optimal_weight,
    solve_delta,
)
from repro.core.pipeline import FlashP
from repro.sampling.base import est_col
from repro.synth_data import ADS_MEASURES
from repro.theory import bounds
from tests.conftest import DAYS

WEIGHTS = {
    "optimal": (lambda: optimal_weight("impression"), ["impression"]),
    "arithmetic": (lambda: arithmetic_weight(list(ADS_MEASURES)), list(ADS_MEASURES)),
    "geometric": (lambda: geometric_weight(list(ADS_MEASURES)), list(ADS_MEASURES)),
}


class TestWeightExpressions:
    def test_optimal_weight_equals_measure(self, ads_df, ads_pdf):
        got = ads_df.select(optimal_weight("impression").alias("w")).toPandas()["w"]
        assert np.allclose(np.sort(got), np.sort(ads_pdf["impression"].astype(float)))

    def test_arithmetic_weight(self, ads_df, ads_pdf):
        got = ads_df.select(arithmetic_weight(list(ADS_MEASURES)).alias("w")).toPandas()["w"]
        want = ads_pdf[list(ADS_MEASURES)].mean(axis=1)
        assert np.allclose(np.sort(got), np.sort(want))

    def test_geometric_weight(self, ads_df, ads_pdf):
        got = ads_df.select(geometric_weight(list(ADS_MEASURES)).alias("w")).toPandas()["w"]
        want = np.exp(np.log(ads_pdf[list(ADS_MEASURES)].astype(float)).mean(axis=1))
        assert np.allclose(np.sort(got), np.sort(want), rtol=1e-9)


class TestGswSample:
    def test_keeps_input_columns(self, ads_df):
        s = gsw_sample(ads_df, optimal_weight("impression"), 500.0,
                       measures=["impression"], seed=0)
        for c in ads_df.columns:
            assert c in s.columns
        assert est_col("impression") in s.columns and "_w" in s.columns

    def test_calibrated_measure_formula(self, ads_df):
        delta = 500.0
        s = gsw_sample(ads_df, optimal_weight("impression"), delta,
                       measures=["impression"], seed=0)
        pdf = s.select("impression", "_w", est_col("impression")).toPandas()
        want = pdf["impression"] * (delta + pdf["_w"]) / pdf["_w"]
        assert np.allclose(pdf[est_col("impression")], want)

    def test_sample_size_near_expectation(self, ads_df):
        delta = 500.0
        w = optimal_weight("impression")
        es = expected_sample_size(ads_df, w, delta)
        got = gsw_sample(ads_df, w, delta, measures=["impression"], seed=3).count()
        # Binomial concentration: within 5 std devs.
        assert abs(got - es) < 5 * np.sqrt(es) + 5

    def test_estimate_unbiased_over_seeds(self, ads_df, ads_pdf):
        """Mean of M̂ over independent seeds converges to M."""
        truth = float(ads_pdf["impression"].sum())
        delta = float(ads_pdf["impression"].sum()) / (0.02 * len(ads_pdf))
        w = optimal_weight("impression")
        ests = []
        for seed in range(8):
            s = gsw_sample(ads_df, w, delta, measures=["impression"], seed=seed)
            ests.append(s.agg(F.sum(est_col("impression"))).first()[0])
        rel = abs(np.mean(ests) - truth) / truth
        # 8 seeds of a ~900-row expected sample: mean within ~3 RSTD/√8.
        assert rel < 3 * np.sqrt(1 / 900) / np.sqrt(8) + 0.02

    def test_deterministic_given_seed_and_partitioning(self, ads_df):
        w = optimal_weight("impression")
        a = gsw_sample(ads_df, w, 500.0, measures=["impression"], seed=5).count()
        b = gsw_sample(ads_df, w, 500.0, measures=["impression"], seed=5).count()
        assert a == b

    def test_different_seeds_differ(self, ads_df):
        w = optimal_weight("impression")
        a = gsw_sample(ads_df, w, 500.0, measures=["impression"], seed=1)
        b = gsw_sample(ads_df, w, 500.0, measures=["impression"], seed=2)
        sa = a.agg(F.sum(est_col("impression"))).first()[0]
        sb = b.agg(F.sum(est_col("impression"))).first()[0]
        assert sa != sb

    def test_multiple_measures_one_sample(self, ads_df):
        s = gsw_sample(ads_df, arithmetic_weight(list(ADS_MEASURES)), 200.0,
                       measures=list(ADS_MEASURES), seed=0)
        for m in ADS_MEASURES:
            assert est_col(m) in s.columns

    def test_rejects_bad_delta(self, ads_df):
        with pytest.raises(ValueError):
            gsw_sample(ads_df, optimal_weight("impression"), 0.0,
                       measures=["impression"], seed=0)

    def test_rejects_empty_measures(self, ads_df):
        with pytest.raises(ValueError):
            gsw_sample(ads_df, optimal_weight("impression"), 1.0, measures=[], seed=0)

    def test_heavy_rows_almost_always_sampled(self, ads_df, ads_pdf):
        """Rows with w ≫ Δ are included with probability ≈ 1."""
        delta = 10.0
        big = int((ads_pdf["impression"] > 1000).sum())
        if big == 0:
            pytest.skip("no heavy rows at this SF")
        s = gsw_sample(ads_df, optimal_weight("impression"), delta,
                       measures=["impression"], seed=7)
        got = s.where("impression > 1000").count()
        assert got >= 0.95 * big


class TestSolveDelta:
    def test_hits_target_size(self, ads_df):
        w = optimal_weight("impression")
        target = 0.03 * ads_df.count()
        delta = solve_delta(ads_df, w, target)
        es = expected_sample_size(ads_df, w, delta)
        assert abs(es - target) <= 0.05 * target

    def test_rate_wrapper(self, ads_df):
        w = arithmetic_weight(list(ADS_MEASURES))
        delta = delta_for_rate(ads_df, w, 0.02)
        es = expected_sample_size(ads_df, w, delta)
        assert abs(es - 0.02 * ads_df.count()) <= 0.05 * 0.02 * ads_df.count()

    def test_larger_rate_smaller_delta(self, ads_df):
        w = optimal_weight("impression")
        d_small = delta_for_rate(ads_df, w, 0.01)
        d_big = delta_for_rate(ads_df, w, 0.10)
        assert d_big < d_small

    def test_rate_one_keeps_everything(self, ads_df):
        w = optimal_weight("impression")
        delta = delta_for_rate(ads_df, w, 1.0)
        s = gsw_sample(ads_df, w, delta, measures=["impression"], seed=0)
        assert s.count() >= 0.99 * ads_df.count()

    def test_rejects_nonpositive_target(self, ads_df):
        with pytest.raises(ValueError):
            solve_delta(ads_df, optimal_weight("impression"), 0.0)

    @pytest.mark.parametrize("kind", ["optimal", "geometric"])
    def test_rejects_nonpositive_or_null_weights(self, ads_df, kind):
        # A zeroed measure gives w = 0 (optimal) or NULL (log(0) in the
        # geometric mean): such rows could never be drawn, biasing G-GSW.
        weight = (
            optimal_weight("favorite") if kind == "optimal"
            else geometric_weight(list(ADS_MEASURES))
        )
        zeroed = ads_df.withColumn(
            "favorite",
            F.when((F.col("t") == 0) & (F.col("gender") == 0), F.lit(0)).otherwise(
                F.col("favorite")
            ),
        )
        with pytest.raises(ValueError, match="non-positive sampling weight"):
            delta_for_rate(zeroed, weight, 0.05)


def solve_delta_reference(df, weight, target_size, *, max_iter=25, rtol=0.02):
    """The distributed Newton (one Spark aggregate per step), kept as the
    exactness reference for the driver-side solve."""
    w = weight
    stats = df.select(F.sum(w).alias("W"), F.count(F.lit(1)).alias("n")).first()
    W, n = float(stats["W"]), int(stats["n"])
    if target_size >= n:
        return max(W / (n * n), 1e-12)
    lo, hi = 1e-12, None
    delta = W / target_size
    for _ in range(max_iter):
        row = df.select(
            F.sum(w / (F.lit(delta) + w)).alias("f"),
            F.sum(w / ((F.lit(delta) + w) * (F.lit(delta) + w))).alias("df"),
        ).first()
        f, dfd = float(row["f"]), -float(row["df"])
        if abs(f - target_size) <= rtol * target_size:
            return delta
        if f > target_size:
            lo = max(lo, delta)
        else:
            hi = delta if hi is None else min(hi, delta)
        step = (f - target_size) / dfd if dfd != 0 else 0.0
        nxt = delta - step
        if (nxt <= lo) or (hi is not None and nxt >= hi) or step == 0.0:
            nxt = (lo + hi) / 2 if hi is not None else delta / 2
        delta = nxt
    return delta


def spark_jobs(spark, fn) -> int:
    """Number of Spark jobs that ``fn()`` runs."""
    sc = spark.sparkContext
    group = f"count-jobs-{uuid.uuid4().hex}"
    sc.setJobGroup(group, "count Spark jobs")
    try:
        fn()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    return len(sc.statusTracker().getJobIdsForGroup(group))


class TestSolveDeltaExactness:
    @pytest.mark.parametrize("rate", [0.005, 0.02, 0.10])
    @pytest.mark.parametrize("kind", list(WEIGHTS))
    def test_matches_distributed_newton(self, ads_df, kind, rate):
        make_w, measures = WEIGHTS[kind]
        w = make_w()
        got = delta_for_rate(ads_df, w, rate)
        want = solve_delta_reference(ads_df, w, rate * ads_df.count())
        assert got == pytest.approx(want, rel=1e-9)

        def rows(delta):
            s = gsw_sample(ads_df, w, delta, measures=measures, seed=11)
            return s.select("_p", *ads_df.columns).orderBy("_p").toPandas()

        a, b = rows(got), rows(want)
        assert len(a) > 0 and a.equals(b)

    @pytest.mark.parametrize("kind", list(WEIGHTS))
    def test_independent_of_partitioning(self, ads_df, kind):
        w = WEIGHTS[kind][0]()
        deltas = [
            delta_for_rate(df, w, 0.02)
            for df in (ads_df, ads_df.repartition(1), ads_df.repartition(7))
        ]
        assert deltas[0] == deltas[1] == deltas[2]


class TestSparkJobs:
    @pytest.mark.parametrize("kind", list(WEIGHTS))
    def test_delta_for_rate_runs_one_job(self, spark, ads_df, kind):
        w = WEIGHTS[kind][0]()
        assert spark_jobs(spark, lambda: delta_for_rate(ads_df, w, 0.02)) == 1

    @pytest.mark.parametrize(
        "weights",
        ["impression", list(ADS_MEASURES), "geometric:" + ",".join(ADS_MEASURES)],
    )
    def test_add_gsw_sample_runs_at_most_two_jobs(self, spark, ads_df, weights):
        # The Δ-solve plus the collect that pins (and caches) the layer.
        fp = FlashP(ads_df, days=DAYS)
        n = spark_jobs(spark, lambda: fp.add_gsw_sample("s", rate=0.02, weights=weights))
        fp.sample("s").unpersist()
        assert n <= 2


class TestIncreaseDelta:
    def test_shrinks_sample(self, ads_df):
        w = optimal_weight("impression")
        s1 = gsw_sample(ads_df, w, 100.0, measures=["impression"], seed=0).cache()
        s2 = increase_delta(s1, 1000.0, measures=["impression"])
        assert 0 < s2.count() < s1.count()

    def test_matches_direct_draw(self, ads_df):
        """Shrinking Δ→Δ′ must equal sampling at Δ′ directly (same seed)."""
        w = optimal_weight("impression")
        s1 = gsw_sample(ads_df, w, 100.0, measures=["impression"], seed=4).cache()
        shrunk = increase_delta(s1, 800.0, measures=["impression"])
        direct = gsw_sample(ads_df, w, 800.0, measures=["impression"], seed=4)
        assert shrunk.count() == direct.count()
        a = shrunk.agg(F.sum(est_col("impression"))).first()[0]
        b = direct.agg(F.sum(est_col("impression"))).first()[0]
        assert a == pytest.approx(b)

    def test_recalibrates_estimates(self, ads_df):
        w = optimal_weight("impression")
        s1 = gsw_sample(ads_df, w, 100.0, measures=["impression"], seed=0).cache()
        s2 = increase_delta(s1, 500.0, measures=["impression"])
        pdf = s2.select("impression", "_w", est_col("impression")).toPandas()
        want = pdf["impression"] * (500.0 + pdf["_w"]) / pdf["_w"]
        assert np.allclose(pdf[est_col("impression")], want)

    def test_noop_when_delta_unchanged(self, ads_df):
        w = optimal_weight("impression")
        s1 = gsw_sample(ads_df, w, 300.0, measures=["impression"], seed=0).cache()
        s2 = increase_delta(s1, 300.0, measures=["impression"])
        assert s2.count() == s1.count()


class TestAgainstTheory:
    def test_spark_estimator_rstd_within_theorem3(self, ads_df, ads_pdf):
        """Empirical RSTD over seeds obeys Theorem 3 for w = m."""
        m = ads_pdf["impression"].to_numpy(dtype=float)
        delta = float(m.sum() / (0.05 * len(m)))
        es = bounds.expected_sample_size(m, delta)
        cap = bounds.rstd_bound(1.0, es)
        truth = m.sum()
        w = optimal_weight("impression")
        sq = []
        for seed in range(10):
            s = gsw_sample(ads_df, w, delta, measures=["impression"], seed=seed)
            est = s.agg(F.sum(est_col("impression"))).first()[0]
            sq.append(((est - truth) / truth) ** 2)
        rstd_emp = float(np.sqrt(np.mean(sq)))
        # 10 seeds: allow 2x slack on the bound.
        assert rstd_emp <= 2 * cap
