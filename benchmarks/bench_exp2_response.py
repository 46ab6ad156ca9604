"""Benchmark for Exp-II / Figure 8: response-time breakdown.

Shape to reproduce: on full data the aggregation portion dominates the
end-to-end time; sampling cuts aggregation time sharply while the
model-fitting portion stays constant; LSTM fitting costs more than
ARIMA.
"""
from repro.experiments.common import load_ads
from repro.experiments.registry import EXPERIMENTS


def test_exp2_response(benchmark, spark, bench_cfg):
    # The registry sizes this experiment's own relation (see its entry).
    exp = EXPERIMENTS["exp2_response"]
    cfg = exp.config(bench_cfg)
    df = load_ads(spark, cfg)
    try:
        result = benchmark.pedantic(lambda: exp.run(df, cfg), rounds=1, iterations=1)
    finally:
        df.unpersist()
    exp.save(result)

    full = result[result["source"] == "full"].iloc[0]
    sampled = result[result["source"] != "full"]
    # Every sampled source must aggregate faster than the full scan, and
    # the best sampled path must cut the aggregation portion materially.
    # (At the paper's scale — 1000× more rows/day — the full-scan portion
    # grows linearly while the sampled portion doesn't, which is where the
    # 20 s → 30 ms headline comes from; see EXPERIMENTS.md.)
    assert (sampled["agg_ms"] < full["agg_ms"]).all()
    assert sampled["agg_ms"].min() < 0.7 * full["agg_ms"]
    # The forecasting portion is sampling-rate independent (fixed t₀).
    assert sampled["arima_ms"].max() < 3 * sampled["arima_ms"].min() + 100
