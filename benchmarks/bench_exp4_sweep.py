"""Benchmark for Exp-IV / Figures 10–15: sampler × rate × selectivity.

Shape to reproduce: Priority ≈ Opt-GSW best, Uniform worst, compressed
GSW in between and approaching Opt-GSW as rate grows; aggregation
error falls with sampling rate; interval widths narrow with rate.
"""
from repro.experiments.registry import EXPERIMENTS


def test_exp4_sweep_favorite(benchmark, bench_df, bench_cfg):
    exp = EXPERIMENTS["exp4_favorite_arima"]
    cfg = exp.config(bench_cfg)
    result = benchmark.pedantic(lambda: exp.run(bench_df, cfg), rounds=1, iterations=1)
    exp.save(result)

    by_sampler = result.groupby("sampler")["agg_err"].mean()
    # Weighted samplers must beat uniform on the heavy-tailed measure.
    assert by_sampler["Opt-GSW"] < by_sampler["Uniform"]
    assert by_sampler["Priority"] < by_sampler["Uniform"]
    # Aggregation error must fall as the sampling rate grows.
    by_rate = result.groupby("rate")["agg_err"].mean().sort_index()
    assert by_rate.iloc[-1] < by_rate.iloc[0]
    # Forecast intervals narrow with rate (Fig 13a).
    by_rate_w = result.groupby("rate")["interval_width"].mean().sort_index()
    assert by_rate_w.iloc[-1] < by_rate_w.iloc[0] + 0.05
