"""Benchmark for Exp-III / Figure 9: forecast error vs training days.

Shape to reproduce: more training days give lower / more stable forecast
error (paper: 150 days best for both ARIMA and LSTM).
"""
from repro.experiments.registry import EXPERIMENTS


def test_exp3_train_days(benchmark, bench_df, bench_cfg):
    exp = EXPERIMENTS["exp3_train_days"]
    cfg = exp.config(bench_cfg)
    result = benchmark.pedantic(lambda: exp.run(bench_df, cfg), rounds=1, iterations=1)
    exp.save(result)

    for model in ("arima", "lstm"):
        sub = result[result["model"] == model]
        short = sub[sub["train_days"] == 30]["fc_err"].mean()
        long = sub[sub["train_days"] == 150]["fc_err"].mean()
        # 150 training days must beat 30 on average (paper's headline).
        assert long < short + 0.02
