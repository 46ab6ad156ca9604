"""Benchmark for Exp-V / Figure 16: space cost at matched accuracy.

Shape to reproduce: the total size of the four per-measure Optimal GSW
samples is a multiple (paper: ≈1.8×) of the single Arithmetic
compressed GSW sample at the same aggregation error, and well below the
naive 4× of storing four independent optimal samples at full rate.
"""
from repro.experiments.registry import EXPERIMENTS
from repro.synth_data import ADS_MEASURES


def test_exp5_space(benchmark, bench_df, bench_cfg):
    exp = EXPERIMENTS["exp5_space"]
    cfg = exp.config(bench_cfg)
    result = benchmark.pedantic(lambda: exp.run(bench_df, cfg), rounds=1, iterations=1)
    exp.save(result)

    # Matched-accuracy Optimal GSW needs more space than compressed ...
    assert (result["size_ratio"] > 1.0).all()
    # ... but less than k independent full-rate optimal samples.
    assert (result["size_ratio"] < len(ADS_MEASURES)).all()
    # Empirical verification: per-measure agg errors matched within 2x.
    if "verify" in result.attrs:
        v = result.attrs["verify"]
        ratio = v["agg_err_opt"] / v["agg_err_cgsw"]
        assert ((ratio > 0.3) & (ratio < 3.0)).all()
