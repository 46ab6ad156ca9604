"""Benchmark for the §4.2 grouping evaluation / Figure 6.

Shape to reproduce: within each way of grouping the 4 measures into two
pairs, per-measure aggregation error and the L1 distance between the
measure vector and its group's sampling-weight vector follow the same
trend (small L1 → small error).
"""
import numpy as np

from repro.experiments.registry import EXPERIMENTS


def test_fig6_grouping(benchmark, bench_df, bench_cfg):
    exp = EXPERIMENTS["fig6_grouping"]
    cfg = exp.config(bench_cfg)
    result = benchmark.pedantic(lambda: exp.run(bench_df, cfg), rounds=1, iterations=1)
    exp.save(result)

    # Rank correlation between L1 distance and aggregation error across
    # all (grouping, measure) cells — the paper's "similar trends".
    l1 = result["l1_distance"].rank()
    err = result["agg_err"].rank()
    rho = np.corrcoef(l1, err)[0, 1]
    assert rho > 0.2
