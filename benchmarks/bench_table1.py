"""Benchmark + reproduction harness for Exp-I / Table 1.

Regenerates the paper's summary table (forecast error per measure for
Full / PIM / Uniform / Opt-GSW / C-GSW with ARIMA) on the synthetic ads
relation and records it to results/table1.txt.
"""
from repro.experiments.registry import EXPERIMENTS


def test_table1(benchmark, bench_df, bench_cfg):
    exp = EXPERIMENTS["table1"]
    cfg = exp.config(bench_cfg)
    result = benchmark.pedantic(lambda: exp.run(bench_df, cfg), rounds=1, iterations=1)
    exp.save(result)

    # Shape checks (averaged over measures; the paper's ordering):
    means = result[["Full", "PIM", "Uniform", "Opt-GSW", "C-GSW"]].mean()
    assert (result[["Full", "PIM", "Uniform", "Opt-GSW", "C-GSW"]] > 0).all().all()
    # PIM (systematically biased) must be the worst method on average.
    assert means["PIM"] > means["Opt-GSW"]
    assert means["PIM"] > means["C-GSW"]
    # Sampling-based methods stay in the same error regime as Full.
    assert means["Opt-GSW"] < 3 * means["Full"] + 0.1
