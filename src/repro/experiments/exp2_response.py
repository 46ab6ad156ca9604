"""Exp-II / Figure 8: end-to-end response time, split into the
aggregation portion and the forecasting portion.

Paper shape (ARIMA): aggregation dominates on full data (~20 s on
15M rows/day × 150 days; 30 ms on a 0.02% sample); the model-fitting
portion is sampling-rate independent; LSTM fitting costs ~1 s more.
We reproduce the same breakdown at our scale: full-scan aggregation
must dominate total time, and sampled aggregation must cut it by
roughly the sampling rate.
"""
from __future__ import annotations

import dataclasses

import pandas as pd
from pyspark.sql import DataFrame

from repro.core.pipeline import FlashP
from repro.experiments.common import ExpConfig, tasks_for
from repro.synth_data import ADS_MEASURES

PAPER_EXP2 = pd.DataFrame(
    {
        "source": ["full", "1%", "0.1%", "0.02%"],
        "agg_ms_paper": [20000.0, 126.0, 45.0, 30.0],
        # Forecasting portion is roughly constant (~100 ms ARIMA server-side).
    }
)


def run_exp2(df: DataFrame, cfg: ExpConfig, *, repeats: int) -> pd.DataFrame:
    """Measure the response-time breakdown per source.

    Reports the *minimum* over ``repeats`` timed runs per source — the
    steady-state achievable latency. (Medians are unstable in this
    sandbox: stray GC pauses / noisy-neighbor CPU inject multi-second
    outliers into individual Spark jobs.)
    """
    fp = FlashP(df, days=cfg.days)
    for rate in cfg.rates:
        fp.add_gsw_sample(f"opt@{rate:g}", rate=rate, weights="impression", seed=21)

    (where, sql), = tasks_for(
        dataclasses.replace(cfg, n_tasks=1),
        selectivity=0.05, measure="impression", base_seed=42,
    )
    rows = []
    sources = ["full"] + [f"opt@{rate:g}" for rate in cfg.rates]
    for source in sources:
        aggs, fits = [], []
        # Warm-up (untimed): first touch of a cached source pays JIT /
        # codegen / cache-locality costs that a served system amortizes.
        fp.run(sql, source=source, arima_kwargs=cfg.arima_kwargs)
        for r in range(repeats):
            o = fp.run(sql, source=source, arima_kwargs=cfg.arima_kwargs)
            aggs.append(o.timings["aggregate_s"] * 1e3)
            fits.append((o.timings["fit_s"] + o.timings["forecast_s"]) * 1e3)
        lstm_o = fp.run(
            sql.replace("'arima'", "'lstm'"), source=source, lstm_epochs=300
        )
        rows.append(
            {
                "source": source,
                "agg_ms": float(min(aggs)),
                "arima_ms": float(min(fits)),
                "lstm_ms": (lstm_o.timings["fit_s"] + lstm_o.timings["forecast_s"]) * 1e3,
                "total_arima_ms": float(min(aggs) + min(fits)),
            }
        )
    return pd.DataFrame(rows)
