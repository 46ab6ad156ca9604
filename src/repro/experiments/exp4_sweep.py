"""Exp-IV / Figures 10–15 and 13: aggregation error, forecast error and
forecast-interval width by sampler × sampling rate × selectivity.

Paper shape: Priority ≈ Opt-GSW best; Uniform worst; Arithmetic/
Geometric compressed GSW between the two, converging to Opt-GSW as the
rate grows; everything improves with selectivity and rate; interval
widths follow the same ordering; LSTM beats ARIMA on forecast error.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.core.estimators import exact_series
from repro.core.pipeline import FlashP
from repro.experiments.common import ExpConfig, future_truth, tasks_for
from repro.forecast.metrics import relative_error, relative_interval_width
from repro.synth_data import ADS_MEASURES

SAMPLERS = ("Uniform", "Priority", "Opt-GSW", "A-GSW", "G-GSW")


def build_samplers(fp: FlashP, cfg: ExpConfig, measure: str) -> dict[tuple[str, float], str]:
    """Register one sample per (sampler, rate); returns source names."""
    sources = {}
    for rate in cfg.rates:
        tag = f"@{rate:g}"
        fp.add_uniform_sample(f"unif{tag}", rate=rate, seed=41)
        sources[("Uniform", rate)] = f"unif{tag}"
        fp.add_priority_sample(f"prio{tag}", rate=rate, measure=measure, seed=42)
        sources[("Priority", rate)] = f"prio{tag}"
        fp.add_gsw_sample(f"opt{tag}", rate=rate, weights=measure, seed=43)
        sources[("Opt-GSW", rate)] = f"opt{tag}"
        fp.add_gsw_sample(f"agsw{tag}", rate=rate, weights=list(ADS_MEASURES), seed=44)
        sources[("A-GSW", rate)] = f"agsw{tag}"
        fp.add_gsw_sample(
            f"ggsw{tag}", rate=rate, weights="geometric:" + ",".join(ADS_MEASURES), seed=45
        )
        sources[("G-GSW", rate)] = f"ggsw{tag}"
    return sources


def run_exp4(
    df: DataFrame,
    cfg: ExpConfig,
    *,
    measure: str,
    model: str,
) -> pd.DataFrame:
    """The full sampler × rate × selectivity sweep for one measure."""
    fp = FlashP(df, days=cfg.days)
    sources = build_samplers(fp, cfg, measure)

    rows = []
    for sel in cfg.selectivities:
        tasks = tasks_for(cfg, selectivity=sel, measure=measure, base_seed=int(sel * 1e4))
        truths = [
            exact_series(df, where, measure, cfg.days) for where, _ in tasks
        ]
        for sampler in SAMPLERS:
            for rate in cfg.rates:
                agg_errs, fc_errs, widths = [], [], []
                for (where, sql), truth_all in zip(tasks, truths):
                    truth_train = truth_all[: cfg.train_days]
                    truth_future = truth_all[cfg.train_days : cfg.train_days + cfg.horizon]
                    sql_m = sql.replace("'arima'", f"'{model}'")
                    o = fp.run(
                        sql_m, source=sources[(sampler, rate)],
                        arima_kwargs=cfg.arima_kwargs, lstm_epochs=200,
                    )
                    agg_errs.append(relative_error(o.series, truth_train))
                    fc_errs.append(relative_error(o.point, truth_future))
                    widths.append(
                        relative_interval_width(o.lower, o.upper, truth_future)
                    )
                rows.append(
                    {
                        "measure": measure,
                        "model": model,
                        "selectivity": sel,
                        "sampler": sampler,
                        "rate": rate,
                        "agg_err": float(np.mean(agg_errs)),
                        "fc_err": float(np.mean(fc_errs)),
                        "interval_width": float(np.mean(widths)),
                    }
                )
    return pd.DataFrame(rows)
