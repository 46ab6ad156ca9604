"""Exp-III / Figure 9: forecast error vs. number of training days.

Paper shape: more training days → lower and more stable forecast error,
with 150 days best for both ARIMA and LSTM (selectivity 5%, Impression,
Optimal GSW, rates swept).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.core.pipeline import FlashP
from repro.experiments.common import ExpConfig, future_truth
from repro.forecast.metrics import relative_error
from repro.synth_data import random_constraint


def run_exp3(
    df: DataFrame,
    cfg: ExpConfig,
    *,
    train_days_sweep: tuple[int, ...],
    models: tuple[str, ...],
) -> pd.DataFrame:
    """Sweep the training-window length at fixed selectivity 5%."""
    fp = FlashP(df, days=cfg.days)
    for rate in cfg.rates:
        fp.add_gsw_sample(f"opt@{rate:g}", rate=rate, weights="impression", seed=31)

    rows = []
    for model in models:
        for rate in cfg.rates:
            for n_days in train_days_sweep:
                errs = []
                for i in range(cfg.n_tasks):
                    where, _ = random_constraint(0.05, seed=300 + i)
                    t_end = cfg.train_days - 1
                    t_start = t_end - n_days + 1
                    sql = (
                        f"FORECAST SUM(impression) FROM ads WHERE {where} "
                        f"USING ({t_start}, {t_end}) "
                        f"OPTION (MODEL='{model}', FORE_PERIOD={cfg.horizon})"
                    )
                    truth = future_truth(df, where, "impression", cfg)
                    o = fp.run(
                        sql, source=f"opt@{rate:g}",
                        arima_kwargs=cfg.arima_kwargs, lstm_epochs=200, seed=i,
                    )
                    errs.append(relative_error(o.point, truth))
                rows.append(
                    {
                        "model": model,
                        "rate": rate,
                        "train_days": n_days,
                        "fc_err": float(np.mean(errs)),
                        "fc_err_std": float(np.std(errs)),
                    }
                )
    return pd.DataFrame(rows)
