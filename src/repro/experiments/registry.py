"""One entry per ``results/<name>.txt``: the only place that knows an
experiment's harness arguments, ``ExpConfig`` overrides, tables and float
format. ``python -m repro.experiments`` and ``benchmarks/`` both use it.
"""
from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from typing import Callable

import pandas as pd
from pyspark.sql import DataFrame

from repro.experiments.common import ExpConfig, fmt_table
from repro.experiments.exp2_response import PAPER_EXP2, run_exp2
from repro.experiments.exp3_train_days import run_exp3
from repro.experiments.exp4_sweep import run_exp4
from repro.experiments.exp5_space import run_exp5
from repro.experiments.fig6_grouping import run_fig6
from repro.experiments.table1 import PAPER_TABLE1, run_table1

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "..", "results")


@dataclass(frozen=True)
class Experiment:
    """``run(df, cfg)`` returns the harness's frame; :meth:`save` writes it
    as ``<name>.txt`` (only ``columns`` if given), each frame in its
    ``attrs`` as ``<name>_<key>.txt`` and each ``paper`` table by name."""

    name: str
    run: Callable[[DataFrame, ExpConfig], pd.DataFrame]
    overrides: dict = field(default_factory=dict)
    floatfmt: str = "{:.3f}"
    columns: tuple[str, ...] | None = None
    paper: dict[str, pd.DataFrame] = field(default_factory=dict)

    def config(self, base: ExpConfig) -> ExpConfig:
        """``base`` with this experiment's ``ExpConfig`` overrides applied."""
        return dataclasses.replace(base, **self.overrides)

    def tables(self, result: pd.DataFrame) -> dict[str, pd.DataFrame]:
        main = result[list(self.columns)] if self.columns else result
        return {
            self.name: main,
            **{f"{self.name}_{k}": v for k, v in result.attrs.items()},
            **self.paper,
        }

    def save(self, result: pd.DataFrame, out_dir: str = RESULTS_DIR) -> None:
        """Print every table of ``result`` and write it to ``out_dir``."""
        os.makedirs(out_dir, exist_ok=True)
        for name, table in self.tables(result).items():
            text = fmt_table(table, floatfmt=self.floatfmt)
            with open(os.path.join(out_dir, f"{name}.txt"), "w") as f:
                f.write(text + "\n")
            print(f"\n===== {name} =====\n{text}\n")


def _exp4_sweep(df: DataFrame, cfg: ExpConfig) -> pd.DataFrame:
    """Both measures the paper plots with ARIMA, plus Favorite with LSTM."""
    return pd.concat(
        [
            run_exp4(df, cfg, measure="favorite", model="arima"),
            run_exp4(df, cfg, measure="impression", model="arima"),
            run_exp4(df, cfg, measure="favorite", model="lstm"),
        ],
        ignore_index=True,
    )


EXPERIMENTS: dict[str, Experiment] = {
    e.name: e
    for e in (
        Experiment(
            "table1",
            lambda df, cfg: run_table1(df, cfg, rate=0.05),
            overrides={"n_tasks": 4},
            paper={"table1_paper": PAPER_TABLE1},
        ),
        # Response time is the one experiment whose shape needs table size:
        # at SF 0.1 the ~300 ms per-query floor (plan compile + scheduling)
        # hides the full-scan cost. SF 0.4 (60k rows/day, ~10M rows) makes
        # the full-scan portion clearly dominate, as in the paper.
        Experiment(
            "exp2_response",
            lambda df, cfg: run_exp2(df, cfg, repeats=3),
            overrides={"sf": 0.4},
            floatfmt="{:.1f}",
            paper={"exp2_paper": PAPER_EXP2},
        ),
        Experiment("exp3_train_days", lambda df, cfg: run_exp3(
            df, cfg, train_days_sweep=(30, 60, 100, 150), models=("arima", "lstm"))),
        Experiment("exp4_favorite_arima", lambda df, cfg: run_exp4(
            df, cfg, measure="favorite", model="arima")),
        Experiment("exp4_sweep", _exp4_sweep),
        Experiment(
            "exp5_space",
            lambda df, cfg: run_exp5(df, cfg, verify_rate=0.02),
            columns=("cgsw_rate", "cgsw_size", "total_opt_size", "size_ratio", "max_agg_rstd"),
        ),
        Experiment("fig6_grouping", lambda df, cfg: run_fig6(df, cfg, rate=0.02)),
    )
}
