"""FlashP end-to-end pipeline — Section 2.2 / Figure 7.

The offline phase draws multi-layer samples (different Δ's / rates) and
caches them; the online phase processes a forecasting task in two steps:

1. *Aggregation*: the Query Rewriter turns the task into per-day SUM
   queries (eq. 4), answered either on the full relation (one Catalyst
   Filter→Aggregate per task) or on one sample layer's calibrated
   columns, pinned on the driver when the layer was built (a mask and a
   ``bincount``, no Spark job).
2. *Forecasting*: the estimated series M̂_{ts..te} trains the requested
   model (auto-ARIMA or LSTM), which predicts FORE_PERIOD future days
   with confidence intervals.

Per-phase wall-clock timings are recorded — Exp-II's response-time
breakdown is read straight from ``ForecastOutcome.timings``.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from pyspark.sql import DataFrame

from repro.baselines.pim import PIM
from repro.core import estimators
from repro.core.gsw import (
    arithmetic_weight,
    delta_for_rate,
    geometric_weight,
    gsw_sample,
    optimal_weight,
)
from repro.core.task import ForecastTask, parse_task, rewrite_where
from repro.forecast.arima import auto_arima
from repro.forecast.lstm import LSTMForecaster
from repro.sampling.priority import priority_sample
from repro.sampling.uniform import uniform_sample
from repro.synth_data import ADS_MEASURES


@dataclass
class ForecastOutcome:
    """Everything a task run produces (plus timings for Exp-II)."""

    task: ForecastTask
    series: np.ndarray           # estimated training series M̂_{ts..te}
    point: np.ndarray            # forecasts for the next FORE_PERIOD days
    lower: np.ndarray
    upper: np.ndarray
    timings: dict[str, float] = field(default_factory=dict)
    model_order: tuple | None = None


class FlashP:
    """One FlashP instance over one time-series relation."""

    def __init__(self, df: DataFrame, *, days: int, measures: list[str] | None = None):
        self.df = df
        self.days = days
        self.measures = list(measures or ADS_MEASURES)
        self._layers: dict[str, estimators.SampleLayer] = {}
        self._pim: PIM | None = None

    # ------------------------------------------------- offline sampling
    def add_gsw_sample(
        self,
        name: str,
        *,
        rate: float,
        weights: str | list[str],
        seed: int = 0,
    ) -> DataFrame:
        """Draw and cache a GSW sample.

        ``weights``: a measure name → optimal GSW for that measure;
        a list of measures → arithmetic-mean compressed sample;
        the string ``"geometric:<m1>,<m2>,.."`` → geometric-mean sample.
        """
        if isinstance(weights, str) and weights.startswith("geometric:"):
            group = weights.split(":", 1)[1].split(",")
            w, measures = geometric_weight(group), group
        elif isinstance(weights, str):
            w, measures = optimal_weight(weights), [weights]
        else:
            w, measures = arithmetic_weight(list(weights)), list(weights)
        delta = delta_for_rate(self.df, w, rate)
        return self._register(name, gsw_sample(self.df, w, delta, measures=measures, seed=seed))

    def add_uniform_sample(
        self, name: str, *, rate: float, seed: int = 0
    ) -> DataFrame:
        return self._register(
            name, uniform_sample(self.df, rate, measures=self.measures, seed=seed)
        )

    def add_priority_sample(
        self, name: str, *, rate: float, measure: str, seed: int = 0
    ) -> DataFrame:
        if not (0 < rate <= 1):
            raise ValueError(f"rate must be in (0, 1], got {rate}")
        n_day = self.df.count() / self.days
        k = max(1, int(round(rate * n_day)))
        return self._register(name, priority_sample(self.df, k, measure=measure, seed=seed))

    def _register(self, name: str, sample: DataFrame) -> DataFrame:
        """Cache a sample layer and pin its serving columns on the driver.

        The pinning collect is the action that fills the cache, so the
        layer is materialized now: the paper's sampling phase is offline.
        """
        s = sample.coalesce(4).cache()
        self._layers[name] = estimators.SampleLayer.pin(s)
        return s

    def build_pim(self) -> PIM:
        """Precompute the PIM baseline's per-day marginal cubes."""
        self._pim = PIM(self.df, self.measures, days=self.days)
        return self._pim

    def sample(self, name: str) -> DataFrame:
        """The cached Spark DataFrame of a sample layer."""
        return self._layers[name].df

    # --------------------------------------------------- online serving
    def _aggregate(
        self, task: ForecastTask, source: str
    ) -> np.ndarray:
        where = rewrite_where(task)
        if source == "full":
            series = estimators.exact_series(self.df, where, task.measure, self.days)
        elif source == "pim":
            if self._pim is None:
                raise RuntimeError("call build_pim() before using source='pim'")
            series = self._pim.estimate_series(where, task.measure)
        else:
            series = estimators.estimated_series(
                self._layers[source], where, task.measure, self.days
            )
        return series[task.t_start : task.t_end + 1]

    def run(
        self, task: ForecastTask | str, *, source: str = "full", conf: float = 0.9,
        lstm_epochs: int = 300, seed: int = 0, arima_kwargs: dict | None = None,
    ) -> ForecastOutcome:
        """Process one forecasting task end to end."""
        if isinstance(task, str):
            task = parse_task(task)
        if task.t_end >= self.days:
            raise ValueError(
                f"USING window ({task.t_start}, {task.t_end}) ends past the "
                f"relation's last day {self.days - 1}"
            )
        t0 = time.perf_counter()
        series = self._aggregate(task, source)
        t1 = time.perf_counter()
        h = task.fore_period
        order = None
        if task.model == "arima":
            model = auto_arima(series, **(arima_kwargs or {}))
            order = model.order
            t2 = time.perf_counter()
            point, lower, upper = model.forecast(h, conf=conf)
        else:
            model = LSTMForecaster(epochs=lstm_epochs, seed=seed).fit(series)
            t2 = time.perf_counter()
            point, lower, upper = model.forecast(h, conf=conf)
        t3 = time.perf_counter()
        return ForecastOutcome(
            task=task,
            series=series,
            point=point,
            lower=lower,
            upper=upper,
            model_order=order,
            timings={
                "aggregate_s": t1 - t0,
                "fit_s": t2 - t1,
                "forecast_s": t3 - t2,
                "total_s": t3 - t0,
            },
        )
