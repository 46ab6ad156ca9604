"""The benchmark's workloads: task streams, set-up and one operation.

Both workloads are one closed-loop client against one ``FlashP`` instance:
the next task is sent when the previous one has returned. The relation is
the seeded ads table; the workload seed only chooses the task stream.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.pipeline import FlashP
from repro.synth_data import ADS_MEASURES, random_constraint

DAYS = 165
T_START, T_END = 0, 149
HORIZON = 7
DATA_SEED = 7
SAMPLE_SEED = 21
# Bench grid of the paper-shape harnesses (ExpConfig.arima_kwargs).
ARIMA_GRID = {"max_p": 2, "max_q": 2, "max_d": 1}
SELECTIVITY = (0.005, 0.10)
OPT_LAYERS = {"opt@0.005": 0.005, "opt@0.02": 0.02, "opt@0.1": 0.10}
CGSW_LAYER, CGSW_RATE = "cgsw@0.02", 0.02
PROBE_KEY = (0, 0)


@dataclass(frozen=True)
class Workload:
    model: str
    sampled: bool
    setup_repeats: int


WORKLOADS = {
    # The FlashP headline path: sample aggregation plus auto-ARIMA.
    "sampled-arima": Workload("arima", True, 1),
    # The full-scan comparator: no samples, a 165-day scan plus the LSTM.
    "full-lstm": Workload("lstm", False, 3),
}


@dataclass(frozen=True)
class Task:
    sql: str
    measure: str
    where: str
    source: str


def task_stream(workload: Workload, key, seen: set[str]) -> Iterator[Task]:
    """Distinct forecasting tasks; ``seen`` holds constraints already used.

    Selectivity is log-uniform over ``SELECTIVITY`` on 1-3 dimensions. The
    measure rotates over the four; on the sampled path ``impression``
    rotates over the Opt-GSW layers and the others go to the C-GSW layer.
    """
    rng = np.random.default_rng(key)
    lo, hi = np.log(SELECTIVITY[0]), np.log(SELECTIVITY[1])
    n = n_imp = 0
    while True:
        sel = float(np.exp(rng.uniform(lo, hi)))
        where, _ = random_constraint(sel, seed=int(rng.integers(2**31)), min_dims=1, max_dims=3)
        if where in seen:
            continue
        seen.add(where)
        measure = ADS_MEASURES[n % len(ADS_MEASURES)]
        n += 1
        if not workload.sampled:
            source = "full"
        elif measure == "impression":
            source = list(OPT_LAYERS)[n_imp % len(OPT_LAYERS)]
            n_imp += 1
        else:
            source = CGSW_LAYER
        sql = (
            f"FORECAST SUM({measure}) FROM ads WHERE {where} "
            f"USING ({T_START}, {T_END}) "
            f"OPTION (MODEL='{workload.model}', FORE_PERIOD={HORIZON})"
        )
        yield Task(sql, measure, where, source)


def layers(workload: Workload) -> list[str]:
    return [*OPT_LAYERS, CGSW_LAYER] if workload.sampled else []


def setup(spark, pdf, workload: Workload, span) -> FlashP:
    """Load and cache the relation and build the workload's sample layers."""
    with span("load.cache"):
        df = spark.createDataFrame(pdf).cache()
        df.count()
    fp = FlashP(df, days=DAYS)
    if workload.sampled:
        for name, rate in OPT_LAYERS.items():
            fp.add_gsw_sample(name, rate=rate, weights="impression", seed=SAMPLE_SEED)
        fp.add_gsw_sample(
            CGSW_LAYER, rate=CGSW_RATE, weights=list(ADS_MEASURES), seed=SAMPLE_SEED
        )
    return fp


def warm_up(spark, pdf) -> None:
    """One small load and scan, so that set-up is timed on a warm JVM."""
    df = spark.createDataFrame(pdf).cache()
    df.count()
    df.unpersist()


def teardown(fp: FlashP, workload: Workload) -> None:
    for name in layers(workload):
        fp.sample(name).unpersist()
    fp.df.unpersist()


def run_task(fp: FlashP, task: Task):
    return fp.run(task.sql, source=task.source, arima_kwargs=ARIMA_GRID)
