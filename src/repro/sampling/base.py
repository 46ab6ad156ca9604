"""Shared sampler contract.

Every sampler in this reproduction is a pure DataFrame→DataFrame
transform. Its output keeps the input's dimension columns and the day
column ``t``, and adds, for each measure ``m`` it serves, a *calibrated*
column ``f"{m}_est"`` with the Horvitz–Thompson-style property that

    SUM(m_est)  over sample rows satisfying (C AND t = τ)

is an unbiased (or, for priority sampling, near-unbiased) estimate of
``SUM(m)`` over *all* rows satisfying the same predicate. That single
invariant is what lets :mod:`repro.core.estimators` answer the paper's
per-day aggregation queries (eq. 4) on a sample pinned on the driver: a
mask for C and one ``np.bincount`` over ``t`` per task.

Samplers are deterministic in their ``seed`` — Spark's ``rand(seed)`` is
seeded per-partition, so a fixed input partitioning yields a fixed
sample; tests rely on this.
"""
from pyspark.sql import DataFrame


def est_col(measure: str) -> str:
    """Name of the calibrated (estimation) column for a measure."""
    return f"{measure}_est"


def sample_fraction(sample: DataFrame, full: DataFrame) -> float:
    """Realized sampling rate |S| / |T| (an action: triggers two counts)."""
    return sample.count() / max(1, full.count())
