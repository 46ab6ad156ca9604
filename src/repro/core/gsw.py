"""GSW (Generalized Smoothed Weighted) sampling — the paper's Section 4.

A GSW sampler is parameterized by a positive constant ``Δ`` and positive
per-row sampling weights ``w``. Row ``i`` enters the sample with
probability ``w_i / (Δ + w_i)`` independently (eq. 6); the calibrated
measure stored with a sampled row is ``m̂_i = m_i · (Δ + w_i) / w_i``, so
``Σ_{i∈S} m̂_i`` is an unbiased estimator of any subset sum of ``m``
(Horvitz–Thompson). The draw is pure Spark SQL column arithmetic:
Catalyst sees one ``Filter`` + ``Project`` over the input scan.

Weight choices (Sections 4.1.2 and 4.2):

* ``optimal_weight(m)``     — ``w = m``: the optimal GSW sampler (θ = 1).
* ``arithmetic_weight(ms)`` — ``w_i = mean_j m_i^(j)``: one compressed
  sample for a group of measures (Corollary 6).
* ``geometric_weight(ms)``  — ``w_i = (Π_j m_i^(j))^(1/k)`` (Corollary 5).

``solve_delta`` finds the Δ that yields a target expected sample size by
Newton iterations on ``E|S_Δ| = Σ_i w_i/(Δ+w_i)``. The weight column is
collected once (one Spark job) and reduced to a sorted ``(value, count)``
histogram; the iterations run on the driver over that histogram. Weights
take few distinct values (a few thousand for one measure, ~50k for a
geometric mean at SF 0.05), and the sorted sum order makes Δ independent
of the input's partitioning.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from repro.sampling.base import est_col


def optimal_weight(measure: str) -> Column:
    """w = m — the optimal GSW sampler for a single measure (Cor. 4)."""
    return F.col(measure).cast("double")


def arithmetic_weight(measures: list[str]) -> Column:
    """w_i = arithmetic mean of the group's measures (Cor. 6)."""
    s = F.lit(0.0)
    for m in measures:
        s = s + F.col(m).cast("double")
    return s / F.lit(float(len(measures)))


def geometric_weight(measures: list[str]) -> Column:
    """w_i = geometric mean of the group's measures (Cor. 5).

    Computed as ``exp(mean(log m))``; measures must be strictly positive
    (the ads generator guarantees ≥ 1). A zero measure gives a NULL weight
    (Spark's ``log(0)``), which :func:`solve_delta` rejects.
    """
    s = F.lit(0.0)
    for m in measures:
        s = s + F.log(F.col(m).cast("double"))
    return F.exp(s / F.lit(float(len(measures))))


def gsw_sample(
    df: DataFrame,
    weight: Column,
    delta: float,
    *,
    measures: list[str],
    seed: int,
) -> DataFrame:
    """Draw a GSW sample and attach calibrated measures.

    Output = input columns + ``_w`` (the row's sampling weight) + one
    ``{m}_est`` per requested measure. A row survives iff
    ``rand(seed) ≤ w/(Δ+w)``.
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if not measures:
        raise ValueError("measures must be non-empty")
    out = df.withColumn("_w", weight).withColumn("_p", F.rand(seed))
    out = out.where(F.col("_p") <= F.col("_w") / (F.lit(float(delta)) + F.col("_w")))
    factor = (F.lit(float(delta)) + F.col("_w")) / F.col("_w")
    for m in measures:
        out = out.withColumn(est_col(m), F.col(m).cast("double") * factor)
    # `_p` is kept on sampled rows: Section 4.1's incremental maintenance
    # (see `increase_delta`) filters on (1/p - 1)·w without rescanning T.
    return out


def increase_delta(
    sample: DataFrame, new_delta: float, *, measures: list[str]
) -> DataFrame:
    """Shrink an existing GSW sample from Δ to Δ′ > Δ (Section 4.1).

    A row drawn at Δ survives at Δ′ iff ``(1/p_i - 1)·w_i ≥ Δ′``
    (equivalently ``p_i ≤ w_i/(Δ′+w_i)``), so the update never touches
    rows outside the current sample — the paper's incremental
    maintenance. Calibrated measures are recomputed for the new Δ′.
    """
    cond = (F.lit(1.0) / F.col("_p") - F.lit(1.0)) * F.col("_w") >= F.lit(float(new_delta))
    out = sample.where(cond)
    factor = (F.lit(float(new_delta)) + F.col("_w")) / F.col("_w")
    for m in measures:
        out = out.withColumn(est_col(m), F.col(m).cast("double") * factor)
    return out


def expected_sample_size(df: DataFrame, weight: Column, delta: float) -> float:
    """E|S_Δ| = Σ_i w_i/(Δ+w_i) — one distributed aggregate."""
    w = weight
    row = df.select(
        F.sum(w / (F.lit(float(delta)) + w)).alias("es")
    ).first()
    return float(row["es"] or 0.0)


def _weight_histogram(df: DataFrame, weight: Column) -> tuple[np.ndarray, np.ndarray]:
    """The weight column as sorted distinct values and their row counts.

    One Spark job: the column is collected through Arrow and reduced on the
    driver. Raises ``ValueError`` if any weight is NULL or non-positive:
    such a row could never be drawn (π = 0), so every estimate would
    silently miss its measure mass.
    """
    w = df.select(weight.alias("w")).toPandas()["w"].to_numpy(dtype="float64")
    values, counts = np.unique(w, return_counts=True)  # NULL → NaN, sorted last
    bad = int(counts[~(values > 0)].sum())
    if bad:
        raise ValueError(f"{bad} rows have a NULL or non-positive sampling weight")
    return values, counts


def _newton_delta(
    values: np.ndarray,
    counts: np.ndarray,
    target_size: float,
    *,
    max_iter: int = 25,
    rtol: float = 0.02,
) -> float:
    """Safeguarded Newton for ``Σ c·v/(Δ+v) = target_size`` on a histogram."""
    if target_size <= 0:
        raise ValueError("target_size must be positive")
    c = counts.astype("float64")
    W, n = float(np.sum(c * values)), int(counts.sum())
    if target_size >= n:  # asking for (at least) everything
        # Any tiny Δ keeps nearly all rows; Δ = W/n² keeps p_i ≈ 1.
        return max(W / (n * n), 1e-12)
    lo, hi = 1e-12, None  # f(lo) ≈ n > target; hi: f(hi) < target once found
    delta = W / target_size
    for _ in range(max_iter):
        d = delta + values
        f = float(np.sum(c * (values / d)))
        dfd = -float(np.sum(c * (values / (d * d))))
        if abs(f - target_size) <= rtol * target_size:
            return delta
        if f > target_size:
            lo = max(lo, delta)
        else:
            hi = delta if hi is None else min(hi, delta)
        step = (f - target_size) / dfd if dfd != 0 else 0.0
        nxt = delta - step
        if (nxt <= lo) or (hi is not None and nxt >= hi) or step == 0.0:
            nxt = (lo + hi) / 2 if hi is not None else delta / 2
        delta = nxt
    return delta


def solve_delta(
    df: DataFrame,
    weight: Column,
    target_size: float,
    *,
    max_iter: int = 25,
    rtol: float = 0.02,
) -> float:
    """Find Δ with ``E|S_Δ| ≈ target_size`` by safeguarded Newton.

    ``f(Δ) = Σ w/(Δ+w)`` is strictly decreasing and convex in Δ, with
    ``f(0) = n`` and ``f(Δ) ≈ W/Δ`` for large Δ. ``f`` and ``f'`` are
    evaluated on the driver over :func:`_weight_histogram` (one Spark job
    in all). The initial guess ``Δ₀ = W/target`` satisfies
    ``f(Δ₀) ≤ target``; Newton then converges monotonically from that
    side; a bisection bracket guards against overshoot into Δ ≤ 0.
    """
    values, counts = _weight_histogram(df, weight)
    return _newton_delta(values, counts, target_size, max_iter=max_iter, rtol=rtol)


def delta_for_rate(df: DataFrame, weight: Column, rate: float) -> float:
    """Δ for a target sampling *rate* (fraction of |T|); one Spark job."""
    if not (0 < rate <= 1):
        raise ValueError(f"rate must be in (0, 1], got {rate}")
    values, counts = _weight_histogram(df, weight)
    return _newton_delta(values, counts, rate * int(counts.sum()))
