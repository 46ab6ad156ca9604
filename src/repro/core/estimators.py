"""Per-day aggregation queries — eq. (4) of the paper.

A forecasting task needs the series ``M_t = SUM(m) WHERE C AND t = τ``
for every day in the training window; one pass over the source answers
all t₀ aggregation queries, as the paper notes.

* The exact series (the full-scan comparator) is one Catalyst plan,
  ``Filter(C) → Aggregate(t, SUM(m))``, over the relation.
* The estimated series is served from a :class:`SampleLayer`: an offline
  sample pinned once on the driver as numpy columns (``t``, the
  dimensions, each ``{m}_est``), the way the paper serves its samples
  from in-memory OLAP. C becomes a boolean mask (one lookup table per
  dimension) and the per-day sums one ``np.bincount`` — no Spark job.

Results come back as dense numpy arrays indexed by day (missing days are
0 — no surviving rows means the subset-sum estimate is 0).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.task import parse_where
from repro.sampling.base import est_col
from repro.synth_data import ADS_DIMS


def exact_series(df: DataFrame, where: str | None, measure: str, days: int) -> np.ndarray:
    """Ground-truth ``M_t`` for t = 0..days-1 via a full scan."""
    sel = df.where(where) if where else df
    rows = (
        sel.groupBy("t")
        .agg(F.sum(F.col(measure).cast("double")).alias("s"))
        .collect()
    )
    out = np.zeros(days, dtype="float64")
    for r in rows:
        t = int(r["t"])
        if 0 <= t < days:
            out[t] = float(r["s"] or 0.0)
    return out


@dataclass(frozen=True)
class SampleLayer:
    """A cached sample and the driver-resident numpy columns served from it.

    ``t`` is the day of each sample row, ``dims`` maps each dimension to
    its integer codes in the narrowest dtype that holds them, and ``est``
    maps each ``{m}_est`` column to float64 values. Raw measures, ``_w``
    and ``_p`` are not pinned.
    """

    df: DataFrame
    t: np.ndarray
    dims: dict[str, np.ndarray]
    est: dict[str, np.ndarray]

    @classmethod
    def pin(cls, sample: DataFrame) -> "SampleLayer":
        """Collect a sample's serving columns once, via one Arrow ``toPandas()``.

        On a cached sample this collect also fills the cache.
        """
        dims = [d for d in ADS_DIMS if d in sample.columns]
        ests = [c for c in sample.columns if c.endswith("_est")]
        pdf = sample.select("t", *dims, *ests).toPandas()
        t = pdf["t"].to_numpy(dtype=np.intp)
        if len(t) and t.min() < 0:
            raise ValueError("sample has rows with a negative day t")
        codes = {}
        for d in dims:
            col = pdf[d].to_numpy()
            if len(col) and (col.min() < 0 or col.max() >= ADS_DIMS[d]):
                raise ValueError(f"{d} codes out of range [0, {ADS_DIMS[d]})")
            codes[d] = col.astype(np.min_scalar_type(ADS_DIMS[d] - 1))
        est = {c: pdf[c].to_numpy(dtype="float64") for c in ests}
        return cls(sample, t, codes, est)


def estimated_series(
    sample: SampleLayer | DataFrame, where: str | None, measure: str, days: int
) -> np.ndarray:
    """Estimated ``M̂_t`` from a sample's calibrated column ``{m}_est``.

    A DataFrame is pinned first (one collect); callers that query a sample
    more than once pin it themselves with :meth:`SampleLayer.pin`.
    """
    layer = sample if isinstance(sample, SampleLayer) else SampleLayer.pin(sample)
    t, w = layer.t, layer.est[est_col(measure)]
    mask = None
    for pred in parse_where(where):  # C as one lookup table per predicate
        lut = np.zeros(ADS_DIMS[pred.dim], dtype=bool)
        lut[list(pred.values)] = True
        hit = lut[layer.dims[pred.dim]]
        mask = hit if mask is None else mask & hit
    if mask is not None:
        t, w = t[mask], w[mask]
    # astype: bincount returns int64 zeros when no row matches.
    return np.bincount(t, weights=w, minlength=days)[:days].astype("float64", copy=False)


def relative_agg_error(est: np.ndarray, truth: np.ndarray) -> float:
    """Mean per-day relative aggregation error |M̂_t - M_t| / M_t.

    Days with ``M_t = 0`` are skipped (no defined relative error); if all
    days are zero the error is reported as 0 when the estimate agrees and
    inf otherwise.
    """
    mask = truth != 0
    if not mask.any():
        return 0.0 if np.allclose(est, 0) else float("inf")
    return float(np.mean(np.abs(est[mask] - truth[mask]) / truth[mask]))
