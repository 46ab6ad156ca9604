"""Error metrics used throughout the evaluation section.

The paper reports *relative aggregation error* (mean over the training
days), *relative forecast error* (mean over the forecast horizon) and
*forecast interval width* (mean over the horizon, normalized by the true
value so widths are comparable across tasks).
"""
from __future__ import annotations

import numpy as np


def relative_error(est: np.ndarray, truth: np.ndarray) -> float:
    """Mean |est_t - y_t| / |y_t| over days with ``y_t ≠ 0`` (aggregation
    error: est = M̂_t; forecast error: est = ŷ_h). All-zero truth gives 0
    if the estimate agrees, else inf."""
    est, truth = np.asarray(est, float), np.asarray(truth, float)
    mask = truth != 0
    if not mask.any():
        return 0.0 if np.allclose(est, 0) else float("inf")
    return float(np.mean(np.abs(est[mask] - truth[mask]) / np.abs(truth[mask])))


def relative_interval_width(
    lower: np.ndarray, upper: np.ndarray, truth: np.ndarray
) -> float:
    """Mean (upper - lower) / y over the horizon (zero-truth days skipped)."""
    lower, upper, truth = (np.asarray(a, float) for a in (lower, upper, truth))
    mask = truth != 0
    if not mask.any():
        return float("inf")
    return float(np.mean((upper[mask] - lower[mask]) / np.abs(truth[mask])))
