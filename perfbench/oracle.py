"""DuckDB oracle for the benchmark's forecasting tasks.

Every task's training series is recomputed in DuckDB from data the
program did not produce the answer from: the generated pandas frame for
the full-scan source, and for a sample layer the layer's rows, collected
once after set-up (outside all timing). The truth used for accuracy is
the same query on the generated frame.
"""
from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd

# Sums of doubles over the same rows in another order agree to ~1e-13
# relative; a real mismatch (a wrong row set or calibration) is far larger.
RTOL = 1e-9
ATOL = 1e-6


class Oracle:
    """Per-day SUM series over the full frame and over collected sample layers."""

    def __init__(self, full: pd.DataFrame, *, days: int):
        self.days = days
        self.con = duckdb.connect()
        self._tables: dict[str, str] = {}
        self.rows: dict[str, int] = {}
        self.add_source("full", full)

    def close(self) -> None:
        self.con.close()

    def add_source(self, name: str, frame: pd.DataFrame) -> None:
        table = f"src_{len(self._tables)}"
        self.con.register(table, frame)
        self._tables[name] = table
        self.rows[name] = len(frame)

    def series(self, source: str, where: str | None, measure: str) -> np.ndarray:
        """``SUM`` per day t = 0..days-1; the ``{m}_est`` column on samples."""
        col = measure if source == "full" else f"{measure}_est"
        sql = (
            f"SELECT t, SUM(CAST({col} AS DOUBLE)) AS s FROM {self._tables[source]} "
            f"WHERE {where or 'TRUE'} GROUP BY t"
        )
        out = np.zeros(self.days)
        for t, s in self.con.execute(sql).fetchall():
            if 0 <= t < self.days:
                out[t] = s or 0.0
        return out

    def matched_rows(self, source: str, where: str | None) -> int:
        sql = f"SELECT COUNT(*) FROM {self._tables[source]} WHERE {where or 'TRUE'}"
        return int(self.con.execute(sql).fetchone()[0])


def series_matches(got: np.ndarray, expected: np.ndarray) -> bool:
    """Whether a program series equals the oracle's, up to summation order."""
    got = np.asarray(got, dtype="float64")
    return got.shape == expected.shape and bool(np.allclose(got, expected, rtol=RTOL, atol=ATOL))


def forecast_sane(point, lower, upper, horizon: int) -> bool:
    """Finite forecasts of the asked length with ``lower <= point <= upper``."""
    arrs = [np.asarray(a, dtype="float64") for a in (point, lower, upper)]
    return (
        all(a.shape == (horizon,) and np.isfinite(a).all() for a in arrs)
        and bool(np.all(arrs[1] <= arrs[0]) and np.all(arrs[0] <= arrs[2]))
    )


def relative_error(est: np.ndarray, truth: np.ndarray) -> float:
    """Mean ``|est - truth| / truth`` over points with nonzero truth."""
    mask = truth != 0
    return float(np.mean(np.abs(est[mask] - truth[mask]) / np.abs(truth[mask])))
