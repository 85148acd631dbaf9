"""Per-day pattern feature tables, their CSV dump, and column scaling.

A day's feature vector is the concatenation of its occurrence grids for
orders 1..k.  Every day of the window range gets one row, empty days
included; training targets are built from these rows by
:class:`txpattern.backtest.DayTable`.

Standardization is plain per-column z-scoring with population statistics,
fitted on training rows only; zero-variance columns map to 0.
"""

from __future__ import annotations

import datetime as dt
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import TooFewRows
from .ingest import DayWindow
from .korder import GRID_CELLS, feature_vector
from .txgraph import build_graph


@dataclass
class Scaler:
    mean: np.ndarray
    std: np.ndarray


def day_feature_table(
    windows: list[DayWindow], max_order: int, threads: int | None = None
) -> tuple[list[dt.date], np.ndarray]:
    """Feature vectors for every window, in date order.

    Extraction is embarrassingly parallel across days; results are placed by
    index so the table is identical for any thread count."""
    dates = [w.date for w in windows]
    dim = GRID_CELLS * max_order

    def one(window: DayWindow) -> np.ndarray:
        return feature_vector(build_graph(window), max_order)

    if threads is not None and threads > 1 and len(windows) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            vecs = list(pool.map(one, windows))
    else:
        vecs = [one(w) for w in windows]
    table = np.zeros((len(windows), dim), dtype=np.float64)
    for i, v in enumerate(vecs):
        table[i] = v
    return dates, table


def fit_scaler(x: np.ndarray) -> Scaler:
    """Per-column mean/std over training rows (population std)."""
    if x.shape[0] < 2:
        raise TooFewRows(f"need at least 2 rows to fit a scaler, got {x.shape[0]}")
    return Scaler(mean=x.mean(axis=0), std=x.std(axis=0))


def apply_scaler(scaler: Scaler, x: np.ndarray) -> np.ndarray:
    """z-score columns; zero-variance columns collapse to 0."""
    safe = np.where(scaler.std > 0, scaler.std, 1.0)
    out = (x - scaler.mean) / safe
    if x.ndim == 1:
        return np.where(scaler.std > 0, out, 0.0)
    return np.where(scaler.std[None, :] > 0, out, 0.0)


def write_feature_csv(dates: list[dt.date], table: np.ndarray, path: str | Path) -> None:
    """Per-day feature dump: header date,f_0..f_{d-1}, integer counts."""
    dim = table.shape[1]
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write("date," + ",".join(f"f_{i}" for i in range(dim)) + "\n")
        for i, date in enumerate(dates):
            vals = ",".join(str(int(v)) for v in table[i])
            fh.write(f"{date.isoformat()},{vals}\n")
