"""Per-day pattern feature tables, their CSV dump, and column scaling.

A day's feature vector is the concatenation of its occurrence grids for
orders 1..k.  Every day of the window range gets one row, empty days
included; training targets are built from these rows by
:class:`txpattern.backtest.DayTable`.

The table is built in chunks, as graph-learning libraries batch many
small graphs into one block-diagonal graph (Fey and Lenssen, "Fast Graph
Representation Learning with PyTorch Geometric", 2019).  Consecutive
windows join a chunk while its address tokens stay within
``CHUNK_EDGES``; each chunk is one :func:`~txpattern.txgraph.build_graph`
and one :func:`~txpattern.korder.feature_vector`, which runs each order's
products once for all its days and returns one row per day.  A day above
the budget is a chunk of its own, so a large day costs what it costs
alone, and many small days share the fixed cost of each numpy call.  The
rows do not depend on the budget: no address links two days of a chunk.

Standardization is plain per-column z-scoring with population statistics,
fitted on training rows only; zero-variance columns map to 0.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import OrderOutOfRange, TooFewRows
from .ingest import DayWindow
from .kernels import indptr_from
from .korder import GRID_CELLS, feature_vector
from .txgraph import build_graph

CHUNK_EDGES = 5_000     # address tokens (inputs plus outputs) per chunk


@dataclass
class Scaler:
    mean: np.ndarray
    std: np.ndarray


def _chunks(windows: list[DayWindow]) -> list[tuple[int, int]]:
    """``[lo, hi)`` runs of consecutive windows, each as long as its address
    tokens stay within ``CHUNK_EDGES``; a window above it is a run of one."""
    if not windows:
        return []
    table = windows[0].table
    rows = np.concatenate([w.rows for w in windows])
    tokens = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(table.n_inputs[rows] + table.n_outputs[rows], out=tokens[1:])
    # tokens before each window, and after the last
    before = tokens[indptr_from([w.rows.size for w in windows])]
    runs, lo = [], 0
    while lo < len(windows):
        hi = int(np.searchsorted(before, before[lo] + CHUNK_EDGES, side="right")) - 1
        runs.append((lo, max(hi, lo + 1)))
        lo = runs[-1][1]
    return runs


def day_feature_table(
    windows: list[DayWindow], max_order: int
) -> tuple[list[dt.date], np.ndarray]:
    """Feature vectors for every window, one row per window in the given
    order.  The windows, all of one table, are walked in chunks of
    consecutive windows; each chunk is one block-diagonal graph whose
    :func:`feature_vector` gives its days' rows at once."""
    if max_order < 1:
        raise OrderOutOfRange(f"order must be >= 1, got {max_order}")
    table = np.zeros((len(windows), GRID_CELLS * max_order), dtype=np.float64)
    for lo, hi in _chunks(windows):
        table[lo:hi] = feature_vector(build_graph(*windows[lo:hi]), max_order)
    return [w.date for w in windows], table


def fit_scaler(x: np.ndarray) -> Scaler:
    """Per-column mean/std over training rows (population std)."""
    if x.shape[0] < 2:
        raise TooFewRows(f"need at least 2 rows to fit a scaler, got {x.shape[0]}")
    return Scaler(mean=x.mean(axis=0), std=x.std(axis=0))


def apply_scaler(scaler: Scaler, x: np.ndarray) -> np.ndarray:
    """z-score columns; zero-variance columns collapse to 0."""
    safe = np.where(scaler.std > 0, scaler.std, 1.0)
    out = (x - scaler.mean) / safe
    return np.where(scaler.std > 0, out, 0.0)


def write_feature_csv(dates: list[dt.date], table: np.ndarray, path: str | Path) -> None:
    """Per-day feature dump: header date,f_0..f_{d-1}, integer counts."""
    dim = table.shape[1]
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write("date," + ",".join(f"f_{i}" for i in range(dim)) + "\n")
        for i, date in enumerate(dates):
            vals = ",".join(str(int(v)) for v in table[i])
            fh.write(f"{date.isoformat()},{vals}\n")
