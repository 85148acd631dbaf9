"""Per-day pattern feature tables and their CSV dump.

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

So the chunks are independent tasks for
:func:`~txpattern.kernels.on_processes`, costed by their address tokens:
the caller builds the first share and forked workers the others, each
writing its rows into the table, an anonymous shared mapping.

The rows hold raw counts; each fit z-scores its own training columns (see
:func:`txpattern.kernels.centred_eigh`).
"""

from __future__ import annotations

import datetime as dt
import mmap
from pathlib import Path

import numpy as np

from . import kernels
from .errors import BadSpec
from .ingest import DayWindow
from .korder import GRID_CELLS, feature_vector
from .txgraph import build_graph

CHUNK_EDGES = 5_000     # address tokens (inputs plus outputs) per chunk


def window_tokens(windows: list[DayWindow]) -> np.ndarray:
    """The address tokens (inputs plus outputs) of each window; the windows
    must all be of one table."""
    if not windows:
        return np.zeros(0, dtype=np.int64)
    table = windows[0].table
    rows = np.concatenate([w.rows for w in windows])
    tokens = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(table.n_inputs[rows] + table.n_outputs[rows], out=tokens[1:])
    return np.diff(tokens[kernels.indptr_from([w.rows.size for w in windows])])


def _chunks(windows: list[DayWindow]) -> tuple[list[tuple[int, int]], np.ndarray]:
    """``[lo, hi)`` runs of consecutive windows, each as long as its address
    tokens stay within ``CHUNK_EDGES``; a window above it is a run of one.
    Also the tokens of each run."""
    # tokens before each window, and after the last
    before = kernels.indptr_from(window_tokens(windows))
    runs, lo = [], 0
    while lo < len(windows):
        hi = int(np.searchsorted(before, before[lo] + CHUNK_EDGES, side="right")) - 1
        runs.append((lo, max(hi, lo + 1)))
        lo = runs[-1][1]
    return runs, np.diff(before[[lo for lo, _ in runs] + [len(windows)]])


def day_feature_table(
    windows: list[DayWindow], max_order: int
) -> tuple[list[dt.date], np.ndarray]:
    """Feature vectors for every window, one row per window in the given
    order.  The windows must all be of one table (else ``BadSpec``); they
    are walked in chunks of consecutive windows, each one block-diagonal
    graph whose :func:`feature_vector` gives its days' rows at once, on
    forked workers too (see the module docstring): the table returned is
    backed by the mapping they wrote to."""
    if max_order < 1:
        raise BadSpec(f"order must be >= 1, got {max_order}")
    if any(w.table is not windows[0].table for w in windows):
        raise BadSpec("the windows of one feature table must share one table")
    shape = (len(windows), GRID_CELLS * max_order)
    # zero-filled pages that a forked worker writes to and the caller reads
    pages = mmap.mmap(-1, max(8 * shape[0] * shape[1], 1))
    table = np.frombuffer(pages, dtype=np.float64, count=shape[0] * shape[1]).reshape(shape)

    runs, tokens = _chunks(windows)

    def fill(i):
        lo, hi = runs[i]
        table[lo:hi] = feature_vector(build_graph(*windows[lo:hi]), max_order)

    kernels.on_processes(fill, tokens)
    return [w.date for w in windows], table


def write_feature_csv(dates: list[dt.date], table: np.ndarray, path: str | Path) -> None:
    """Per-day feature dump: header date,f_0..f_{d-1}, integer counts."""
    dim = table.shape[1]
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write("date," + ",".join(f"f_{i}" for i in range(dim)) + "\n")
        for i, date in enumerate(dates):
            vals = ",".join(str(int(v)) for v in table[i])
            fh.write(f"{date.isoformat()},{vals}\n")
