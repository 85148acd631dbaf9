"""Bipartite address/transaction graph for a chunk of daily windows.

A window is a date plus row indices into the shared
:class:`~txpattern.ingest.TransactionTable`.  :func:`build_graph` takes one
or more windows of one table, a chunk, and builds their block-diagonal
graph in one pass: day ``d`` is the ``d``-th window, and its transactions
follow those of day ``d - 1``.  The graph reads the rows' address keys
straight from the table's flat columns.  Transactions are numbered in
window order, then file order, and each keeps its ``day``.

An address node is (day, key), so no edge or id links two days.  Ids are
dense, without a hash table: the chunk's keys are numbered by one sort, a
neighbour compare and a cumulative sum, and only when the chunk holds more
than one day is ``key_id * n_days + day`` numbered the same way.  Keys are
64-bit hashes, so the key itself is never multiplied.  A key is exact for
its file, so two tokens of one day share an id exactly when they are the
same address, and identical chunks always produce identical index
assignments.  Edges run address->transaction (inputs) and
transaction->address (outputs); the bipartite structure is enforced by
construction.

Per-transaction input and output address lists are stored as canonical
CSR arrays (indptr + indices, each row's ids sorted and distinct), built
by :func:`txpattern.kernels.csr` and made read-only.  Coinbase rows
(no inputs) are skipped with a counter: pattern counting needs a non-empty
input-address set per transaction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadSpec
from .ingest import DayWindow
from .kernels import csr, ranges


@dataclass
class TransactionGraph:
    n_transactions: int
    n_addresses: int
    in_indptr: np.ndarray
    in_indices: np.ndarray
    out_indptr: np.ndarray
    out_indices: np.ndarray
    n_coinbase_skipped: int
    day: np.ndarray         # per transaction: its window's position in the chunk
    n_days: int

    def input_ids(self, t: int) -> np.ndarray:
        return self.in_indices[self.in_indptr[t]:self.in_indptr[t + 1]]

    def output_ids(self, t: int) -> np.ndarray:
        return self.out_indices[self.out_indptr[t]:self.out_indptr[t + 1]]

    @property
    def input_set_sizes(self) -> np.ndarray:
        return np.diff(self.in_indptr)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _dense(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense ids in value order, and how many there are: a sort, a
    neighbour compare and a cumulative sum."""
    order = np.argsort(values)
    ordered = values[order]
    new = np.ones(values.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    ids = np.empty(values.size, dtype=np.int64)
    ids[order] = np.cumsum(new) - 1
    return ids, int(new.sum())


def build_graph(*windows: DayWindow) -> TransactionGraph:
    """The block-diagonal graph of the windows, one day each, in argument
    order; coinbase records are skipped, not errors.  No window gives an
    empty graph of no days."""
    n_days = len(windows)
    if not n_days:
        indptr, indices = _read_only(np.zeros(1, dtype=np.int64),
                                     np.zeros(0, dtype=np.int64))
        return TransactionGraph(0, 0, indptr, indices, indptr, indices, 0, indices, 0)
    table = windows[0].table
    if any(w.table is not table for w in windows):
        raise BadSpec("the windows of one graph must share one table")
    rows = windows[0].rows if n_days == 1 else np.concatenate([w.rows for w in windows])
    day = np.repeat(np.arange(n_days, dtype=np.int64), [w.rows.size for w in windows])
    kept = table.n_inputs[rows] > 0
    rows, day = rows[kept], day[kept]
    n_in = table.n_inputs[rows]
    n_out = table.n_outputs[rows]
    first = table.indptr[rows]
    ids, n_addresses = _dense(np.concatenate((
        table.keys[ranges(first, n_in)], table.keys[ranges(first + n_in, n_out)])))
    if n_days > 1:
        # key ids are below the token count, so this cannot overflow
        ids, n_addresses = _dense(
            ids * n_days + np.concatenate((np.repeat(day, n_in), np.repeat(day, n_out))))

    tx = np.arange(rows.size, dtype=np.int64)
    n_in_tokens = int(n_in.sum())
    in_csr = csr(np.repeat(tx, n_in), ids[:n_in_tokens], rows.size, n_addresses)
    out_csr = csr(np.repeat(tx, n_out), ids[n_in_tokens:], rows.size, n_addresses)
    return TransactionGraph(
        rows.size, n_addresses, *_read_only(*in_csr, *out_csr),
        sum(w.rows.size for w in windows) - rows.size, *_read_only(day), n_days,
    )
