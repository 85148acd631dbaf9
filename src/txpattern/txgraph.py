"""Bipartite address/transaction graph for a chunk of daily windows.

A window is a date plus row indices into the shared
:class:`~txpattern.ingest.TransactionTable`.  :func:`build_graph` takes one
or more windows of one table, a chunk, and builds their block-diagonal
graph in one pass: day ``d`` is the ``d``-th window, and its transactions
follow those of day ``d - 1``.  The graph reads the rows' address keys
straight from the table's flat columns.  Transactions are numbered in
window order, then file order, and each keeps its ``day``.

An address node is (day, address), so no edge or id links two days.  Ids
are dense, without a hash table.  The chunk's tokens are numbered by
:meth:`~txpattern.ingest.TransactionTable.address_ids`: one sort of their
64-bit keys, a compare of the bytes of equal-key neighbours and a
cumulative sum, so two tokens share an id exactly when their bytes are
equal, even when two different addresses share a key.  Only when the
chunk holds more than one day is ``id * n_days + day`` numbered again, by
a sort.  Identical chunks always produce identical index assignments.
Edges run address->transaction (spends) and transaction->address
(outputs); the bipartite structure is enforced by construction.

Row a of the spender CSR (``spend_indptr``, ``spend_indices``) holds the
transactions that spend address a, the direction the k-order reach
follows; row t of the output CSR (``out_indptr``, ``out_indices``) holds
the addresses t pays.  Each is one :func:`txpattern.kernels.csr` call,
canonical (each row's ids sorted and distinct) and read-only, as is
``input_set_sizes``, each transaction's number of distinct inputs.
Coinbase rows (no inputs) are skipped with a counter: pattern counting
needs a non-empty input-address set per transaction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import BadSpec
from .ingest import DayWindow


@dataclass
class TransactionGraph:
    n_transactions: int
    n_addresses: int
    spend_indptr: np.ndarray    # per address: the transactions that spend it
    spend_indices: np.ndarray
    out_indptr: np.ndarray      # per transaction: the addresses it pays
    out_indices: np.ndarray
    input_set_sizes: np.ndarray     # per transaction: its distinct inputs
    n_coinbase_skipped: int
    day: np.ndarray         # per transaction: its window's position in the chunk
    n_days: int


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
        indptr, empty = _read_only(np.zeros(1, dtype=np.int64),
                                   np.zeros(0, dtype=np.int64))
        return TransactionGraph(0, 0, indptr, empty, indptr, empty, empty, 0, empty, 0)
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
    ids, n_addresses = table.address_ids(np.concatenate((
        kernels.ranges(first, n_in), kernels.ranges(first + n_in, n_out))))
    if n_days > 1:
        # address ids are below the token count, so this cannot overflow
        ids, n_addresses = _dense(
            ids * n_days + np.concatenate((np.repeat(day, n_in), np.repeat(day, n_out))))

    tx = np.arange(rows.size, dtype=np.int64)
    n_in_tokens = int(n_in.sum())
    spend = kernels.csr(ids[:n_in_tokens], np.repeat(tx, n_in), n_addresses, rows.size)
    out = kernels.csr(np.repeat(tx, n_out), ids[n_in_tokens:], rows.size, n_addresses)
    return TransactionGraph(
        rows.size, n_addresses, *_read_only(
            *spend, *out, np.bincount(spend[1], minlength=rows.size)),
        sum(w.rows.size for w in windows) - rows.size, *_read_only(day), n_days,
    )
