"""Bipartite address/transaction graph for one daily window.

A window is a date plus row indices into the shared
:class:`~txpattern.ingest.TransactionTable`.  The graph reads those rows'
address keys straight from the table's flat columns.  Transactions are
numbered in file order, and addresses get dense ids in key order: a sort
of the day's keys, a neighbour compare and a cumulative sum.  A key is
exact for its file, so two tokens share an id exactly when they are the
same address, and identical windows always produce identical index
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
    n_coinbase_skipped: int = 0

    def input_ids(self, t: int) -> np.ndarray:
        return self.in_indices[self.in_indptr[t]:self.in_indptr[t + 1]]

    def output_ids(self, t: int) -> np.ndarray:
        return self.out_indices[self.out_indptr[t]:self.out_indptr[t + 1]]

    @property
    def input_set_sizes(self) -> np.ndarray:
        return np.diff(self.in_indptr)


def _csr(tx: np.ndarray, ids: np.ndarray, n_tx: int,
         n_addr: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only canonical CSR of (transaction, address id) pairs."""
    indptr, indices = csr(tx, ids, n_tx, n_addr)
    indptr.flags.writeable = False
    indices.flags.writeable = False
    return indptr, indices


def build_graph(window: DayWindow) -> TransactionGraph:
    """Build the window's graph; coinbase records are skipped, not errors."""
    table = window.table
    rows = window.rows[table.n_inputs[window.rows] > 0]
    n_in = table.n_inputs[rows]
    n_out = table.n_outputs[rows]
    keys = np.concatenate((
        table.input_keys[ranges(table.in_indptr[rows], n_in)],
        table.output_keys[ranges(table.out_indptr[rows], n_out)],
    ))
    # dense ids in key order, without a hash table
    order = np.argsort(keys)
    ordered = keys[order]
    new = np.ones(keys.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    ids = np.empty(keys.size, dtype=np.int64)
    ids[order] = np.cumsum(new) - 1
    n_addresses = int(new.sum())

    tx = np.arange(rows.size, dtype=np.int64)
    n_in_tokens = int(n_in.sum())
    in_indptr, in_indices = _csr(np.repeat(tx, n_in), ids[:n_in_tokens],
                                 rows.size, n_addresses)
    out_indptr, out_indices = _csr(np.repeat(tx, n_out), ids[n_in_tokens:],
                                   rows.size, n_addresses)
    return TransactionGraph(
        rows.size, n_addresses, in_indptr, in_indices, out_indptr, out_indices,
        window.rows.size - rows.size,
    )
