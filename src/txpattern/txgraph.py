"""Bipartite address/transaction graph for one daily window.

A window is a date plus row indices into the shared
:class:`~txpattern.ingest.TransactionTable`.  The graph reads those rows'
address tokens straight from the table's flat columns.  Addresses and
transactions are interned to dense integer ids in first-appearance order
(each transaction's inputs, then its outputs, in file order), so identical
windows always produce identical index assignments and the edge tables can
back sparse matrices directly.  Edges run address->transaction (inputs) and
transaction->address (outputs); the bipartite structure is enforced by
construction.

Per-transaction input and output address lists are stored as sorted,
deduplicated id arrays in CSR layout (indptr + indices).  Coinbase rows
(no inputs) are skipped with a counter: pattern counting needs a non-empty
input-address set per transaction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import DayWindow
from .kernels import _unique_sorted


@dataclass
class TransactionGraph:
    tx_ids: list[str]
    addresses: list[str]
    in_indptr: np.ndarray
    in_indices: np.ndarray
    out_indptr: np.ndarray
    out_indices: np.ndarray
    n_coinbase_skipped: int = 0

    @property
    def n_transactions(self) -> int:
        return len(self.tx_ids)

    @property
    def n_addresses(self) -> int:
        return len(self.addresses)

    def input_ids(self, t: int) -> np.ndarray:
        return self.in_indices[self.in_indptr[t]:self.in_indptr[t + 1]]

    def output_ids(self, t: int) -> np.ndarray:
        return self.out_indices[self.out_indptr[t]:self.out_indptr[t + 1]]

    @property
    def input_set_sizes(self) -> np.ndarray:
        return np.diff(self.in_indptr)


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The positions ``start, ..., start + len - 1`` of every pair, end to end."""
    ends = np.cumsum(lens)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total, dtype=np.int64) + np.repeat(starts - (ends - lens), lens)


def _csr(tx: np.ndarray, ids: np.ndarray, n_tx: int,
         n_addr: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only canonical CSR of (transaction, address id) pairs: each
    row's ids sorted and distinct."""
    width = max(n_addr, 1)
    keys = _unique_sorted(tx * width + ids)
    indptr = np.zeros(n_tx + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // width, minlength=n_tx), out=indptr[1:])
    indices = keys % width
    indptr.flags.writeable = False
    indices.flags.writeable = False
    return indptr, indices


def build_graph(window: DayWindow) -> TransactionGraph:
    """Build the window's graph; coinbase records are skipped, not errors."""
    table = window.table
    rows = window.rows[table.n_inputs[window.rows] > 0]
    n_in = table.n_inputs[rows]
    n_out = table.n_outputs[rows]
    # each address token's slot in the day's sequence: per transaction, its
    # inputs and then its outputs, which is the order of first appearance
    starts = np.cumsum(n_in + n_out) - (n_in + n_out)
    in_slots = _ranges(starts, n_in)
    out_slots = _ranges(starts + n_in, n_out)
    sequence = np.empty(in_slots.size + out_slots.size, dtype=object)
    sequence[in_slots] = table.inputs[_ranges(table.in_indptr[rows], n_in)]
    sequence[out_slots] = table.outputs[_ranges(table.out_indptr[rows], n_out)]
    tokens = sequence.tolist()
    addresses = list(dict.fromkeys(tokens))
    index = dict(zip(addresses, range(len(addresses))))
    ids = np.fromiter(map(index.__getitem__, tokens), np.int64, len(tokens))

    tx = np.arange(rows.size, dtype=np.int64)
    in_indptr, in_indices = _csr(np.repeat(tx, n_in), ids[in_slots],
                                 rows.size, len(addresses))
    out_indptr, out_indices = _csr(np.repeat(tx, n_out), ids[out_slots],
                                   rows.size, len(addresses))
    tx_ids = list(map(table.tx_ids.__getitem__, rows.tolist()))
    return TransactionGraph(
        tx_ids, addresses, in_indptr, in_indices, out_indptr, out_indices,
        window.rows.size - rows.size,
    )
