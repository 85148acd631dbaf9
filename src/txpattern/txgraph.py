"""Bipartite address/transaction graph for one daily window.

Addresses and transactions are interned to dense integer ids in
first-appearance order, so identical windows always produce identical index
assignments and the edge tables can back sparse matrices directly.  Edges
run address->transaction (inputs) and transaction->address (outputs); the
bipartite structure is enforced by construction.

Per-transaction input and output address lists are stored as sorted,
deduplicated id arrays in CSR layout (indptr + indices).  Coinbase records
(no inputs) are skipped with a counter: pattern counting needs a non-empty
input-address set per transaction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import DayWindow


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


def build_graph(window: DayWindow) -> TransactionGraph:
    """Build the window's graph; coinbase records are skipped, not errors."""
    addr_ids: dict[str, int] = {}
    tx_ids: list[str] = []
    in_flat: list[int] = []
    out_flat: list[int] = []
    in_lens: list[int] = []
    out_lens: list[int] = []
    skipped = 0
    for rec in window.transactions:
        if rec.is_coinbase:
            skipped += 1
            continue
        ins = sorted({addr_ids.setdefault(a, len(addr_ids)) for a in rec.inputs})
        outs = sorted({addr_ids.setdefault(a, len(addr_ids)) for a in rec.outputs})
        tx_ids.append(rec.tx_id)
        in_flat.extend(ins)
        out_flat.extend(outs)
        in_lens.append(len(ins))
        out_lens.append(len(outs))

    def _csr(flat: list[int], lens: list[int]) -> tuple[np.ndarray, np.ndarray]:
        indptr = np.zeros(len(lens) + 1, dtype=np.int64)
        np.cumsum(lens, out=indptr[1:])
        indices = np.array(flat, dtype=np.int64)
        indptr.flags.writeable = False
        indices.flags.writeable = False
        return indptr, indices

    in_indptr, in_indices = _csr(in_flat, in_lens)
    out_indptr, out_indices = _csr(out_flat, out_lens)
    addresses = list(addr_ids)
    return TransactionGraph(
        tx_ids, addresses, in_indptr, in_indices, out_indptr, out_indices, skipped
    )
