"""k-hop pattern counting over the transaction graph of a chunk of days.

For each transaction the pattern at order k is the pair (m, n): m is the
number of distinct input addresses, n the number of distinct addresses
reachable in exactly k transaction hops along spend edges (the order-k
frontier).  Counts are tallied into a 20x20 grid per order; sizes above 20
are clamped into the last row/column, and transactions whose frontier is
empty at that order contribute to no cell.  The clamp follows the chainlet
grids of Akcora et al., "Forecasting Bitcoin Price with Graph Chainlets"
(PAKDD 2018).

Two independent routes produce the grid:

* :func:`occurrence_matrices` - sparse boolean linear algebra.  Q is the
  tx->address output matrix.  The linked addresses L are those that some
  transaction of the graph pays and some transaction spends; P_L is the
  L->tx spender matrix and Q_L the tx->L part of Q.  Under the boolean
  semiring ``reach_1 = Q`` and ``reach_{k+1} = Q_L (P_L reach_k)``: row a
  of ``P_L reach_k`` is the union of the order-k rows of a's spenders, and
  a transaction's order-(k+1) row is the union of those rows over the
  linked addresses it pays.  An address outside L has no spender or no
  payer, so dropping it changes no row, and the tx x tx hop ``Q P`` is
  never formed.  After every stage each row is kept to its first
  ``CLAMP`` entries, so n is the row population count only up to the
  clamp: a capped row holds min(|frontier|, 20) members of the true one.
  The grid stays exact, because at each stage a union of capped rows has
  at least 20 members exactly when the union of the true rows does, and
  below 20 every capped row is whole.  Each product therefore expands at
  most ``CLAMP`` entries per entry of its left operand, and an order costs
  at most ``CLAMP * (nnz(P_L) + nnz(Q_L))``: linear in the graph's edges,
  however wide a hub address is.  Each matrix is a bare canonical CSR
  pair ``(indptr, indices)`` (see :mod:`txpattern.kernels`) whose shape
  the caller knows, and each product is one ``kernels.spgemm_bool`` call.
* :func:`occurrence_matrix_oracle` - explicit per-transaction frontier
  expansion with python sets, kept deliberately free of the matrix code.
  It computes the exact, unclamped frontier and clamps only when it tallies.

The graph may hold several days (see :mod:`txpattern.txgraph`).  Its
address nodes are (day, key), so it is block-diagonal: no reach row crosses
from one day into another, and the products of a chunk are those of its
days stacked.  The route runs once per chunk: each stage is one product
for all its days, and one ``bincount`` over each transaction's day and
cell tallies every day's grids at once.  Two views read it:
:func:`feature_vector` gives one row per day, and
:func:`occurrence_matrices` the grids of the whole graph, each summed over
its days, which is what the oracle computes on the same graph.

Boolean products are used instead of integer path counts: the tally only
asks whether a reach entry is positive, and path counts blow up
combinatorially.  The tests keep a dense integer path-count reference for
small graphs and check that boolean products agree with it after
thresholding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import BadSpec
from .txgraph import TransactionGraph

CLAMP = 20
GRID_CELLS = CLAMP * CLAMP


Csr = tuple[np.ndarray, np.ndarray]


@dataclass
class OccurrenceMatrix:
    """20x20 grid of pattern counts at one order; cell (m, n) is 1-based."""

    order: int
    counts: np.ndarray

    def cell(self, m: int, n: int) -> int:
        return int(self.counts[m - 1, n - 1])

    def to_flat(self) -> np.ndarray:
        return self.counts.reshape(-1)

    def total(self) -> int:
        return int(self.counts.sum())

    def __eq__(self, other) -> bool:
        if not isinstance(other, OccurrenceMatrix):
            return NotImplemented
        return self.order == other.order and np.array_equal(self.counts, other.counts)


def _keep(indptr: np.ndarray, indices: np.ndarray, mask: np.ndarray) -> Csr:
    """The entries of a CSR matrix where ``mask`` holds, rows in place."""
    return kernels.indptr_from(mask)[indptr], indices[mask]


def _first_entries(indptr: np.ndarray, indices: np.ndarray) -> Csr:
    """Keep each row's first ``CLAMP`` entries: a subset of the row with
    min(row size, CLAMP) members, which is all the tally can tell apart."""
    counts = np.diff(indptr)
    if counts.max(initial=0) <= CLAMP:
        return indptr, indices
    rank = np.arange(indices.size, dtype=np.int64) - np.repeat(indptr[:-1], counts)
    return _keep(indptr, indices, rank < CLAMP)


def _linked(graph: TransactionGraph) -> tuple[Csr, Csr]:
    """``(P_L, Q_L)`` over the linked addresses L, those that some
    transaction pays and some transaction spends, numbered in id order.
    ``P_L`` is |L| x |T| (row a: the spenders of a) and ``Q_L`` is |T| x |L|
    (row t: the linked addresses t pays)."""
    spent = np.zeros(graph.n_addresses, dtype=bool)
    spent[graph.in_indices] = True
    paid = np.zeros(graph.n_addresses, dtype=bool)
    paid[graph.out_indices] = True
    linked = spent & paid
    renumber = np.cumsum(linked) - 1
    n_tx = graph.n_transactions
    spender = np.repeat(np.arange(n_tx, dtype=np.int64), graph.input_set_sizes)
    kept = linked[graph.in_indices]
    p_l = kernels.csr(renumber[graph.in_indices[kept]], spender[kept],
                      int(linked.sum()), n_tx)
    # Q_L is Q with its unlinked columns dropped; renumbering in id order
    # keeps each row sorted
    q_indptr, q_indices = _keep(graph.out_indptr, graph.out_indices,
                                linked[graph.out_indices])
    return p_l, (q_indptr, renumber[q_indices])


def _day_grids(graph: TransactionGraph, max_order: int) -> np.ndarray:
    """Every day's OC^1..OC^max_order as one ``(n_days, max_order, CLAMP,
    CLAMP)`` array, from one pair of linked-address matrices ``P_L`` and
    ``Q_L`` and one product per stage for the whole chunk.

    ``reach_1 = cap(Q)`` and ``reach_{k+1} = cap(Q_L . cap(P_L . reach_k))``,
    where ``cap`` keeps each row's first ``CLAMP`` entries; every reach
    matrix has one column per address.  The tx x tx hop ``Q . P`` is never
    formed, so an order expands at most ``CLAMP * (nnz(P_L) + nnz(Q_L))``
    entries, and none when no address is linked.  A row's population count
    is min(n, CLAMP), not n, and the grids equal those of the full reach
    matrix (see the module docstring).  The tally is one ``bincount`` of
    each transaction's flat cell ``day * max_order * 400 + (k - 1) * 400 +
    (m - 1) * 20 + (n - 1)``, clamped; an empty frontier counts nowhere."""
    if max_order < 1:
        raise BadSpec(f"order must be >= 1, got {max_order}")
    width = max_order * GRID_CELLS
    row = graph.day * width + (np.minimum(graph.input_set_sizes, CLAMP) - 1) * CLAMP

    def cells(k: int, reach: Csr) -> np.ndarray:
        n = np.diff(reach[0])
        return (row + ((k - 1) * GRID_CELLS - 1) + np.minimum(n, CLAMP))[n > 0]

    reach = _first_entries(graph.out_indptr, graph.out_indices)
    tallied = [cells(1, reach)]
    if max_order > 1:
        p_l, q_l = _linked(graph)
        n_linked = p_l[0].size - 1
        n_tx, n_addr = graph.n_transactions, graph.n_addresses
        for k in range(2, max_order + 1):
            if not n_linked:
                break           # every higher frontier is empty
            via = _first_entries(*kernels.spgemm_bool(*p_l, *reach, n_linked, n_addr))
            reach = _first_entries(*kernels.spgemm_bool(*q_l, *via, n_tx, n_addr))
            tallied.append(cells(k, reach))
    counts = np.bincount(np.concatenate(tallied), minlength=graph.n_days * width)
    return counts.reshape(graph.n_days, max_order, CLAMP, CLAMP)


def occurrence_matrices(graph: TransactionGraph, max_order: int) -> list[OccurrenceMatrix]:
    """OC^1..OC^max_order of the whole graph, each summed over its days:
    what :func:`occurrence_matrix_oracle` gives for the same graph."""
    grids = _day_grids(graph, max_order).sum(axis=0)
    return [OccurrenceMatrix(k, grids[k - 1]) for k in range(1, max_order + 1)]


def feature_vector(graph: TransactionGraph, max_order: int) -> np.ndarray:
    """One row per day of the graph: the concatenated row-major flattenings
    of that day's OC^1..OC^max_order (400 per order)."""
    return _day_grids(graph, max_order).reshape(graph.n_days, max_order * GRID_CELLS)


def _walk_sets(
    graph: TransactionGraph,
) -> tuple[list[frozenset[int]], list[frozenset[int]]]:
    """Per transaction: its output addresses, and its successors (every
    transaction that spends one of those outputs)."""
    spenders: dict[int, list[int]] = {}
    for t in range(graph.n_transactions):
        for a in graph.input_ids(t).tolist():
            spenders.setdefault(a, []).append(t)
    outputs = [
        frozenset(graph.output_ids(t).tolist()) for t in range(graph.n_transactions)
    ]
    successors = [
        frozenset().union(*(spenders.get(a, ()) for a in outs)) for outs in outputs
    ]
    return outputs, successors


def occurrence_matrix_oracle(graph: TransactionGraph, k: int) -> OccurrenceMatrix:
    """Order-k pattern counts by per-transaction traversal; same clamping
    and empty-frontier rule as the matrix route, independent code path.
    Frontiers are computed whole and clamped only in the tally."""
    if k < 1:
        raise BadSpec(f"order must be >= 1, got {k}")
    outputs, successors = _walk_sets(graph)
    grid = np.zeros((CLAMP, CLAMP), dtype=np.int64)
    for t in range(graph.n_transactions):
        # Exact-depth walk semantics: level d holds every transaction
        # reachable by some length-d spend walk, so revisits are allowed
        # (cycles from address reuse stay consistent with matrix powering).
        level = {t}
        for _ in range(k - 1):
            level = set().union(*(successors[u] for u in level))
            if not level:
                break
        n = len(set().union(*(outputs[u] for u in level)))
        if n > 0:
            grid[min(len(graph.input_ids(t)), CLAMP) - 1, min(n, CLAMP) - 1] += 1
    return OccurrenceMatrix(k, grid)
