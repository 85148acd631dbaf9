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
  graph's tx->address output matrix and P its address->tx spender matrix.
  The linked addresses L are those that some transaction of the graph pays
  and some transaction spends; P_L is P's rows of L, gathered with no
  sort, and Q_L the tx->L part of Q.  Under the boolean semiring
  ``reach_1 = Q`` and ``reach_{k+1} = Q_L (P_L reach_k)``: row a of
  ``P_L reach_k`` is the union of the order-k rows of a's spenders, and a
  transaction's order-(k+1) row is the union of those rows over the
  linked addresses it pays.  An address outside L has no spender or no
  payer, so dropping it changes no row, and the tx x tx hop ``Q P`` is
  never formed.  After every stage each row is capped at ``CLAMP``
  entries, so n is the row population count only up to the clamp: a
  capped row holds min(|frontier|, 20) members of the true one.  A row
  that meets a full row (``CLAMP`` entries) of the right operand takes
  that row, which its true row holds whole; any other row is the union of
  the rows it meets, cut to its first ``CLAMP`` entries.  The grid stays
  exact, because at each stage a union of capped rows has at least 20
  members exactly when the union of the true rows does, and below 20
  every capped row is whole.  Each product therefore expands at most
  ``CLAMP`` entries per entry of its left operand, and exactly ``CLAMP``
  per row that meets a full row, so an order costs at most ``CLAMP *
  (nnz(P_L) + nnz(Q_L))``: linear in the graph's edges, however wide a
  hub address is, and a stage whose rows are all full costs ``CLAMP`` per
  non-empty row.  Each matrix is a bare canonical CSR pair ``(indptr,
  indices)`` (see :mod:`txpattern.kernels`) whose shape the caller knows,
  and each product is one ``kernels.spgemm_bool`` call on the left entries
  that remain.
* :func:`occurrence_matrix_oracle` - explicit per-transaction frontier
  expansion with python sets, kept deliberately free of the matrix code.
  Order 1 is each transaction's own outputs.  Above it, one lazy walk
  reads the graph's spender rows: level 2 is the spenders of a
  transaction's spent outputs, level d + 1 the spenders of level d's
  outputs, each member drawn once per level.  Transactions with the same
  spent outputs walk once, memoised by them.  The frontier the last level
  pays is counted only up to the clamp (or up to every paid address, if
  fewer): n is min(|frontier|, 20), exact because a count that never
  stops has drained every level whole.  The tests check it against a
  reference walk that keeps every frontier whole.

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


@dataclass(eq=False)
class OccurrenceMatrix:
    """20x20 grid of pattern counts at one order: the 1-based cell (m, n)
    is ``counts[m - 1, n - 1]``."""

    order: int
    counts: np.ndarray

    def to_flat(self) -> np.ndarray:
        return self.counts.reshape(-1)


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


def _capped_product(a: Csr, b: Csr, n_rows: int, n_cols: int) -> Csr:
    """``A . B`` with each row capped at ``CLAMP`` entries, for a B whose
    rows hold at most ``CLAMP``.  A row of A that meets a full row of B
    (``CLAMP`` entries) keeps only its first such entry, so it takes that
    row, which its true row holds whole, and its other entries are never
    expanded.  Every other row expands whole and keeps its first
    ``CLAMP`` entries."""
    a_indptr, a_indices = a
    full = np.diff(b[0]) == CLAMP
    # with no full row in B, A is kept whole without being read
    if full.any() and (hits := np.flatnonzero(full[a_indices])).size:
        rows = np.searchsorted(a_indptr, hits, side="right") - 1
        first = np.ones(hits.size, dtype=bool)      # each row's first hit
        np.not_equal(rows[1:], rows[:-1], out=first[1:])
        rows = rows[first]
        keep = np.ones(a_indices.size, dtype=bool)
        keep[kernels.ranges(a_indptr[rows], a_indptr[rows + 1] - a_indptr[rows])] = False
        keep[hits[first]] = True
        a = _keep(a_indptr, a_indices, keep)
    return _first_entries(*kernels.spgemm_bool(*a, *b, n_rows, n_cols))


def _linked(graph: TransactionGraph) -> tuple[Csr, Csr]:
    """``(P_L, Q_L)`` over the linked addresses L, those that some
    transaction pays and some transaction spends, numbered in id order.
    ``P_L`` is |L| x |T| (row a: the spenders of a), the graph's spender
    rows of L, and ``Q_L`` is |T| x |L| (row t: the linked addresses t
    pays), Q with its other columns dropped."""
    n_spenders = np.diff(graph.spend_indptr)
    linked = np.zeros(graph.n_addresses, dtype=bool)
    linked[graph.out_indices] = True
    linked &= n_spenders > 0
    p_l = (kernels.indptr_from(n_spenders[linked]),
           graph.spend_indices[np.repeat(linked, n_spenders)])
    # renumbering in id order keeps each row of Q_L sorted
    q_indptr, q_indices = _keep(graph.out_indptr, graph.out_indices,
                                linked[graph.out_indices])
    return p_l, (q_indptr, (np.cumsum(linked) - 1)[q_indices])


def _day_grids(graph: TransactionGraph, max_order: int) -> np.ndarray:
    """Every day's OC^1..OC^max_order as one ``(n_days, max_order, CLAMP,
    CLAMP)`` array, from one pair of linked-address matrices ``P_L`` and
    ``Q_L`` and one product per stage for the whole chunk.

    ``reach_1 = cap(Q)`` and ``reach_{k+1} = cap(Q_L . cap(P_L . reach_k))``,
    where ``cap`` keeps each row's first ``CLAMP`` entries, except that a
    row meeting a full row of the right operand takes that row and expands
    nothing else (:func:`_capped_product`); every reach matrix has one
    column per address.  The tx x tx hop ``Q . P`` is never formed, so an
    order expands at most ``CLAMP * (nnz(P_L) + nnz(Q_L))`` entries, and
    none when no address is linked.  A row's population count is min(n,
    CLAMP), not n, and the grids equal those of the full reach matrix (see
    the module docstring).  The tally is one ``bincount`` of
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
            via = _capped_product(p_l, reach, n_linked, n_addr)
            reach = _capped_product(q_l, via, n_tx, n_addr)
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


def _capped_size(sets, cap: int) -> int:
    """min(cap, size of the union of ``sets``), reading sets only until the
    union holds ``cap`` members.  One set may take it from below ``cap`` to
    past it, so the stop is ``>=``, not ``==``."""
    union: set[int] = set()
    for s in sets:
        union.update(s)
        if len(union) >= cap:
            return cap
    return len(union)


def _each_once(sets):
    """The members of ``sets``, each yielded the first time it appears."""
    seen: set[int] = set()
    for s in sets:
        for u in s:
            if u not in seen:
                seen.add(u)
                yield u


def occurrence_matrix_oracle(graph: TransactionGraph, k: int) -> OccurrenceMatrix:
    """Order-k pattern counts by per-transaction traversal; same clamping
    and empty-frontier rule as the matrix route, independent code path.

    Level 1 of transaction t is {t}, level d + 1 the transactions that
    spend an output of level d, and the frontier the outputs of level k.
    Order 1 is t's own outputs.  Above it, level 2 is the spenders of t's
    spent outputs, so the walk from t depends only on those outputs, and
    transactions that spend into the same ones share one walk, memoised by
    their tuple (sorted, as CSR rows are).  No level is built whole: each
    is drawn lazily from the spender rows of the one before it, each member
    once, and the frontier its last level pays is counted only until it
    holds ``CLAMP`` addresses (or every paid one, if fewer), which is all
    the tally reads.  A count that never stops has drained every level
    whole, so it is exactly min(|frontier|, CLAMP)."""
    if k < 1:
        raise BadSpec(f"order must be >= 1, got {k}")
    out_ptr, out_ids, sp_ptr, sp_ids = (a.tolist() for a in (
        graph.out_indptr, graph.out_indices, graph.spend_indptr, graph.spend_indices))
    outputs = [out_ids[out_ptr[t]:out_ptr[t + 1]] for t in range(graph.n_transactions)]

    def spenders(addresses):
        return _each_once(sp_ids[sp_ptr[a]:sp_ptr[a + 1]] for a in addresses)

    if k == 1:
        sizes = [len(outs) for outs in outputs]
    else:
        cap = min(CLAMP, len(set(out_ids)))
        reached: dict[tuple[int, ...], int] = {}
        sizes = []
        for outs in outputs:
            spent = tuple(a for a in outs if sp_ptr[a] < sp_ptr[a + 1])
            n = reached.get(spent)
            if n is None:
                # Exact-depth walk semantics: level d holds every transaction
                # reachable by some length-d spend walk, so revisits are
                # allowed (cycles from address reuse stay consistent with
                # matrix powering).
                level = spenders(spent)
                for _ in range(k - 2):
                    level = spenders(a for u in level for a in outputs[u])
                n = reached[spent] = _capped_size((outputs[u] for u in level), cap)
            sizes.append(n)
    grid = np.zeros((CLAMP, CLAMP), dtype=np.int64)
    for m, n in zip(graph.input_set_sizes.tolist(), sizes):
        if n > 0:
            grid[min(m, CLAMP) - 1, min(n, CLAMP) - 1] += 1
    return OccurrenceMatrix(k, grid)
