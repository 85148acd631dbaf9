"""k-hop pattern counting over a window's transaction graph.

For each transaction the pattern at order k is the pair (m, n): m is the
number of distinct input addresses, n the number of distinct addresses
reachable in exactly k transaction hops along spend edges (the order-k
frontier).  Counts are tallied into a 20x20 grid per order; sizes above 20
are clamped into the last row/column, and transactions whose frontier is
empty at that order contribute to no cell.  The clamp follows the chainlet
grids of Akcora et al., "Forecasting Bitcoin Price with Graph Chainlets"
(PAKDD 2018).

Two independent routes produce the grid:

* :func:`occurrence_matrices` - sparse boolean linear algebra.  With P the
  address->tx input matrix and Q the tx->address output matrix, the order-k
  reach matrix is (QP)^(k-1) Q under the boolean semiring.  Each reach row
  is kept to its first ``CLAMP`` entries after every product, so n is the
  row population count only up to the clamp: a capped row holds
  min(|frontier|, 20) members of the true frontier.  The grid stays exact,
  because a union of capped rows has at least 20 members exactly when the
  union of the true rows does, and below 20 every capped row is whole.
  The per-transaction row selector is an identity here, so rows are keyed
  directly by transaction index.
* :func:`occurrence_matrix_oracle` - explicit per-transaction frontier
  expansion with python sets, kept deliberately free of the matrix code.
  It computes the exact, unclamped frontier and clamps only when it tallies.

Boolean products are used instead of integer path counts: the tally only
asks whether a reach entry is positive, and path counts blow up
combinatorially.  The tests keep a dense integer path-count reference for
small graphs and check that boolean products agree with it after
thresholding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import DimensionMismatch, OrderOutOfRange
from .txgraph import TransactionGraph

CLAMP = 20
GRID_CELLS = CLAMP * CLAMP


class SubgraphShape(NamedTuple):
    m: int
    n: int


@dataclass(eq=False)
class SparseBoolMatrix:
    """Boolean sparse matrix in canonical CSR form (sorted, unique columns)."""

    n_rows: int
    n_cols: int
    indptr: np.ndarray
    indices: np.ndarray

    @classmethod
    def from_pairs(
        cls, n_rows: int, n_cols: int, rows, cols
    ) -> "SparseBoolMatrix":
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.size:
            if rows.min() < 0 or rows.max() >= n_rows:
                raise ValueError("row index out of bounds")
            if cols.min() < 0 or cols.max() >= n_cols:
                raise ValueError("column index out of bounds")
            keys = kernels._unique_sorted(rows * max(n_cols, 1) + cols)
            rows = keys // max(n_cols, 1)
            cols = keys % max(n_cols, 1)
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
        return cls(n_rows, n_cols, indptr, cols)

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def row_counts(self) -> np.ndarray:
        return np.diff(self.indptr)

    def matmul(self, other: "SparseBoolMatrix") -> "SparseBoolMatrix":
        if self.n_cols != other.n_rows:
            raise DimensionMismatch(
                f"{self.n_rows}x{self.n_cols} @ {other.n_rows}x{other.n_cols}"
            )
        indptr, indices = kernels.spgemm_bool(
            self.indptr, self.indices, other.indptr, other.indices,
            self.n_rows, other.n_cols,
        )
        return SparseBoolMatrix(self.n_rows, other.n_cols, indptr, indices)

    def __matmul__(self, other: "SparseBoolMatrix") -> "SparseBoolMatrix":
        return self.matmul(other)


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


def build_P(graph: TransactionGraph) -> SparseBoolMatrix:
    """|A| x |T| input matrix: (a, t) set iff address a funds transaction t."""
    rows = graph.in_indices
    cols = np.repeat(
        np.arange(graph.n_transactions, dtype=np.int64), graph.input_set_sizes
    )
    return SparseBoolMatrix.from_pairs(
        graph.n_addresses, graph.n_transactions, rows, cols
    )


def build_Q(graph: TransactionGraph) -> SparseBoolMatrix:
    """|T| x |A| output matrix: (t, a) set iff transaction t pays address a."""
    return SparseBoolMatrix(
        graph.n_transactions,
        graph.n_addresses,
        graph.out_indptr,
        graph.out_indices,
    )


def _tally(m_sizes: np.ndarray, n_sizes: np.ndarray) -> np.ndarray:
    """Clamp (m, n) pairs at 20 and count them; n == 0 contributes nothing."""
    grid = np.zeros((CLAMP, CLAMP), dtype=np.int64)
    mask = n_sizes > 0
    if mask.any():
        mi = np.minimum(m_sizes[mask], CLAMP) - 1
        ni = np.minimum(n_sizes[mask], CLAMP) - 1
        flat = np.bincount(mi * CLAMP + ni, minlength=GRID_CELLS)
        grid += flat.reshape(CLAMP, CLAMP)
    return grid


def _first_entries(m: SparseBoolMatrix) -> SparseBoolMatrix:
    """Keep each row's first ``CLAMP`` entries: a subset of the row with
    min(row size, CLAMP) members, which is all the tally can tell apart."""
    counts = m.row_counts()
    if counts.max(initial=0) <= CLAMP:
        return m
    rank = np.arange(m.nnz, dtype=np.int64) - np.repeat(m.indptr[:-1], counts)
    indptr = np.zeros(m.n_rows + 1, dtype=np.int64)
    np.cumsum(np.minimum(counts, CLAMP), out=indptr[1:])
    return SparseBoolMatrix(m.n_rows, m.n_cols, indptr, m.indices[rank < CLAMP])


def occurrence_matrices(graph: TransactionGraph, max_order: int) -> list[OccurrenceMatrix]:
    """All of OC^1..OC^max_order, sharing one spend-hop product.

    Reach rows are kept to their first ``CLAMP`` entries at every order, so
    each product expands a hop entry against at most ``CLAMP`` addresses.
    A row's population count is min(n, CLAMP), not n, and the grids equal
    those of the full reach matrix (see the module docstring)."""
    if max_order < 1:
        raise OrderOutOfRange(f"order must be >= 1, got {max_order}")
    p = build_P(graph)
    q = build_Q(graph)
    m_sizes = graph.input_set_sizes
    out = []
    reach = _first_entries(q)
    hop = None
    for k in range(1, max_order + 1):
        if k > 1:
            if hop is None:
                hop = q @ p
            reach = _first_entries(hop @ reach)
        out.append(OccurrenceMatrix(k, _tally(m_sizes, reach.row_counts())))
    return out


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


def subgraph_shape(graph: TransactionGraph, k: int, t: int) -> SubgraphShape:
    """(m, n) for one transaction by explicit frontier expansion (unclamped)."""
    if k < 1:
        raise OrderOutOfRange(f"order must be >= 1, got {k}")
    outputs, successors = _walk_sets(graph)
    return _shape_by_walk(graph, outputs, successors, k, t)


def _shape_by_walk(
    graph: TransactionGraph,
    outputs: list[frozenset[int]],
    successors: list[frozenset[int]],
    k: int,
    t: int,
) -> SubgraphShape:
    # Exact-depth walk semantics: level d holds every transaction reachable
    # by some length-d spend walk, so revisits are allowed (cycles from
    # address reuse stay consistent with matrix powering).
    level = {t}
    for _ in range(k - 1):
        level = set().union(*(successors[u] for u in level))
        if not level:
            break
    frontier = set().union(*(outputs[u] for u in level))
    return SubgraphShape(m=len(graph.input_ids(t)), n=len(frontier))


def occurrence_matrix_oracle(graph: TransactionGraph, k: int) -> OccurrenceMatrix:
    """Order-k pattern counts by per-transaction traversal; same clamping
    and empty-frontier rule as the matrix route, independent code path.
    Frontiers are computed whole and clamped only in the tally."""
    if k < 1:
        raise OrderOutOfRange(f"order must be >= 1, got {k}")
    outputs, successors = _walk_sets(graph)
    grid = np.zeros((CLAMP, CLAMP), dtype=np.int64)
    for t in range(graph.n_transactions):
        m, n = _shape_by_walk(graph, outputs, successors, k, t)
        if n > 0:
            grid[min(m, CLAMP) - 1, min(n, CLAMP) - 1] += 1
    return OccurrenceMatrix(k, grid)


def feature_vector(graph: TransactionGraph, max_order: int) -> np.ndarray:
    """Concatenated row-major flattenings of OC^1..OC^max_order (400 per order)."""
    mats = occurrence_matrices(graph, max_order)
    return np.concatenate([m.to_flat() for m in mats])
