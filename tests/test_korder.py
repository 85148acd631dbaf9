import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from txpattern.errors import DimensionMismatch, OrderOutOfRange
from txpattern.korder import (
    CLAMP,
    GRID_CELLS,
    SparseBoolMatrix,
    build_P,
    build_Q,
    feature_vector,
    occurrence_matrices,
    occurrence_matrix_oracle,
    subgraph_shape,
)
from txpattern.ingest import TransactionRecord
from txpattern.txgraph import build_graph

from conftest import DAY0_TS, day_windows, random_window


def _grid(graph, k: int):
    """The order-k grid of the matrix route."""
    return occurrence_matrices(graph, k)[k - 1]


def _from_dense(dense: np.ndarray) -> SparseBoolMatrix:
    return SparseBoolMatrix.from_pairs(*dense.shape, *np.nonzero(dense))


def _dense(m: SparseBoolMatrix) -> np.ndarray:
    dense = np.zeros((m.n_rows, m.n_cols), dtype=bool)
    dense[np.repeat(np.arange(m.n_rows), m.row_counts()), m.indices] = True
    return dense


def _entries(m: SparseBoolMatrix) -> set[tuple[int, int]]:
    return {(int(r), int(c)) for r, c in zip(*np.nonzero(_dense(m)))}


def transition_matrix_counts(
    P: SparseBoolMatrix, Q: SparseBoolMatrix, k: int
) -> np.ndarray:
    """Dense integer reach matrix (QP)^(k-1) Q for small graphs: entry
    (t, a) counts the distinct k-hop paths from transaction t to address a.
    The reference that boolean products are checked against."""
    qd = _dense(Q).astype(np.int64)
    hop = qd @ _dense(P).astype(np.int64)
    m = qd
    for _ in range(k - 1):
        m = hop @ m
    return m


def _expect_grid(cells: dict[tuple[int, int], int]) -> np.ndarray:
    grid = np.zeros((CLAMP, CLAMP), dtype=np.int64)
    for (m, n), count in cells.items():
        grid[m - 1, n - 1] = count
    return grid


# --- the hand-worked four-transaction example -------------------------------

def test_toy_matrix_shapes(toy_graph):
    P = build_P(toy_graph)
    Q = build_Q(toy_graph)
    assert (P.n_rows, P.n_cols) == (8, 4)
    assert (Q.n_rows, Q.n_cols) == (4, 8)
    assert P.nnz == 7
    assert Q.nnz == 5


def test_toy_order1_grid(toy_graph):
    oc = _grid(toy_graph, 1)
    assert np.array_equal(oc.counts, _expect_grid({(2, 1): 3, (1, 2): 1}))
    assert oc.cell(2, 1) == 3
    assert oc.cell(1, 2) == 1
    assert oc.total() == 4


def test_toy_order2_grid(toy_graph):
    oc = _grid(toy_graph, 2)
    assert np.array_equal(oc.counts, _expect_grid({(2, 1): 1, (1, 1): 1}))


def test_toy_order3_grid_empty(toy_graph):
    # nothing spends a8, so no transaction has a depth-3 frontier
    assert _grid(toy_graph, 3).total() == 0


def test_toy_oracle_agrees(toy_graph):
    for k in (1, 2, 3):
        assert _grid(toy_graph, k) == occurrence_matrix_oracle(toy_graph, k)


def test_toy_depth2_reach(toy_graph):
    a8 = toy_graph.addresses.index("a8")
    P, Q = build_P(toy_graph), build_Q(toy_graph)
    assert _entries(Q @ P @ Q) == {(0, a8), (1, a8)}


def test_toy_depth2_path_counts(toy_graph):
    # t2 reaches a8 along two routes (via a4->t3 and a6->t4); the boolean
    # pipeline must collapse that to a single reachability bit
    P, Q = build_P(toy_graph), build_Q(toy_graph)
    counts = transition_matrix_counts(P, Q, 2)
    a8 = toy_graph.addresses.index("a8")
    assert counts[0, a8] == 1
    assert counts[1, a8] == 2
    assert counts[2].sum() == 0
    assert counts[3].sum() == 0
    boolean = Q @ P @ Q
    assert _entries(boolean) == {(t, a) for t, a in zip(*np.nonzero(counts))}


def test_transition_order1_is_output_matrix(toy_graph):
    # the order-1 frontier is the transaction's own output set
    Q = build_Q(toy_graph)
    for t in range(toy_graph.n_transactions):
        assert subgraph_shape(toy_graph, 1, t).n == Q.row_counts()[t]


def test_subgraph_shapes(toy_graph):
    assert subgraph_shape(toy_graph, 1, 0) == (2, 1)
    assert subgraph_shape(toy_graph, 2, 0) == (2, 1)
    assert subgraph_shape(toy_graph, 2, 1) == (1, 1)
    # t3's output is never spent: empty depth-2 frontier
    assert subgraph_shape(toy_graph, 2, 2) == (2, 0)


def _straddle_records() -> list[TransactionRecord]:
    """A day whose order-2 and order-3 frontiers straddle the clamp.

    Each hub X pays one address s_X that two spenders share, so X's order-2
    frontier is the union of the spenders' outputs:

    * A: 25 addresses b0..b24, and 5 that repeat b22..b24 (dropped when
      the first row is cut to its first 20) plus c0, c1 (27 in all);
    * B: 12 and 10 addresses sharing 3 (19 in all);
    * C: 20 addresses and one of them again (20 in all);
    * D: 21 addresses and d20, the one cut from them, again (21 in all).

    A predecessor E_X pays X's first input, so E_X's order-3 frontier is
    X's order-2 frontier.  G pays the first inputs of A and D, so its
    order-3 frontier is the union of both (48 addresses).  Hub X has m = 1..4
    inputs, E_X has m = 5..8 and G has m = 9, so every pattern lands in a
    cell of its own.
    """
    def names(prefix: str, lo: int, hi: int) -> tuple[str, ...]:
        return tuple(f"{prefix}{j}" for j in range(lo, hi))

    spends = {
        "A": (names("b", 0, 25), names("b", 22, 25) + ("c0", "c1")),
        "B": (names("e", 0, 12), names("e", 9, 19)),
        "C": (names("f", 0, 20), ("f19",)),
        "D": (names("d", 0, 21), ("d20",)),
    }
    txs = []
    for m, hub in enumerate("ABCD", start=1):
        txs.append((f"E{hub}", names(f"pre{hub}_", 0, m + 4), (f"x{hub}",)))
    txs.append(("G", names("g", 0, 9), ("xA", "xD")))
    for m, hub in enumerate("ABCD", start=1):
        txs.append((hub, (f"x{hub}",) + names(f"in{hub}_", 1, m), (f"s{hub}",)))
        for j, outs in enumerate(spends[hub], start=1):
            txs.append((f"S{hub}{j}", (f"s{hub}",), outs))
    return [TransactionRecord(tx, DAY0_TS + i, ins, outs)
            for i, (tx, ins, outs) in enumerate(txs)]


@pytest.fixture
def straddle_graph():
    return build_graph(day_windows(_straddle_records())[0])


def test_subgraph_shapes_unclamped(straddle_graph):
    # the oracle keeps whole frontiers; only the tally clamps them
    t = straddle_graph.tx_ids.index
    assert subgraph_shape(straddle_graph, 2, t("A")) == (1, 27)
    assert subgraph_shape(straddle_graph, 2, t("B")) == (2, 19)
    assert subgraph_shape(straddle_graph, 2, t("D")) == (4, 21)
    assert subgraph_shape(straddle_graph, 3, t("EA")) == (5, 27)
    assert subgraph_shape(straddle_graph, 3, t("G")) == (9, 48)
    assert subgraph_shape(straddle_graph, 1, t("SA1")) == (1, 25)


def test_rows_straddling_the_clamp(straddle_graph):
    order2 = _expect_grid({
        (1, 20): 1, (2, 19): 1, (3, 20): 1, (4, 20): 1,     # A, B, C, D
        (5, 1): 1, (6, 1): 1, (7, 1): 1, (8, 1): 1,         # E_X -> s_X
        (9, 2): 1,                                          # G -> sA, sD
    })
    order3 = _expect_grid({
        (5, 20): 1, (6, 19): 1, (7, 20): 1, (8, 20): 1, (9, 20): 1,
    })
    grids = occurrence_matrices(straddle_graph, 4)
    assert np.array_equal(grids[1].counts, order2)
    assert np.array_equal(grids[2].counts, order3)
    assert grids[3].total() == 0
    for k, grid in enumerate(grids, start=1):
        assert grid == occurrence_matrix_oracle(straddle_graph, k)


def test_order_out_of_range(toy_graph):
    with pytest.raises(OrderOutOfRange):
        _grid(toy_graph, 0)
    with pytest.raises(OrderOutOfRange):
        feature_vector(toy_graph, -1)


# --- clamping and exclusion rules -------------------------------------------

def test_clamp_inputs_to_last_row():
    many = tuple(f"i{j}" for j in range(25))
    records = [TransactionRecord("big", DAY0_TS, many, ("o1",))]
    graph = build_graph(day_windows(records)[0])
    oc = _grid(graph, 1)
    assert oc.cell(CLAMP, 1) == 1
    assert oc.total() == 1


def test_clamp_outputs_to_last_column():
    outs = tuple(f"o{j}" for j in range(31))
    records = [TransactionRecord("wide", DAY0_TS, ("i1",), outs)]
    graph = build_graph(day_windows(records)[0])
    oc = _grid(graph, 1)
    assert oc.cell(1, CLAMP) == 1


def test_exact_clamp_boundary():
    records = [
        TransactionRecord("t19", DAY0_TS, tuple(f"a{j}" for j in range(19)),
                          tuple(f"b{j}" for j in range(20))),
        TransactionRecord("t20", DAY0_TS + 1, tuple(f"c{j}" for j in range(20)),
                          tuple(f"d{j}" for j in range(21))),
    ]
    graph = build_graph(day_windows(records)[0])
    oc = _grid(graph, 1)
    assert oc.cell(19, 20) == 1   # n=20 already sits in the last column
    assert oc.cell(20, 20) == 1   # m=20 and n=21 both clamp


def test_empty_frontier_counts_nowhere(toy_graph):
    # 4 transactions, but only 2 have any depth-2 frontier
    assert _grid(toy_graph, 2).total() == 2


def test_total_bounded_by_transactions():
    rng = np.random.default_rng(7)
    for _ in range(20):
        graph = build_graph(random_window(rng, max_tx=60, max_addr=150))
        for k in (1, 2, 3):
            assert _grid(graph, k).total() <= graph.n_transactions


def test_coinbase_excluded():
    records = [
        TransactionRecord("cb", DAY0_TS, (), ("x",)),
        TransactionRecord("t1", DAY0_TS + 1, ("x",), ("y",)),
    ]
    graph = build_graph(day_windows(records)[0])
    oc = _grid(graph, 1)
    assert oc.total() == 1
    assert oc.cell(1, 1) == 1


# --- the two independent routes must agree ----------------------------------

def test_oracle_equivalence_random_graphs():
    rng = np.random.default_rng(1234)
    for i in range(40):
        graph = build_graph(random_window(rng, max_tx=80, max_addr=200))
        k = 1 + i % 4
        assert _grid(graph, k) == occurrence_matrix_oracle(graph, k), (
            f"divergence at instance {i}, order {k}"
        )


def test_oracle_equivalence_with_cycles():
    # a spends back into b's input and vice versa: the walk revisits nodes
    records = [
        TransactionRecord("t1", DAY0_TS, ("x",), ("y",)),
        TransactionRecord("t2", DAY0_TS + 1, ("y",), ("x",)),
    ]
    graph = build_graph(day_windows(records)[0])
    for k in (1, 2, 3, 4, 5):
        fast = _grid(graph, k)
        assert fast == occurrence_matrix_oracle(graph, k)
        assert fast.total() == 2  # the cycle never dies out


def test_occurrence_matrices_match_single_calls(toy_graph):
    # the order-k grid does not depend on how many orders are computed
    grids = occurrence_matrices(toy_graph, 3)
    for k, oc in enumerate(grids, start=1):
        assert oc == occurrence_matrices(toy_graph, k)[-1]


# --- feature vector layout ----------------------------------------------------

def test_feature_vector_layout(toy_graph):
    v = feature_vector(toy_graph, 2)
    assert v.shape == (2 * GRID_CELLS,)
    assert v[(2 - 1) * CLAMP + (1 - 1)] == 3        # order 1, cell (2,1)
    assert v[(1 - 1) * CLAMP + (2 - 1)] == 1        # order 1, cell (1,2)
    assert v[GRID_CELLS + (2 - 1) * CLAMP] == 1     # order 2, cell (2,1)
    assert v[GRID_CELLS + 0] == 1                   # order 2, cell (1,1)
    assert v.sum() == 4 + 2


# --- sparse boolean matrix algebra --------------------------------------------

def test_from_pairs_roundtrip():
    m = SparseBoolMatrix.from_pairs(3, 4, [2, 0, 0], [0, 3, 1])
    assert _entries(m) == {(0, 1), (0, 3), (2, 0)}
    assert m.nnz == 3
    assert list(m.indptr) == [0, 2, 2, 3]
    assert list(m.indices) == [1, 3, 0]
    assert list(m.row_counts()) == [2, 0, 1]


def test_from_pairs_deduplicates():
    m = SparseBoolMatrix.from_pairs(2, 2, [0, 0, 1], [1, 1, 0])
    assert _entries(m) == {(0, 1), (1, 0)}
    assert m.nnz == 2
    one = SparseBoolMatrix.from_pairs(2, 2, [1], [1])
    assert list(one.indptr) == [0, 0, 1] and list(one.indices) == [1]
    same = SparseBoolMatrix.from_pairs(2, 2, [1, 1, 1], [0, 0, 0])
    assert list(same.indptr) == [0, 0, 1] and list(same.indices) == [0]


def test_from_pairs_bounds_checked():
    with pytest.raises(ValueError):
        SparseBoolMatrix.from_pairs(2, 2, [0, 5], [0, 0])


def test_matmul_dimension_mismatch():
    a = SparseBoolMatrix.from_pairs(2, 3, [0], [0])
    b = SparseBoolMatrix.from_pairs(2, 2, [0], [0])
    with pytest.raises(DimensionMismatch):
        a.matmul(b)


def test_matmul_against_dense():
    rng = np.random.default_rng(99)
    for _ in range(25):
        ra, ca = int(rng.integers(1, 15)), int(rng.integers(1, 15))
        cb = int(rng.integers(1, 15))
        da = rng.random((ra, ca)) < 0.3
        db = rng.random((ca, cb)) < 0.3
        want = (da.astype(int) @ db.astype(int)) > 0
        assert np.array_equal(_dense(_from_dense(da) @ _from_dense(db)), want)



@st.composite
def adversarial_day(draw):
    """One day of rows over a pool of up to 40 addresses plus a hub address
    that any row may pay and spend, so frontiers can pass the 20-wide
    clamp.  Empty inputs make coinbase rows; lists may repeat an address
    within a row; a row may pay one of its own inputs (a self-spend); reuse
    across rows makes cycles."""
    pool = [f"a{i}" for i in range(draw(st.integers(1, 40)))]
    address = st.sampled_from(pool)
    records = []
    for t in range(draw(st.integers(1, 30))):
        ins = draw(st.lists(address, max_size=5))
        outs = draw(st.lists(address, min_size=1, max_size=5))
        if draw(st.booleans()):
            ins.append("hub")
        if draw(st.booleans()):
            outs.append("hub")
        if ins and draw(st.booleans()):
            outs.append(ins[0])
        records.append(TransactionRecord(f"t{t}", DAY0_TS + t,
                                         tuple(ins), tuple(outs)))
    return records


@given(records=adversarial_day())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_matrix_route_matches_oracle_property(records):
    graph = build_graph(day_windows(records)[0])
    grids = occurrence_matrices(graph, 4)
    for k in range(1, 5):
        assert grids[k - 1] == occurrence_matrix_oracle(graph, k), k
