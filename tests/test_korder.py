from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from txpattern import kernels
from txpattern.errors import BadSpec
from txpattern.korder import (
    CLAMP,
    GRID_CELLS,
    _first_entries,
    feature_vector,
    occurrence_matrices,
    occurrence_matrix_oracle,
)
from txpattern.ingest import TransactionRecord
from txpattern.txgraph import build_graph

from conftest import DAY0_TS, address_ids, day_windows, random_window, toy_records

# Sparse boolean matrices here are canonical CSR pairs (indptr, indices), as
# korder and kernels use them; a row count is len(indptr) - 1 and the column
# count is passed alongside.


def _grid(graph, k: int):
    """The order-k grid of the matrix route."""
    return occurrence_matrices(graph, k)[k - 1]


class SubgraphShape(NamedTuple):
    m: int
    n: int


def subgraph_shape(graph, k: int, t: int) -> SubgraphShape:
    """(m, n) of transaction t at order k by explicit frontier expansion,
    unclamped: the reference walk.  Level d holds every transaction that
    some length-d spend walk from t reaches, so a walk may revisit one."""
    spenders: dict[int, set[int]] = {}
    for u in range(graph.n_transactions):
        for a in graph.input_ids(u).tolist():
            spenders.setdefault(a, set()).add(u)
    level = {t}
    for _ in range(k - 1):
        level = {s for u in level for a in graph.output_ids(u).tolist()
                 for s in spenders.get(a, ())}
    frontier = {a for u in level for a in graph.output_ids(u).tolist()}
    return SubgraphShape(m=len(graph.input_ids(t)), n=len(frontier))


def _from_dense(dense: np.ndarray):
    return kernels.csr(*np.nonzero(dense), *dense.shape)


def _dense(m, n_cols: int) -> np.ndarray:
    indptr, indices = m
    dense = np.zeros((indptr.size - 1, n_cols), dtype=bool)
    dense[np.repeat(np.arange(indptr.size - 1), np.diff(indptr)), indices] = True
    return dense


def _entries(m, n_cols: int) -> set[tuple[int, int]]:
    return {(int(r), int(c)) for r, c in zip(*np.nonzero(_dense(m, n_cols)))}


def _matmul(a, b, n_cols: int):
    return kernels.spgemm_bool(*a, *b, a[0].size - 1, n_cols)


def build_P(graph):
    """|A| x |T| input matrix: (a, t) set iff address a funds transaction t."""
    cols = np.repeat(np.arange(graph.n_transactions), graph.input_set_sizes)
    return kernels.csr(graph.in_indices, cols,
                       graph.n_addresses, graph.n_transactions)


def build_Q(graph):
    """|T| x |A| output matrix: (t, a) set iff transaction t pays address a."""
    return graph.out_indptr, graph.out_indices


def _qpq(graph):
    """The boolean depth-2 reach matrix Q P Q."""
    P, Q = build_P(graph), build_Q(graph)
    return _matmul(_matmul(Q, P, graph.n_transactions), Q, graph.n_addresses)


def transition_matrix_counts(graph, k: int) -> np.ndarray:
    """Dense integer reach matrix (QP)^(k-1) Q for small graphs: entry
    (t, a) counts the distinct k-hop paths from transaction t to address a.
    The reference that boolean products are checked against."""
    qd = _dense(build_Q(graph), graph.n_addresses).astype(np.int64)
    hop = qd @ _dense(build_P(graph), graph.n_transactions).astype(np.int64)
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
    assert (toy_graph.n_addresses, toy_graph.n_transactions) == (8, 4)
    P = build_P(toy_graph)
    Q = build_Q(toy_graph)
    assert (P[0].size - 1, Q[0].size - 1) == (8, 4)
    assert P[1].max() < 4 and Q[1].max() < 8
    assert P[0][-1] == P[1].size == 7
    assert Q[0][-1] == Q[1].size == 5


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
    a8 = address_ids(toy_records())["a8"]
    assert _entries(_qpq(toy_graph), 8) == {(0, a8), (1, a8)}


def test_toy_depth2_path_counts(toy_graph):
    # t2 reaches a8 along two routes (via a4->t3 and a6->t4); the boolean
    # pipeline must collapse that to a single reachability bit
    counts = transition_matrix_counts(toy_graph, 2)
    a8 = address_ids(toy_records())["a8"]
    assert counts[0, a8] == 1
    assert counts[1, a8] == 2
    assert counts[2].sum() == 0
    assert counts[3].sum() == 0
    assert _entries(_qpq(toy_graph), 8) == {(t, a) for t, a in zip(*np.nonzero(counts))}


def test_transition_order1_is_output_matrix(toy_graph):
    # the order-1 frontier is the transaction's own output set
    sizes = np.diff(build_Q(toy_graph)[0])
    for t in range(toy_graph.n_transactions):
        assert subgraph_shape(toy_graph, 1, t).n == sizes[t]


def test_subgraph_shapes(toy_graph):
    assert subgraph_shape(toy_graph, 1, 0) == (2, 1)
    assert subgraph_shape(toy_graph, 2, 0) == (2, 1)
    assert subgraph_shape(toy_graph, 2, 1) == (1, 1)
    # t3's output is never spent: empty depth-2 frontier
    assert subgraph_shape(toy_graph, 2, 2) == (2, 0)


def _straddle_records() -> list[TransactionRecord]:
    """A day whose order-2 and order-3 frontiers straddle the clamp.

    Each hub X pays one linked address s_X that two spenders share, so X's
    order-2 frontier is the union of the spenders' outputs, which is the
    row of s_X in the address stage of the product:

    * A: 25 addresses b0..b24, and 5: b22..b24 again plus c0, c1 (27 in
      all), so the union is 20 or more whichever 20 the cut of the first
      row keeps;
    * B: 12 and 10 addresses sharing 3 (19 in all);
    * C: 20 addresses and one of them again (20 in all);
    * D: 21 addresses and d20 again (21 in all);
    * F: 10 and 10 distinct addresses (20 in all);
    * H: 11 and 10 distinct addresses (21 in all).

    For F and H every spender's row is whole, so only the union reaches
    the clamp.  A predecessor E_X pays X's first input, so E_X's order-3
    frontier is X's order-2 frontier.  G pays the first inputs of A and D,
    so its order-3 frontier is the union of both (48 addresses).  Hub X has
    m = 1..6 inputs, E_X has m = 7..12 and G has m = 13, so every pattern
    lands in a cell of its own.
    """
    def names(prefix: str, lo: int, hi: int) -> tuple[str, ...]:
        return tuple(f"{prefix}{j}" for j in range(lo, hi))

    spends = {
        "A": (names("b", 0, 25), names("b", 22, 25) + ("c0", "c1")),
        "B": (names("e", 0, 12), names("e", 9, 19)),
        "C": (names("f", 0, 20), ("f19",)),
        "D": (names("d", 0, 21), ("d20",)),
        "F": (names("u", 0, 10), names("u", 10, 20)),
        "H": (names("v", 0, 11), names("v", 11, 21)),
    }
    hubs = "ABCDFH"
    txs = []
    for m, hub in enumerate(hubs, start=len(hubs) + 1):
        txs.append((f"E{hub}", names(f"pre{hub}_", 0, m), (f"x{hub}",)))
    txs.append(("G", names("g", 0, 2 * len(hubs) + 1), ("xA", "xD")))
    for m, hub in enumerate(hubs, start=1):
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
    t = {r.tx_id: i for i, r in enumerate(_straddle_records())}.__getitem__
    assert subgraph_shape(straddle_graph, 2, t("A")) == (1, 27)
    assert subgraph_shape(straddle_graph, 2, t("B")) == (2, 19)
    assert subgraph_shape(straddle_graph, 2, t("D")) == (4, 21)
    assert subgraph_shape(straddle_graph, 2, t("F")) == (5, 20)
    assert subgraph_shape(straddle_graph, 2, t("H")) == (6, 21)
    assert subgraph_shape(straddle_graph, 3, t("EA")) == (7, 27)
    assert subgraph_shape(straddle_graph, 3, t("G")) == (13, 48)
    assert subgraph_shape(straddle_graph, 1, t("SA1")) == (1, 25)


def test_rows_straddling_the_clamp(straddle_graph):
    order2 = _expect_grid({
        (1, 20): 1, (2, 19): 1, (3, 20): 1, (4, 20): 1,     # A, B, C, D
        (5, 20): 1, (6, 20): 1,                             # F, H
        **{(m, 1): 1 for m in range(7, 13)},                # E_X -> s_X
        (13, 2): 1,                                         # G -> sA, sD
    })
    order3 = _expect_grid({
        (7, 20): 1, (8, 19): 1, (9, 20): 1, (10, 20): 1,
        (11, 20): 1, (12, 20): 1, (13, 20): 1,
    })
    grids = occurrence_matrices(straddle_graph, 4)
    assert np.array_equal(grids[1].counts, order2)
    assert np.array_equal(grids[2].counts, order3)
    assert grids[3].total() == 0
    for k, grid in enumerate(grids, start=1):
        assert grid == occurrence_matrix_oracle(straddle_graph, k)


def test_order_out_of_range(toy_graph):
    with pytest.raises(BadSpec):
        _grid(toy_graph, 0)
    with pytest.raises(BadSpec):
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


# --- hub days: one address that many transactions pay and spend ----------

def _hub_records(width: int) -> list[TransactionRecord]:
    """A day around one address that ``width`` payers fund and ``width``
    spenders spend.  Payer i spends p_i and pays the hub and c_i; spender j
    spends the hub and pays o_j and p_(j+1), the input of the next payer, so
    reach runs through the hub at every order.  Every m is 1."""
    txs = [(f"P{i}", (f"p{i}",), ("hub", f"c{i}")) for i in range(width)]
    txs += [(f"S{j}", ("hub",), (f"o{j}", f"p{(j + 1) % width}"))
            for j in range(width)]
    return [TransactionRecord(tx, DAY0_TS + i, ins, outs)
            for i, (tx, ins, outs) in enumerate(txs)]


def test_wide_hub_expansion_linear_in_edges(monkeypatch):
    # the tx x tx hop matrix would pair all 2000 payers with all 2000
    # spenders (4M pairs); each product may expand at most CLAMP entries
    # per graph edge
    graph = build_graph(day_windows(_hub_records(2000))[0])
    expansions = []
    spgemm = kernels.spgemm_bool

    def recording(a_indptr, a_indices, b_indptr, *rest):
        expansions.append(int(np.diff(b_indptr)[a_indices].sum()))
        return spgemm(a_indptr, a_indices, b_indptr, *rest)

    monkeypatch.setattr(kernels, "spgemm_bool", recording)
    grids = occurrence_matrices(graph, 3)
    assert expansions
    assert max(expansions) <= CLAMP * (len(graph.in_indices)
                                       + len(graph.out_indices))
    # order 1: every row pays 2; order 2: a payer reaches every spender's
    # outputs, a spender the next payer's two; order 3: past the clamp
    assert np.array_equal(grids[0].counts, _expect_grid({(1, 2): 4000}))
    assert np.array_equal(grids[1].counts,
                          _expect_grid({(1, 20): 2000, (1, 2): 2000}))
    assert np.array_equal(grids[2].counts, _expect_grid({(1, 20): 4000}))


def test_no_linked_address_runs_no_product(monkeypatch):
    # nothing spends what the day pays, so orders 2 and up are empty
    records = [TransactionRecord("t1", DAY0_TS, ("a",), ("b",)),
               TransactionRecord("t2", DAY0_TS + 1, ("c",), ("d", "e"))]
    graph = build_graph(day_windows(records)[0])
    calls = []
    monkeypatch.setattr(kernels, "spgemm_bool",
                        lambda *args: calls.append(args))
    grids = occurrence_matrices(graph, 3)
    assert not calls
    assert grids[0].total() == 2
    assert grids[1].total() == grids[2].total() == 0


# --- the two independent routes must agree ----------------------------------

def test_oracle_equivalence_random_graphs():
    rng = np.random.default_rng(1234)
    for i in range(40):
        graph = build_graph(random_window(rng, max_tx=80, max_addr=200))
        k = 1 + i % 4
        assert _grid(graph, k) == occurrence_matrix_oracle(graph, k), (
            f"divergence at instance {i}, order {k}"
        )
    # days around one hub address, from below the clamp to past it
    for width in (3, 9, 10, 19, 20, 30):
        graph = build_graph(day_windows(_hub_records(width))[0])
        for k in (1, 2, 3, 4):
            assert _grid(graph, k) == occurrence_matrix_oracle(graph, k), (
                f"divergence at hub width {width}, order {k}"
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
    (v,) = feature_vector(toy_graph, 2)     # one row per day
    assert v.shape == (2 * GRID_CELLS,)
    assert v[(2 - 1) * CLAMP + (1 - 1)] == 3        # order 1, cell (2,1)
    assert v[(1 - 1) * CLAMP + (2 - 1)] == 1        # order 1, cell (1,2)
    assert v[GRID_CELLS + (2 - 1) * CLAMP] == 1     # order 2, cell (2,1)
    assert v[GRID_CELLS + 0] == 1                   # order 2, cell (1,1)
    assert v.sum() == 4 + 2


# --- sparse boolean matrix algebra --------------------------------------------

def test_from_pairs_roundtrip():
    indptr, indices = kernels.csr(np.array([2, 0, 0]), np.array([0, 3, 1]), 3, 4)
    assert _entries((indptr, indices), 4) == {(0, 1), (0, 3), (2, 0)}
    assert list(indptr) == [0, 2, 2, 3]
    assert list(indices) == [1, 3, 0]
    assert indptr.dtype == indices.dtype == np.int64


def test_from_pairs_deduplicates():
    m = kernels.csr(np.array([0, 0, 1]), np.array([1, 1, 0]), 2, 2)
    assert _entries(m, 2) == {(0, 1), (1, 0)}
    assert m[0][-1] == m[1].size == 2
    indptr, indices = kernels.csr(np.array([1]), np.array([1]), 2, 2)
    assert list(indptr) == [0, 0, 1] and list(indices) == [1]
    indptr, indices = kernels.csr(np.array([1, 1, 1]), np.array([0, 0, 0]), 2, 2)
    assert list(indptr) == [0, 0, 1] and list(indices) == [0]
    # no pairs, and no columns at all
    indptr, indices = kernels.csr(np.array([], np.int64), np.array([], np.int64), 3, 0)
    assert list(indptr) == [0, 0, 0, 0] and indices.size == 0


@st.composite
def bool_operands(draw):
    """Dense boolean A (r x n) and B (n x c), any of r, n, c possibly 0."""
    r, n, c = (draw(st.integers(0, 12)) for _ in range(3))
    return (draw(hnp.arrays(np.bool_, (r, n))),
            draw(hnp.arrays(np.bool_, (n, c))))


@given(operands=bool_operands())
@example(operands=(np.zeros((0, 3), bool), np.ones((3, 2), bool)))
@example(operands=(np.ones((2, 0), bool), np.ones((0, 3), bool)))
@example(operands=(np.ones((2, 3), bool), np.zeros((3, 0), bool)))
@example(operands=(np.array([[1, 0, 1], [0, 0, 0], [0, 1, 0]], bool),
                   np.array([[0, 1, 0, 0], [0, 0, 0, 0], [1, 1, 0, 0]], bool)))
@settings(max_examples=200, deadline=None)
def test_matmul_against_dense(operands):
    # the product is the canonical CSR of the dense boolean product, empty
    # rows and columns and zero-size operands included
    da, db = operands
    want = (da.astype(np.int64) @ db.astype(np.int64)) > 0
    indptr, indices = kernels.spgemm_bool(*_from_dense(da), *_from_dense(db),
                                          da.shape[0], db.shape[1])
    want_indptr, want_indices = _from_dense(want)
    assert np.array_equal(indptr, want_indptr)
    assert np.array_equal(indices, want_indices)


def test_first_entries_keeps_first_clamp_of_each_row():
    sizes = np.array([0, 1, CLAMP - 1, CLAMP, CLAMP + 1, 3 * CLAMP, 0, 7])
    indptr = kernels.indptr_from(sizes)
    indices = np.concatenate([np.arange(n) * 3 + r for r, n in enumerate(sizes)])
    kept_indptr, kept_indices = _first_entries(indptr, indices)
    assert np.array_equal(np.diff(kept_indptr), np.minimum(sizes, CLAMP))
    for r in range(sizes.size):
        row = indices[indptr[r]:indptr[r + 1]]
        kept = kept_indices[kept_indptr[r]:kept_indptr[r + 1]]
        assert np.array_equal(kept, row[:CLAMP])


@st.composite
def adversarial_day(draw):
    """One day of rows over a pool of up to 40 addresses plus a hub address
    that any row may pay and spend, so frontiers can pass the 20-wide
    clamp.  A second hub is chained behind it: rows that spend the hub may
    pay it and any row may spend it, so the union of wide reach rows at the
    address stage of the product passes the clamp too.  Empty inputs make
    coinbase rows; lists may repeat an address within a row; a row may pay
    one of its own inputs (a self-spend); reuse across rows makes
    cycles."""
    pool = [f"a{i}" for i in range(draw(st.integers(1, 40)))]
    address = st.sampled_from(pool)
    records = []
    for t in range(draw(st.integers(1, 30))):
        ins = draw(st.lists(address, max_size=5))
        outs = draw(st.lists(address, min_size=1, max_size=5))
        spends_hub = draw(st.booleans())
        if spends_hub:
            ins.append("hub")
        if draw(st.booleans()):
            ins.append("hub2")
        if draw(st.booleans()):
            outs.append("hub")
        if spends_hub and draw(st.booleans()):
            outs.append("hub2")
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
