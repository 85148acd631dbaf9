import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from txpattern import kernels, korder
from txpattern.errors import BadSpec
from txpattern.features import day_feature_table
from txpattern.korder import (
    CLAMP,
    GRID_CELLS,
    _capped_product,
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
    outs, spenders = ([indices[lo:hi].tolist() for lo, hi in zip(indptr[:-1], indptr[1:])]
                      for indptr, indices in ((graph.out_indptr, graph.out_indices),
                                              (graph.spend_indptr, graph.spend_indices)))
    level = {t}
    for _ in range(k - 1):
        level = {s for u in level for a in outs[u] for s in spenders[a]}
    frontier = {a for u in level for a in outs[u]}
    return SubgraphShape(m=int(graph.input_set_sizes[t]), n=len(frontier))


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


def build_Q(graph):
    """|T| x |A| output matrix: (t, a) set iff transaction t pays address a."""
    return graph.out_indptr, graph.out_indices


def _qpq(graph):
    """The boolean depth-2 reach matrix Q P Q."""
    P, Q = (graph.spend_indptr, graph.spend_indices), build_Q(graph)
    return _matmul(_matmul(Q, P, graph.n_transactions), Q, graph.n_addresses)


def transition_matrix_counts(graph, k: int) -> np.ndarray:
    """Dense integer reach matrix (QP)^(k-1) Q for small graphs: entry
    (t, a) counts the distinct k-hop paths from transaction t to address a.
    The reference that boolean products are checked against."""
    qd = _dense(build_Q(graph), graph.n_addresses).astype(np.int64)
    hop = qd @ _dense((graph.spend_indptr, graph.spend_indices),
                      graph.n_transactions).astype(np.int64)
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
    P = toy_graph.spend_indptr, toy_graph.spend_indices
    Q = build_Q(toy_graph)
    assert (P[0].size - 1, Q[0].size - 1) == (8, 4)
    assert P[1].max() < 4 and Q[1].max() < 8
    assert P[0][-1] == P[1].size == 7
    assert Q[0][-1] == Q[1].size == 5


def test_toy_order1_grid(toy_graph):
    oc = _grid(toy_graph, 1)
    assert np.array_equal(oc.counts, _expect_grid({(2, 1): 3, (1, 2): 1}))
    assert oc.counts[1, 0] == 3
    assert oc.counts[0, 1] == 1
    assert oc.counts.sum() == 4


def test_toy_order2_grid(toy_graph):
    oc = _grid(toy_graph, 2)
    assert np.array_equal(oc.counts, _expect_grid({(2, 1): 1, (1, 1): 1}))


def test_toy_order3_grid_empty(toy_graph):
    # nothing spends a8, so no transaction has a depth-3 frontier
    assert _grid(toy_graph, 3).counts.sum() == 0


def test_toy_oracle_agrees(toy_graph):
    for k in (1, 2, 3):
        oracle = occurrence_matrix_oracle(toy_graph, k)
        assert oracle.order == k
        assert np.array_equal(_grid(toy_graph, k).counts, oracle.counts)


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
    # the reference walk keeps whole frontiers; only its tally clamps them
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
    assert grids[3].counts.sum() == 0
    for k, grid in enumerate(grids, start=1):
        assert np.array_equal(grid.counts,
                              occurrence_matrix_oracle(straddle_graph, k).counts)


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
    assert oc.counts[CLAMP - 1, 0] == 1
    assert oc.counts.sum() == 1


def test_clamp_outputs_to_last_column():
    outs = tuple(f"o{j}" for j in range(31))
    records = [TransactionRecord("wide", DAY0_TS, ("i1",), outs)]
    graph = build_graph(day_windows(records)[0])
    oc = _grid(graph, 1)
    assert oc.counts[0, CLAMP - 1] == 1


def test_exact_clamp_boundary():
    records = [
        TransactionRecord("t19", DAY0_TS, tuple(f"a{j}" for j in range(19)),
                          tuple(f"b{j}" for j in range(20))),
        TransactionRecord("t20", DAY0_TS + 1, tuple(f"c{j}" for j in range(20)),
                          tuple(f"d{j}" for j in range(21))),
    ]
    graph = build_graph(day_windows(records)[0])
    oc = _grid(graph, 1)
    assert oc.counts[18, 19] == 1   # n=20 already sits in the last column
    assert oc.counts[19, 19] == 1   # m=20 and n=21 both clamp


def test_empty_frontier_counts_nowhere(toy_graph):
    # 4 transactions, but only 2 have any depth-2 frontier
    assert _grid(toy_graph, 2).counts.sum() == 2


def test_total_bounded_by_transactions():
    rng = np.random.default_rng(7)
    for _ in range(20):
        graph = build_graph(random_window(rng, max_tx=60, max_addr=150))
        for k in (1, 2, 3):
            assert _grid(graph, k).counts.sum() <= graph.n_transactions


def test_coinbase_excluded():
    records = [
        TransactionRecord("cb", DAY0_TS, (), ("x",)),
        TransactionRecord("t1", DAY0_TS + 1, ("x",), ("y",)),
    ]
    graph = build_graph(day_windows(records)[0])
    oc = _grid(graph, 1)
    assert oc.counts.sum() == 1
    assert oc.counts[0, 0] == 1


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


class Product(NamedTuple):
    expansion: int      # (row, col) pairs the product expands
    left_nnz: int
    left_rows: int      # non-empty rows of the left operand


def _record_products(monkeypatch) -> list[Product]:
    """Wrap ``kernels.spgemm_bool`` to record what each call expands."""
    calls = []
    spgemm = kernels.spgemm_bool

    def recording(a_indptr, a_indices, b_indptr, *rest):
        calls.append(Product(int(np.diff(b_indptr)[a_indices].sum()), a_indices.size,
                             int(np.count_nonzero(np.diff(a_indptr)))))
        return spgemm(a_indptr, a_indices, b_indptr, *rest)

    monkeypatch.setattr(kernels, "spgemm_bool", recording)
    return calls


@pytest.mark.parametrize("width", [700, 1400, 2800])
def test_wide_hub_expansion_linear_in_edges(monkeypatch, width):
    # the tx x tx hop matrix would pair every payer with every spender
    # (width**2 pairs); each product may expand at most CLAMP entries per
    # entry of its left operand, as the module docstring says
    graph = build_graph(day_windows(_hub_records(width))[0])
    calls = _record_products(monkeypatch)
    grids = occurrence_matrices(graph, 3)
    assert len(calls) == 4
    for call in calls:
        assert call.expansion <= CLAMP * call.left_nnz
    # order 1: every row pays 2; order 2: a payer reaches every spender's
    # outputs, a spender the next payer's two; order 3: past the clamp
    assert np.array_equal(grids[0].counts, _expect_grid({(1, 2): 2 * width}))
    assert np.array_equal(grids[1].counts,
                          _expect_grid({(1, 20): width, (1, 2): width}))
    assert np.array_equal(grids[2].counts, _expect_grid({(1, 20): 2 * width}))


# Peak bytes allocated per token (input or output) of a hub day, about 3x
# the 338-342 B/token of the feature stage and the 122-150 B/token of the
# walk oracle at widths 700-2800: room for other numpy and Python versions,
# while width**2 payer x spender pairs would cost thousands of B/token.
FEATURE_BYTES_PER_TOKEN = 1024
ORACLE_BYTES_PER_TOKEN = 512


def _peak_bytes(run) -> int:
    """The tracemalloc peak while ``run()`` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _hub_day(width: int):
    records = _hub_records(width)
    return day_windows(records)[0], sum(len(r.inputs) + len(r.outputs) for r in records)


@pytest.mark.parametrize("width", [700, 1400, 2800])
def test_hub_day_feature_memory_linear_in_tokens(width):
    # every reach row is capped at CLAMP before the next product reads it
    window, tokens = _hub_day(width)
    assert _peak_bytes(lambda: day_feature_table([window], 3)) <= (
        FEATURE_BYTES_PER_TOKEN * tokens)


@pytest.mark.parametrize("width", [700, 1400, 2800])
def test_hub_day_oracle_memory_linear_in_tokens(width):
    # the payers share one walk, memoised by the hub they spend into, and
    # no level is held whole
    window, tokens = _hub_day(width)
    graph = build_graph(window)
    assert _peak_bytes(lambda: [occurrence_matrix_oracle(graph, k)
                                for k in (1, 2, 3)]) <= ORACLE_BYTES_PER_TOKEN * tokens


def _saturated_records(width: int, shared: int = 5) -> list[TransactionRecord]:
    """A day of ``width`` rows, each paying ``CLAMP`` addresses of its own
    and all ``shared`` shared addresses, and spending two of those, so
    every reach row is full at every order and every address spent has
    about ``2 * width / shared`` spenders."""
    return [TransactionRecord(
        f"t{i}", DAY0_TS + i, (f"s{i % shared}", f"s{(i + 1) % shared}"),
        tuple(f"o{i}_{j}" for j in range(CLAMP)) + tuple(f"s{j}" for j in range(shared)))
        for i in range(width)]


@pytest.mark.parametrize("width", [50, 400])
def test_saturated_rows_expand_one_full_row_each(monkeypatch, width):
    # every non-empty left row meets a full right row, so it takes that row
    # whole and expands exactly CLAMP pairs, however many entries it has:
    # 5 (then width) rows, against 2 * width (then 5 * width) entries
    graph = build_graph(day_windows(_saturated_records(width))[0])
    calls = _record_products(monkeypatch)
    grids = occurrence_matrices(graph, 3)
    assert len(calls) == 4
    for call in calls:
        assert call.expansion == CLAMP * call.left_rows
    for k, grid in enumerate(grids, start=1):
        assert np.array_equal(grid.counts, _expect_grid({(2, 20): width}))
        assert np.array_equal(grid.counts, occurrence_matrix_oracle(graph, k).counts)


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
    assert grids[0].counts.sum() == 2
    assert grids[1].counts.sum() == grids[2].counts.sum() == 0


# --- the two independent routes must agree ----------------------------------

def test_oracle_equivalence_random_graphs():
    rng = np.random.default_rng(1234)
    for i in range(40):
        graph = build_graph(random_window(rng, max_tx=80, max_addr=200))
        k = 1 + i % 4
        assert np.array_equal(_grid(graph, k).counts,
                              occurrence_matrix_oracle(graph, k).counts), (
            f"divergence at instance {i}, order {k}"
        )
    # days around one hub address, from below the clamp to past it
    for width in (3, 9, 10, 19, 20, 30):
        graph = build_graph(day_windows(_hub_records(width))[0])
        for k in (1, 2, 3, 4):
            assert np.array_equal(_grid(graph, k).counts,
                                  occurrence_matrix_oracle(graph, k).counts), (
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
        assert np.array_equal(fast.counts, occurrence_matrix_oracle(graph, k).counts)
        assert fast.counts.sum() == 2  # the cycle never dies out


# --- the oracle against the reference walk ----------------------------------

def _walk_grid(graph, k: int) -> np.ndarray:
    """The order-k grid tallied from :func:`subgraph_shape` of every
    transaction, clamped as the grids are."""
    grid = np.zeros((CLAMP, CLAMP), dtype=np.int64)
    for t in range(graph.n_transactions):
        m, n = subgraph_shape(graph, k, t)
        if n:
            grid[min(m, CLAMP) - 1, min(n, CLAMP) - 1] += 1
    return grid


def _saturating_records() -> list[TransactionRecord]:
    """A day over a pool of 5 addresses: every row spends the whole pool
    and pays one of it, so from order 2 every level holds every row and
    every frontier every paid address, gathered one address at a time."""
    pool = tuple(f"a{j}" for j in range(5))
    return [TransactionRecord(f"t{t}", DAY0_TS + t, pool, (pool[t % 5],))
            for t in range(8)]


def _one_at_a_time_records() -> list[TransactionRecord]:
    """A day whose order-2 and order-3 frontiers hold 19, 20 and 21
    addresses, gathered one address at a time.

    Hub X_n pays s_n, which n spenders spend, and spender j pays only the
    fresh address o_n_j, so X_n's order-2 frontier has n addresses and each
    last-level transaction adds one.  E_n pays X_n's first input, so E_n's
    order-3 frontier is the same n addresses.  X_n has m = 1..3 inputs and
    E_n m = 4..6, so every pattern lands in a cell of its own."""
    txs = []
    for m, n in enumerate((19, 20, 21), start=1):
        txs.append((f"E{n}", tuple(f"pre{n}_{i}" for i in range(m + 3)), (f"x{n}",)))
        txs.append((f"X{n}", (f"x{n}",) + tuple(f"in{n}_{i}" for i in range(1, m)),
                    (f"s{n}",)))
        txs += [(f"S{n}_{j}", (f"s{n}",), (f"o{n}_{j}",)) for j in range(n)]
    return [TransactionRecord(tx, DAY0_TS + i, ins, outs)
            for i, (tx, ins, outs) in enumerate(txs)]


def _spent_change_records() -> list[TransactionRecord]:
    """A day whose walks share transactions but not their memo keys.

    Payer P_i has i + 1 inputs and pays the hub and its change c_i, which
    C_i alone spends, so the payers' spent outputs differ though every walk
    runs through the hub's spenders.  C_i pays i + 1 fresh addresses and z0.
    The hub's spenders H0 and H1 pay x and y, which T spends, so both have
    the successors {T} but different spent outputs.  T pays z0, and a chain
    Z0..Z5 carries z0 on, each Z_j paying z_(j+1) and j + 1 fresh addresses,
    so the walks run six levels deep."""
    txs = [(f"P{i}", tuple(f"p{i}_{n}" for n in range(i + 1)), ("hub", f"c{i}"))
           for i in range(4)]
    txs += [(f"C{i}", (f"c{i}",), (*(f"f{i}_{n}" for n in range(i + 1)), "z0"))
            for i in range(4)]
    txs += [("H0", ("hub",), ("x",)), ("H1", ("hub",), ("y",)), ("T", ("x", "y"), ("z0",))]
    txs += [(f"Z{j}", (f"z{j}",), (f"z{j + 1}", *(f"w{j}_{n}" for n in range(j + 1))))
            for j in range(6)]
    return [TransactionRecord(tx, DAY0_TS + i, ins, outs)
            for i, (tx, ins, outs) in enumerate(txs)]


@pytest.mark.parametrize("records", [
    pytest.param(_saturating_records(), id="saturating"),
    *(pytest.param(_hub_records(width), id=f"hub-{width}") for width in (1, 3, 21)),
    pytest.param(_straddle_records(), id="straddle"),
    pytest.param(_one_at_a_time_records(), id="one-at-a-time"),
    pytest.param(_spent_change_records(), id="spent-change"),
])
def test_oracle_matches_the_reference_walk(records):
    graph = build_graph(day_windows(records)[0])
    for k in range(1, 7):
        assert np.array_equal(occurrence_matrix_oracle(graph, k).counts,
                              _walk_grid(graph, k)), k


def test_one_at_a_time_frontiers():
    records = _one_at_a_time_records()
    t = {r.tx_id: i for i, r in enumerate(records)}.__getitem__
    graph = build_graph(day_windows(records)[0])
    for m, n in enumerate((19, 20, 21), start=1):
        assert subgraph_shape(graph, 2, t(f"X{n}")) == (m, n)
        assert subgraph_shape(graph, 3, t(f"E{n}")) == (m + 3, n)


def test_capped_size_stops_once_past_the_cap():
    def sets():
        yield range(18)
        yield range(11, 25)     # takes the union from 18 to 25
        raise AssertionError("read a set after the union passed the cap")

    assert korder._capped_size(sets(), CLAMP) == CLAMP
    assert korder._capped_size([range(10), range(10, 20)], CLAMP) == CLAMP
    assert korder._capped_size([range(5), range(3, 19)], CLAMP) == 19
    assert korder._capped_size([], CLAMP) == 0


def test_each_once_yields_every_member_once():
    assert sorted(korder._each_once([{3, 1}, (1, 2), {2, 3, 4}, ()])) == [1, 2, 3, 4]


@pytest.mark.parametrize("records", [
    pytest.param(toy_records(), id="toy"),
    pytest.param(_hub_records(30), id="hub-30"),
])
def test_oracle_runs_no_matrix_route_code(records, monkeypatch):
    graph = build_graph(day_windows(records)[0])
    want = occurrence_matrices(graph, 4)

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle ran matrix-route code")

    for owner, name in ((kernels, "spgemm_bool"), (kernels, "csr"),
                        (korder, "_first_entries"), (korder, "_capped_product"),
                        (korder, "_linked"),
                        (korder, "_day_grids")):
        monkeypatch.setattr(owner, name, refuse)
    for k, grid in enumerate(want, start=1):
        assert np.array_equal(occurrence_matrix_oracle(graph, k).counts, grid.counts)


def test_occurrence_matrices_match_single_calls(toy_graph):
    # the order-k grid does not depend on how many orders are computed
    grids = occurrence_matrices(toy_graph, 3)
    for k, oc in enumerate(grids, start=1):
        assert oc.order == k
        assert np.array_equal(oc.counts, occurrence_matrices(toy_graph, k)[-1].counts)


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


def _capped_operand(rng, n_rows: int, n_cols: int, full: np.ndarray):
    """A random canonical CSR whose rows hold under ``CLAMP`` entries,
    except the rows ``full``, which hold exactly ``CLAMP``."""
    sizes = rng.integers(0, CLAMP, n_rows)
    sizes[full] = CLAMP
    cols = [rng.choice(n_cols, size, replace=False) for size in sizes]
    return kernels.csr(np.repeat(np.arange(n_rows), sizes), np.concatenate(cols),
                       n_rows, n_cols)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n_full", [0, 1, 6])
def test_capped_product_against_dense(seed, n_full):
    # each row is canonical and a subset of the true boolean row with
    # min(|true|, CLAMP) members; a row meeting a full row takes the first
    rng = np.random.default_rng(seed)
    n_rows, n_mid, n_cols = 40, 30, 3 * CLAMP
    full = np.sort(rng.choice(n_mid, n_full, replace=False))
    other = np.setdiff1d(np.arange(n_mid), full)
    b = _capped_operand(rng, n_mid, n_cols, full)
    da = rng.random((n_rows, n_mid)) < 0.15
    # rows 0-3: empty, then meeting no full row, one, and up to three
    da[:4] = False
    da[1, other[:4]] = True
    da[2, other[:2]] = da[2, full[:1]] = True
    da[3, other[:3]] = da[3, full[:3]] = True
    indptr, indices = _capped_product(_from_dense(da), b, n_rows, n_cols)
    true = (da.astype(np.int64) @ _dense(b, n_cols).astype(np.int64)) > 0
    got = _dense((indptr, indices), n_cols)
    assert not (got & ~true).any()
    assert np.array_equal(np.diff(indptr), np.minimum(true.sum(axis=1), CLAMP))
    for r in range(n_rows):
        row = indices[indptr[r]:indptr[r + 1]]
        assert np.all(row[1:] > row[:-1])
        meets = full[da[r, full]]
        if meets.size:
            # the row of the first full row it meets, whole
            assert np.array_equal(row, b[1][b[0][meets[0]]:b[0][meets[0] + 1]])
    if not n_full:
        want = _first_entries(*kernels.spgemm_bool(*_from_dense(da), *b, n_rows, n_cols))
        assert np.array_equal(indptr, want[0])
        assert np.array_equal(indices, want[1])


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
        assert np.array_equal(grids[k - 1].counts,
                              occurrence_matrix_oracle(graph, k).counts), k


@given(records=adversarial_day())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_oracle_matches_the_reference_walk_property(records):
    graph = build_graph(day_windows(records)[0])
    for k in range(1, 5):
        assert np.array_equal(occurrence_matrix_oracle(graph, k).counts,
                              _walk_grid(graph, k)), k
