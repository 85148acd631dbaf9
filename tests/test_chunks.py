"""Chunks: consecutive days built as one block-diagonal graph.

Every row of a chunk must equal the grids of its day built alone, and the
walk oracle's for that day, however the day's keys recur on other days of
the chunk; and the grids of the whole chunk graph must equal the walk
oracle run on that graph.  A table whose chunks are shared with a forked
worker must equal the serial build, raise its errors, and leave no child
and no second copy of the caller's buffered output behind.
"""

import io
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from txpattern import features, kernels, korder
from txpattern.errors import BadSpec
from txpattern.features import day_feature_table
from txpattern.ingest import TransactionRecord, TransactionTable, partition_daily
from txpattern.korder import (
    CLAMP,
    GRID_CELLS,
    feature_vector,
    occurrence_matrices,
    occurrence_matrix_oracle,
)
from txpattern.synth import SynthSpec, generate
from txpattern.txgraph import build_graph

from conftest import DAY0_TS, day_windows, hash_by_name, toy_records

DAY = 86400


def _oracle_row(graph, max_order: int) -> np.ndarray:
    return np.concatenate([occurrence_matrix_oracle(graph, k).to_flat()
                           for k in range(1, max_order + 1)])


def assert_chunk_exact(windows, max_order: int) -> np.ndarray:
    """The chunk's rows equal each day's one-day grids and walk-oracle grids,
    and the chunk graph's summed grids equal the walk oracle on it."""
    graph = build_graph(*windows)
    assert graph.n_days == len(windows)
    assert graph.day.tolist() == sorted(graph.day.tolist())
    rows = feature_vector(graph, max_order)
    assert rows.shape == (len(windows), max_order * GRID_CELLS)
    for d, w in enumerate(windows):
        alone = build_graph(w)
        assert (graph.day == d).sum() == alone.n_transactions
        assert np.array_equal(rows[d], feature_vector(alone, max_order)[0])
        assert np.array_equal(rows[d], _oracle_row(alone, max_order))
    for k, grid in enumerate(occurrence_matrices(graph, max_order), start=1):
        assert np.array_equal(grid.counts, occurrence_matrix_oracle(graph, k).counts)
    return rows


def _rec(n: int, day: int, ins, outs) -> TransactionRecord:
    return TransactionRecord(f"t{n}", DAY0_TS + day * DAY + n, tuple(ins), tuple(outs))


@st.composite
def reused_days(draw) -> list[TransactionRecord]:
    """Two to four days of rows over one small address pool, so keys recur
    across days: paid on one day and spent on another, a hub on one day and
    a leaf on the next.  Days may be empty (gaps) or all coinbase, and sizes
    may straddle the clamp."""
    pool = [f"a{i}" for i in range(draw(st.integers(2, 30)))]
    sizes = st.integers(0, 24)
    records: list[TransactionRecord] = []
    n_days = draw(st.integers(2, 4))
    for d in range(n_days):
        for _ in range(draw(st.integers(0 if d < n_days - 1 else 1, 6))):
            ins = draw(st.lists(st.sampled_from(pool), max_size=draw(sizes)))
            outs = draw(st.lists(st.sampled_from(pool), min_size=1,
                                 max_size=max(1, draw(sizes))))
            records.append(_rec(len(records), d, ins, outs))
    return records


@given(records=reused_days(), max_order=st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_chunk_rows_equal_single_days_and_oracle(records, max_order):
    windows = day_windows(records)
    rows = assert_chunk_exact(windows, max_order)
    _, table = day_feature_table(windows, max_order)
    assert np.array_equal(table, rows)


def test_key_paid_one_day_and_spent_the_next():
    # a2 is paid on day 0 and spent on day 1: linked within neither day,
    # so no order-2 frontier exists, though a2 links the two days by key
    records = [_rec(0, 0, ["a1"], ["a2"]), _rec(1, 1, ["a2"], ["a3"])]
    graph = build_graph(*day_windows(records))
    assert graph.n_addresses == 4          # a2 is two nodes, one per day
    rows = assert_chunk_exact(day_windows(records), 3)
    assert rows[:, GRID_CELLS:].sum() == 0     # a chunk with no linked address
    assert rows[:, :GRID_CELLS].sum() == 2


def test_hub_on_one_day_leaf_on_another():
    width = CLAMP + 5
    hub_day = [_rec(i, 0, [f"p{i}"], ["hub"]) for i in range(width)]
    hub_day.append(_rec(width, 0, ["hub"], [f"q{i}" for i in range(width)]))
    leaf_day = [_rec(width + 1, 1, ["x"], ["hub"]), _rec(width + 2, 1, ["hub"], ["y"])]
    rows = assert_chunk_exact(day_windows(hub_day + leaf_day), 2)
    # day 0: every payer reaches the hub's spender's clamped outputs
    assert rows[0, GRID_CELLS + (1 - 1) * CLAMP + CLAMP - 1] == width
    # day 1: one hop to "y" only
    assert rows[1, GRID_CELLS + (1 - 1) * CLAMP + 0] == 1


def test_gap_and_all_coinbase_days_inside_a_chunk():
    records = [
        _rec(0, 0, ["a", "b"], ["c"]),
        _rec(1, 0, ["c"], ["d"]),
        # day 1 is a gap, day 2 all coinbase
        _rec(2, 2, [], ["c", "e"]),
        _rec(3, 2, [], ["d"]),
        _rec(4, 3, ["d"], ["c"]),
        _rec(5, 3, ["c"], ["a"]),
    ]
    windows = day_windows(records)
    assert len(windows) == 4
    graph = build_graph(*windows)
    assert graph.n_coinbase_skipped == 2
    assert graph.day.tolist() == [0, 0, 3, 3]
    rows = assert_chunk_exact(windows, 3)
    assert not rows[1].any() and not rows[2].any()
    assert rows[0].sum() == rows[3].sum() == 2 + 1


def test_empty_window_list():
    graph = build_graph()
    assert (graph.n_days, graph.n_transactions, graph.n_addresses) == (0, 0, 0)
    assert graph.spend_indptr.tolist() == graph.out_indptr.tolist() == [0]
    assert feature_vector(graph, 2).shape == (0, 2 * GRID_CELLS)
    assert [m.counts.sum() for m in occurrence_matrices(graph, 2)] == [0, 0]
    dates, table = day_feature_table([], 2)
    assert dates == [] and table.shape == (0, 2 * GRID_CELLS)


def test_a_chunk_makes_four_csr_calls_at_order_2(monkeypatch):
    # build_graph makes the spender and the output CSR, and each of the two
    # products of order 2 one more; _linked gathers P_L from the graph's
    # spender rows without building a CSR
    windows = day_windows(toy_records() + [_rec(10, 1, ["x"], ["y"]),
                                           _rec(11, 1, ["y"], ["z"])])
    assert features._chunks(windows)[0] == [(0, 2)]
    want = assert_chunk_exact(windows, 2)
    graph = build_graph(*windows)
    calls = []
    csr = kernels.csr

    def counting(*args):
        calls.append(args[2:])
        return csr(*args)

    monkeypatch.setattr(kernels, "csr", counting)
    korder._linked(graph)
    assert calls == []
    _, table = day_feature_table(windows, 2)
    assert len(calls) == 4
    assert np.array_equal(table, want)


def test_windows_of_two_tables_rejected():
    (a,) = day_windows(toy_records())
    (b,) = day_windows(toy_records())
    with pytest.raises(BadSpec):
        build_graph(a, b)


@pytest.mark.parametrize("small_first", [True, False])
def test_feature_table_of_two_tables_rejected(small_first):
    # with the smaller table's window first, the chunk walk once read the
    # other window's rows out of the smaller table's columns (IndexError)
    (small,) = day_windows(toy_records())
    (big,) = day_windows([_rec(n, 1, [f"a{n}"], [f"b{n}"]) for n in range(10)])
    windows = [small, big] if small_first else [big, small]
    with pytest.raises(BadSpec):
        day_feature_table(windows, 2)


def test_keys_at_the_int64_extremes(monkeypatch):
    # keys in pairs 2**63 apart, (top, -1), (bottom, 0) and (5, 5 - 2**63):
    # key * 2 would wrap each pair onto one value.  Each address is parsed
    # under a hash that gives it its key
    top, bottom = 2**63 - 1, -2**63
    key_of = {"top": top, "bottom": bottom, "m1": -1, "zero": 0, "five": 5,
              "five_low": 5 - 2**63}
    hash_by_name(monkeypatch, key_of)
    table = TransactionTable.from_records([
        TransactionRecord("t0", DAY0_TS, ("bottom",), ("top", "m1")),
        TransactionRecord("t1", DAY0_TS + 1, ("top", "m1"), ("bottom", "zero")),
        TransactionRecord("t2", DAY0_TS + DAY, ("zero",), ("five", "five_low")),
        TransactionRecord("t3", DAY0_TS + DAY + 1, ("five", "five_low"), ("bottom",)),
    ])
    assert table.keys.tolist() == [bottom, top, -1, top, -1, bottom, 0,
                                   0, 5, 5 - 2**63, 5, 5 - 2**63, bottom]
    windows = partition_daily(table)
    assert len(windows) == 2
    graph = build_graph(*windows)
    # every key is one address per day it appears on
    assert graph.n_addresses == 4 + 4
    rows = assert_chunk_exact(windows, 3)
    assert rows[0, (1 - 1) * CLAMP + 2 - 1] == 1      # order 1, cell (1, 2)


@pytest.mark.parametrize("budget", [1, features.CHUNK_EDGES, 10**9])
def test_table_independent_of_the_budget(monkeypatch, budget):
    txs, _ = generate(SynthSpec(days=15, tx_per_day=40, seed=11))
    windows = partition_daily(txs)
    want = np.vstack([day_feature_table([w], 3)[1] for w in windows])
    monkeypatch.setattr(features, "CHUNK_EDGES", budget)
    _, got = day_feature_table(windows, 3)
    assert np.array_equal(got, want)


def test_chunks_walk_the_budget(monkeypatch):
    sizes = [3, 0, 2, 40, 1, 1]          # transactions per day, 2 tokens each
    records = [_rec(n, d, [f"i{n}"], [f"o{n}"])
               for n, d in enumerate(d for d, s in enumerate(sizes) for _ in range(s))]
    windows = day_windows(records)
    monkeypatch.setattr(features, "CHUNK_EDGES", 10)
    # a day above the budget is a chunk of one
    runs, tokens = features._chunks(windows)
    assert runs == [(0, 3), (3, 4), (4, 6)]
    assert tokens.tolist() == [10, 80, 4]           # tokens of each run
    monkeypatch.setattr(features, "CHUNK_EDGES", 1)
    assert features._chunks(windows)[0] == [(i, i + 1) for i in range(6)]
    runs, tokens = features._chunks([])
    assert runs == [] and tokens.tolist() == []


# --- the forked worker ------------------------------------------------------

def _chain_days(sizes: list[int]) -> list[TransactionRecord]:
    """Days of the given sizes, each a chain: a row spends what the one
    before it paid, so orders 2 and up count something."""
    records: list[TransactionRecord] = []
    for d, size in enumerate(sizes):
        for i in range(size):
            n = len(records)
            records.append(_rec(n, d, [f"c{n - 1}"] if i else [], [f"c{n}", f"d{d}"]))
    return records


WIDE_FIRST = [60, 3, 3, 3, 3, 3]
WIDE_LAST = WIDE_FIRST[::-1]


def _split_windows(monkeypatch, sizes):
    """The windows of :func:`_chain_days`, one run each, shared out on two
    CPUs; and their shares, the caller's first."""
    monkeypatch.setattr(kernels, "CPUS", 2)
    monkeypatch.setattr(features, "CHUNK_EDGES", 1)
    windows = day_windows(_chain_days(sizes))
    runs, tokens = features._chunks(windows)
    return windows, [[runs[i] for i in share] for share in kernels._shares(tokens)]


def _log_builds(monkeypatch, path):
    """Patch ``build_graph`` to append the pid that builds each run and the
    run's first date to ``path``; return a reader of {date: pid}."""
    def logged(*windows):
        with path.open("a") as fh:
            fh.write(f"{windows[0].date} {os.getpid()}\n")
        return build_graph(*windows)

    monkeypatch.setattr(features, "build_graph", logged)
    return lambda: dict(line.split() for line in path.read_text().splitlines())


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("sizes", [WIDE_FIRST, WIDE_LAST], ids=["wide-day-mine", "wide-day-theirs"])
def test_worker_table_equals_single_window_builds(monkeypatch, tmp_path, sizes):
    # the wide day's 120 tokens are most of the 150: it is a share alone,
    # the caller's when it comes first and the worker's when it comes last
    windows, shares = _split_windows(monkeypatch, sizes)
    want = np.vstack([day_feature_table([w], 3)[1] for w in windows])
    assert want[:, GRID_CELLS:].any()
    wide = sizes.index(max(sizes))
    assert shares == ([[(0, 1)], [(i, i + 1) for i in range(1, 6)]] if wide == 0
                      else [[(i, i + 1) for i in range(5)], [(5, 6)]])
    builders = _log_builds(monkeypatch, tmp_path / "builds")
    _, got = day_feature_table(windows, 3)
    assert got.tobytes() == want.tobytes()
    pids = builders()
    assert len(pids) == len(windows)
    mine = {str(windows[lo].date) for lo, _ in shares[0]}
    assert {pid for date, pid in pids.items() if date in mine} == {str(os.getpid())}
    assert str(os.getpid()) not in {pid for date, pid in pids.items() if date not in mine}
    _no_child_left()


@pytest.mark.parametrize("failing", [[4], [0], [0, 4]], ids=["theirs", "mine", "both"])
def test_worker_errors_are_the_serial_ones(monkeypatch, failing):
    # the runs of day 0 are the caller's, those of day 4 the worker's; a
    # serial build raises at the first failing run, and so does the shared
    # one, from the caller, with no child left behind
    windows, shares = _split_windows(monkeypatch, WIDE_FIRST)
    assert shares[0] == [(0, 1)] and (4, 5) in shares[1]
    bad = {windows[d].date for d in failing}

    def failing_build(*ws):
        if ws[0].date in bad:
            raise BadSpec(f"no graph on {ws[0].date}")
        return build_graph(*ws)

    monkeypatch.setattr(features, "build_graph", failing_build)
    monkeypatch.setattr(kernels, "CPUS", 1)
    with pytest.raises(BadSpec) as serial:
        day_feature_table(windows, 2)
    monkeypatch.setattr(kernels, "CPUS", 2)
    with pytest.raises(BadSpec) as shared:
        day_feature_table(windows, 2)
    assert str(shared.value) == str(serial.value) == f"no graph on {windows[failing[0]].date}"
    _no_child_left()


def test_worker_leaves_without_flushing_the_callers_output(monkeypatch, capfd):
    # text buffered before the call reaches stdout once: the worker leaves
    # through os._exit, so its copy of the buffer is never written
    windows, shares = _split_windows(monkeypatch, WIDE_FIRST)
    assert len(shares) == 2
    out = io.TextIOWrapper(open(os.dup(sys.stdout.fileno()), "wb"))
    monkeypatch.setattr(sys, "stdout", out)
    print("buffered before the table")
    day_feature_table(windows, 2)
    out.close()
    assert capfd.readouterr().out == "buffered before the table\n"


def test_one_share_without_fork(monkeypatch):
    windows, shares = _split_windows(monkeypatch, WIDE_FIRST)
    want = day_feature_table(windows, 2)[1]
    monkeypatch.delattr(os, "fork")
    runs, tokens = features._chunks(windows)
    assert kernels._shares(tokens) == [range(len(runs))]
    assert np.array_equal(day_feature_table(windows, 2)[1], want)
