import datetime as dt

import numpy as np

from txpattern.ingest import (
    DayWindow,
    TransactionRecord,
    TransactionTable,
    day_of,
    parse_transactions,
    partition_daily,
)
from txpattern.txgraph import TransactionGraph, build_graph

from conftest import DAY0_TS, day_windows, random_records


def reference_graph(records: list[TransactionRecord]) -> TransactionGraph:
    """One day's graph built row by row: addresses interned on first sight,
    each transaction's inputs before its outputs, coinbase rows skipped."""
    addr_ids: dict[str, int] = {}
    tx_ids: list[str] = []
    ins_per_tx: list[list[int]] = []
    outs_per_tx: list[list[int]] = []
    skipped = 0
    for rec in records:
        if not rec.inputs:
            skipped += 1
            continue
        ins_per_tx.append(sorted({addr_ids.setdefault(a, len(addr_ids))
                                  for a in rec.inputs}))
        outs_per_tx.append(sorted({addr_ids.setdefault(a, len(addr_ids))
                                   for a in rec.outputs}))
        tx_ids.append(rec.tx_id)

    def csr(rows):
        indptr = np.cumsum([0] + [len(r) for r in rows])
        return indptr.astype(np.int64), np.array(
            [i for r in rows for i in r], dtype=np.int64)

    return TransactionGraph(tx_ids, list(addr_ids), *csr(ins_per_tx),
                            *csr(outs_per_tx), skipped)


def assert_same_graph(got: TransactionGraph, want: TransactionGraph) -> None:
    assert got.tx_ids == want.tx_ids
    assert got.addresses == want.addresses
    for name in ("in_indptr", "in_indices", "out_indptr", "out_indices"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == np.int64, name
        assert np.array_equal(a, b), name
    assert got.n_coinbase_skipped == want.n_coinbase_skipped


def assert_matches_reference(windows: list[DayWindow],
                             records: list[TransactionRecord]) -> None:
    """Every window's graph equals the reference over that day's rows, in
    file order; gap days are empty."""
    by_day: dict[dt.date, list[TransactionRecord]] = {}
    for rec in records:
        by_day.setdefault(day_of(rec.timestamp), []).append(rec)
    assert {w.date for w in windows} >= set(by_day)
    for w in windows:
        assert_same_graph(build_graph(w), reference_graph(by_day.get(w.date, [])))


def test_toy_graph_shape(toy_graph):
    assert toy_graph.n_transactions == 4
    assert toy_graph.n_addresses == 8
    assert toy_graph.n_coinbase_skipped == 0


def test_address_interning_first_appearance(toy_graph):
    # a1, a2 enter via t1's inputs, a5 via its output, and so on
    assert toy_graph.addresses[:3] == ["a1", "a2", "a5"]
    assert toy_graph.tx_ids == ["t1", "t2", "t3", "t4"]


def test_input_output_ids(toy_graph):
    a = {addr: i for i, addr in enumerate(toy_graph.addresses)}
    assert list(toy_graph.input_ids(0)) == sorted([a["a1"], a["a2"]])
    assert list(toy_graph.output_ids(1)) == sorted([a["a4"], a["a6"]])


def test_coinbase_skipped_and_counted():
    records = [
        TransactionRecord("cb", DAY0_TS, (), ("x",)),
        TransactionRecord("t1", DAY0_TS + 1, ("x",), ("y",)),
    ]
    graph = build_graph(day_windows(records)[0])
    assert graph.n_transactions == 1
    assert graph.tx_ids == ["t1"]
    assert graph.n_coinbase_skipped == 1


def test_repeated_input_address_deduplicated():
    records = [
        TransactionRecord("t1", DAY0_TS, ("a", "a", "b"), ("c", "c")),
    ]
    graph = build_graph(day_windows(records)[0])
    assert len(graph.input_ids(0)) == 2
    assert len(graph.output_ids(0)) == 1


def test_input_set_sizes(toy_graph):
    assert list(toy_graph.input_set_sizes) == [2, 1, 2, 2]
    assert toy_graph.tx_ids[0] == "t1"
    assert len(toy_graph.input_ids(0)) == 2


def test_csr_arrays_read_only(toy_graph):
    for arr in (toy_graph.in_indptr, toy_graph.in_indices,
                toy_graph.out_indptr, toy_graph.out_indices):
        assert not arr.flags.writeable


def test_empty_window():
    empty = TransactionTable.from_records([])
    graph = build_graph(DayWindow(dt.date(2015, 1, 1), empty,
                                  np.arange(0, dtype=np.int64)))
    assert graph.n_transactions == 0
    assert graph.n_addresses == 0
    assert graph.in_indptr.tolist() == [0]


def test_matches_reference_random_days():
    rng = np.random.default_rng(4242)
    for _ in range(200):
        records = random_records(rng)
        assert_matches_reference(day_windows(records), records)


def test_matches_reference_all_coinbase():
    records = [TransactionRecord(f"cb{i}", DAY0_TS + i, (), ("x", f"y{i}"))
               for i in range(3)]
    (window,) = day_windows(records)
    assert_matches_reference([window], records)
    assert build_graph(window).n_coinbase_skipped == 3


def test_matches_reference_hand_built_file(tmp_path):
    # days out of file order, two empty gap days, pre-1970 timestamps;
    # repeated addresses within a row, an address both paid and spent in
    # one row, empty tokens, and a ";" inputs field (a coinbase)
    day = 86400
    rows = [
        ("p1", 3 * day + 5, "a;a;b", "c;c"),
        ("n1", -1, "x;y", "x"),
        ("p2", 3 * day + 1, "c", "a;;d"),
        ("n2", -day - 1, "q", ";r;"),
        ("cb", 3 * day + 9, ";", "e"),
        ("z1", 0, "b;;b", "b"),
        ("n3", -2, "r", "x;q"),
        ("p3", 3 * day + 2, "e;d", "d;a"),
    ]
    path = tmp_path / "tx.csv"
    path.write_text("tx_id,timestamp,inputs,outputs\n"
                    + "".join(f"{i},{t},{a},{b}\n" for i, t, a, b in rows))
    records = [TransactionRecord(i, t, tuple(filter(None, a.split(";"))),
                                 tuple(filter(None, b.split(";"))))
               for i, t, a, b in rows]
    windows = partition_daily(parse_transactions(path))
    assert [w.date for w in windows] == [
        dt.date(1969, 12, 30) + dt.timedelta(days=i) for i in range(6)]
    assert [w.rows.size for w in windows] == [1, 2, 1, 0, 0, 4]
    assert_matches_reference(windows, records)
    spent = build_graph(windows[5])
    assert spent.tx_ids == ["p1", "p2", "p3"]
    assert spent.addresses == ["a", "b", "c", "d", "e"]
    assert spent.n_coinbase_skipped == 1
