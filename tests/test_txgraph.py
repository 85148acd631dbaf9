import datetime as dt

import numpy as np

from txpattern import ingest
from txpattern.features import day_feature_table
from txpattern.ingest import (
    DayWindow,
    TransactionRecord,
    TransactionTable,
    day_of,
    parse_transactions,
    partition_daily,
)
from txpattern.txgraph import TransactionGraph, build_graph

from conftest import DAY0_TS, address_ids, day_windows, random_records, toy_records


def reference_rows(records: list[TransactionRecord]) -> tuple[list, int]:
    """One day's graph built row by row, by name: each non-coinbase row's
    distinct input and output addresses, in file order, and the number of
    coinbase rows skipped."""
    kept = [r for r in records if r.inputs]
    return [(set(r.inputs), set(r.outputs)) for r in kept], len(records) - len(kept)


def assert_same_graph(got: TransactionGraph, records: list[TransactionRecord],
                      file_records: list[TransactionRecord]) -> None:
    """``got`` equals the reference graph of the day's records up to
    relabelling: its addresses renamed through ``address_ids``, the rows
    are the reference rows, as canonical CSR."""
    rows, skipped = reference_rows(records)
    ids = address_ids(records, file_records)
    assert got.n_transactions == len(rows)
    assert got.n_addresses == len(ids)
    assert got.n_coinbase_skipped == skipped
    for side, (indptr, indices) in enumerate(((got.in_indptr, got.in_indices),
                                              (got.out_indptr, got.out_indices))):
        assert indptr.dtype == np.int64 and indices.dtype == np.int64
        want = [sorted(ids[a] for a in row[side]) for row in rows]
        assert indptr.tolist() == np.cumsum([0] + [len(w) for w in want]).tolist()
        assert indices.tolist() == [i for w in want for i in w]


def assert_matches_reference(windows: list[DayWindow],
                             records: list[TransactionRecord]) -> None:
    """Every window's graph equals the reference over that day's rows, in
    file order; gap days are empty."""
    by_day: dict[dt.date, list[TransactionRecord]] = {}
    for rec in records:
        by_day.setdefault(day_of(rec.timestamp), []).append(rec)
    assert {w.date for w in windows} >= set(by_day)
    for w in windows:
        assert_same_graph(build_graph(w), by_day.get(w.date, []), records)


def test_toy_graph_shape(toy_graph):
    assert toy_graph.n_transactions == 4
    assert toy_graph.n_addresses == 8
    assert toy_graph.n_coinbase_skipped == 0


def test_address_ids_dense_in_key_order(toy_graph):
    # ids 0..7 rank the distinct address keys; t3 and t4 both pay a8
    table = TransactionTable.from_records(toy_records())
    keys = np.unique(np.concatenate((table.input_keys, table.output_keys)))
    assert keys.size == toy_graph.n_addresses == 8
    a8 = int(np.searchsorted(keys, table.output_keys[-1]))
    assert toy_graph.output_ids(2).tolist() == toy_graph.output_ids(3).tolist() == [a8]
    ids = np.concatenate((toy_graph.in_indices, toy_graph.out_indices))
    assert sorted(set(ids.tolist())) == list(range(8))


def test_input_output_ids(toy_graph):
    a = address_ids(toy_records())
    assert list(toy_graph.input_ids(0)) == sorted([a["a1"], a["a2"]])
    assert list(toy_graph.output_ids(1)) == sorted([a["a4"], a["a6"]])


def test_coinbase_skipped_and_counted():
    records = [
        TransactionRecord("cb", DAY0_TS, (), ("x",)),
        TransactionRecord("t1", DAY0_TS + 1, ("x",), ("y",)),
    ]
    graph = build_graph(day_windows(records)[0])
    assert graph.n_transactions == 1
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
    assert (spent.n_transactions, spent.n_addresses) == (3, 5)
    assert spent.n_coinbase_skipped == 1


def test_keys_exact_under_an_8_bit_hash(tmp_path, monkeypatch):
    # two days over 24 addresses: 8-bit keys collide at seed 0, so the
    # parser and from_records key everything again until the keys are exact
    rng = np.random.default_rng(0)
    pool = [f"addr{i}" for i in range(24)]
    records = [TransactionRecord(
        f"t{i}", DAY0_TS + (i % 2) * 86400 + i,
        tuple(rng.choice(pool, size=int(rng.integers(0, 4)), replace=False)),
        tuple(rng.choice(pool, size=int(rng.integers(1, 4)), replace=False)))
        for i in range(10)]
    path = tmp_path / "tx.csv"
    ingest.write_transactions(records, path)
    want = day_feature_table(partition_daily(parse_transactions(path)), 3)

    full_hash = ingest._hash
    seeds = []

    def hash_8_bits(buf, starts, ends, seed):
        seeds.append(seed)
        return (full_hash(buf, starts, ends, seed) >> 56) & 0xFF

    full = TransactionTable.from_records(records)
    full_keys = np.unique(np.concatenate((full.input_keys, full.output_keys)))
    assert np.unique((full_keys >> 56) & 0xFF).size < full_keys.size
    monkeypatch.setattr(ingest, "_hash", hash_8_bits)
    table = parse_transactions(path)
    assert max(seeds) > 0
    keys = np.concatenate((table.input_keys, table.output_keys))
    assert keys.max() <= 0xFF
    assert np.unique(keys).size == len({a for r in records for a in r.inputs + r.outputs})
    assert_matches_reference(partition_daily(table), records)
    got = day_feature_table(partition_daily(table), 3)
    assert got[0] == want[0] and np.array_equal(got[1], want[1])
    from_records = TransactionTable.from_records(records)
    assert np.array_equal(from_records.input_keys, table.input_keys)
    assert np.array_equal(from_records.output_keys, table.output_keys)
