import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from txpattern import ingest
from txpattern.errors import DuplicateTxId
from txpattern.features import day_feature_table
from txpattern.ingest import (
    DayWindow,
    TransactionRecord,
    TransactionTable,
    day_of,
    parse_transactions,
    partition_daily,
)
from txpattern.txgraph import build_graph

from conftest import (
    DAY0_TS,
    address_ids,
    assert_matches_reference,
    count_check_lines,
    day_windows,
    hash_8_bits,
    random_records,
    toy_records,
)


def _row(indptr: np.ndarray, indices: np.ndarray, i: int) -> list[int]:
    """Row ``i`` of a CSR pair: an address's spenders or a transaction's
    outputs."""
    return indices[indptr[i]:indptr[i + 1]].tolist()


def test_toy_graph_shape(toy_graph):
    assert toy_graph.n_transactions == 4
    assert toy_graph.n_addresses == 8
    assert toy_graph.n_coinbase_skipped == 0


def test_address_ids_dense_in_key_order(toy_graph):
    # ids 0..7 rank the distinct address keys; t3 and t4 both pay a8
    table = TransactionTable.from_records(toy_records())
    keys = np.unique(table.keys)
    assert keys.size == toy_graph.n_addresses == 8
    a8 = int(np.searchsorted(keys, table.keys[-1]))
    outputs = toy_graph.out_indptr, toy_graph.out_indices
    assert _row(*outputs, 2) == _row(*outputs, 3) == [a8]
    spent = np.flatnonzero(np.diff(toy_graph.spend_indptr))
    ids = np.concatenate((spent, toy_graph.out_indices))
    assert sorted(set(ids.tolist())) == list(range(8))


def test_input_output_ids(toy_graph):
    a = address_ids(toy_records())
    spend = toy_graph.spend_indptr, toy_graph.spend_indices
    assert _row(*spend, a["a1"]) == _row(*spend, a["a2"]) == [0]
    assert _row(*spend, a["a5"]) == [2]
    assert _row(*spend, a["a8"]) == []
    assert _row(toy_graph.out_indptr, toy_graph.out_indices, 1) == sorted([a["a4"], a["a6"]])


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
    a = address_ids(records)
    assert graph.input_set_sizes.tolist() == [2]
    assert _row(graph.spend_indptr, graph.spend_indices, a["a"]) == [0]
    assert len(_row(graph.out_indptr, graph.out_indices, 0)) == 1


def test_input_set_sizes(toy_graph):
    assert list(toy_graph.input_set_sizes) == [2, 1, 2, 2]
    assert toy_graph.input_set_sizes.tolist() == np.bincount(
        toy_graph.spend_indices, minlength=4).tolist()


def test_csr_arrays_read_only(toy_graph):
    for arr in (toy_graph.spend_indptr, toy_graph.spend_indices,
                toy_graph.out_indptr, toy_graph.out_indices,
                toy_graph.input_set_sizes):
        assert not arr.flags.writeable


def test_empty_window():
    empty = TransactionTable.from_records([])
    graph = build_graph(DayWindow(dt.date(2015, 1, 1), empty,
                                  np.arange(0, dtype=np.int64)))
    assert graph.n_transactions == 0
    assert graph.n_addresses == 0
    assert graph.spend_indptr.tolist() == [0]


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
    # two days over 24 addresses: 8-bit keys of different addresses
    # collide on a day, and the graph of each day, and of both days as one
    # chunk, still gives two tokens one id exactly when their bytes are
    # equal.  The parser keeps the 8-bit keys, as from_records does
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

    full = TransactionTable.from_records(records)
    full_keys = np.unique(full.keys)
    assert np.unique((full_keys >> 56) & 0xFF).size < full_keys.size
    hash_8_bits(monkeypatch)
    checks = count_check_lines(monkeypatch)
    table = parse_transactions(path)
    assert checks == []
    assert table.keys.max() <= 0xFF
    windows = partition_daily(table)
    shared = []
    for w in windows:
        kept = [i for i in w.rows if table.n_inputs[i]]
        names = {a for r in records if day_of(r.timestamp) == w.date and r.inputs
                 for a in r.inputs + r.outputs}
        keys = [table.keys[table.indptr[i]:table.indptr[i + 1]] for i in kept]
        shared.append(np.unique(np.concatenate(keys)).size < len(names))
    assert any(shared)
    assert_matches_reference(windows, records)
    assert_matches_reference(windows, records, chunked=True)
    got = day_feature_table(windows, 3)
    assert got[0] == want[0] and np.array_equal(got[1], want[1])
    from_records = TransactionTable.from_records(records)
    assert np.array_equal(from_records.keys, table.keys)


_NAME = st.text(st.characters(exclude_characters=",;\r\n", exclude_categories=("Cs",)),
                min_size=1, max_size=6)


def _key_sharing_names() -> list[str]:
    """Two groups of four names whose real keys share their top 8 bits, so
    that under ``hash_8_bits`` each group shares one key."""
    names = [f"g{i}" for i in range(400)]
    keys = TransactionTable.from_records([TransactionRecord("t", DAY0_TS, (), tuple(names))]).keys
    groups: dict[int, list[str]] = {}
    for name, key in zip(names, (keys >> 56).tolist()):
        groups.setdefault(key, []).append(name)
    return [name for group in groups.values() if len(group) >= 4 for name in group[:4]][:8]


_KEY_SHARING = _key_sharing_names()


@st.composite
def _days(draw) -> list[TransactionRecord]:
    """Up to 20 rows over one to four days, their addresses drawn from a
    pool of up to 12 names, any names or those of :data:`_KEY_SHARING`."""
    pool = draw(st.lists(_NAME | st.sampled_from(_KEY_SHARING), min_size=1, max_size=12,
                         unique=True))
    address = st.sampled_from(pool)
    n_days = draw(st.integers(1, 4))
    return [TransactionRecord(
        f"t{i}", DAY0_TS + 86400 * draw(st.integers(0, n_days - 1)) + i,
        tuple(draw(st.lists(address, max_size=4))),
        tuple(draw(st.lists(address, min_size=1, max_size=4))))
        for i in range(draw(st.integers(1, 20)))]


@pytest.mark.parametrize("chunked", [False, True], ids=["one-day", "multi-day"])
@pytest.mark.parametrize("bits", [64, 8])
@given(records=_days())
@settings(max_examples=100, deadline=None)
def test_ids_within_a_day_are_the_addresses_bytes(bits, chunked, records):
    # within a day, two tokens share a graph id exactly when their names,
    # numbered in Python by their bytes, share a number, whether each day
    # is its own graph or all days are one chunk, and whether the keys are
    # the real hash or 8 bits of it, where different addresses often
    # share a key
    with pytest.MonkeyPatch.context() as patch:
        if bits == 8:
            hash_8_bits(patch)
        assert_matches_reference(day_windows(records), records, chunked)


def test_ids_sharing_a_key_are_told_apart_by_their_bytes(tmp_path, monkeypatch):
    # every tx id has the key 0: the parse compares the ids' bytes and
    # reads no line of a clean file, and the line-by-line reader names
    # both lines of a real repeat
    records = random_records(np.random.default_rng(1), max_tx=40, max_addr=30)
    path = tmp_path / "tx.csv"
    ingest.write_transactions(records, path)
    want_table = parse_transactions(path)
    want = day_feature_table(partition_daily(want_table), 3)

    full_hash = ingest._hash

    def ids_zero(buf, starts, ends):
        # ids are t0, t1, ...; addresses a0, a1, ...
        return np.where(buf[starts] == ord("t"), 0, full_hash(buf, starts, ends))

    monkeypatch.setattr(ingest, "_hash", ids_zero)
    checks = count_check_lines(monkeypatch)
    table = parse_transactions(path)
    assert len(checks) == 0
    assert np.unique(table.keys).size == np.unique(want_table.keys).size
    assert np.array_equal(table.keys[:, None] == table.keys,
                          want_table.keys[:, None] == want_table.keys)
    got = day_feature_table(partition_daily(table), 3)
    assert got[0] == want[0] and np.array_equal(got[1], want[1])

    ingest.write_transactions(records + [records[3]], path)
    with pytest.raises(DuplicateTxId) as err:
        parse_transactions(path)
    assert str(err.value) == f"duplicate tx_id 't3' on lines 5 and {len(records) + 2}"
