import datetime as dt
import os
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from txpattern.errors import (
    DuplicateTxId,
    EmptyInput,
    MalformedRow,
    MissingFile,
    NonPositivePrice,
    UnparseableDate,
)
from txpattern import ingest, kernels
from txpattern.ingest import (
    PriceSeries,
    TransactionRecord,
    TransactionTable,
    day_of,
    parse_prices,
    parse_transactions,
    partition_daily,
    write_prices,
    write_transactions,
)
from txpattern.txgraph import build_graph

from conftest import (
    DAY0_TS,
    assert_matches_reference,
    count_check_lines,
    day_windows,
    hash_8_bits,
    hash_by_name,
    latest_close,
    price_entries,
    toy_records,
)

HEADER = "tx_id,timestamp,inputs,outputs\n"


def _columns(table: TransactionTable) -> tuple:
    return (table.timestamps.tolist(), table.n_inputs.tolist(),
            table.n_outputs.tolist(), table.keys.tolist())


def test_transaction_roundtrip(tmp_path):
    path = tmp_path / "tx.csv"
    records = toy_records() + [TransactionRecord("cb", DAY0_TS + 40, (), ("a9",))]
    write_transactions(records, path)
    back = parse_transactions(path)
    assert _columns(back) == _columns(TransactionTable.from_records(records))
    assert back.timestamps.dtype == np.int64
    assert back.keys.dtype == np.int64
    assert back.indptr.tolist() == [0, 3, 6, 9, 12, 13]


def test_coinbase_has_empty_inputs(tmp_path):
    path = tmp_path / "tx.csv"
    path.write_text(HEADER + "cb,1000,,x1;x2\n")
    table = parse_transactions(path)
    assert len(table) == 1
    assert table.n_inputs.tolist() == [0]
    assert table.keys.size == 2
    want = TransactionTable.from_records([TransactionRecord("cb", 1000, (), ("x1", "x2"))])
    assert table.keys.tolist() == want.keys.tolist()


def test_empty_tokens_dropped(tmp_path):
    path = tmp_path / "tx.csv"
    path.write_text(HEADER + "t1,5,a;;b;,;c;\nt2,6,;,d\n")
    table = parse_transactions(path)
    want = TransactionTable.from_records([TransactionRecord("t1", 5, ("a", "b"), ("c",)),
                                          TransactionRecord("t2", 6, (), ("d",))])
    assert _columns(table) == _columns(want)
    assert table.n_inputs.tolist() == [2, 0]
    assert table.n_outputs.tolist() == [1, 1]


def test_line_endings_and_missing_final_newline(tmp_path):
    unix = tmp_path / "unix.csv"
    unix.write_text(HEADER + "t1,5,a,b\n\nt2,6,,c\n")
    for name, raw in (("crlf.csv", b"\r\n"), ("cr.csv", b"\r")):
        other = tmp_path / name
        other.write_bytes(unix.read_bytes().replace(b"\n", raw))
        assert _columns(parse_transactions(other)) == _columns(parse_transactions(unix))
    bare = tmp_path / "bare.csv"
    bare.write_text(HEADER + "t1,5,a,b\nt2,6,,c")
    assert _columns(parse_transactions(bare)) == _columns(parse_transactions(unix))


def test_header_only(tmp_path):
    path = tmp_path / "tx.csv"
    path.write_text(HEADER + "\n\n")
    table = parse_transactions(path)
    assert len(table) == 0
    assert partition_daily(table) == []


def test_missing_file():
    with pytest.raises(MissingFile):
        parse_transactions("/nonexistent/tx.csv")
    with pytest.raises(MissingFile):
        parse_prices("/nonexistent/prices.csv")


def test_bad_header(tmp_path):
    path = tmp_path / "tx.csv"
    path.write_text("wrong,header\n")
    with pytest.raises(MalformedRow) as err:
        parse_transactions(path)
    assert err.value.line == 1


def test_duplicate_tx_id_reports_both_lines(tmp_path):
    path = tmp_path / "tx.csv"
    path.write_text(
        "tx_id,timestamp,inputs,outputs\n"
        "t1,100,a;b,c\n"
        "t2,200,d,e\n"
        "t1,300,f,g\n"
    )
    with pytest.raises(DuplicateTxId) as err:
        parse_transactions(path)
    assert err.value.tx_id == "t1"
    assert err.value.first_line == 2
    assert err.value.second_line == 4


def test_malformed_row_line_number(tmp_path):
    path = tmp_path / "tx.csv"
    path.write_text("tx_id,timestamp,inputs,outputs\nt1,notanumber,a,b\n")
    with pytest.raises(MalformedRow) as err:
        parse_transactions(path)
    assert err.value.line == 2


def test_price_roundtrip(tmp_path):
    path = tmp_path / "prices.csv"
    entries = [
        (dt.date(2015, 1, 1), 100.0),
        (dt.date(2015, 1, 2), 101.5),
        (dt.date(2015, 1, 3), 99.25),
    ]
    write_prices(entries, path)
    series = parse_prices(path)
    assert series.dates == [d for d, _ in entries]
    assert [series.price_on(d) for d, _ in entries] == [c for _, c in entries]


def test_price_forward_fill(tmp_path):
    path = tmp_path / "prices.csv"
    path.write_text("date,close\n2015-01-01,100.0\n2015-01-04,200.0\n")
    series = parse_prices(path)
    # the gap carries the last known close forward, never interpolates
    assert series.price_on(dt.date(2015, 1, 2)) == 100.0
    assert series.price_on(dt.date(2015, 1, 3)) == 100.0
    assert series.price_on(dt.date(2015, 1, 4)) == 200.0
    assert series.price_on(dt.date(2014, 12, 31)) is None
    assert series.price_on(dt.date(2015, 1, 5)) is None


def test_price_unsorted_input_is_sorted():
    series = PriceSeries.from_entries(
        [(dt.date(2015, 1, 3), 3.0), (dt.date(2015, 1, 1), 1.0)]
    )
    assert series.first_date == dt.date(2015, 1, 1)
    assert series.last_date == dt.date(2015, 1, 3)


def test_price_series_needs_an_entry():
    with pytest.raises(EmptyInput):
        PriceSeries.from_entries([])


@given(entries=price_entries())
@settings(max_examples=100, deadline=None)
def test_price_series_positions(entries):
    series = PriceSeries.from_entries(entries)
    first, last = entries[0][0], entries[-1][0]
    assert series.dates == [first + dt.timedelta(days=i)
                            for i in range((last - first).days + 1)]
    assert (series.first_date, series.last_date) == (first, last)
    for i in range(-3, len(series) + 3):
        date = first + dt.timedelta(days=i)
        assert series.price_on(date) == latest_close(entries, date)


def test_non_positive_price(tmp_path):
    path = tmp_path / "prices.csv"
    path.write_text("date,close\n2015-01-01,0.0\n")
    with pytest.raises(NonPositivePrice):
        parse_prices(path)
    # closes that are not finite numbers are malformed rows
    for close in ("nan", "inf", "-inf", "NaN"):
        path.write_text(f"date,close\n2015-01-01,100.0\n2015-01-02,{close}\n")
        with pytest.raises(MalformedRow) as err:
            parse_prices(path)
        assert str(err.value) == f"line 3: bad close '{close}'"


def test_unparseable_date(tmp_path):
    path = tmp_path / "prices.csv"
    path.write_text("date,close\n01/02/2015,100.0\n")
    with pytest.raises(UnparseableDate) as err:
        parse_prices(path)
    assert err.value.line == 2


def test_duplicate_price_date(tmp_path):
    path = tmp_path / "prices.csv"
    path.write_text("date,close\n2015-01-01,100.0\n2015-01-01,101.0\n")
    with pytest.raises(MalformedRow):
        parse_prices(path)


def test_day_boundary():
    assert day_of(86399) == dt.date(1970, 1, 1)
    assert day_of(86400) == dt.date(1970, 1, 2)


@pytest.mark.parametrize("stamp, date", [
    (-62135596800, dt.date(1, 1, 1)),
    (253402300799, dt.date(9999, 12, 31)),
])
def test_first_and_last_representable_second(tmp_path, stamp, date):
    path = tmp_path / "tx.csv"
    path.write_text(HEADER + f"t1,{stamp},a,b\n")
    [window] = partition_daily(parse_transactions(path))
    assert window.date == date


def test_partition_daily_keeps_gap_days():
    records = [
        TransactionRecord("t1", 0 * 86400 + 5, ("a",), ("b",)),
        TransactionRecord("t2", 2 * 86400 + 5, ("c",), ("d",)),
    ]
    windows = day_windows(records)
    assert [w.date for w in windows] == [
        dt.date(1970, 1, 1),
        dt.date(1970, 1, 2),
        dt.date(1970, 1, 3),
    ]
    assert [w.rows.tolist() for w in windows] == [[0], [], [1]]


def test_partition_daily_groups_within_day():
    windows = day_windows(toy_records())
    assert len(windows) == 1
    assert windows[0].rows.tolist() == [0, 1, 2, 3]


def test_partition_daily_out_of_order_and_pre_epoch():
    stamps = [3 * 86400, -1, 86400 * 3 + 7, -86400, -86401, 0, 86399]
    records = [TransactionRecord(f"t{i}", ts, ("a",), ("b",))
               for i, ts in enumerate(stamps)]
    windows = day_windows(records)
    assert windows[0].date == dt.date(1969, 12, 30)
    assert [w.date for w in windows] == [
        dt.date(1969, 12, 30) + dt.timedelta(days=i) for i in range(6)]
    # rows of a day keep file order
    assert [w.rows.tolist() for w in windows] == [
        [4], [1, 3], [5, 6], [], [], [0, 2]]
    for w in windows:
        assert all(day_of(stamps[r]) == w.date for r in w.rows)


# --- parse errors: the first bad line in file order, as a line-by-line
# reader would report it ---------------------------------------------------

GOOD = "t1,100,a;b,c\nt2,200,,d\n"


@pytest.mark.parametrize("row, error, message", [
    ("t9,300,a", MalformedRow, "line 6: expected 4 fields, got 3"),
    ("t9,300,a,b,c", MalformedRow, "line 6: expected 4 fields, got 5"),
    ("   ", MalformedRow, "line 6: expected 4 fields, got 1"),
    (",300,a,b", MalformedRow, "line 6: empty tx_id"),
    ("t1,300,a,b", DuplicateTxId, "duplicate tx_id 't1' on lines 2 and 6"),
    ("t9,3x0,a,b", MalformedRow, "line 6: bad timestamp '3x0'"),
    ("t9,,a,b", MalformedRow, "line 6: bad timestamp ''"),
    # int() takes these, the -?[0-9]+ grammar does not
    ("t9, 10,a,b", MalformedRow, "line 6: bad timestamp ' 10'"),
    ("t9,+20,a,b", MalformedRow, "line 6: bad timestamp '+20'"),
    ("t9,1_000,a,b", MalformedRow, "line 6: bad timestamp '1_000'"),
    ("t9,-,a,b", MalformedRow, "line 6: bad timestamp '-'"),
    # past year 9999, and past int64
    ("t9,1000000000000000,a,b", MalformedRow,
     "line 6: timestamp '1000000000000000' out of range"),
    ("t9,99999999999999999999,a,b", MalformedRow,
     "line 6: timestamp '99999999999999999999' out of range"),
    ("t9,-62135596801,a,b", MalformedRow,
     "line 6: timestamp '-62135596801' out of range"),
    ("t9,300,a,", MalformedRow, "line 6: transaction has no outputs"),
    ("t9,300,a,;;", MalformedRow, "line 6: transaction has no outputs"),
])
def test_parse_error_at_its_line(tmp_path, row, error, message):
    # lines: 1 header, 2-3 good, 4-5 blank, 6 the bad row, 7 good
    path = tmp_path / "tx.csv"
    path.write_text(HEADER + GOOD + "\n\n" + row + "\nt3,400,e,f\n")
    with pytest.raises(error) as err:
        parse_transactions(path)
    assert str(err.value) == message


def test_zero_padded_timestamp_past_int_digit_limit(tmp_path):
    # int() refuses strings of more than 4300 digits; leading zeros are
    # still -?[0-9]+, so the row parses, and a later bad row is the error
    path = tmp_path / "tx.csv"
    path.write_text(HEADER + "t1,-" + "0" * 5000 + "5,a,b\n")
    assert parse_transactions(path).timestamps.tolist() == [-5]
    path.write_text(HEADER + "t1," + "0" * 5000 + "5,a,b\nt2,1,a\n")
    with pytest.raises(MalformedRow) as err:
        parse_transactions(path)
    assert str(err.value) == "line 3: expected 4 fields, got 3"
    stamp = "0" * 5000 + "1" + "0" * 18
    path.write_text(HEADER + f"t1,{stamp},a,b\n")
    with pytest.raises(MalformedRow) as err:
        parse_transactions(path)
    assert str(err.value) == f"line 2: timestamp '{stamp}' out of range"


@pytest.mark.parametrize("first, second, message", [
    ("t9,x,a,b", "t8,1,a", "line 4: bad timestamp 'x'"),
    ("t8,1,a", "t9,x,a,b", "line 4: expected 4 fields, got 3"),
    ("t9,1,a,", "t1,1,a,b", "line 4: transaction has no outputs"),
    ("t2,1,a,b", ",1,a,b", "duplicate tx_id 't2' on lines 3 and 4"),
])
def test_first_bad_line_wins(tmp_path, first, second, message):
    path = tmp_path / "tx.csv"
    path.write_text(HEADER + GOOD + first + "\nt5,1,a,b\n" + second + "\n")
    with pytest.raises((MalformedRow, DuplicateTxId)) as err:
        parse_transactions(path)
    assert str(err.value) == message


def test_duplicate_checked_before_timestamp(tmp_path):
    path = tmp_path / "tx.csv"
    path.write_text(HEADER + GOOD + "t2,bad,a,\n")
    with pytest.raises(DuplicateTxId) as err:
        parse_transactions(path)
    assert (err.value.first_line, err.value.second_line) == (3, 4)


@pytest.mark.parametrize("stamp", [10**15, 10**20, -62135596801])
def test_from_records_bounds_timestamps(stamp):
    # the same bound as parsing, so a table built in code cannot overflow
    # the date arithmetic of partition_daily
    records = [TransactionRecord("t1", DAY0_TS, ("a",), ("b",)),
               TransactionRecord("t2", stamp, (), ("a",))]
    with pytest.raises(MalformedRow) as err:
        partition_daily(TransactionTable.from_records(records))
    assert str(err.value) == f"line 3: timestamp '{stamp}' out of range"


def _outcome(build) -> tuple:
    """The columns of the table ``build()`` returns, or its error."""
    try:
        return _columns(build())
    except (MalformedRow, DuplicateTxId) as err:
        return type(err), str(err)


@pytest.mark.parametrize("records, outcome", [
    # a token holding ";" is two addresses
    ([TransactionRecord("t1", 5, ("a;b",), ("c",))], ([5], [2], [1])),
    # an empty token is dropped
    ([TransactionRecord("t1", 5, ("", "a"), ("c", ""))], ([5], [1], [1])),
    ([TransactionRecord("t1", 5, ("a",), ("b",)), TransactionRecord("t1", 6, (), ("c",))],
     (DuplicateTxId, "duplicate tx_id 't1' on lines 2 and 3")),
    ([TransactionRecord("t1", 5, ("a",), ())],
     (MalformedRow, "line 2: transaction has no outputs")),
])
def test_from_records_is_the_parse_of_its_file(tmp_path, records, outcome):
    path = tmp_path / "tx.csv"
    write_transactions(records, path)
    got = _outcome(lambda: TransactionTable.from_records(records))
    assert got == _outcome(lambda: parse_transactions(path))
    assert got[:len(outcome)] == outcome


def _big_file(path, n: int, bad: dict[int, str]) -> None:
    # rows long enough that the file spans several read chunks; a blank
    # line after every 1000th row shifts line numbers off the row count
    with path.open("w", encoding="utf-8") as fh:
        fh.write(HEADER)
        for i in range(n):
            fh.write(bad.get(i, f"tx{i:09d},{1_420_000_000 + i},"
                                f"in{i:012d};in{i + 1:012d},out{i:012d}\n"))
            if i % 1000 == 999:
                fh.write("\n")


@pytest.mark.parametrize("bad, error, message", [
    # row i sits on line 2 + i + i // 1000
    ({140_001: "tx000140000,1,a,b\n"}, DuplicateTxId,
     "duplicate tx_id 'tx000140000' on lines 140142 and 140143"),
    ({140_000: "tx000000007,1,a,b\n"}, DuplicateTxId,
     "duplicate tx_id 'tx000000007' on lines 9 and 140142"),
    ({140_000: "y,1.5,a,b\n"}, MalformedRow, "line 140142: bad timestamp '1.5'"),
    ({149_999: "y,1,a\n"}, MalformedRow, "line 150150: expected 4 fields, got 3"),
    ({140_000: "y,253402300800,a,b\n"}, MalformedRow,
     "line 140142: timestamp '253402300800' out of range"),
])
def test_bad_row_past_first_chunk(tmp_path, bad, error, message):
    path = tmp_path / "tx.csv"
    _big_file(path, 150_000, bad)
    assert path.stat().st_size > 2 * ingest._CHUNK_BYTES
    with pytest.raises(error) as err:
        parse_transactions(path)
    assert str(err.value) == message


def test_big_file_parses_across_chunks(tmp_path):
    path = tmp_path / "tx.csv"
    _big_file(path, 150_000, {})
    assert path.stat().st_size > 2 * ingest._CHUNK_BYTES
    table = parse_transactions(path)
    assert len(table) == 150_000
    assert (table.timestamps == 1_420_000_000 + np.arange(150_000)).all()
    assert (table.n_inputs == 2).all() and (table.n_outputs == 1).all()
    # row i spends in{i} and in{i + 1}, so rows i and i + 1 share one key
    # across every chunk boundary, and no other token does
    input_keys = table.keys.reshape(-1, 3)[:, :2].ravel()
    assert (input_keys[1:-1:2] == input_keys[2::2]).all()
    assert np.unique(input_keys).size == 150_001
    assert np.unique(table.keys).size == 300_001


# a fresh process's minor faults over one parse of argv[1], after
# kernels.keep_heap() when argv[2] is "keep"
_PARSE_FAULTS = """\
import resource, sys
from txpattern import kernels
from txpattern.ingest import parse_transactions
if sys.argv[2] == "keep":
    kernels.keep_heap()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
parse_transactions(sys.argv[1])
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_a_kept_heap_halves_a_fresh_parse_s_minor_faults(tmp_path):
    # with glibc's dynamic thresholds every chunk hands its freed
    # temporaries back to the kernel, and the next chunk faults them in
    if kernels._malloc() is None:
        pytest.skip("the C library has no mallopt")
    path = tmp_path / "tx.csv"
    _big_file(path, 150_000, {})
    assert path.stat().st_size > 16 * ingest._CHUNK_BYTES
    src = str(Path(ingest.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    faults = {mode: int(subprocess.run(
        [sys.executable, "-c", _PARSE_FAULTS, str(path), mode], env=env, check=True,
        capture_output=True, text=True).stdout) for mode in ("keep", "default")}
    assert faults["keep"] <= faults["default"] / 2, faults


def _mixed_file(path, n: int, n_addresses: int = 60) -> list[TransactionRecord]:
    # \r\n endings, a blank line after every 7th row, a coinbase every 5th
    # row and empty tokens every 3rd; the records are what it holds
    rng = np.random.default_rng(3)

    def draw():
        size = int(rng.integers(1, 4))
        return tuple(f"a{a}" for a in rng.integers(0, n_addresses, size=size))

    records, lines = [], []
    for i in range(n):
        inputs = () if i % 5 == 0 else draw()
        outputs = draw()
        records.append(TransactionRecord(f"t{i}", DAY0_TS + i, inputs, outputs))
        sep = ";;" if i % 3 == 0 else ";"
        lines.append(f"t{i},{DAY0_TS + i},{sep.join(inputs)},;{sep.join(outputs)}\r\n"
                     + ("\r\n" if i % 7 == 6 else ""))
    path.write_bytes((HEADER.replace("\n", "\r\n") + "".join(lines)).encode())
    return records


@pytest.mark.parametrize("chunk_bytes", [64, 4096, ingest._CHUNK_BYTES])
def test_chunk_size_and_threads_leave_the_table_alone(tmp_path, monkeypatch, chunk_bytes):
    # more threads than cores, switching often: a chunk parsed twice or
    # never, or written to another's slice, shows in the columns.  Then
    # under an 8-bit hash, where 30 addresses share fewer keys and 400 tx
    # ids share keys: each chunk is still parsed once, no line is read, as
    # the ids are told apart by their bytes, and the day's graph tells the
    # addresses apart
    path, path_8 = tmp_path / "tx.csv", tmp_path / "tx8.csv"
    records = _mixed_file(path, 400)
    records_8 = _mixed_file(path_8, 400, n_addresses=30)
    want = _columns(TransactionTable.from_records(records))
    with monkeypatch.context() as patch:
        hash_8_bits(patch)
        want_8 = _columns(TransactionTable.from_records(records_8))
    assert len(set(want_8[3])) < 30
    monkeypatch.setattr(ingest, "_CHUNK_BYTES", chunk_bytes)
    assert path.stat().st_size > 2 * 4096
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for threads in (1, 2, 8):
            monkeypatch.setattr(kernels, "CPUS", threads)
            assert _columns(parse_transactions(path)) == want
        hash_8_bits(monkeypatch)
        checks = count_check_lines(monkeypatch)
        ended = _chunk_spy(monkeypatch, lambda chunk, call: call())
        for threads in (1, 2, 8):
            monkeypatch.setattr(kernels, "CPUS", threads)
            checks.clear()
            ended.clear()
            table = parse_transactions(path_8)
            assert _columns(table) == want_8
            assert len(checks) == 0
            assert _each_chunk_once(ended, path_8)
            assert_matches_reference(partition_daily(table), records_8)
    finally:
        sys.setswitchinterval(interval)


def _hashed_keys(names: list[bytes]) -> np.ndarray:
    buf = ingest._padded(b";".join(names))
    ends = np.cumsum([len(name) + 1 for name in names]) - 1
    return ingest._hash(buf, ends - [len(name) for name in names], ends)


def _each_chunk_once(ended: list, path: Path) -> bool:
    """Whether the chunks that :func:`_chunk_spy` saw end, put in file
    order, are the file's lines after its header, each parsed once; the
    last chunk may end in the newline that pads the file."""
    lines = path.read_bytes()[len(HEADER):]
    chunks = b"".join(sorted((chunk for chunk, _ in ended), key=(lines + b"\n").index))
    return chunks in (lines, lines + b"\n")


@pytest.mark.parametrize("far_apart", [False, True], ids=["one-chunk", "two-chunks"])
def test_keys_exact_when_8_bit_keys_collide_within_or_across_chunks(
        tmp_path, monkeypatch, far_apart):
    # x and y share an 8-bit key and no other two addresses do; they sit
    # on one line, or on the first and last lines of 64-byte chunks.  Each
    # chunk is parsed once, and the day's graph gives x and y two ids
    names = [f"addr{i}" for i in range(40)]
    low = ((_hashed_keys([name.encode() for name in names]) >> 56) & 0xFF).tolist()
    x, y = next((a, b) for i, a in enumerate(names) for j, b in enumerate(names)
                if i < j and low[i] == low[j])
    others = [a for a, key in zip(names, low) if low.count(key) == 1][:8]
    rows = [(x, others[0]), *zip(others[1:], others[2:]), (others[0], y)]
    if not far_apart:
        rows[0], rows[-1] = (x, y), (others[0], others[1])
    path = tmp_path / "tx.csv"
    records = [TransactionRecord(f"t{i}", DAY0_TS + i, (a,), (b,))
               for i, (a, b) in enumerate(rows)]
    write_transactions(records, path)

    hash_8_bits(monkeypatch)
    ended = _chunk_spy(monkeypatch, lambda chunk, call: call())
    monkeypatch.setattr(ingest, "_CHUNK_BYTES", 64)
    table = parse_transactions(path)
    assert _each_chunk_once(ended, path)
    tokens = [a for row in rows for a in row]
    assert table.keys[tokens.index(x)] == table.keys[tokens.index(y)]
    assert_matches_reference(partition_daily(table), records)


@pytest.mark.parametrize("n_chunks", [1, 2, 3, 7])
def test_keys_on_the_range_edges_are_checked_across_chunks(tmp_path, monkeypatch, n_chunks):
    # address e{j} takes the j-th of the lowest key, each edge of n equal
    # ranges of keys and the highest key, and every row, one per chunk and
    # all on one day, holds all of them.  Then x and y, on the first and
    # last rows, take one of those keys in place of its address: the parse
    # reads no line, and the day's graph gives x and y two ids
    edges = [-1 << 63, *((i << 64) // n_chunks - (1 << 63) for i in range(1, n_chunks)),
             (1 << 63) - 1]
    names = [f"e{j}" for j in range(len(edges))]
    key_of = dict(zip(names, edges))

    def parse(*pair):
        rows = [[name for name in names if key_of[name] != key_of.get("x")]
                for _ in range(n_chunks)]
        if pair:
            rows[0].append(pair[0])
            rows[-1].append(pair[1])
        path = tmp_path / "tx.csv"
        records = [TransactionRecord(f"t{i}", DAY0_TS + i, tuple(row), (f"o{i}",))
                   for i, row in enumerate(rows)]
        write_transactions(records, path)
        with monkeypatch.context() as patch:
            hash_by_name(patch, key_of)
            patch.setattr(ingest, "_CHUNK_BYTES", 1)     # one row per chunk
            ended = _chunk_spy(patch, lambda chunk, call: call())
            checks = count_check_lines(patch)
            table = parse_transactions(path)
            assert checks == []
            assert len(ended) == n_chunks and _each_chunk_once(ended, path)
            assert_matches_reference(partition_daily(table), records)
        return table.keys

    keys = parse()
    assert keys.reshape(n_chunks, -1)[:, :-1].tolist() == [edges] * n_chunks
    for key in edges:
        key_of["x"] = key_of["y"] = key
        keys = parse("x", "y")
        assert (keys == key).sum() == 2


def _colliding_pairs(n: int) -> list[tuple[bytes, bytes]]:
    """``n`` pairs of different 16-byte addresses a = a1 a2 and b = b1 b2
    (little-endian words) that share a key under the real hash: with
    b2 = a2 ^ mix(h0 ^ a1) ^ mix(h0 ^ b1), both reach the same state after
    their second word.  b1 is drawn again while b2 holds a separator."""
    rng = np.random.default_rng(28)
    letters = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz0123456789", dtype=np.uint8)

    def draw() -> bytes:
        return rng.choice(letters, 8).tobytes()

    def mixed(word: bytes) -> int:
        h = np.array([ingest._FNV_BASIS ^ int.from_bytes(word, "little")], dtype=np.uint64)
        return int(ingest._mix(h)[0])

    pairs = []
    for _ in range(n):
        a1, a2 = draw(), draw()
        b2 = b","
        while set(b2) & set(b",;\r\n"):
            b1 = draw()
            b2 = (int.from_bytes(a2, "little") ^ mixed(a1) ^ mixed(b1)).to_bytes(8, "little")
        pairs.append((a1 + a2, b1 + b2))
    return pairs


def _spending_days(path: Path, days: list[list[bytes]]) -> None:
    """Write the file whose d-th day holds one row per address of
    ``days[d]``: row i spends that address and pays o{i} and p."""
    rows = [(d, address) for d, spent in enumerate(days) for address in spent]
    path.write_bytes(HEADER.encode() + b"".join(
        b"t%d,%d,%s,o%d;p\n" % (i, DAY0_TS + 86400 * d + i, address, i)
        for i, (d, address) in enumerate(rows)))


def _assert_each_spent_address_is_a_node(windows, days: list[list[bytes]]) -> None:
    """The graph of each window, and of all of them as one chunk, has a
    node for each address a day spends, each o{i} and each day's p, and
    each spent address has one spender: two addresses of a day that shared
    a node would have two."""
    for chunk, spent in [([w], [day]) for w, day in zip(windows, days)] + [(windows, days)]:
        graph = build_graph(*chunk)
        n_spent = sum(map(len, spent))
        assert graph.n_addresses == 2 * n_spent + len(spent)
        spenders = np.bincount(np.diff(graph.spend_indptr), minlength=2)
        assert spenders.tolist() == [n_spent + len(spent), n_spent]


@pytest.mark.parametrize("chunk_bytes", [64, ingest._CHUNK_BYTES])
def test_addresses_sharing_a_key_of_the_real_hash_are_keyed_once(
        tmp_path, monkeypatch, chunk_bytes):
    # three crafted pairs collide under the unpatched hash; row i spends
    # a_i and row 3 + i spends b_i, so at 64 bytes the pairs span chunks.
    # Each chunk is parsed once, no line is read, and the day's graph gives
    # each pair two ids
    pairs = _colliding_pairs(3)
    for a, b in pairs:
        assert a != b and len(set(_hashed_keys([a, b]).tolist())) == 1
    spent = [a for a, _ in pairs] + [b for _, b in pairs]
    path = tmp_path / "tx.csv"
    _spending_days(path, [spent])
    monkeypatch.setattr(ingest, "_CHUNK_BYTES", chunk_bytes)
    checks = count_check_lines(monkeypatch)
    ended = _chunk_spy(monkeypatch, lambda chunk, call: call())
    table = parse_transactions(path)
    assert checks == []
    assert _each_chunk_once(ended, path)
    keys = table.keys.reshape(-1, 3)
    assert (keys[:, 2] == keys[0, 2]).all()               # every row pays p
    assert (keys[:3, 0] == keys[3:, 0]).all()             # each pair shares a key
    _assert_each_spent_address_is_a_node(partition_daily(table), [spent])


@pytest.mark.parametrize("across_days", [False, True], ids=["one-day", "across-days"])
@pytest.mark.parametrize("n_pairs", [1, 5, 1000])
def test_crafted_pairs_get_two_ids_on_a_shared_day(tmp_path, monkeypatch, n_pairs, across_days):
    # a_i and b_i share a key under the unpatched hash.  One day spends
    # every a_i and b_i; across days, a day that spends only the a_i and
    # one that spends only the b_i come first.  No line is read
    pairs = _colliding_pairs(n_pairs)
    a, b = ([pair[j] for pair in pairs] for j in (0, 1))
    assert np.array_equal(_hashed_keys(a), _hashed_keys(b))
    days = [a, b, a + b] if across_days else [a + b]
    path = tmp_path / "tx.csv"
    _spending_days(path, days)
    checks = count_check_lines(monkeypatch)
    windows = partition_daily(parse_transactions(path))
    assert checks == []
    assert len(windows) == len(days)
    _assert_each_spent_address_is_a_node(windows, days)


@pytest.mark.parametrize("n_pairs", [1, 1000])
def test_tx_ids_sharing_a_key_of_the_real_hash_read_no_line(tmp_path, monkeypatch, n_pairs):
    # a_i and b_i, as tx ids, share a key under the unpatched hash, and
    # their rows lie on two days: no line is read, and each day's graph is
    # the reference's.  A repeat of a_0 after them is still named with
    # both its lines
    pairs = _colliding_pairs(n_pairs)
    ids = [pair[j] for j in (0, 1) for pair in pairs]
    assert np.array_equal(_hashed_keys(ids[:n_pairs]), _hashed_keys(ids[n_pairs:]))
    records = [TransactionRecord(f"t{i}", DAY0_TS + 86400 * (i % 2) + i,
                                 (f"a{i % 7}",), (f"a{i % 11}", "p"))
               for i in range(len(ids) + 1)]
    path = tmp_path / "tx.csv"
    lines = ingest._csv(records).splitlines(keepends=True)

    def write(ids):
        path.write_bytes(lines[0] + b"".join(
            tx_id + line[line.index(b","):] for tx_id, line in zip(ids, lines[1:])))

    write(ids)
    checks = count_check_lines(monkeypatch)
    windows = partition_daily(parse_transactions(path))
    assert checks == []
    assert len(windows) == 2
    assert_matches_reference(windows, records[:-1])
    write(ids + ids[:1])
    with pytest.raises(DuplicateTxId) as err:
        parse_transactions(path)
    assert str(err.value) == (
        f"duplicate tx_id '{ids[0].decode()}' on lines 2 and {len(ids) + 2}")


# Bytes a row that the parse allocates after its last chunk, while it
# finds the tx ids whose keys repeat: about 38 with 1000 pairs among 50k
# rows, where np.isin, which sorts the whole key column again, took 73
TAIL_BYTES_PER_ROW = 55


def test_repeated_tx_id_keys_are_found_in_memory_linear_in_rows(tmp_path, monkeypatch):
    # 1000 pairs of tx ids share keys under the unpatched hash, among 50k
    # rows; the peak is taken from the end of the last chunk
    pairs = _colliding_pairs(1000)
    ids = [pair[j] for j in (0, 1) for pair in pairs]
    ids += [b"x%d" % i for i in range(50_000 - len(ids))]
    path = tmp_path / "tx.csv"
    path.write_bytes(HEADER.encode() + b"".join(
        b"%s,%d,a%d,b%d\n" % (tx_id, DAY0_TS + i, i % 7, i % 11) for i, tx_id in enumerate(ids)))
    after_chunks = []

    def reset_peak(chunk, call):
        out = call()
        tracemalloc.reset_peak()
        after_chunks[:] = [tracemalloc.get_traced_memory()[0]]
        return out

    _chunk_spy(monkeypatch, reset_peak)
    tracemalloc.start()
    try:
        table = parse_transactions(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) == len(ids)
    assert peak - after_chunks[0] <= TAIL_BYTES_PER_ROW * len(ids)


def _chunk_spy(monkeypatch, wrap) -> list:
    """Patch ``_chunk_columns`` so that ``wrap(chunk, call)`` runs each
    chunk, where ``chunk`` is its bytes; return the list of (chunk, failed)
    in the order the chunks ended."""
    chunk_columns = ingest._chunk_columns
    ended = []

    def spy(buf, lo, hi, *columns):
        chunk = buf[lo:hi].tobytes()
        out = wrap(chunk, lambda: chunk_columns(buf, lo, hi, *columns))
        ended.append((chunk, out is None))
        return out

    monkeypatch.setattr(ingest, "_chunk_columns", spy)
    return ended


def test_first_bad_chunk_in_the_file_raises_though_a_later_one_fails_first(
        tmp_path, monkeypatch):
    # in 64-byte chunks, line 2 is bad in the first chunk and line 10 in
    # the third, and the first chunk waits until the third has failed
    path = tmp_path / "tx.csv"
    lines = [f"t{i:02d},{DAY0_TS + i},a{i:02d},b{i:02d}\n" for i in range(16)]
    lines[0], lines[8] = "t00,1,a,b,c,d,e,f,g,h\n", "t08,x,a08,b08,c08\n"
    path.write_text(HEADER + "".join(lines))
    third_done = threading.Event()

    def wrap(chunk, call):
        if chunk.startswith(b"t00,"):
            assert third_done.wait(10)
        out = call()
        if chunk.startswith(b"t06,"):
            third_done.set()
        return out

    monkeypatch.setattr(ingest, "_CHUNK_BYTES", 64)
    ended = _chunk_spy(monkeypatch, wrap)
    with pytest.raises(MalformedRow) as err:
        parse_transactions(path)
    assert str(err.value) == "line 2: expected 4 fields, got 10"
    failed = [chunk for chunk, bad in ended if bad]
    assert [chunk[:4] for chunk in failed] == [b"t06,", b"t00,"]
    assert b"\nt08," in failed[0]


def test_a_chunk_that_raises_raises_after_every_thread_ends(tmp_path, monkeypatch):
    # the second of 13 chunks raises while the other thread is busy, and
    # no thread starts a chunk after it
    path = tmp_path / "tx.csv"
    _big_file(path, 3_000, {})
    running = threading.active_count()

    def wrap(chunk, call):
        if b"\ntx000000300," in chunk:
            raise MemoryError("second chunk")
        time.sleep(0.2)
        return call()

    monkeypatch.setattr(ingest, "_CHUNK_BYTES", 16 << 10)
    ended = _chunk_spy(monkeypatch, wrap)
    with pytest.raises(MemoryError, match="second chunk"):
        parse_transactions(path)
    assert threading.active_count() == running
    assert len(ended) <= 2


def test_pipe_longer_than_its_first_read_parses_as_the_file(tmp_path):
    # a fifo has no size to start from, so the read buffer grows, and the
    # table keeps the file's padded bytes alone, as a regular file's does
    # with its one spare byte
    path, fifo = tmp_path / "tx.csv", tmp_path / "fifo"
    _big_file(path, 5_000, {})
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: fifo.write_bytes(path.read_bytes()),
                              daemon=True)
    writer.start()
    try:
        table = parse_transactions(fifo)
    finally:
        writer.join(10)
    assert not writer.is_alive()
    from_file = parse_transactions(path)
    assert _columns(table) == _columns(from_file)
    for got, spare in ((table, 0), (from_file, 1)):
        base = got.buf if got.buf.base is None else got.buf.base
        assert got.buf.nbytes == path.stat().st_size + 9
        assert base.nbytes == got.buf.nbytes + spare


# any bytes but the separators, multi-byte UTF-8 included
_TOKEN = st.text(st.characters(exclude_characters=",;\r\n",
                               exclude_categories=("Cs",)),
                 min_size=1, max_size=12)


@st.composite
def _records(draw):
    ids = draw(st.lists(_TOKEN, min_size=1, max_size=12, unique=True))
    pool = draw(st.lists(_TOKEN, min_size=1, max_size=20))
    address = st.sampled_from(pool)
    return [TransactionRecord(
        tx_id, draw(st.integers(ingest._FIRST_SECOND, ingest._LAST_SECOND)),
        tuple(draw(st.lists(address, max_size=4))),
        tuple(draw(st.lists(address, min_size=1, max_size=4))))
        for tx_id in ids]


@given(records=_records())
@settings(max_examples=100, deadline=None)
def test_written_file_parses_to_the_table_of_its_records(records):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tx.csv"
        write_transactions(records, path)
        assert _columns(parse_transactions(path)) == _columns(
            TransactionTable.from_records(records))
