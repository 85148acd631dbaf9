import datetime as dt

import numpy as np
import pytest

from txpattern.errors import (
    DuplicateTxId,
    MalformedRow,
    MissingFile,
    NonPositivePrice,
    UnparseableDate,
)
from txpattern import ingest
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

from conftest import DAY0_TS, day_windows, toy_records

HEADER = "tx_id,timestamp,inputs,outputs\n"


def _columns(table: TransactionTable) -> tuple:
    return (table.tx_ids, table.timestamps.tolist(), table.n_inputs.tolist(),
            table.n_outputs.tolist(), table.inputs.tolist(),
            table.outputs.tolist())


def test_transaction_roundtrip(tmp_path):
    path = tmp_path / "tx.csv"
    table = TransactionTable.from_records(toy_records() + [
        TransactionRecord("cb", DAY0_TS + 40, (), ("a9",)),
    ])
    write_transactions(table, path)
    back = parse_transactions(path)
    assert _columns(back) == _columns(table)
    assert back.timestamps.dtype == np.int64
    assert back.in_indptr.tolist() == [0, 2, 3, 5, 7, 7]


def test_coinbase_has_empty_inputs(tmp_path):
    path = tmp_path / "tx.csv"
    path.write_text(HEADER + "cb,1000,,x1;x2\n")
    table = parse_transactions(path)
    assert len(table) == 1
    assert table.n_inputs.tolist() == [0]
    assert table.inputs.tolist() == []
    assert table.outputs.tolist() == ["x1", "x2"]


def test_empty_tokens_dropped(tmp_path):
    path = tmp_path / "tx.csv"
    path.write_text(HEADER + "t1,5,a;;b;,;c;\nt2,6,;,d\n")
    table = parse_transactions(path)
    assert table.n_inputs.tolist() == [2, 0]
    assert table.n_outputs.tolist() == [1, 1]
    assert table.inputs.tolist() == ["a", "b"]
    assert table.outputs.tolist() == ["c", "d"]


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
    assert str(err.value) == f"line 2: timestamp {stamp} out of range"


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
    assert path.stat().st_size > 2 * ingest._CHUNK_CHARS
    with pytest.raises(error) as err:
        parse_transactions(path)
    assert str(err.value) == message


def test_big_file_parses_across_chunks(tmp_path):
    path = tmp_path / "tx.csv"
    _big_file(path, 150_000, {})
    assert path.stat().st_size > 2 * ingest._CHUNK_CHARS
    table = parse_transactions(path)
    assert len(table) == 150_000
    assert table.tx_ids[::49_999] == [f"tx{i:09d}" for i in range(0, 150_000, 49_999)]
    assert (table.timestamps == 1_420_000_000 + np.arange(150_000)).all()
    assert (table.n_inputs == 2).all() and (table.n_outputs == 1).all()
    assert table.inputs[-1] == "in000000150000"
    assert table.outputs[123_456] == "out000000123456"
