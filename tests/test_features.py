import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from txpattern.backtest import DayTable
from txpattern.errors import BadSpec, PriceMissing
from txpattern.features import day_feature_table, write_feature_csv
from txpattern.ingest import DayWindow, PriceSeries, TransactionRecord, TransactionTable
from txpattern.korder import GRID_CELLS

from conftest import DAY0_TS, day_windows, latest_close, price_entries


def _records_over_days(n_days: int, per_day: int = 3) -> list[TransactionRecord]:
    records = []
    counter = 0
    for d in range(n_days):
        for i in range(per_day):
            counter += 1
            records.append(TransactionRecord(
                f"t{counter}", DAY0_TS + d * 86400 + i,
                (f"in{counter}a", f"in{counter}b"), (f"out{counter}",),
            ))
    return records


def _prices_over_days(first: dt.date, n_days: int, start: float = 100.0) -> PriceSeries:
    return PriceSeries.from_entries(
        [(first + dt.timedelta(days=i), start + i) for i in range(n_days)]
    )


def test_day_feature_table_shape_and_order():
    windows = day_windows(_records_over_days(5))
    dates, table = day_feature_table(windows, max_order=2)
    assert len(dates) == 5
    assert dates == sorted(dates)
    assert table.shape == (5, 2 * GRID_CELLS)
    # every synthetic tx has 2 inputs, 1 output, never respent: cell (2,1)
    assert (table[:, (2 - 1) * 20 + 0] == 3).all()


def test_day_feature_table_repeated_runs_agree():
    windows = day_windows(_records_over_days(8))
    _, first = day_feature_table(windows, 2)
    _, second = day_feature_table(windows, 2)
    assert np.array_equal(first, second)


def test_empty_day_gives_zero_row():
    records = [
        TransactionRecord("t1", DAY0_TS, ("a", "b"), ("c",)),
        TransactionRecord("t2", DAY0_TS + 2 * 86400, ("d",), ("e",)),
    ]
    dates, table = day_feature_table(day_windows(records), 2)
    assert len(dates) == 3
    assert table[1].sum() == 0


def test_build_dataset_targets():
    records = _records_over_days(5)
    windows = day_windows(records)
    first = windows[0].date
    prices = _prices_over_days(first, 5)
    table = DayTable(windows, prices, max_order=1)
    assert np.array_equal(table.base, [100.0, 101.0, 102.0, 103.0, 104.0])
    n, targets = table.targets(1, prices.last_date)
    # price rises 1.0/day, so every diff is exactly 1.0; the last day has no
    # close beyond it and gets no row
    assert n == 4
    assert np.array_equal(targets, np.ones(4))
    # a backtest cuts at its last training day: no target date past it
    n, _ = table.targets(2, first + dt.timedelta(days=3))
    assert n == 2
    # a cut past the last close stops at the last close
    n, _ = table.targets(1, prices.last_date + dt.timedelta(days=9))
    assert n == 4


def test_day_table_rejects_a_missing_day():
    windows = day_windows(_records_over_days(5))
    prices = _prices_over_days(windows[0].date, 5)
    with pytest.raises(BadSpec, match="consecutive"):
        DayTable(windows[:2] + windows[3:], prices, max_order=1)


def test_build_dataset_missing_base_price():
    windows = day_windows(_records_over_days(5))
    first = windows[0].date
    short = _prices_over_days(first, 3)
    with pytest.raises(PriceMissing):
        DayTable(windows, short, max_order=1)


def _empty_windows(first: dt.date, n_days: int) -> list[DayWindow]:
    table = TransactionTable.from_records([])
    return [DayWindow(first + dt.timedelta(days=i), table, np.arange(0))
            for i in range(n_days)]


def _reference_targets(entries, dates, offset, cut):
    """Targets found one date at a time: rows whose target date is on or
    before both ``cut`` and the last close."""
    step = dt.timedelta(days=offset)
    last = min(cut, entries[-1][0])
    rows = [d for d in dates if d + step <= last]
    return len(rows), [latest_close(entries, d + step) - latest_close(entries, d)
                       for d in rows]


@given(entries=price_entries(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_day_table_targets_match_reference(entries, data):
    first, last = entries[0][0], entries[-1][0]
    span = (last - first).days
    lo = data.draw(st.integers(0, span))
    hi = data.draw(st.integers(lo, span))
    windows = _empty_windows(first + dt.timedelta(days=lo), hi - lo + 1)
    table = DayTable(windows, PriceSeries.from_entries(entries), max_order=1)
    dates = [w.date for w in windows]
    assert table.base.tolist() == [latest_close(entries, d) for d in dates]
    offset = data.draw(st.integers(1, 10))
    cut = first + dt.timedelta(days=data.draw(st.integers(-5, span + 15)))
    n, targets = table.targets(offset, cut)
    assert (n, targets.tolist()) == _reference_targets(entries, dates, offset, cut)


@given(entries=price_entries(), data=st.data(),
       where=st.sampled_from(["before", "straddle", "after"]))
@settings(max_examples=100, deadline=None)
def test_day_table_first_missing_price(entries, data, where):
    first, last = entries[0][0], entries[-1][0]
    span = (last - first).days
    if where == "before":
        lo = data.draw(st.integers(-10, -1))
        hi = data.draw(st.integers(lo, span + 5))
    elif where == "straddle":
        lo = data.draw(st.integers(0, span))
        hi = data.draw(st.integers(span + 1, span + 10))
    else:
        lo = data.draw(st.integers(span + 1, span + 10))
        hi = data.draw(st.integers(lo, lo + 10))
    windows = _empty_windows(first + dt.timedelta(days=lo), hi - lo + 1)
    # the first row, in window order, with no close
    missing = next(w.date for w in windows if latest_close(entries, w.date) is None)
    with pytest.raises(PriceMissing) as exc:
        DayTable(windows, PriceSeries.from_entries(entries), max_order=1)
    assert exc.value.date == missing


def test_feature_csv_header(tmp_path):
    windows = day_windows(_records_over_days(2))
    dates, table = day_feature_table(windows, 1)
    path = tmp_path / "f.csv"
    write_feature_csv(dates, table, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "date," + ",".join(f"f_{i}" for i in range(GRID_CELLS))
    assert lines[1].startswith(dates[0].isoformat() + ",")
    assert len(lines) == 3
