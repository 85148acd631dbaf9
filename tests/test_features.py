import datetime as dt

import numpy as np
import pytest

from txpattern.backtest import DayTable
from txpattern.errors import PriceMissing, TooFewRows
from txpattern.features import (
    apply_scaler,
    day_feature_table,
    fit_scaler,
    write_feature_csv,
)
from txpattern.ingest import PriceSeries, TransactionRecord
from txpattern.korder import GRID_CELLS

from conftest import DAY0_TS, day_windows


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


def test_day_feature_table_threads_agree():
    windows = day_windows(_records_over_days(8))
    _, serial = day_feature_table(windows, 2, threads=1)
    _, parallel = day_feature_table(windows, 2, threads=4)
    assert np.array_equal(serial, parallel)


def test_empty_day_gives_zero_row():
    records = [
        TransactionRecord("t1", DAY0_TS, ("a", "b"), ("c",)),
        TransactionRecord("t2", DAY0_TS + 2 * 86400, ("d",), ("e",)),
    ]
    dates, table = day_feature_table(day_windows(records), 2)
    assert len(dates) == 3
    assert table[1].sum() == 0


def test_fit_scaler_population_moments():
    x = np.array([[1.0, 5.0], [3.0, 5.0]])
    scaler = fit_scaler(x)
    assert np.array_equal(scaler.mean, [2.0, 5.0])
    assert np.array_equal(scaler.std, [1.0, 0.0])


def test_apply_scaler_zero_variance_column():
    x = np.array([[1.0, 5.0], [3.0, 5.0]])
    scaled = apply_scaler(fit_scaler(x), x)
    assert np.array_equal(scaled, [[-1.0, 0.0], [1.0, 0.0]])


def test_apply_scaler_single_vector():
    x = np.array([[0.0, 0.0], [2.0, 4.0]])
    scaler = fit_scaler(x)
    out = apply_scaler(scaler, np.array([1.0, 2.0]))
    assert out.shape == (2,)
    assert np.array_equal(out, [0.0, 0.0])


def test_fit_scaler_too_few_rows():
    with pytest.raises(TooFewRows):
        fit_scaler(np.ones((1, 4)))


def test_build_dataset_targets():
    records = _records_over_days(5)
    windows = day_windows(records)
    first = windows[0].date
    prices = _prices_over_days(first, 5)
    table = DayTable(windows, prices, max_order=1, threads=None)
    assert np.array_equal(table.base, [100.0, 101.0, 102.0, 103.0, 104.0])
    rows, targets = table.targets(1, prices.last_date)
    # price rises 1.0/day, so every diff is exactly 1.0; the last day has no
    # close beyond it and gets no row
    assert rows == [0, 1, 2, 3]
    assert np.array_equal(targets, np.ones(4))
    # a backtest cuts at its last training day: no target date past it
    rows, _ = table.targets(2, first + dt.timedelta(days=3))
    assert rows == [0, 1]


def test_build_dataset_missing_base_price():
    windows = day_windows(_records_over_days(5))
    first = windows[0].date
    short = _prices_over_days(first, 3)
    with pytest.raises(PriceMissing):
        DayTable(windows, short, max_order=1, threads=None)


def test_feature_csv_header(tmp_path):
    windows = day_windows(_records_over_days(2))
    dates, table = day_feature_table(windows, 1)
    path = tmp_path / "f.csv"
    write_feature_csv(dates, table, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "date," + ",".join(f"f_{i}" for i in range(GRID_CELLS))
    assert lines[1].startswith(dates[0].isoformat() + ",")
    assert len(lines) == 3
