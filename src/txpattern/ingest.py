"""Parsing and daily partitioning of transaction and price files.

File formats:

* ``transactions.csv`` - header ``tx_id,timestamp,inputs,outputs``; the
  address lists are ``;``-separated (addresses contain no commas or
  semicolons by contract, so no quoting is involved).
* ``prices.csv`` - header ``date,close`` with ISO dates and decimal closes.

Timestamps are seconds since epoch, interpreted as UTC; day boundaries sit
at UTC midnight.  They must fall on a day ``datetime.date`` can hold, years
1 to 9999.

Transactions are held as one :class:`TransactionTable` of flat columns in
file order: ids, int64 timestamps, per-row input and output counts, and
the input and output address tokens of all rows laid end to end.  There is
no object per transaction.  A :class:`DayWindow` is a date plus the row
indices of the table that fall on it, so every day of a file shares the one
table.  Nothing is modified after parsing, so all of it is safe to share
across threads.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field
from functools import partial
from itertools import repeat
from operator import not_
from pathlib import Path
from typing import NoReturn

import numpy as np

from .errors import (
    DuplicateTxId,
    MalformedRow,
    MissingFile,
    NonPositivePrice,
    UnparseableDate,
)

_EPOCH = dt.date(1970, 1, 1)
SECONDS_PER_DAY = 86400
_FIRST_SECOND = (dt.date.min - _EPOCH).days * SECONDS_PER_DAY
_LAST_SECOND = ((dt.date.max - _EPOCH).days + 1) * SECONDS_PER_DAY - 1

TX_HEADER = "tx_id,timestamp,inputs,outputs"
PRICE_HEADER = "date,close"

# characters of the transactions file read per chunk
_CHUNK_CHARS = 1 << 20


def day_of(timestamp: int) -> dt.date:
    """UTC calendar day containing the given epoch timestamp."""
    return _EPOCH + dt.timedelta(days=int(timestamp) // SECONDS_PER_DAY)


@dataclass(frozen=True)
class TransactionRecord:
    """One transaction as a row, for building a table in code."""

    tx_id: str
    timestamp: int
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]


def _indptr(counts: np.ndarray) -> np.ndarray:
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr


class TransactionTable:
    """Transactions as columns.  Row ``i`` is ``tx_ids[i]`` at
    ``timestamps[i]``, with input addresses
    ``inputs[in_indptr[i]:in_indptr[i + 1]]`` (none for a coinbase) and
    output addresses ``outputs[out_indptr[i]:out_indptr[i + 1]]``.  The
    address columns are object arrays of ``str``."""

    def __init__(self, tx_ids: list[str], timestamps, n_inputs, n_outputs,
                 inputs: list[str], outputs: list[str]):
        self.tx_ids = tx_ids
        self.timestamps = np.asarray(timestamps, dtype=np.int64)
        self.n_inputs = np.asarray(n_inputs, dtype=np.int64)
        self.n_outputs = np.asarray(n_outputs, dtype=np.int64)
        self.in_indptr = _indptr(self.n_inputs)
        self.out_indptr = _indptr(self.n_outputs)
        self.inputs = np.array(inputs, dtype=object)
        self.outputs = np.array(outputs, dtype=object)

    @classmethod
    def from_records(cls, records: list[TransactionRecord]) -> "TransactionTable":
        """The table of the given rows, in order, tokens kept as given."""
        return cls(
            [r.tx_id for r in records],
            [r.timestamp for r in records],
            [len(r.inputs) for r in records],
            [len(r.outputs) for r in records],
            [a for r in records for a in r.inputs],
            [a for r in records for a in r.outputs],
        )

    def __len__(self) -> int:
        return len(self.tx_ids)


@dataclass(frozen=True, eq=False)
class DayWindow:
    """One UTC day: ``rows`` are the table rows on ``date``, in file order."""

    date: dt.date
    table: TransactionTable
    rows: np.ndarray


@dataclass
class PriceSeries:
    """Daily closing prices, forward-filled so the date range has no gaps."""

    dates: list[dt.date]
    closes: np.ndarray
    _index: dict[dt.date, int] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.closes = np.asarray(self.closes, dtype=np.float64)
        self._index = {d: i for i, d in enumerate(self.dates)}

    @classmethod
    def from_entries(cls, entries: list[tuple[dt.date, float]]) -> "PriceSeries":
        """Build a series from (date, close) pairs, forward-filling gaps."""
        entries = sorted(entries, key=lambda e: e[0])
        dates: list[dt.date] = []
        closes: list[float] = []
        for date, close in entries:
            if dates:
                day = dates[-1] + dt.timedelta(days=1)
                while day < date:
                    dates.append(day)
                    closes.append(closes[-1])
                    day += dt.timedelta(days=1)
            dates.append(date)
            closes.append(float(close))
        return cls(dates, np.array(closes, dtype=np.float64))

    def price_on(self, date: dt.date) -> float | None:
        i = self._index.get(date)
        return float(self.closes[i]) if i is not None else None

    @property
    def first_date(self) -> dt.date:
        return self.dates[0]

    @property
    def last_date(self) -> dt.date:
        return self.dates[-1]

    def __len__(self) -> int:
        return len(self.dates)


def _split_tokens(column: list[str]) -> tuple[np.ndarray, list[str]]:
    """Per-field token counts and the non-empty tokens of ``;``-separated
    fields, split in one pass over the joined column."""
    tokens = ";".join(column).split(";")
    counts = np.fromiter(map(str.count, column, repeat(";")), np.int64,
                         len(column)) + 1
    if "" in tokens:
        empty = np.fromiter(map(not_, tokens), bool, len(tokens))
        field_of = np.repeat(np.arange(len(column)), counts)
        counts -= np.bincount(field_of[empty], minlength=len(column))
        tokens = list(filter(None, tokens))
    return counts, tokens


class _Columns:
    """Columns accumulated chunk by chunk while parsing."""

    def __init__(self):
        self.tx_ids: list[str] = []
        self.timestamps: list[np.ndarray] = []
        self.n_inputs: list[np.ndarray] = []
        self.n_outputs: list[np.ndarray] = []
        self.inputs: list[str] = []
        self.outputs: list[str] = []
        self.seen: set[str] = set()

    def add(self, lines: list[str]) -> bool:
        """Append the rows of ``lines``, or return False when any line
        fails a check."""
        if "" in lines:
            lines = list(filter(None, lines))
        n = len(lines)
        if not n:
            return True
        if list(map(str.count, lines, repeat(","))).count(3) != n:
            return False
        fields = ",".join(lines).split(",")
        ids = fields[0::4]
        if "" in ids:
            return False
        size = len(self.seen)
        self.seen.update(ids)
        if len(self.seen) != size + n:
            return False
        try:
            stamps = np.fromiter(map(int, fields[1::4]), np.int64, n)
        except (ValueError, OverflowError):
            return False
        if stamps.min() < _FIRST_SECOND or stamps.max() > _LAST_SECOND:
            return False
        n_out, outputs = _split_tokens(fields[3::4])
        if not n_out.all():
            return False
        n_in, inputs = _split_tokens(fields[2::4])
        self.tx_ids += ids
        self.timestamps.append(stamps)
        self.n_inputs.append(n_in)
        self.n_outputs.append(n_out)
        self.inputs += inputs
        self.outputs += outputs
        return True

    def table(self) -> TransactionTable:
        def cat(parts):
            return np.concatenate(parts) if parts else np.empty(0, np.int64)

        return TransactionTable(self.tx_ids, cat(self.timestamps),
                                cat(self.n_inputs), cat(self.n_outputs),
                                self.inputs, self.outputs)


def parse_transactions(path: str | Path) -> TransactionTable:
    """Parse a transactions CSV into a validated table, in file order.

    Chunks of lines are split and checked as whole columns.  When a check
    fails the file is read again line by line, and the first bad line in
    file order raises."""
    path = Path(path)
    if not path.exists():
        raise MissingFile(str(path))
    columns = _Columns()
    with path.open("r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != TX_HEADER:
            raise MalformedRow(1, f"expected header {TX_HEADER!r}, got {header!r}")
        tail = ""
        for chunk in iter(partial(fh.read, _CHUNK_CHARS), ""):
            body, newline, tail = (tail + chunk).rpartition("\n")
            if newline and not columns.add(body.split("\n")):
                _raise_first_bad_line(path)
        if tail and not columns.add([tail]):
            _raise_first_bad_line(path)
    return columns.table()


def _raise_first_bad_line(path: Path) -> NoReturn:
    """Raise the error of the first line, in file order, that fails a
    check; the checks of one line run in a fixed order."""
    seen: dict[str, int] = {}
    with path.open("r", encoding="utf-8") as fh:
        fh.readline()
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise MalformedRow(lineno, f"expected 4 fields, got {len(parts)}")
            tx_id, ts_text, _, out_text = parts
            if not tx_id:
                raise MalformedRow(lineno, "empty tx_id")
            if tx_id in seen:
                raise DuplicateTxId(tx_id, seen[tx_id], lineno)
            try:
                stamp = int(ts_text)
            except ValueError:
                raise MalformedRow(lineno, f"bad timestamp {ts_text!r}") from None
            if not _FIRST_SECOND <= stamp <= _LAST_SECOND:
                raise MalformedRow(lineno, f"timestamp {ts_text!r} out of range")
            if not any(out_text.split(";")):
                raise MalformedRow(lineno, "transaction has no outputs")
            seen[tx_id] = lineno
    raise RuntimeError(f"{path}: a column check failed but no line is bad")


def write_transactions(table: TransactionTable, path: str | Path) -> None:
    inputs, outputs = table.inputs.tolist(), table.outputs.tolist()
    in_ptr, out_ptr = table.in_indptr.tolist(), table.out_indptr.tolist()
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(TX_HEADER + "\n")
        for i, (tx_id, ts) in enumerate(zip(table.tx_ids, table.timestamps.tolist())):
            fh.write(
                f"{tx_id},{ts},"
                f"{';'.join(inputs[in_ptr[i]:in_ptr[i + 1]])},"
                f"{';'.join(outputs[out_ptr[i]:out_ptr[i + 1]])}\n"
            )


def parse_prices(path: str | Path) -> PriceSeries:
    """Parse a prices CSV; gaps are forward-filled, never interpolated."""
    path = Path(path)
    if not path.exists():
        raise MissingFile(str(path))
    entries: list[tuple[dt.date, float]] = []
    seen_dates: dict[dt.date, int] = {}
    with path.open("r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != PRICE_HEADER:
            raise MalformedRow(1, f"expected header {PRICE_HEADER!r}, got {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise MalformedRow(lineno, f"expected 2 fields, got {len(parts)}")
            try:
                date = dt.date.fromisoformat(parts[0])
            except ValueError:
                raise UnparseableDate(lineno, parts[0]) from None
            try:
                close = float(parts[1])
            except ValueError:
                raise MalformedRow(lineno, f"bad close {parts[1]!r}") from None
            if close <= 0:
                raise NonPositivePrice(date)
            if date in seen_dates:
                raise MalformedRow(lineno, f"duplicate date {date.isoformat()}")
            seen_dates[date] = lineno
            entries.append((date, close))
    if not entries:
        raise MalformedRow(1, "price file has no data rows")
    return PriceSeries.from_entries(entries)


def write_prices(entries: list[tuple[dt.date, float]], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(PRICE_HEADER + "\n")
        for date, close in entries:
            fh.write(f"{date.isoformat()},{float(close)!r}\n")


def partition_daily(table: TransactionTable) -> list[DayWindow]:
    """Split the table into per-day windows (UTC), keeping empty gap days.

    A stable sort of the rows by day keeps file order within each day, and
    each window's rows are one range of that order."""
    if not len(table):
        return []
    days = table.timestamps // SECONDS_PER_DAY
    order = np.argsort(days, kind="stable")
    days = days[order]
    first_date = day_of(table.timestamps[order[0]])
    n_days = (day_of(table.timestamps[order[-1]]) - first_date).days + 1
    bounds = np.searchsorted(days, days[0] + np.arange(n_days + 1)).tolist()
    return [
        DayWindow(first_date + dt.timedelta(days=i), table, order[lo:hi])
        for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))
    ]
