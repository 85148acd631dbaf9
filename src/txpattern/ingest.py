"""Parsing and daily partitioning of transaction and price files.

File formats:

* ``transactions.csv`` - header ``tx_id,timestamp,inputs,outputs``; the
  address lists are ``;``-separated (addresses contain no commas or
  semicolons by contract, so no quoting is involved).  Ids and addresses
  are opaque byte strings: they are compared byte for byte and never
  decoded, so any bytes but ``,``, ``;``, ``\\r`` and ``\\n`` may appear
  in them.  A timestamp is ``-?[0-9]+`` and nothing else.
* ``prices.csv`` - header ``date,close`` with ISO dates and decimal closes.

Timestamps are seconds since epoch, interpreted as UTC; day boundaries sit
at UTC midnight.  They must fall on a day ``datetime.date`` can hold, years
1 to 9999.  Lines end in ``\\n``, ``\\r\\n`` or ``\\r``.

Transactions are held as one :class:`TransactionTable` of flat int64
columns in file order: timestamps, per-row input and output counts, and
one column of address keys, each row's inputs then its outputs, all rows
laid end to end.  A key is a 64-bit hash of the address bytes, and the
parser makes it exact: when two different addresses of a file share a
key, the file is parsed again with the next seed, so equal keys mean
equal addresses.  Tx ids are checked for repeats and not kept: when two
ids share a key, the lines are read one by one to tell a repeat from a
hash collision.  No Python object is made per transaction or per
address: the file's lines are cut into chunks, two threads parse them,
each chunk into its own slice of the table's columns, and every check runs
on whole columns, one chunk at a time.  Neither the chunk size nor the
number of threads changes a table or an error.  One parser builds every
table from a file's bytes:
:func:`parse_transactions` reads its file to the end, so it may be a
pipe, and ``from_records`` parses what :func:`write_transactions` writes,
so record ``n`` is line ``n + 1`` in its errors.  A :class:`DayWindow` is
a date plus the row indices of the table that fall on it, so every day of
a file shares the one table.  Nothing is modified after parsing.
"""

from __future__ import annotations

import datetime as dt
import io
import math
import os
import re
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DuplicateTxId,
    EmptyInput,
    MalformedRow,
    MissingFile,
    NonPositivePrice,
    UnparseableDate,
)
from .kernels import indptr_from

_EPOCH = dt.date(1970, 1, 1)
SECONDS_PER_DAY = 86400
_FIRST_SECOND = (dt.date.min - _EPOCH).days * SECONDS_PER_DAY
_LAST_SECOND = ((dt.date.max - _EPOCH).days + 1) * SECONDS_PER_DAY - 1
# a timestamp of more than 18 digits reads as this, out of range either way
_STAMP_CAP = 10**18
_TIMESTAMP = re.compile(r"-?[0-9]+")

TX_HEADER = "tx_id,timestamp,inputs,outputs"
PRICE_HEADER = "date,close"

# bytes of the transactions file parsed per chunk; a chunk ends on a newline
_CHUNK_BYTES = 1 << 19
# threads that parse the chunks of a transactions file
_THREADS = 2

_FNV_BASIS = 0xCBF29CE484222325
_FNV_PRIME = np.uint64(0x100000001B3)
# _WORD_MASKS[n] keeps the low n bytes of a word
_WORD_MASKS = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)


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


# ---------------------------------------------------------------------------
# address keys
# ---------------------------------------------------------------------------

def _word(buf: np.ndarray, starts: np.ndarray, lens: np.ndarray,
          j: int) -> np.ndarray:
    """Bytes ``j..j+7`` of every token as a little-endian word, zero past
    its end; ``buf`` ends in 8 spare bytes."""
    words = np.ndarray((buf.size - 7,), dtype="<u8", buffer=buf, strides=(1,))
    return words[starts + np.minimum(j, lens)] & _WORD_MASKS[np.clip(lens - j, 0, 8)]


def _mix(h: np.ndarray) -> np.ndarray:
    # the xor-shift carries a word's high bits down: without it, words that
    # differ in the top bit alone would collide under every seed
    h = h * _FNV_PRIME
    return (h ^ (h >> np.uint64(32))) * _FNV_PRIME


def _hash(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray,
          seed: int) -> np.ndarray:
    """64-bit keys of the tokens ``buf[starts[i]:ends[i]]``: FNV-1a (Fowler,
    Noll and Vo) over 8-byte words, then the length, from an offset basis
    that the seed changes.  One vectorised pass per 8 bytes of the longest
    token."""
    lens = ends - starts
    h = np.full(lens.size, _FNV_BASIS ^ seed, dtype=np.uint64)
    for j in range(0, int(lens.max(initial=0)), 8):
        h = np.where(lens > j, _mix(h ^ _word(buf, starts, lens, j)), h)
    return _mix(h ^ lens.astype(np.uint64)).view(np.int64)


def _distinct(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray,
              keys: np.ndarray) -> tuple | None:
    """The sorted distinct ``keys`` of the tokens ``buf[starts[i]:ends[i]]``
    and the start and end of one token of each, or None when two tokens
    with equal keys differ in their bytes.  Each token is compared with its
    neighbour in key order when their keys are equal; equality is
    transitive along a run."""
    order = np.argsort(keys)
    ordered = keys[order]
    head = np.ones(order.size, dtype=bool)
    head[1:] = ordered[1:] != ordered[:-1]
    a, b = order[1:][~head[1:]], order[:-1][~head[1:]]
    lens = ends[a] - starts[a]
    if not (np.array_equal(lens, ends[b] - starts[b]) and all(
            np.array_equal(_word(buf, starts[a], lens, j), _word(buf, starts[b], lens, j))
            for j in range(0, int(lens.max(initial=0)), 8))):
        return None
    first = order[head]
    return ordered[head], starts[first], ends[first]


def _exact_across(buf: np.ndarray, distinct: list[tuple | None]) -> bool:
    """Whether every chunk's keys are exact and the tokens of keys that
    recur across chunks have equal bytes, given each chunk's
    :func:`_distinct`.  Each chunk's arrays are dropped from the list once
    its tokens of recurring keys are picked, one per key."""
    if None in distinct:
        return False
    if len(distinct) < 2:                   # no other chunk to recur in
        return True
    merged = np.concatenate([keys for keys, _, _ in distinct])
    merged.sort()
    shared = merged[1:][merged[1:] == merged[:-1]]
    del merged
    if not shared.size:
        return True
    picked = []
    while distinct:
        keys, starts, ends = distinct.pop()
        hit = shared[np.minimum(np.searchsorted(shared, keys), shared.size - 1)] == keys
        picked.append((starts[hit], ends[hit], keys[hit]))
    return _distinct(buf, *(np.concatenate(part) for part in zip(*picked))) is not None


class TransactionTable:
    """Transactions as columns.  Row ``i`` is at ``timestamps[i]``, and its
    address keys are ``keys[indptr[i]:indptr[i + 1]]``: its ``n_inputs[i]``
    inputs (none for a coinbase), then its ``n_outputs[i]`` outputs.  Two
    tokens of a table have equal keys exactly when their bytes are equal."""

    def __init__(self, timestamps, n_inputs, n_outputs, keys):
        self.timestamps = np.asarray(timestamps, dtype=np.int64)
        self.n_inputs = np.asarray(n_inputs, dtype=np.int64)
        self.n_outputs = np.asarray(n_outputs, dtype=np.int64)
        self.indptr = indptr_from(self.n_inputs + self.n_outputs)
        self.keys = np.asarray(keys, dtype=np.int64)

    @classmethod
    def from_records(cls, records: list[TransactionRecord]) -> "TransactionTable":
        """The table of the given rows: the parse of the bytes that
        ``write_transactions`` writes for them.  Errors are the parser's,
        with record ``n`` on line ``n + 1``; a token holding ``;`` is two
        addresses, and an empty token is dropped."""
        return _parse(_padded(_csv(records)))

    def __len__(self) -> int:
        return len(self.timestamps)


@dataclass(frozen=True, eq=False)
class DayWindow:
    """One UTC day: ``rows`` are the table rows on ``date``, in file order."""

    date: dt.date
    table: TransactionTable
    rows: np.ndarray


@dataclass
class PriceSeries:
    """Daily closing prices by position: ``closes[i]`` is the close of day
    ``first_date + i``.  Gaps between entries are forward-filled, so every
    day of the range has a close."""

    first_date: dt.date
    closes: np.ndarray

    def __post_init__(self):
        self.closes = np.asarray(self.closes, dtype=np.float64)

    @classmethod
    def from_entries(cls, entries: list[tuple[dt.date, float]]) -> "PriceSeries":
        """Build a series from (date, close) pairs, forward-filling gaps."""
        if not entries:
            raise EmptyInput("a price series needs at least one entry")
        entries = sorted(entries, key=lambda e: e[0])
        first = entries[0][0]
        days = np.array([(date - first).days for date, _ in entries])
        # each day takes the close of the latest entry on or before it
        latest = np.zeros(days[-1] + 1, dtype=np.int64)
        np.maximum.at(latest, days, np.arange(len(entries)))
        np.maximum.accumulate(latest, out=latest)
        closes = np.array([close for _, close in entries], dtype=np.float64)
        return cls(first, closes[latest])

    def price_on(self, date: dt.date) -> float | None:
        i = (date - self.first_date).days
        return float(self.closes[i]) if 0 <= i < len(self.closes) else None

    @property
    def dates(self) -> list[dt.date]:
        return [self.first_date + dt.timedelta(days=i) for i in range(len(self))]

    @property
    def last_date(self) -> dt.date:
        return self.first_date + dt.timedelta(days=len(self) - 1)

    def __len__(self) -> int:
        return len(self.closes)


# ---------------------------------------------------------------------------
# the transactions file
# ---------------------------------------------------------------------------

_NEWLINE = re.compile(rb"[\r\n]")


def _stamps(chunk: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray | None:
    """Values of the fields ``chunk[lo:hi]``, or None when one is not
    ``-?[0-9]+``.  A value past 18 digits is ``_STAMP_CAP``, out of range."""
    negative = chunk[lo] == ord("-")
    lo = lo + negative
    if not (hi > lo).all():
        return None
    # digits before the last 18 must be leading zeros; few rows have any
    big = np.zeros(lo.size, dtype=bool)
    for i in np.flatnonzero(hi - lo > 18):
        head = chunk[lo[i]:hi[i] - 18]
        if ((head < ord("0")) | (head > ord("9"))).any():
            return None
        big[i] = (head != ord("0")).any()
    lo = np.maximum(lo, hi - 18)
    n = hi - lo
    value = np.zeros(n.size, dtype=np.int64)
    for j in range(int(n.max(initial=0))):
        live = n > j
        # a row past its last digit reads its first one again
        digit = chunk[np.where(live, lo + j, lo)].astype(np.int64) - ord("0")
        if ((digit < 0) | (digit > 9)).any():
            return None
        value = np.where(live, value * 10 + digit, value)
    value[big] = _STAMP_CAP
    return np.where(negative, -value, value)


def _split(lo: np.ndarray, hi: np.ndarray, seps: np.ndarray,
           field_of: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The non-empty ``;``-separated tokens of the fields ``[lo, hi)``:
    per-field token counts and the tokens' start and end offsets.
    ``seps`` are the fields' separators in order, ``field_of`` the field
    each one is in."""
    n = np.bincount(field_of, minlength=lo.size) + 1
    last = np.cumsum(n) - 1
    # separator i of field f ends token i + f and starts token i + f + 1
    inner = np.arange(seps.size) + field_of
    starts, ends = np.empty((2, lo.size + seps.size), dtype=np.int64)
    starts[last - n + 1], starts[inner + 1] = lo, seps + 1
    ends[last], ends[inner] = hi, seps
    kept = ends > starts
    field_of_token = np.repeat(np.arange(lo.size), n)
    return (np.bincount(field_of_token[kept], minlength=lo.size),
            starts[kept], ends[kept])


def _chunk_columns(buf: np.ndarray, lo: int, hi: int, rows: list[np.ndarray],
                   keys: np.ndarray, seed: int) -> tuple | None:
    """Parse the lines in ``buf[lo:hi]``, which ends on a newline, into the
    front of the chunk's slices of the table's columns, or return None when
    a line fails a check.

    ``rows`` are the slices of the timestamps, input and output counts and
    tx-id keys, and ``keys`` that of the address keys, in file order.  Ids
    are keyed with seed 0 and addresses with ``seed``.  Returns the numbers
    of rows and tokens written and the chunk's :func:`_distinct`: its
    sorted distinct address keys and the span of one token of each, or None
    in their place when two different tokens of the chunk share a key.  The
    other tokens' spans are dropped."""
    chunk = buf[lo:hi]
    ends = np.flatnonzero((chunk == 10) | (chunk == 13))
    starts = np.concatenate(([0], ends[:-1] + 1))
    starts, ends = starts[ends > starts], ends[ends > starts]
    commas = np.flatnonzero(chunk == ord(","))
    # three commas per line: the k-th three of the chunk lie in line k
    if commas.size != 3 * starts.size:
        return None
    commas = commas.reshape(-1, 3)
    if not ((commas[:, 0] > starts) & (commas[:, 2] < ends)).all():
        return None                         # misplaced, or an empty tx_id
    stamps = _stamps(chunk, commas[:, 0] + 1, commas[:, 1])
    if stamps is None or not (
            (stamps >= _FIRST_SECOND) & (stamps <= _LAST_SECOND)).all():
        return None
    # each semicolon's field: 4 * line + (0 id, 1 timestamp, 2 inputs,
    # 3 outputs), from the sorted field ends of the chunk
    semis = np.flatnonzero(chunk == ord(";"))
    field_of = np.searchsorted(np.column_stack((commas, ends)).ravel(), semis)
    in_address = field_of % 4 >= 2
    field_of = field_of[in_address]
    # address field 2 * line (field 4 * line + 2) is the line's inputs and
    # 2 * line + 1 its outputs, so the tokens come in file order
    n, tok_starts, tok_ends = _split(
        (commas[:, 1:] + 1).ravel(), np.column_stack((commas[:, 2], ends)).ravel(),
        semis[in_address], field_of - field_of // 4 * 2 - 2)
    if not n[1::2].all():
        return None
    ids = _hash(buf, lo + starts, lo + commas[:, 0], 0)
    for column, values in zip(rows, (stamps, n[::2], n[1::2], ids)):
        column[:values.size] = values
    tok_starts += lo
    tok_ends += lo
    keys = keys[:tok_starts.size]
    keys[:] = _hash(buf, tok_starts, tok_ends, seed)
    return stamps.size, keys.size, _distinct(buf, tok_starts, tok_ends, keys)


def _padded(data: bytes) -> np.ndarray:
    """The bytes of a transactions file as :func:`_parse` takes them: a
    newline after the data, then 8 spare bytes for ``_word``."""
    return np.frombuffer(data + b"\n" + bytes(8), dtype=np.uint8)


def _on_threads(task, n: int) -> list:
    """``[task(i) for i in range(n)]``, run on up to ``_THREADS`` threads,
    the calling one included, that each take the next ``i`` in turn.  Once
    a task returns None or raises, no thread starts another; every thread
    is joined, then the first exception is raised again."""
    results: list = [None] * n
    errors: list[BaseException] = []
    todo = iter(range(n))
    lock = threading.Lock()

    def work():
        try:
            while True:
                with lock:
                    i = next(todo, None)
                if i is None:
                    return
                results[i] = task(i)
                if results[i] is None:
                    break
        except BaseException as exc:
            errors.append(exc)
        with lock:
            for _ in todo:                  # leave no task to the others
                pass

    # each thread keeps a malloc arena, so start none that has no task
    helpers = [threading.Thread(target=work) for _ in range(min(_THREADS, n) - 1)]
    for thread in helpers:
        thread.start()
    work()
    for thread in helpers:
        thread.join()
    if errors:
        raise errors[0]
    return results


def _line_bounds(chunk: np.ndarray) -> tuple[int, int]:
    """Upper bounds on the rows and the address tokens of the lines in
    ``chunk``: its line ends, and two tokens per line plus one per ``;``."""
    returns = np.count_nonzero(chunk == 13)
    if returns:                             # a \r\n pair ends one line
        returns -= np.count_nonzero((chunk[:-1] == 13) & (chunk[1:] == 10))
    lines = np.count_nonzero(chunk == 10) + returns
    return lines, 2 * lines + np.count_nonzero(chunk == ord(";"))


def _parse(buf: np.ndarray) -> TransactionTable:
    """The validated table of a transactions file's bytes, padded by
    :func:`_padded`, in file order.

    The lines are cut into chunks of about ``_CHUNK_BYTES``, which
    ``_THREADS`` threads take in turn.  A first pass bounds each chunk's
    rows and tokens by its line ends and ``;`` bytes, so each column is
    allocated once.  Then each chunk fills its own slice, checked as whole
    columns, with the address keys of seed 0.  They are exact when each
    chunk's are and the tokens of keys that recur across chunks have equal
    bytes; otherwise every chunk is parsed again with the next seed.  The
    gaps that blank lines and empty tokens leave are closed afterwards.
    When a check fails, or two tx ids share a key, the bytes are read
    again line by line, and the first bad line in file order raises."""
    size = buf.size - 9
    lo = _NEWLINE.search(buf).start()
    header = buf[:lo].tobytes().decode("utf-8", errors="replace")
    if header != TX_HEADER:
        raise MalformedRow(1, f"expected header {TX_HEADER!r}, got {header!r}")
    cuts = [lo + 1]
    while cuts[-1] < size:
        cuts.append(_NEWLINE.search(buf, min(cuts[-1] + _CHUNK_BYTES, size)).end())
    bounds = np.array(_on_threads(lambda c: _line_bounds(buf[cuts[c]:cuts[c + 1]]),
                                  len(cuts) - 1), dtype=np.int64).reshape(-1, 2)
    row_at, token_at = indptr_from(bounds[:, 0]), indptr_from(bounds[:, 1])
    rows = [np.empty(row_at[-1], dtype=np.int64) for _ in range(4)]
    keys = np.empty(token_at[-1], dtype=np.int64)
    seed = 0
    while True:
        chunks = _on_threads(lambda c: _chunk_columns(
            buf, cuts[c], cuts[c + 1], [column[row_at[c]:row_at[c + 1]] for column in rows],
            keys[token_at[c]:token_at[c + 1]], seed), len(cuts) - 1)
        if None in chunks:
            _check_lines(buf[:size])
            raise RuntimeError("a column check failed but no line is bad")
        sizes = np.array([chunk[:2] for chunk in chunks], dtype=np.int64).reshape(-1, 2)
        distinct = [chunk[2] for chunk in chunks]
        del chunks                          # so the check can drop each chunk's spans
        if _exact_across(buf, distinct):
            break
        seed += 1
    # close the gaps: chunk c's rows move from row_at[c] to row_to[c]
    row_to, token_to = indptr_from(sizes[:, 0]), indptr_from(sizes[:, 1])
    for columns, at, to in ((rows, row_at, row_to), ([keys], token_at, token_to)):
        for c in np.flatnonzero(at[:-1] > to[:-1]):
            for column in columns:
                column[to[c]:to[c + 1]] = column[at[c]:at[c] + to[c + 1] - to[c]]
    stamps, n_in, n_out, id_keys = (column[:row_to[-1]] for column in rows)
    id_keys.sort()
    if (id_keys[1:] == id_keys[:-1]).any():
        _check_lines(buf[:size])            # a tx_id repeats, or two share a key
    return TransactionTable(stamps, n_in, n_out, keys[:token_to[-1]])


def parse_transactions(path: str | Path) -> TransactionTable:
    """Parse a transactions CSV into a validated table, in file order.  The
    file is read to its end, so a pipe works as well as a regular file."""
    path = Path(path)
    if not path.exists():
        raise MissingFile(str(path))
    with path.open("rb") as fh:
        # read straight into the padded buffer, sized from the file and
        # doubled whenever a pipe or a growing file fills it
        buf = np.empty(os.fstat(fh.fileno()).st_size + 10, dtype=np.uint8)
        n = 0
        while got := fh.readinto(memoryview(buf)[n:buf.size - 9]):
            n += got
            if n == buf.size - 9:
                buf = np.concatenate((buf[:n], np.empty(n + 9, dtype=np.uint8)))
    buf[n], buf[n + 1:n + 9] = 10, 0       # as _padded pads
    return _parse(buf[:n + 9])


def _text(raw: str) -> str:
    """A field read as latin-1, shown as UTF-8 with bad bytes replaced."""
    return raw.encode("latin-1").decode("utf-8", errors="replace")


def _check_lines(data: np.ndarray) -> None:
    """Raise the error of the first line of a transactions file's bytes, in
    file order, that fails a check; the checks of one line run in a fixed
    order.  Return when no line fails.  Latin-1 reads each byte as one
    character, so fields compare as bytes."""
    seen: dict[str, int] = {}
    with io.TextIOWrapper(io.BytesIO(data), encoding="latin-1") as fh:
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
                raise DuplicateTxId(_text(tx_id), seen[tx_id], lineno)
            if not _TIMESTAMP.fullmatch(ts_text):
                raise MalformedRow(lineno, f"bad timestamp {_text(ts_text)!r}")
            # int() refuses thousands of digits; 19 are out of range anyway
            digits = ts_text.lstrip("-").lstrip("0")
            sign = -1 if ts_text[0] == "-" else 1
            if len(digits) > 18 or not (
                    _FIRST_SECOND <= sign * int(digits or 0) <= _LAST_SECOND):
                raise MalformedRow(lineno, f"timestamp {ts_text!r} out of range")
            if not any(out_text.split(";")):
                raise MalformedRow(lineno, "transaction has no outputs")
            seen[tx_id] = lineno


def _csv(records: list[TransactionRecord]) -> bytes:
    """The bytes of the transactions file of the given rows."""
    return "".join([TX_HEADER + "\n"] + [
        f"{r.tx_id},{r.timestamp},{';'.join(r.inputs)},{';'.join(r.outputs)}\n"
        for r in records]).encode()


def write_transactions(records: list[TransactionRecord], path: str | Path) -> None:
    Path(path).write_bytes(_csv(records))


def parse_prices(path: str | Path) -> PriceSeries:
    """Parse a prices CSV; gaps are forward-filled, never interpolated.
    Bytes that are not UTF-8 read as U+FFFD, so they fail as a bad field."""
    path = Path(path)
    if not path.exists():
        raise MissingFile(str(path))
    entries: list[tuple[dt.date, float]] = []
    seen_dates: dict[dt.date, int] = {}
    with path.open("r", encoding="utf-8", errors="replace") as fh:
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
                close = math.nan
            if not math.isfinite(close):
                raise MalformedRow(lineno, f"bad close {parts[1]!r}")
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
