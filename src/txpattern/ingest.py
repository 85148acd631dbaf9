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

Transactions are held as one :class:`TransactionTable` of flat columns in
file order: int64 timestamps and per-row input and output counts, and per
address token (each row's inputs then its outputs, all rows laid end to
end) an int64 key, an int64 start and an int32 length in the file's bytes,
which the table keeps.  A key is a 64-bit hash of a token's bytes, which
two different tokens may share: :func:`_exact_ids` tells them apart by
their bytes, for a graph's address tokens and for the tx ids, which the
table does not keep.  No Python object is made per transaction or per
address on the fast path: two threads parse the file's chunks of lines,
each into its own slice of the columns, and every check runs on one
chunk's columns.  Only when a line fails a check, or two tx ids are equal,
are the lines read one by one, to raise the first bad line.  Neither the
chunk size nor the number of threads changes a table or an error.
:func:`parse_transactions` reads its file to the end, so it may be a pipe,
and ``from_records`` parses what :func:`write_transactions` writes, so
record ``n`` is line ``n + 1`` in its errors.  A :class:`DayWindow` is a
date plus the row indices of the table that fall on it, so every day of a
file shares the one table.  Nothing is modified after parsing.
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
from . import kernels

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
# keys
# ---------------------------------------------------------------------------

def _word(buf: np.ndarray, starts: np.ndarray, lens: np.ndarray,
          j: int) -> np.ndarray:
    """Bytes ``j..j+7`` of every token as a little-endian word, zero past
    its end; ``buf`` ends in 8 spare bytes."""
    words = np.ndarray((buf.size - 7,), dtype="<u8", buffer=buf, strides=(1,))
    return words[starts + np.minimum(j, lens)] & _WORD_MASKS[np.clip(lens - j, 0, 8)]


def _mix(h: np.ndarray) -> np.ndarray:
    # the xor-shift carries a word's high bits down: without it, words that
    # differ in the top bit alone would always collide
    h = h * _FNV_PRIME
    return (h ^ (h >> np.uint64(32))) * _FNV_PRIME


def _hash(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """64-bit keys of the tokens ``buf[starts[i]:ends[i]]``: FNV-1a (Fowler,
    Noll and Vo) over 8-byte words, then the length.  One vectorised pass
    per 8 bytes of the longest token.  Keys are not exact:
    :func:`_exact_ids` compares the bytes of equal ones."""
    lens = ends - starts
    h = np.full(lens.size, _FNV_BASIS, dtype=np.uint64)
    for j in range(0, int(lens.max(initial=0)), 8):
        h = np.where(lens > j, _mix(h ^ _word(buf, starts, lens, j)), h)
    return _mix(h ^ lens.astype(np.uint64)).view(np.int64)


def _exact_ids(buf: np.ndarray, keys: np.ndarray, starts: np.ndarray,
               lengths: np.ndarray, tokens: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense ids of the tokens ``j`` in ``tokens``, ``buf[starts[j]:starts[j]
    + lengths[j]]`` keyed ``keys[j]``, in key order and equal exactly when
    their bytes are, and how many there are.  One sort by key, then a
    compare of the bytes of equal-key neighbours; only the runs of equal keys
    that hold different bytes are numbered by their bytes, in Python."""
    keys = keys[tokens]
    order = np.argsort(keys)
    keys = keys[order]
    new = np.ones(order.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    # on a hub day the arrays of the pairs set the graph's peak memory,
    # so what they no longer need is freed first
    del keys
    same = np.flatnonzero(~new)         # the key of same - 1 is the same
    a, b = tokens[order[same]], tokens[order[same - 1]]
    starts_a, starts_b = starts[a], starts[b]
    lens, lens_b = lengths[a], lengths[b]
    del a, b
    differ = lens != lens_b
    np.minimum(lens, lens_b, out=lens)
    for j in range(0, int(lens.max(initial=0)), 8):
        differ |= _word(buf, starts_a, lens, j) != _word(buf, starts_b, lens, j)
    if differ.any():
        heads = np.flatnonzero(new)
        runs = np.unique(np.searchsorted(heads, same[differ]) - 1)
        for lo, hi in zip(heads[runs].tolist(),
                          np.append(heads, order.size)[runs + 1].tolist()):
            run = order[lo:hi]
            at = tokens[run]
            names = [buf[start:start + n].tobytes() for start, n in zip(
                starts[at].tolist(), lengths[at].tolist())]
            by = sorted(range(run.size), key=names.__getitem__)
            order[lo:hi] = run[by]
            new[lo + 1:hi] = [names[x] != names[y] for x, y in zip(by[1:], by)]
    ids = np.empty(order.size, dtype=np.int64)
    ids[order] = np.cumsum(new) - 1
    return ids, int(new.sum())


class TransactionTable:
    """Transactions as columns.  Row ``i`` is at ``timestamps[i]``, and its
    address tokens are ``indptr[i]`` to ``indptr[i + 1]``: its
    ``n_inputs[i]`` inputs (none for a coinbase), then its ``n_outputs[i]``
    outputs.  Token ``j`` is the bytes ``buf[starts[j]:starts[j] +
    lengths[j]]`` of the file, and ``keys[j]`` is their hash.  Equal bytes
    give equal keys; :meth:`address_ids` tells apart different bytes that
    share one."""

    def __init__(self, timestamps, n_inputs, n_outputs, keys, starts, lengths, buf):
        self.timestamps = timestamps
        self.n_inputs = n_inputs
        self.n_outputs = n_outputs
        self.indptr = kernels.indptr_from(n_inputs + n_outputs)
        self.keys = keys
        self.starts = starts
        self.lengths = lengths
        self.buf = buf

    def address_ids(self, tokens: np.ndarray) -> tuple[np.ndarray, int]:
        """:func:`_exact_ids` of the given tokens of the table."""
        return _exact_ids(self.buf, self.keys, self.starts, self.lengths, tokens)

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
                   tokens: list[np.ndarray]) -> tuple[int, int] | None:
    """Parse the lines in ``buf[lo:hi]``, which ends on a newline, into the
    front of the chunk's slices of the table's columns, and return the
    numbers of rows and tokens written, or None when a line fails a check.

    ``rows`` are the slices of the timestamps, input and output counts and
    tx-id keys, starts and lengths, and ``tokens`` those of the address
    keys, starts and lengths, in file order."""
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
    id_starts, tok_starts, tok_ends = lo + starts, lo + tok_starts, lo + tok_ends
    for column, values in zip(rows + tokens, (
            stamps, n[::2], n[1::2], _hash(buf, id_starts, lo + commas[:, 0]),
            id_starts, commas[:, 0] - starts, _hash(buf, tok_starts, tok_ends),
            tok_starts, tok_ends - tok_starts)):
        column[:values.size] = values
    return stamps.size, tok_starts.size


def _padded(data: bytes) -> np.ndarray:
    """The bytes of a transactions file as :func:`_parse` takes them: a
    newline after the data, then 8 spare bytes for ``_word``."""
    return np.frombuffer(data + b"\n" + bytes(8), dtype=np.uint8)


def _on_threads(task, n: int) -> list:
    """``[task(i) for i in range(n)]``, run on up to ``kernels.CPUS`` threads,
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
    helpers = [threading.Thread(target=work) for _ in range(min(kernels.CPUS, n) - 1)]
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
    ``kernels.CPUS`` threads take in turn.  A first pass bounds each chunk's
    rows and tokens by its line ends and ``;`` bytes, so each column is
    allocated once.  Then each chunk fills its own slice, checked as whole
    columns, with each address token's hashed key and its span in ``buf``,
    which the table keeps, and each tx id's, which it drops.  The gaps
    that blank lines and empty tokens leave are closed afterwards.  The tx
    ids whose keys repeat go to :func:`_exact_ids`.  When a check fails or
    two ids are equal, :func:`_check_lines` reads the bytes once, line by
    line, and raises the first bad line in file order."""
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
    row_at, token_at = kernels.indptr_from(bounds[:, 0]), kernels.indptr_from(bounds[:, 1])
    rows = [np.empty(row_at[-1], dtype=np.int64) for _ in range(6)]
    tokens = [np.empty(token_at[-1], dtype=dtype) for dtype in (np.int64, np.int64, np.int32)]
    chunks = _on_threads(lambda c: _chunk_columns(
        buf, cuts[c], cuts[c + 1], [column[row_at[c]:row_at[c + 1]] for column in rows],
        [column[token_at[c]:token_at[c + 1]] for column in tokens]), len(cuts) - 1)
    if None in chunks:
        _check_lines(buf[:size])
    sizes = np.array(chunks, dtype=np.int64).reshape(-1, 2)
    # close the gaps: chunk c's rows move from row_at[c] to row_to[c]
    row_to, token_to = kernels.indptr_from(sizes[:, 0]), kernels.indptr_from(sizes[:, 1])
    for columns, at, to in ((rows, row_at, row_to), (tokens, token_at, token_to)):
        for c in np.flatnonzero(at[:-1] > to[:-1]):
            for column in columns:
                column[to[c]:to[c + 1]] = column[at[c]:at[c] + to[c + 1] - to[c]]
    stamps, n_in, n_out, *ids = (column[:row_to[-1]] for column in rows)
    keys = np.sort(ids[0])
    repeated = keys[1:][keys[1:] == keys[:-1]]
    del keys
    # each id's key looked up among the repeated ones: np.isin would sort
    # the whole column again once more than a few dozen keys repeat
    shared = np.flatnonzero(repeated.take(np.searchsorted(repeated, ids[0]), mode="clip")
                            == ids[0]) if repeated.size else repeated
    if _exact_ids(buf, *ids, shared)[1] < shared.size:
        _check_lines(buf[:size])
    return TransactionTable(stamps, n_in, n_out,
                            *(column[:token_to[-1]] for column in tokens), buf)


def parse_transactions(path: str | Path) -> TransactionTable:
    """Parse a transactions CSV into a validated table, in file order.  The
    file is read to its end, so a pipe works as well as a regular file."""
    path = Path(path)
    if not path.exists():
        raise MissingFile(str(path))
    with path.open("rb") as fh:
        # read straight into the padded buffer, sized from the file,
        # doubled whenever a pipe or a growing file fills it and then cut
        # back, since the table keeps it
        buf = np.empty(os.fstat(fh.fileno()).st_size + 10, dtype=np.uint8)
        n = 0
        while got := fh.readinto(memoryview(buf)[n:buf.size - 9]):
            n += got
            if n == buf.size - 9:
                buf = np.concatenate((buf[:n], np.empty(n + 9, dtype=np.uint8)))
    buf[n], buf[n + 1:n + 9] = 10, 0       # as _padded pads
    return _parse(buf[:n + 9] if buf.size <= n + 10 else buf[:n + 9].copy())


def _text(raw: str) -> str:
    """A field read as latin-1, shown as UTF-8 with bad bytes replaced."""
    return raw.encode("latin-1").decode("utf-8", errors="replace")


def _check_lines(data: np.ndarray) -> None:
    """Raise the error of the first line of a transactions file's bytes, in
    file order, that fails a check, or ``RuntimeError`` when none does; the
    checks of one line run in a fixed order.  Latin-1 reads each byte as
    one character, so fields compare as bytes."""
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
    raise RuntimeError("the columns hold a bad line but no line is bad")


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
