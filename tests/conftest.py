import datetime as dt

import numpy as np
import pytest
from hypothesis import strategies as st

from txpattern import ingest
from txpattern.ingest import (
    DayWindow,
    TransactionRecord,
    TransactionTable,
    partition_daily,
)
from txpattern.txgraph import build_graph

# any fixed day works; this one avoids epoch edge cases
DAY0_TS = 86400 * 16_500

# release-criterion outcomes, filled by the makereport hook from tests
# tagged with @criterion and printed as a terminal-summary section
_ACCEPTANCE: dict[int, dict] = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    meta = getattr(getattr(item, "function", None), "_acceptance", None)
    if meta is None:
        return
    number, label = meta
    entry = _ACCEPTANCE.setdefault(
        number, {"label": label, "failed": False, "skipped": False,
                 "passed": False})
    if report.failed:
        entry["failed"] = True
    elif report.skipped:
        entry["skipped"] = True
    elif report.when == "call" and report.passed:
        entry["passed"] = True


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_ACCEPTANCE):
        e = _ACCEPTANCE[number]
        if e["failed"]:
            status = "FAIL"
        elif e["skipped"]:
            status = "SKIP"
        elif e["passed"]:
            status = "PASS"
        else:
            status = "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {number} {e['label']}: {status}")


def toy_records() -> list[TransactionRecord]:
    """Four transactions whose order-1 and order-2 grids are known by hand.

    t1: a1,a2 -> a5      t3: a4,a5 -> a8
    t2: a3    -> a4,a6   t4: a6,a7 -> a8
    """
    return [
        TransactionRecord("t1", DAY0_TS + 0, ("a1", "a2"), ("a5",)),
        TransactionRecord("t2", DAY0_TS + 10, ("a3",), ("a4", "a6")),
        TransactionRecord("t3", DAY0_TS + 20, ("a4", "a5"), ("a8",)),
        TransactionRecord("t4", DAY0_TS + 30, ("a6", "a7"), ("a8",)),
    ]


@pytest.fixture
def toy_window() -> DayWindow:
    return day_windows(toy_records())[0]


@pytest.fixture
def toy_graph(toy_window):
    return build_graph(toy_window)


def hash_8_bits(monkeypatch) -> None:
    """Patch ``ingest._hash`` to keep the top 8 bits of each key, so that
    different addresses share keys, which the graph must tell apart by
    their bytes, and different tx ids share keys, which the parse must
    tell apart by their bytes too."""
    full_hash = ingest._hash
    monkeypatch.setattr(ingest, "_hash",
                        lambda buf, starts, ends: (full_hash(buf, starts, ends) >> 56) & 0xFF)


def hash_by_name(monkeypatch, key_of: dict[str, int]) -> None:
    """Patch ``ingest._hash`` to give each token named in ``key_of`` its
    key there, read when the hash runs; other tokens keep the real key."""
    full_hash = ingest._hash

    def by_name(buf, starts, ends):
        tokens = [buf[lo:hi].tobytes().decode() for lo, hi in zip(starts, ends)]
        return np.array([key_of.get(token, key) for token, key in
                         zip(tokens, full_hash(buf, starts, ends).tolist())], dtype=np.int64)

    monkeypatch.setattr(ingest, "_hash", by_name)


def count_check_lines(monkeypatch) -> list[int]:
    """Patch ``ingest._check_lines`` to append the size of the bytes of
    each call to the returned list."""
    check_lines = ingest._check_lines
    calls: list[int] = []

    def counting(data):
        calls.append(data.size)
        return check_lines(data)

    monkeypatch.setattr(ingest, "_check_lines", counting)
    return calls


def random_records(rng: np.random.Generator, max_tx: int = 200,
                   max_addr: int = 600) -> list[TransactionRecord]:
    """Adversarial single-day rows: heavy address reuse, so outputs feed
    back into inputs and the walk graph contains cycles; a few coinbase
    transactions mixed in; input/output sizes straddling the clamp."""
    n_tx = int(rng.integers(1, max_tx + 1))
    n_addr = int(rng.integers(2, max_addr + 1))
    pool = [f"a{i}" for i in range(n_addr)]
    records = []
    for t in range(n_tx):
        if rng.random() < 0.05:
            ins: tuple[str, ...] = ()
        else:
            k_in = min(int(rng.integers(1, 26)), n_addr)
            ins = tuple(pool[i] for i in rng.choice(n_addr, size=k_in, replace=False))
        k_out = min(int(rng.integers(1, 26)), n_addr)
        outs = tuple(pool[i] for i in rng.choice(n_addr, size=k_out, replace=False))
        records.append(TransactionRecord(f"t{t}", DAY0_TS + t, ins, outs))
    return records


def random_window(rng: np.random.Generator, max_tx: int = 200,
                  max_addr: int = 600) -> DayWindow:
    """The one day window of :func:`random_records`."""
    return day_windows(random_records(rng, max_tx, max_addr))[0]


def day_windows(records: list[TransactionRecord]) -> list[DayWindow]:
    return partition_daily(TransactionTable.from_records(records))


@st.composite
def price_entries(draw) -> list[tuple[dt.date, float]]:
    """Sorted (date, close) pairs, at least one, with gaps of 1 to 4 days."""
    first = dt.date(2015, 1, 1) + dt.timedelta(days=draw(st.integers(0, 60)))
    gaps = draw(st.lists(st.integers(1, 4), max_size=15))
    dates = [first]
    for gap in gaps:
        dates.append(dates[-1] + dt.timedelta(days=gap))
    closes = draw(st.lists(st.floats(0.01, 1e6), min_size=len(dates),
                           max_size=len(dates)))
    return list(zip(dates, closes))


def latest_close(entries: list[tuple[dt.date, float]], date: dt.date) -> float | None:
    """The close of the latest entry on or before ``date``, or None outside
    the entries' range: the forward-filled price, found one date at a time."""
    if not entries[0][0] <= date <= entries[-1][0]:
        return None
    return [close for d, close in entries if d <= date][-1]


def chunk_ids(days: list[list[TransactionRecord]],
              file_records: list[TransactionRecord] | None = None) -> dict[tuple, int]:
    """The graph id of every address (day, name) of a chunk whose d-th day
    holds the records ``days[d]``, numbered in Python by name.
    ``build_graph`` numbers the addresses of each day's non-coinbase rows
    in the order of their keys, then of their bytes, then of their day.
    The keys are those of ``from_records`` over the rows of the whole file
    (by default the chunk's rows), which parses the bytes of that file; the
    names must hold no ``;`` and none be empty, so that each is one token."""
    if file_records is None:
        file_records = [r for records in days for r in records]
    table = TransactionTable.from_records(file_records)
    key = dict(zip([a for r in file_records for a in r.inputs + r.outputs],
                   table.keys.tolist()))
    nodes = {(d, a) for d, records in enumerate(days)
             for r in records if r.inputs for a in r.inputs + r.outputs}
    return {node: i for i, node in enumerate(
        sorted(nodes, key=lambda node: (key[node[1]], node[1].encode(), node[0])))}


def address_ids(records: list[TransactionRecord],
                file_records: list[TransactionRecord] | None = None) -> dict[str, int]:
    """The graph id of every address of one day's records, by name: its
    :func:`chunk_ids` in a chunk of that day alone."""
    return {a: i for (_, a), i in chunk_ids([records], file_records).items()}


def assert_same_graph(got, days: list[list[TransactionRecord]],
                      file_records: list[TransactionRecord]) -> None:
    """``got`` equals the chunk graph of ``days`` built row by row, by name:
    each non-coinbase row's distinct input and output addresses (day,
    name), numbered by :func:`chunk_ids`.  Each address's spenders and each
    row's outputs are the reference's, as canonical CSR, each row's input
    count is its distinct inputs, and each row keeps its day."""
    kept = [(d, r) for d, records in enumerate(days) for r in records if r.inputs]
    ids = chunk_ids(days, file_records)
    assert got.n_days == len(days)
    assert got.n_transactions == len(kept)
    assert got.n_addresses == len(ids)
    assert got.n_coinbase_skipped == sum(map(len, days)) - len(kept)
    assert got.day.tolist() == [d for d, _ in kept]
    spenders: list[list[int]] = [[] for _ in ids]
    for t, (d, r) in enumerate(kept):
        for a in set(r.inputs):
            spenders[ids[d, a]].append(t)
    for (indptr, indices), want in (
            ((got.spend_indptr, got.spend_indices), spenders),
            ((got.out_indptr, got.out_indices),
             [sorted({ids[d, a] for a in r.outputs}) for d, r in kept])):
        assert indptr.dtype == np.int64 and indices.dtype == np.int64
        assert indptr.tolist() == np.cumsum([0] + [len(w) for w in want]).tolist()
        assert indices.tolist() == [i for w in want for i in w]
    assert got.input_set_sizes.tolist() == [len(set(r.inputs)) for _, r in kept]


def assert_matches_reference(windows: list[DayWindow], records: list[TransactionRecord],
                             chunked: bool = False) -> None:
    """Every window's graph equals the reference over that day's rows, in
    file order, or, when ``chunked``, the graph of all the windows equals
    the reference over the chunk; gap days are empty."""
    by_day: dict[dt.date, list[TransactionRecord]] = {}
    for rec in records:
        by_day.setdefault(ingest.day_of(rec.timestamp), []).append(rec)
    assert {w.date for w in windows} >= set(by_day)
    days = [by_day.get(w.date, []) for w in windows]
    if chunked:
        assert_same_graph(build_graph(*windows), days, records)
    else:
        for w, day in zip(windows, days):
            assert_same_graph(build_graph(w), [day], records)
