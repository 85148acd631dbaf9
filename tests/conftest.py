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


def hash_8_bits(monkeypatch) -> list[int]:
    """Patch ``ingest._hash`` to keep the top 8 bits of each key, so that
    keys of different addresses collide and the parser keys them again;
    return the list that the seed of every call is appended to."""
    full_hash = ingest._hash
    seeds: list[int] = []

    def hash_8(buf, starts, ends, seed):
        seeds.append(seed)
        return (full_hash(buf, starts, ends, seed) >> 56) & 0xFF

    monkeypatch.setattr(ingest, "_hash", hash_8)
    return seeds


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


def address_ids(records: list[TransactionRecord],
                file_records: list[TransactionRecord] | None = None) -> dict[str, int]:
    """The graph id of every address of one day's records, by name.
    ``build_graph`` numbers the addresses of the day's non-coinbase rows in
    the order of their keys.  The keys are those of ``from_records`` over
    the rows of the whole file (by default the day's rows), which parses the
    bytes of that file; the names must hold no ``;`` and none be empty, so
    that each is one token."""
    file_records = records if file_records is None else file_records
    table = TransactionTable.from_records(file_records)
    key = dict(zip([a for r in file_records for a in r.inputs + r.outputs],
                   table.keys.tolist()))
    names = {a for r in records if r.inputs for a in r.inputs + r.outputs}
    return {a: i for i, a in enumerate(sorted(names, key=key.__getitem__))}
