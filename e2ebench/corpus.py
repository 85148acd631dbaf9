"""Seeded corpora for the end-to-end benchmark.

Everything is drawn with vectorised numpy from one ``numpy.random.Generator``
and written in the two CSV formats txpattern's ingest layer reads
(``tx_id,timestamp,inputs,outputs`` and ``date,close``).  The module never
imports txpattern, so the program under test does not produce its own inputs.

Transactions follow the synth-style size mix: input counts 1/2/3/5/25 and
output counts 1/2/4/22.  Each input spends an output created earlier the
same day with probability ``RESPEND`` (same-day spends make the chains that
give order-2+ patterns) and is a fresh address otherwise.  Addresses are
distinct within a transaction, so a transaction's order-1 cell is
``(min(n_in, 20), min(n_out, 20))``; the planted price signal is read from
that cell without building a graph.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from pathlib import Path

import numpy as np

IN_SIZES = np.array([1, 2, 3, 5, 25])
IN_PROBS = np.array([0.55, 0.25, 0.12, 0.05, 0.03])
OUT_SIZES = np.array([1, 2, 4, 22])
OUT_PROBS = np.array([0.60, 0.30, 0.08, 0.02])
RESPEND = 0.35
CLAMP = 20
START = dt.date(2015, 1, 1)
SECONDS_PER_DAY = 86400
START_PRICE = 1000.0
# order-1 cell (m, n) whose daily count drives the planted price
PLANTED_CELL = (2, 1)


def _ptr(sizes: np.ndarray) -> np.ndarray:
    ptr = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=ptr[1:])
    return ptr


@dataclass
class Txs:
    """Transactions as ragged id arrays; ``day`` is the offset from START."""

    day: np.ndarray
    in_ptr: np.ndarray
    in_addr: np.ndarray
    out_ptr: np.ndarray
    out_addr: np.ndarray

    def __len__(self) -> int:
        return len(self.day)

    @property
    def n_in(self) -> np.ndarray:
        return np.diff(self.in_ptr)

    @property
    def n_out(self) -> np.ndarray:
        return np.diff(self.out_ptr)

    def max_addr(self) -> int:
        hi = [a.max() for a in (self.in_addr, self.out_addr) if a.size]
        return int(max(hi)) if hi else -1

    def take(self, order: np.ndarray) -> "Txs":
        """Rows in the given order."""
        def gather(ptr, flat):
            lens = np.diff(ptr)[order]
            starts = np.repeat(ptr[:-1][order], lens)
            within = np.arange(lens.sum()) - np.repeat(_ptr(lens)[:-1], lens)
            return _ptr(lens), flat[starts + within]
        in_ptr, in_addr = gather(self.in_ptr, self.in_addr)
        out_ptr, out_addr = gather(self.out_ptr, self.out_addr)
        return Txs(self.day[order], in_ptr, in_addr, out_ptr, out_addr)


def concat(parts: list[Txs]) -> Txs:
    """Join blocks, renumbering addresses so no two blocks share one."""
    base = 0
    ins, outs = [], []
    for p in parts:
        ins.append(p.in_addr + base)
        outs.append(p.out_addr + base)
        base += p.max_addr() + 1
    return Txs(
        np.concatenate([p.day for p in parts]),
        _ptr(np.concatenate([p.n_in for p in parts])),
        np.concatenate(ins),
        _ptr(np.concatenate([p.n_out for p in parts])),
        np.concatenate(outs),
    )


def random_days(rng: np.random.Generator, day_sizes, first_day: int = 0,
                coinbase: int = 1) -> Txs:
    """Day ``i`` gets ``coinbase`` inputless transactions, then
    ``day_sizes[i]`` ordinary ones."""
    day_sizes = np.asarray(day_sizes, dtype=np.int64)
    per_day = day_sizes + coinbase
    n_tx = int(per_day.sum())
    day = np.repeat(np.arange(len(per_day)), per_day)
    day_first = _ptr(per_day)[:-1]
    is_coinbase = np.arange(n_tx) - day_first[day] < coinbase
    n_in = np.where(is_coinbase, 0, rng.choice(IN_SIZES, size=n_tx, p=IN_PROBS))
    n_out = rng.choice(OUT_SIZES, size=n_tx, p=OUT_PROBS)
    in_ptr, out_ptr = _ptr(n_in), _ptr(n_out)
    n_outputs = int(out_ptr[-1])

    # each input slot may spend an output made earlier the same day
    slot_tx = np.repeat(np.arange(n_tx), n_in)
    lo = out_ptr[day_first][day[slot_tx]]
    avail = out_ptr[slot_tx] - lo
    spend = (rng.random(slot_tx.size) < RESPEND) & (avail > 0)
    pick = lo + (rng.random(slot_tx.size) * avail).astype(np.int64)
    addr = np.where(spend, pick, -1)
    # a transaction lists an address once: repeated picks become fresh
    order = np.lexsort((addr, slot_tx))
    a_sorted, t_sorted = addr[order], slot_tx[order]
    dup = np.zeros(slot_tx.size, dtype=bool)
    dup[1:] = (a_sorted[1:] == a_sorted[:-1]) & (t_sorted[1:] == t_sorted[:-1])
    addr[order[dup & (a_sorted >= 0)]] = -1
    fresh = addr < 0
    addr[fresh] = n_outputs + np.arange(int(fresh.sum()))
    return Txs(day + first_day, in_ptr, addr, out_ptr, np.arange(n_outputs))


def hub_block(rng: np.random.Generator, hub: int, day: int) -> Txs:
    """``hub`` payers each fund address 0 and ``hub`` spenders each spend it;
    every other address is fresh, so the spend hop through address 0 is a
    complete hub x hub block."""
    n_in = rng.choice(IN_SIZES, size=2 * hub, p=IN_PROBS)
    n_out = rng.choice(OUT_SIZES, size=2 * hub, p=OUT_PROBS)
    in_ptr, out_ptr = _ptr(n_in), _ptr(n_out)
    in_addr = 1 + np.arange(in_ptr[-1])
    out_addr = 1 + in_ptr[-1] + np.arange(out_ptr[-1])
    out_addr[out_ptr[:hub]] = 0          # payers: first output is the hub
    in_addr[in_ptr[hub:-1]] = 0          # spenders: first input is the hub
    return Txs(np.full(2 * hub, day), in_ptr, in_addr, out_ptr, out_addr)


def order1_cell_counts(txs: Txs, n_days: int, cell=PLANTED_CELL) -> np.ndarray:
    """Per-day count of non-coinbase transactions in one order-1 cell."""
    m, n = cell
    hit = ((np.minimum(txs.n_in, CLAMP) == m)
           & (np.minimum(txs.n_out, CLAMP) == n))
    return np.bincount(txs.day[hit], minlength=n_days)


def planted_prices(rng: np.random.Generator, counts: np.ndarray, mean: float,
                   coeff: float, noise: float) -> np.ndarray:
    """close[d+1] = close[d] + coeff * (count[d] - mean) + noise term, where
    the noise is ``noise * close[d]`` times a standard normal."""
    z = rng.standard_normal(len(counts))
    closes = np.empty(len(counts))
    closes[0] = START_PRICE
    for d in range(len(counts) - 1):
        step = coeff * (counts[d] - mean) + noise * closes[d] * z[d]
        closes[d + 1] = max(closes[d] + step, 0.01 * closes[d])
    return closes


def write_tx_csv(path: Path, txs: Txs) -> None:
    """Rows in the given order; timestamps spread evenly over each UTC day."""
    day = txs.day
    n_days = int(day.max()) + 1
    per_day = np.bincount(day, minlength=n_days)
    pos = np.arange(len(txs)) - _ptr(per_day)[:-1][day]
    step = SECONDS_PER_DAY // (per_day + 1)
    epoch_day = (START - dt.date(1970, 1, 1)).days
    ts = ((epoch_day + day) * SECONDS_PER_DAY + (pos + 1) * step[day]).tolist()
    ins = [f"a{a}" for a in txs.in_addr.tolist()]
    outs = [f"a{a}" for a in txs.out_addr.tolist()]
    ip, op = txs.in_ptr.tolist(), txs.out_ptr.tolist()
    lines = ["tx_id,timestamp,inputs,outputs\n"]
    for t in range(len(txs)):
        lines.append(f"t{t},{ts[t]},{';'.join(ins[ip[t]:ip[t + 1]])},"
                     f"{';'.join(outs[op[t]:op[t + 1]])}\n")
    path.write_text("".join(lines), encoding="utf-8")


def write_price_csv(path: Path, closes: np.ndarray) -> None:
    lines = ["date,close\n"]
    lines += [f"{(START + dt.timedelta(days=d)).isoformat()},{float(c)!r}\n"
              for d, c in enumerate(closes)]
    path.write_text("".join(lines), encoding="utf-8")


def naive_and_signal_mape(closes: np.ndarray, counts: np.ndarray, mean: float,
                          coeff: float, test_from: int) -> tuple[float, float]:
    """MAPE over days ``test_from..`` of two reference predictors of
    close[t]: no change (close[t-1]) and the planted drift without noise."""
    t = np.arange(max(test_from, 1), len(closes))
    truth = closes[t]
    naive = closes[t - 1]
    signal = closes[t - 1] + coeff * (counts[t - 1] - mean)
    pct = lambda pred: float(np.mean(np.abs(pred - truth) / truth) * 100.0)
    return pct(naive), pct(signal)


def planted_corpus(rng: np.random.Generator, out: Path, n_days: int,
                   tx_per_day: int, coeff: float, noise: float,
                   sample_days: int = 0, train_frac: float = 0.8) -> dict:
    """Poisson day sizes around ``tx_per_day`` and a planted price series.
    With ``sample_days``, those many random days are also written to
    ``sample.csv`` for checking against the walk oracle."""
    sizes = np.maximum(rng.poisson(tx_per_day, size=n_days), 1)
    txs = random_days(rng, sizes)
    counts = order1_cell_counts(txs, n_days)
    m, n = PLANTED_CELL
    mean = tx_per_day * IN_PROBS[IN_SIZES == m][0] * OUT_PROBS[OUT_SIZES == n][0]
    closes = planted_prices(rng, counts, mean, coeff, noise)
    write_tx_csv(out / "tx.csv", txs)
    write_price_csv(out / "prices.csv", closes)
    if sample_days:
        days = rng.choice(n_days, size=sample_days, replace=False)
        write_tx_csv(out / "sample.csv",
                     txs.take(np.flatnonzero(np.isin(txs.day, days))))
    naive, signal = naive_and_signal_mape(closes, counts, mean, coeff,
                                          int(train_frac * n_days))
    return {"transactions": len(txs), "days": n_days,
            "sample_days": sample_days,
            "naive_mape": naive, "signal_mape": signal}


def hub_corpus(rng: np.random.Generator, out: Path, wide_day: int,
               background: int, hubs: list[int]) -> dict:
    """Day 0: ``wide_day`` transactions, no hub.  Day i >= 1: ``background``
    transactions plus a hub of width ``hubs[i - 1]``, shuffled into them."""
    days = [random_days(rng, [wide_day])]
    for i, hub in enumerate(hubs, start=1):
        day = concat([random_days(rng, [background], first_day=i),
                      hub_block(rng, hub, i)])
        # keep the coinbase first, shuffle the rest
        days.append(day.take(np.concatenate(
            [[0], 1 + rng.permutation(len(day) - 1)])))
    txs = concat(days)
    write_tx_csv(out / "tx.csv", txs)
    return {"transactions": len(txs), "days": 1 + len(hubs), "hubs": hubs}


def adversarial_corpus(rng: np.random.Generator, out: Path, graphs: int,
                       max_tx: int = 200, max_addr: int = 600) -> dict:
    """One small day per graph, shaped like the acceptance-2 generator:
    1..``max_tx`` transactions whose addresses come from a pool of
    2..``max_addr``, so they are reused heavily and spend walks cycle; sizes
    of 1..25 straddle the clamp; about 5% of transactions are coinbase.

    The (transactions, pool) shapes form a fixed design that covers both
    ranges evenly (transaction counts evenly spaced, pool sizes on a golden
    ratio sequence); the seed draws every edge.  So the sweep's total work
    barely moves from seed to seed."""
    g = np.arange(graphs)
    tx_counts = 1 + ((g + 0.5) / graphs * max_tx).astype(np.int64)
    pools = 2 + ((g * 0.6180339887498949) % 1.0 * (max_addr - 1)).astype(np.int64)
    parts = []
    for day in rng.permutation(graphs):
        n_tx, n_addr = int(tx_counts[day]), int(pools[day])
        n_in = np.minimum(rng.integers(1, 26, size=n_tx), n_addr)
        n_in[rng.random(n_tx) < 0.05] = 0
        n_out = np.minimum(rng.integers(1, 26, size=n_tx), n_addr)
        # first-k columns of a random permutation per row: draws without
        # replacement from the day's pool
        perm_in = np.argsort(rng.random((n_tx, n_addr)), axis=1)
        perm_out = np.argsort(rng.random((n_tx, n_addr)), axis=1)
        keep_in = np.arange(n_addr) < n_in[:, None]
        keep_out = np.arange(n_addr) < n_out[:, None]
        parts.append(Txs(np.full(n_tx, len(parts)), _ptr(n_in), perm_in[keep_in],
                         _ptr(n_out), perm_out[keep_out]))
    # every day keeps its own pool: renumber so days share no address
    txs = concat(parts)
    write_tx_csv(out / "tx.csv", txs)
    return {"transactions": len(txs), "days": graphs, "graphs": graphs}
