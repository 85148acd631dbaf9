"""Synthetic transaction/price corpus generation.

Produces data in the exact CSV formats the ingest layer reads, so the whole
pipeline can be exercised end to end without real chain data.  Two price
models are supported:

* ``random_walk``: multiplicative log-normal steps, independent of the
  transaction stream.  Useful as an unpredictable baseline.
* ``planted_linear``: tomorrow's price moves by a fixed linear function of
  today's pattern-feature vector plus optional noise, so a correctly wired
  pipeline can actually learn the relationship.

Spending is pool-based: each transaction input either consumes a previously
created output address (with probability ``spend_probability``) or mints a
fresh address.  Same-day spends create the transaction chains that give
depth-2+ patterns; ``spend_probability = 0`` therefore yields data whose
order-2 occurrence grid is identically zero.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field

import numpy as np

from .errors import BadSpec
from .ingest import (
    SECONDS_PER_DAY,
    DayWindow,
    PriceSeries,
    TransactionRecord,
    TransactionTable,
    write_prices,
    write_transactions,
)
from .korder import CLAMP, GRID_CELLS, feature_vector
from .txgraph import build_graph

DEFAULT_IN_SIZES = {1: 0.55, 2: 0.25, 3: 0.12, 5: 0.05, 25: 0.03}
DEFAULT_OUT_SIZES = {1: 0.60, 2: 0.30, 4: 0.08, 22: 0.02}
DEFAULT_PLANTED = {(1, 2, 1): 0.40, (1, 1, 2): -0.15, (2, 1, 1): 0.25}

PRICE_MODELS = ("random_walk", "planted_linear")

# bound the unspent pool so long generations stay O(days)
_POOL_HIGH = 20_000
_POOL_LOW = 10_000


def _check_dist(name: str, dist: dict[int, float]) -> None:
    if not dist:
        raise BadSpec(f"{name}: empty distribution")
    for size, prob in dist.items():
        if not isinstance(size, int) or size < 1:
            raise BadSpec(f"{name}: sizes must be positive ints, got {size!r}")
        if prob < 0:
            raise BadSpec(f"{name}: negative probability for size {size}")
    total = sum(dist.values())
    if abs(total - 1.0) > 1e-9:
        raise BadSpec(f"{name}: probabilities sum to {total}, expected 1")


@dataclass
class SynthSpec:
    days: int = 30
    tx_per_day: int = 200
    seed: int = 0
    in_sizes: dict[int, float] = field(default_factory=lambda: dict(DEFAULT_IN_SIZES))
    out_sizes: dict[int, float] = field(default_factory=lambda: dict(DEFAULT_OUT_SIZES))
    spend_probability: float = 0.35
    coinbase_per_day: int = 1
    fixed_tx_count: bool = False
    price_model: str = "random_walk"
    start_date: dt.date = dt.date(2015, 1, 1)
    start_price: float = 1000.0
    volatility: float = 0.02
    noise_sigma: float = 0.01
    planted_weights: dict[tuple[int, int, int], float] = field(
        default_factory=lambda: dict(DEFAULT_PLANTED)
    )

    def __post_init__(self):
        if self.days < 1:
            raise BadSpec(f"days must be >= 1, got {self.days}")
        if self.tx_per_day < 1:
            raise BadSpec(f"tx_per_day must be >= 1, got {self.tx_per_day}")
        if not (0.0 <= self.spend_probability <= 1.0):
            raise BadSpec(f"spend_probability must be in [0, 1], got {self.spend_probability}")
        if self.coinbase_per_day < 0:
            raise BadSpec("coinbase_per_day must be >= 0")
        if self.price_model not in PRICE_MODELS:
            raise BadSpec(f"unknown price model {self.price_model!r}")
        if self.start_price <= 0:
            raise BadSpec("start_price must be positive")
        if self.volatility < 0 or self.noise_sigma < 0:
            raise BadSpec("volatility and noise_sigma must be >= 0")
        _check_dist("in_sizes", self.in_sizes)
        _check_dist("out_sizes", self.out_sizes)
        for key in self.planted_weights:
            order, m, n = key
            if order < 1 or not (1 <= m <= CLAMP) or not (1 <= n <= CLAMP):
                raise BadSpec(f"planted weight key out of range: {key}")

    @property
    def max_planted_order(self) -> int:
        if not self.planted_weights:
            return 1
        return max(order for order, _, _ in self.planted_weights)

    def planted_vector(self) -> np.ndarray:
        """Dense weight vector aligned with feature_vector(graph, max order)."""
        w = np.zeros(self.max_planted_order * GRID_CELLS)
        for (order, m, n), coeff in self.planted_weights.items():
            w[(order - 1) * GRID_CELLS + (m - 1) * CLAMP + (n - 1)] = coeff
        return w


class _Sampler:
    def __init__(self, dist: dict[int, float]):
        items = sorted(dist.items())
        self.sizes = np.array([s for s, _ in items], dtype=np.int64)
        self.probs = np.array([p for _, p in items], dtype=np.float64)
        self.probs = self.probs / self.probs.sum()

    def draw(self, rng: np.random.Generator) -> int:
        return int(rng.choice(self.sizes, p=self.probs))


def generate(spec: SynthSpec) -> tuple[TransactionTable, PriceSeries]:
    """Deterministic for a given spec (including seed)."""
    rng = np.random.default_rng(spec.seed)
    in_sampler = _Sampler(spec.in_sizes)
    out_sampler = _Sampler(spec.out_sizes)
    planted_w = spec.planted_vector()

    records: list[TransactionRecord] = []
    pool: list[str] = []
    next_addr = 0
    next_tx = 0

    def fresh() -> str:
        nonlocal next_addr
        next_addr += 1
        return f"a{next_addr}"

    day0 = (spec.start_date - dt.date(1970, 1, 1)).days
    closes = [spec.start_price]
    price_dates = [spec.start_date]

    for day in range(spec.days):
        day_records: list[TransactionRecord] = []
        if spec.fixed_tx_count:
            n_tx = spec.tx_per_day
        else:
            n_tx = max(int(rng.poisson(spec.tx_per_day)), 1)
        total = n_tx + spec.coinbase_per_day
        day_start = (day0 + day) * SECONDS_PER_DAY
        step = SECONDS_PER_DAY // (total + 1)

        for slot in range(total):
            next_tx += 1
            tx_id = f"tx{next_tx:07d}"
            timestamp = day_start + (slot + 1) * step
            if slot < spec.coinbase_per_day:
                inputs: tuple[str, ...] = ()
            else:
                n_in = in_sampler.draw(rng)
                chosen = []
                for _ in range(n_in):
                    if pool and rng.random() < spec.spend_probability:
                        idx = int(rng.integers(len(pool)))
                        chosen.append(pool.pop(idx))
                    else:
                        chosen.append(fresh())
                inputs = tuple(chosen)
            n_out = out_sampler.draw(rng)
            outputs = tuple(fresh() for _ in range(n_out))
            pool.extend(outputs)
            day_records.append(TransactionRecord(tx_id, timestamp, inputs, outputs))

        if len(pool) > _POOL_HIGH:
            del pool[: len(pool) - _POOL_LOW]
        records.extend(day_records)

        # price step for the next day
        if day + 1 < spec.days:
            current = closes[-1]
            if spec.price_model == "random_walk":
                z = float(rng.standard_normal())
                nxt = current * float(np.exp(spec.volatility * z - 0.5 * spec.volatility**2))
            else:
                window = DayWindow(spec.start_date + dt.timedelta(days=day),
                                   TransactionTable.from_records(day_records),
                                   np.arange(len(day_records)))
                graph = build_graph(window)
                v = feature_vector(graph, spec.max_planted_order).astype(np.float64)
                drift = float(planted_w @ v)
                noise = spec.noise_sigma * current * float(rng.standard_normal())
                nxt = current + drift + noise
            # prices must stay positive for percentage errors to make sense
            nxt = max(nxt, 0.01 * current)
            closes.append(nxt)
            price_dates.append(spec.start_date + dt.timedelta(days=day + 1))

    prices = PriceSeries.from_entries(list(zip(price_dates, closes)))
    return TransactionTable.from_records(records), prices


def write_synth(spec: SynthSpec, tx_path, price_path) -> tuple[int, int]:
    """Generate and write both CSVs; returns (n_transactions, n_price_rows)."""
    transactions, prices = generate(spec)
    write_transactions(transactions, tx_path)
    write_prices(list(zip(prices.dates, prices.closes)), price_path)
    return len(transactions), len(prices.dates)
