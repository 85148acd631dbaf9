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

import bisect
import datetime as dt
from dataclasses import dataclass, field

import numpy as np

from .errors import BadSpec
from .features import day_feature_table
from .ingest import (
    SECONDS_PER_DAY,
    PriceSeries,
    TransactionRecord,
    TransactionTable,
    partition_daily,
    write_prices,
    write_transactions,
)
from .korder import CLAMP, GRID_CELLS

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
        if self.seed < 0:
            raise BadSpec(f"seed must be >= 0, got {self.seed}")
        if not (0.0 <= self.spend_probability <= 1.0):
            raise BadSpec(f"spend_probability must be in [0, 1], got {self.spend_probability}")
        if self.coinbase_per_day < 0:
            raise BadSpec("coinbase_per_day must be >= 0")
        if self.price_model not in PRICE_MODELS:
            raise BadSpec(f"unknown price model {self.price_model!r}")
        if not 0 < self.start_price < np.inf:
            raise BadSpec("start_price must be positive and finite")
        if not (0 <= self.volatility < np.inf and 0 <= self.noise_sigma < np.inf):
            raise BadSpec("volatility and noise_sigma must be finite and >= 0")
        _check_dist("in_sizes", self.in_sizes)
        _check_dist("out_sizes", self.out_sizes)
        for key, coeff in self.planted_weights.items():
            order, m, n = key
            if order < 1 or not (1 <= m <= CLAMP) or not (1 <= n <= CLAMP):
                raise BadSpec(f"planted weight key out of range: {key}")
            if not np.isfinite(coeff):
                raise BadSpec(f"planted weight {key} must be finite, got {coeff}")

    @property
    def max_planted_order(self) -> int:
        if not self.planted_weights:
            return 1
        return max(order for order, _, _ in self.planted_weights)

    def planted_vector(self) -> np.ndarray:
        """Dense weight vector aligned with a day's feature row at the max order."""
        w = np.zeros(self.max_planted_order * GRID_CELLS)
        for (order, m, n), coeff in self.planted_weights.items():
            w[(order - 1) * GRID_CELLS + (m - 1) * CLAMP + (n - 1)] = coeff
        return w


class _Sampler:
    """Draws sizes as ``rng.choice(sizes, p=probs)`` does, from the same
    ``rng.random()``, without checking ``p`` again on every draw."""

    def __init__(self, dist: dict[int, float]):
        items = sorted(dist.items())
        self.sizes = [s for s, _ in items]
        probs = np.array([p for _, p in items], dtype=np.float64)
        cdf = np.cumsum(probs / probs.sum())
        self.cdf = (cdf / cdf[-1]).tolist()

    def draw(self, rng: np.random.Generator) -> int:
        return self.sizes[bisect.bisect_right(self.cdf, rng.random())]


def _generate(spec: SynthSpec) -> tuple[list[TransactionRecord],
                                        TransactionTable | None, PriceSeries]:
    """The rows and prices of :func:`generate`, and the rows' table when the
    price model read their features (else None)."""
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
    shocks: list[float] = []    # one standard normal per price step

    for day in range(spec.days):
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
            records.append(TransactionRecord(tx_id, timestamp, inputs, outputs))

        if len(pool) > _POOL_HIGH:
            del pool[: len(pool) - _POOL_LOW]
        if day + 1 < spec.days:
            shocks.append(float(rng.standard_normal()))

    table = None
    if spec.price_model == "random_walk":
        try:
            half_variance = 0.5 * spec.volatility**2
        except OverflowError:
            raise BadSpec(f"volatility {spec.volatility!r} is too large") from None
    else:
        table = TransactionTable.from_records(records)
        _, features = day_feature_table(partition_daily(table), spec.max_planted_order)
    closes = [spec.start_price]
    for day, z in enumerate(shocks):
        current = closes[-1]
        if spec.price_model == "random_walk":
            nxt = current * float(np.exp(spec.volatility * z - half_variance))
        else:
            drift = float(planted_w @ features[day])
            nxt = current + drift + spec.noise_sigma * current * z
        # prices must stay positive for percentage errors to make sense, and
        # every price file must hold finite closes
        nxt = max(nxt, 0.01 * current)
        if not 0 < nxt < np.inf:
            raise BadSpec(f"the close of {spec.start_date + dt.timedelta(days=day + 1)} "
                          f"is {nxt!r}: prices must stay positive and finite")
        closes.append(nxt)
    return records, table, PriceSeries(spec.start_date, closes)


def generate(spec: SynthSpec) -> tuple[TransactionTable, PriceSeries]:
    """Deterministic for a given spec (including seed)."""
    records, table, prices = _generate(spec)
    if table is None:
        table = TransactionTable.from_records(records)
    return table, prices


def write_synth(spec: SynthSpec, tx_path, price_path) -> tuple[int, int]:
    """Generate and write both CSVs; returns (n_transactions, n_price_rows)."""
    records, _, prices = _generate(spec)
    write_transactions(records, tx_path)
    write_prices(list(zip(prices.dates, prices.closes)), price_path)
    return len(records), len(prices)
