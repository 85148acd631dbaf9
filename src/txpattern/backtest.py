"""Walk-forward evaluation of the pattern-feature price predictor.

The split is strictly chronological: the first ``train_fraction`` of days
train, the remainder test, and a structural check guarantees no model ever
sees a training row at or past the first test date (targets are trimmed so
even the future close a target reads stays inside the training region).

A prediction combines one model per history offset j.  The offset-j model
is trained to map a day's features to the j-day price difference, and for
a target day t' contributes price(t'-j) + predicted diff.  A table's days
are consecutive, so day t'-j of the target in row i is row i - j, and a
model's training rows are the table's leading rows.  A window of w offsets
from the horizon up is combined with the weights of :func:`decay_weights`,
produced by a growth recurrence: starting from [1.0], each step keeps the
prefix, splits the last weight into last*r and last*(1-r), and appends.
Weight mass therefore decays toward deeper history, the first weight
attaching to the nearest offset, and the weights always sum to one.

The backtest and both sweeps are runs of one evaluation: the split's
table of per-day features is built once, each offset model is fitted once
for all runs, and a run predicts all its test rows at once, one
matrix-vector product per offset on the rows j days behind them.

Reports serialize to JSON and CSV; identical runs produce byte-identical
report files.
"""

from __future__ import annotations

import datetime as dt
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    BadSpec,
    EmptyInput,
    InsufficientData,
    LengthMismatch,
    NonPositiveTruth,
    PriceMissing,
)
from .features import day_feature_table
from .ingest import DayWindow, PriceSeries, TransactionTable, partition_daily
from .regress import FittedModel, RegressorSpec, fit, predict

REPORT_SCHEMA_VERSION = 3


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float
    name: str = "custom"
    start: dt.date | None = None
    end: dt.date | None = None

    def __post_init__(self):
        if not (0.0 < self.train_fraction < 1.0):
            raise BadSpec(f"train_fraction must be in (0, 1), got {self.train_fraction}")


INTERVALS = {
    "interval1": SplitSpec(0.8, "interval1", dt.date(2013, 8, 19), dt.date(2016, 7, 19)),
    "interval2": SplitSpec(0.7, "interval2", dt.date(2013, 4, 1), dt.date(2017, 4, 1)),
}


def decay_weights(r: float, window: int) -> np.ndarray:
    """Weight vector [a_1..a_window] from the split-the-last recurrence."""
    if not (0.0 < r < 1.0):
        raise BadSpec(f"decay must lie in (0, 1), got {r}")
    if window < 1:
        raise BadSpec(f"window must be >= 1, got {window}")
    alphas = [1.0]
    for _ in range(window - 1):
        last = alphas[-1]
        alphas[-1] = last * r
        alphas.append(last * (1.0 - r))
    return np.array(alphas, dtype=np.float64)


def integrate(estimates, alphas: np.ndarray):
    """Convex combination sum(a_j * estimate_j) of one number per offset,
    or row by row of one block of rows per offset.

    Evaluated anchored on the first estimate so that equal estimates come
    back unchanged and a single estimate passes through bit-exactly."""
    est = np.asarray(estimates, dtype=np.float64)
    if est.shape[0] != alphas.shape[0]:
        raise LengthMismatch(f"{est.shape[0]} estimates vs {alphas.shape[0]} weights")
    return est[0] + alphas @ (est - est[0])


def predict_price(
    models: list[FittedModel],
    alphas: np.ndarray,
    features: list[np.ndarray],
    base_prices: list,
):
    """Integrated price estimate; entry j of each list belongs to the j-th
    offset: one feature row and its base price, or a block of rows and
    their base prices, which gives one estimate per row."""
    if not len(models) == len(features) == len(base_prices):
        raise LengthMismatch(
            f"{len(models)} models vs {len(features)} feature rows "
            f"vs {len(base_prices)} base prices"
        )
    estimates = [
        base + predict(model, x)
        for model, x, base in zip(models, features, base_prices)
    ]
    return integrate(estimates, alphas)


def mape(pred, truth) -> float:
    """Mean absolute percentage error, in percent."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise LengthMismatch(f"{pred.shape} vs {truth.shape}")
    if pred.size == 0:
        raise EmptyInput("mape of empty inputs")
    if (truth <= 0).any():
        raise NonPositiveTruth("true prices must be positive")
    return float(np.mean(np.abs(pred - truth) / truth) * 100.0)


def trend_labels(pred_prices, base_prices) -> np.ndarray:
    """+1 where predicted rises above the base price, -1 otherwise (ties -1)."""
    pred = np.asarray(pred_prices, dtype=np.float64)
    base = np.asarray(base_prices, dtype=np.float64)
    if pred.shape != base.shape:
        raise LengthMismatch(f"{pred.shape} vs {base.shape}")
    return np.where(pred > base, 1, -1).astype(np.int64)


@dataclass
class OffsetInfo:
    offset: int
    train_rows: int
    train_start: dt.date
    train_end: dt.date    # last feature date used
    target_end: dt.date   # last future date a target peeked at


@dataclass
class BacktestReport:
    interval: str
    max_order: int
    r: float
    window: int
    horizon: int
    model_kind: str
    n_days: int
    n_train_days: int
    n_test_days: int
    first_test_date: dt.date
    weights: list[float]
    offsets: list[OffsetInfo]
    dates: list[dt.date]
    true_prices: np.ndarray
    predicted_prices: np.ndarray
    mape: float
    trend_accuracy: float

    def to_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "interval": self.interval,
            "max_order": self.max_order,
            "r": self.r,
            "window": self.window,
            "horizon": self.horizon,
            "model_kind": self.model_kind,
            "n_days": self.n_days,
            "n_train_days": self.n_train_days,
            "n_test_days": self.n_test_days,
            "first_test_date": self.first_test_date.isoformat(),
            "weights": self.weights,
            "offsets": [
                {
                    "offset": o.offset,
                    "train_rows": o.train_rows,
                    "train_start": o.train_start.isoformat(),
                    "train_end": o.train_end.isoformat(),
                    "target_end": o.target_end.isoformat(),
                }
                for o in self.offsets
            ],
            "mape_percent": self.mape,
            "trend_accuracy": self.trend_accuracy,
            "records": [
                {
                    "date": d.isoformat(),
                    "true": float(t),
                    "predicted": float(p),
                }
                for d, t, p in zip(self.dates, self.true_prices, self.predicted_prices)
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def write_json(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json())

    def write_csv(self, path: str | Path) -> None:
        with Path(path).open("w", encoding="utf-8") as fh:
            fh.write("date,true,predicted\n")
            for d, t, p in zip(self.dates, self.true_prices, self.predicted_prices):
                fh.write(f"{d.isoformat()},{float(t)!r},{float(p)!r}\n")

    def summary(self) -> str:
        return (
            f"interval={self.interval} k={self.max_order} r={self.r} "
            f"window={self.window} horizon={self.horizon} model={self.model_kind} | "
            f"train_days={self.n_train_days} test_days={self.n_test_days} | "
            f"MAPE={self.mape:.4f}% trend_acc={self.trend_accuracy:.4f}"
        )


class DayTable:
    """Per-day features and closes by position, and the one builder of
    training targets.

    The windows must be consecutive days, so row ``i`` is day
    ``dates[0] + i`` and a day ``j`` days earlier is row ``i - j``.  Row
    ``i``'s close is ``prices.closes[start + i]``, and the close ``j`` days
    after it is ``j`` positions further on.  ``train`` builds the table over
    every window and cuts targets at the last close; the backtest and the
    sweeps build it over the split's windows and cut at the last training
    day."""

    def __init__(self, windows: list[DayWindow], prices: PriceSeries, max_order: int):
        for a, b in zip(windows, windows[1:]):
            if (b.date - a.date).days != 1:
                raise BadSpec(f"day windows must be consecutive: {a.date} is "
                              f"followed by {b.date}")
        self.prices = prices
        self.start = (windows[0].date - prices.first_date).days if windows else 0
        end = self.start + len(windows)
        # the first row without a close: row 0 when the rows start outside
        # the closes, else the day after the last close
        if windows and not 0 <= self.start < len(prices):
            raise PriceMissing(windows[0].date)
        if end > len(prices):
            raise PriceMissing(prices.last_date + dt.timedelta(days=1))
        self.dates, self.x = day_feature_table(windows, max_order)
        self.base = prices.closes[self.start:end]

    def targets(self, offset: int, cut: dt.date) -> tuple[int, np.ndarray]:
        """The number n of leading rows whose target date ``date + offset``
        is on or before both ``cut`` and the last close, and their targets
        ``price(date + offset) - price(date)``."""
        _check_horizon(offset)
        last = min((cut - self.prices.first_date).days, len(self.prices) - 1)
        n = min(max(last - offset - self.start + 1, 0), len(self.dates))
        ahead = self.start + offset
        return n, self.prices.closes[ahead:ahead + n] - self.base[:n]

    def fit_offset(self, offset: int, spec: RegressorSpec, cut: dt.date):
        """Train the offset model on the rows of :meth:`targets`; returns
        (model, OffsetInfo)."""
        n, y = self.targets(offset, cut)
        if n < 2:
            raise InsufficientData(f"offset {offset}: only {n} usable training rows")
        train_start = self.dates[0]
        train_end = self.dates[n - 1]
        model = fit(spec, self.x[:n], y, train_range=(train_start, train_end))
        info = OffsetInfo(
            offset=offset,
            train_rows=n,
            train_start=train_start,
            train_end=train_end,
            target_end=train_end + dt.timedelta(days=offset),
        )
        return model, info


def _check_horizon(horizon: int) -> None:
    if horizon < 1:
        raise BadSpec(f"horizon must be >= 1, got {horizon}")


def check_params(max_order: int, horizons: list[int] = (), r: float | None = None,
                 windows: list[int] = ()) -> None:
    """Raise for an order, decay ratio, window or horizon out of range, so a
    run can fail before it reads data or builds features.  ``r`` is checked
    only when ``windows`` are given."""
    if max_order < 1:
        raise BadSpec(f"order must be >= 1, got {max_order}")
    for window in windows:
        decay_weights(r, window)
    for horizon in horizons:
        _check_horizon(horizon)


def _split_table(
    transactions: TransactionTable,
    prices: PriceSeries,
    split: SplitSpec,
    max_order: int,
) -> tuple[DayTable, int]:
    """The table over the split's windows, and its number of training rows."""
    first = split.start or dt.date.min
    last = split.end or dt.date.max
    windows = [w for w in partition_daily(transactions) if first <= w.date <= last]
    if len(windows) < 3:
        raise InsufficientData(
            f"need at least 3 day windows in range, got {len(windows)}"
        )
    n_days = len(windows)
    n_train = min(max(int(split.train_fraction * n_days), 1), n_days - 1)
    return DayTable(windows, prices, max_order), n_train


def _evaluate(
    transactions: TransactionTable,
    prices: PriceSeries,
    split: SplitSpec,
    max_order: int,
    spec: RegressorSpec,
    runs: list[tuple[int, np.ndarray]],
) -> tuple[DayTable, int, dict[int, tuple], list[np.ndarray]]:
    """Each run ``(horizon, alphas)`` on the split's table: the predicted
    closes of the test rows ``n_train..``, combining ``len(alphas)`` offset
    models from ``horizon`` up.  Returns the table, its number of training
    rows, the offset models by offset in order of first use, each fitted
    once for all runs, and one prediction array per run."""
    table, n_train = _split_table(transactions, prices, split, max_order)
    n = len(table.dates)
    fitted: dict[int, tuple] = {}
    preds = []
    for horizon, alphas in runs:
        offsets = range(horizon, horizon + len(alphas))
        for j in offsets:
            if j not in fitted:
                fitted[j] = table.fit_offset(j, spec, table.dates[n_train - 1])
                if fitted[j][1].target_end >= table.dates[n_train]:
                    raise RuntimeError(
                        "chronology violation: training touched the test range")
        # each offset model trained on >= 2 rows before the test range, so
        # n_train >= j + 2 and every test row i has its row i - j
        preds.append(predict_price([fitted[j][0] for j in offsets], alphas,
                                   [table.x[n_train - j:n - j] for j in offsets],
                                   [table.base[n_train - j:n - j] for j in offsets]))
    return table, n_train, fitted, preds


def run_backtest(
    transactions: TransactionTable,
    prices: PriceSeries,
    split: SplitSpec,
    max_order: int = 2,
    r: float = 0.8,
    window: int = 2,
    spec: RegressorSpec | None = None,
    horizon: int = 1,
) -> BacktestReport:
    """Full end-to-end backtest; see module docstring for semantics."""
    check_params(max_order, [horizon], r, [window])
    spec = spec or RegressorSpec()
    alphas = decay_weights(r, window)
    table, n_train, fitted, (preds,) = _evaluate(
        transactions, prices, split, max_order, spec, [(horizon, alphas)])
    n_days = len(table.dates)
    truths = table.base[n_train:]
    bases = table.base[n_train - horizon:n_days - horizon]
    pred_trend = trend_labels(preds, bases)
    true_trend = trend_labels(truths, bases)
    return BacktestReport(
        interval=split.name,
        max_order=max_order,
        r=r,
        window=window,
        horizon=horizon,
        model_kind=spec.kind,
        n_days=n_days,
        n_train_days=n_train,
        n_test_days=n_days - n_train,
        first_test_date=table.dates[n_train],
        weights=[float(a) for a in alphas],
        offsets=[info for _, info in fitted.values()],
        dates=table.dates[n_train:],
        true_prices=truths,
        predicted_prices=preds,
        mape=mape(preds, truths),
        trend_accuracy=float(np.mean(pred_trend == true_trend)),
    )


def horizon_sweep(
    transactions: TransactionTable,
    prices: PriceSeries,
    split: SplitSpec,
    horizons: list[int],
    max_order: int = 2,
    spec: RegressorSpec | None = None,
) -> list[tuple[int, float]]:
    """Single-model (window 1, weight 1.0) MAPE per horizon; features
    computed once, and a repeated horizon reuses its model."""
    if not horizons:
        return []
    check_params(max_order, horizons)
    table, n_train, _, preds = _evaluate(
        transactions, prices, split, max_order, spec or RegressorSpec(),
        [(h, np.ones(1)) for h in horizons])
    return [(h, mape(p, table.base[n_train:])) for h, p in zip(horizons, preds)]


def window_sweep(
    transactions: TransactionTable,
    prices: PriceSeries,
    split: SplitSpec,
    windows: list[int],
    r: float,
    max_order: int = 2,
    spec: RegressorSpec | None = None,
    horizon: int = 1,
) -> list[tuple[int, float]]:
    """MAPE per window size, reusing offset models shared between runs."""
    if not windows:
        return []
    check_params(max_order, [horizon], r, windows)
    table, n_train, _, preds = _evaluate(
        transactions, prices, split, max_order, spec or RegressorSpec(),
        [(horizon, decay_weights(r, w)) for w in windows])
    return [(w, mape(p, table.base[n_train:])) for w, p in zip(windows, preds)]
