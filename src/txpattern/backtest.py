"""Walk-forward evaluation of the pattern-feature price predictor.

The split is strictly chronological: the first ``train_fraction`` of days
train, the remainder test, and a structural check guarantees no model ever
sees a training row at or past the first test date (targets are trimmed so
even the looked-up future price stays inside the training region).

For a target day t' the ensemble combines one model per history offset j:
the offset-j model is trained to map a day's features to the j-day price
difference, and at evaluation time contributes price(t'-j) + predicted
diff.  Per-day features are computed once and shared by all offsets.

Reports serialize to JSON and CSV.  Wall-clock timing is kept on the report
object but deliberately left out of the JSON so identical runs produce
byte-identical report files.
"""

from __future__ import annotations

import datetime as dt
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .ensemble import HorizonEnsemble, decay_weights, predict_price
from .errors import (
    BadSpec,
    EmptyInput,
    InsufficientData,
    LengthMismatch,
    NonPositiveTruth,
    PriceMissing,
)
from .features import apply_scaler, day_feature_table, fit_scaler
from .ingest import DayWindow, PriceSeries, TransactionTable, partition_daily
from .regress import RegressorSpec, fit

REPORT_SCHEMA_VERSION = 2


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
    n_evaluated: int
    n_skipped: int
    first_test_date: dt.date
    weights: list[float]
    offsets: list[OffsetInfo]
    dates: list[dt.date]
    true_prices: np.ndarray
    predicted_prices: np.ndarray
    mape: float
    trend_accuracy: float
    runtime_seconds: float = field(default=0.0, compare=False)

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
            "n_evaluated": self.n_evaluated,
            "n_skipped": self.n_skipped,
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
        # runtime is intentionally not serialized: identical inputs must
        # yield byte-identical reports
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
            f"train_days={self.n_train_days} test_days={self.n_test_days} "
            f"evaluated={self.n_evaluated} skipped={self.n_skipped} | "
            f"MAPE={self.mape:.4f}% trend_acc={self.trend_accuracy:.4f}"
        )


class DayTable:
    """Per-day features and closes, and the one builder of training targets.

    ``train`` builds it over every window and cuts targets at the last
    close; the backtest and the sweeps build it over the split's windows and
    cut at the last training day."""

    def __init__(
        self,
        windows: list[DayWindow],
        prices: PriceSeries,
        max_order: int,
        threads: int | None,
    ):
        self.prices = prices
        self.dates, self.x = day_feature_table(windows, max_order, threads)
        self.date_index = {d: i for i, d in enumerate(self.dates)}
        self.base = np.empty(len(self.dates))
        for i, d in enumerate(self.dates):
            p = prices.price_on(d)
            if p is None:
                raise PriceMissing(d)
            self.base[i] = p

    def targets(self, offset: int, cut: dt.date) -> tuple[list[int], np.ndarray]:
        """Rows whose target date ``date + offset`` is on or before ``cut``
        and has a close, with targets ``price(date + offset) - price(date)``."""
        if offset < 1:
            raise BadSpec(f"horizon must be >= 1, got {offset}")
        rows = []
        targets = []
        for i, date in enumerate(self.dates):
            target_date = date + dt.timedelta(days=offset)
            if target_date > cut:
                break
            p_future = self.prices.price_on(target_date)
            if p_future is None:
                continue
            rows.append(i)
            targets.append(p_future - self.base[i])
        return rows, np.array(targets)

    def fit_offset(self, offset: int, spec: RegressorSpec, cut: dt.date):
        """Train the offset model on the rows of :meth:`targets`; returns
        (model, scaler, OffsetInfo)."""
        rows, y = self.targets(offset, cut)
        if len(rows) < 2:
            raise InsufficientData(
                f"offset {offset}: only {len(rows)} usable training rows"
            )
        x_train = self.x[rows]
        scaler = fit_scaler(x_train)
        train_start = self.dates[rows[0]]
        train_end = self.dates[rows[-1]]
        model = fit(
            spec,
            apply_scaler(scaler, x_train),
            y,
            train_range=(train_start, train_end),
        )
        info = OffsetInfo(
            offset=offset,
            train_rows=len(rows),
            train_start=train_start,
            train_end=train_end,
            target_end=train_end + dt.timedelta(days=offset),
        )
        return model, scaler, info

    def evaluate(self, ensemble: HorizonEnsemble, first: int):
        """Walk the days from index ``first``; skip days whose history
        offsets precede the data."""
        eval_dates: list[dt.date] = []
        truths: list[float] = []
        preds: list[float] = []
        bases: list[float] = []
        skipped = 0
        min_offset = min(ensemble.offsets)
        for i in range(first, len(self.dates)):
            target = self.dates[i]
            feats: dict[int, np.ndarray] = {}
            base_prices: dict[int, float] = {}
            ok = True
            for offset in ensemble.offsets:
                j = self.date_index.get(target - dt.timedelta(days=offset))
                if j is None:
                    ok = False
                    break
                feats[offset] = self.x[j]
                base_prices[offset] = float(self.base[j])
            if not ok:
                skipped += 1
                continue
            eval_dates.append(target)
            truths.append(float(self.base[i]))
            preds.append(predict_price(ensemble, feats, base_prices))
            bases.append(base_prices[min_offset])
        return eval_dates, np.array(truths), np.array(preds), np.array(bases), skipped


def _split_table(
    transactions: TransactionTable,
    prices: PriceSeries,
    split: SplitSpec,
    max_order: int,
    threads: int | None,
) -> DayTable:
    """The table over the split's windows, with machine parallelism for
    ``threads`` of None or 0."""
    windows = partition_daily(transactions)
    if split.start is not None:
        windows = [
            w for w in windows
            if split.start <= w.date <= (split.end or w.date)
        ]
    if len(windows) < 3:
        raise InsufficientData(
            f"need at least 3 day windows in range, got {len(windows)}"
        )
    return DayTable(windows, prices, max_order, _resolve_threads(threads))


def _resolve_threads(threads: int | None) -> int:
    return threads if threads is not None and threads > 0 else (os.cpu_count() or 1)


def run_backtest(
    transactions: TransactionTable,
    prices: PriceSeries,
    split: SplitSpec,
    max_order: int = 2,
    r: float = 0.8,
    window: int = 2,
    spec: RegressorSpec | None = None,
    horizon: int = 1,
    threads: int | None = None,
) -> BacktestReport:
    """Full end-to-end backtest; see module docstring for semantics."""
    t0 = time.perf_counter()
    table = _split_table(transactions, prices, split, max_order, threads)
    report = _run_on_table(table, split, max_order, r, window,
                           spec or RegressorSpec(), horizon)
    report.runtime_seconds = time.perf_counter() - t0
    return report


def _run_on_table(
    table: DayTable,
    split: SplitSpec,
    max_order: int,
    r: float,
    window: int,
    spec: RegressorSpec,
    horizon: int,
    fitted: dict[int, tuple] | None = None,
) -> BacktestReport:
    n_days = len(table.dates)
    n_train = min(max(int(split.train_fraction * n_days), 1), n_days - 1)
    first_test_date = table.dates[n_train]
    weights = decay_weights(r, window)
    offsets = [horizon + i for i in range(window)]
    models = []
    infos = []
    for offset in offsets:
        if fitted is not None and offset in fitted:
            model, scaler, info = fitted[offset]
        else:
            model, scaler, info = table.fit_offset(
                offset, spec, table.dates[n_train - 1])
            if info.target_end >= first_test_date:
                raise RuntimeError(
                    "chronology violation: training touched the test range")
            if fitted is not None:
                fitted[offset] = (model, scaler, info)
        models.append((offset, model, scaler))
        infos.append(info)
    ensemble = HorizonEnsemble(models, weights)
    eval_dates, truths, preds, bases, skipped = table.evaluate(ensemble, n_train)
    if len(eval_dates) == 0:
        raise InsufficientData("no evaluable test days")
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
        n_evaluated=len(eval_dates),
        n_skipped=skipped,
        first_test_date=first_test_date,
        weights=[float(a) for a in weights.alphas],
        offsets=infos,
        dates=eval_dates,
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
    r: float = 0.8,
    threads: int | None = None,
) -> list[tuple[int, float]]:
    """Single-model (window 1) backtest per horizon; features computed once."""
    if not horizons:
        return []
    spec = spec or RegressorSpec()
    table = _split_table(transactions, prices, split, max_order, threads)
    return [
        (h, _run_on_table(table, split, max_order, r, 1, spec, h).mape)
        for h in horizons
    ]


def window_sweep(
    transactions: TransactionTable,
    prices: PriceSeries,
    split: SplitSpec,
    windows: list[int],
    r: float,
    max_order: int = 2,
    spec: RegressorSpec | None = None,
    horizon: int = 1,
    threads: int | None = None,
) -> list[tuple[int, float]]:
    """Backtest per window size, reusing offset models shared between runs."""
    if not windows:
        return []
    spec = spec or RegressorSpec()
    table = _split_table(transactions, prices, split, max_order, threads)
    cache: dict[int, tuple] = {}
    return [
        (w, _run_on_table(table, split, max_order, r, w, spec, horizon,
                          fitted=cache).mape)
        for w in windows
    ]
