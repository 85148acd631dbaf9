import datetime as dt
import json

import numpy as np
import pytest

from txpattern.backtest import (
    INTERVALS,
    SplitSpec,
    horizon_sweep,
    mape,
    run_backtest,
    trend_labels,
    window_sweep,
)
from txpattern.errors import (
    EmptyInput,
    InsufficientData,
    LengthMismatch,
    NonPositiveTruth,
)
from txpattern.regress import RegressorSpec
from txpattern.synth import SynthSpec, generate


def test_mape_hand_value():
    assert mape([110.0, 90.0], [100.0, 100.0]) == pytest.approx(10.0)
    assert mape([100.0], [100.0]) == 0.0


def test_mape_errors():
    with pytest.raises(LengthMismatch):
        mape([1.0, 2.0], [1.0])
    with pytest.raises(EmptyInput):
        mape([], [])
    with pytest.raises(NonPositiveTruth):
        mape([1.0], [0.0])
    with pytest.raises(NonPositiveTruth):
        mape([1.0], [-5.0])


def test_trend_labels_tie_counts_as_down():
    labels = trend_labels([101.0, 99.0, 100.0], [100.0, 100.0, 100.0])
    assert list(labels) == [1, -1, -1]


def test_split_validation():
    with pytest.raises(ValueError):
        SplitSpec(0.0)
    with pytest.raises(ValueError):
        SplitSpec(1.0)


def test_interval_presets():
    one = INTERVALS["interval1"]
    assert one.train_fraction == 0.8
    assert one.start == dt.date(2013, 8, 19)
    assert one.end == dt.date(2016, 7, 19)
    two = INTERVALS["interval2"]
    assert two.train_fraction == 0.7
    assert two.start == dt.date(2013, 4, 1)
    assert two.end == dt.date(2017, 4, 1)


@pytest.fixture(scope="module")
def planted_corpus():
    spec = SynthSpec(days=80, tx_per_day=40, seed=21,
                     price_model="planted_linear", noise_sigma=0.005)
    return generate(spec)


def _ridge(lam=1e-6):
    return RegressorSpec(kind="ridge", ridge_lambda=lam)


def test_run_backtest_report_fields(planted_corpus):
    records, prices = planted_corpus
    report = run_backtest(records, prices, SplitSpec(0.75, "t"), max_order=2,
                          r=0.8, window=2, spec=_ridge(), horizon=1)
    assert report.n_days == 80
    assert report.n_train_days == 60
    assert report.n_test_days == 20
    assert report.n_evaluated + report.n_skipped == 20
    assert report.first_test_date == report.dates[0]
    assert len(report.weights) == 2
    assert report.mape >= 0.0
    assert 0.0 <= report.trend_accuracy <= 1.0
    assert report.runtime_seconds > 0.0


def test_no_training_sees_test_dates(planted_corpus):
    records, prices = planted_corpus
    report = run_backtest(records, prices, SplitSpec(0.75, "t"), window=3,
                          spec=_ridge(), horizon=2)
    for info in report.offsets:
        assert info.train_end < report.first_test_date
        assert info.target_end < report.first_test_date
    assert report.offsets[0].offset == 2
    assert report.offsets[-1].offset == 4


def test_deeper_offsets_train_on_fewer_rows(planted_corpus):
    records, prices = planted_corpus
    report = run_backtest(records, prices, SplitSpec(0.75, "t"), window=4,
                          spec=_ridge())
    rows = [info.train_rows for info in report.offsets]
    assert rows == sorted(rows, reverse=True)
    assert rows[0] - rows[-1] == 3


def test_report_json_deterministic_across_threads(planted_corpus):
    records, prices = planted_corpus
    kw = dict(split=SplitSpec(0.75, "t"), max_order=2, r=0.8, window=2,
              spec=_ridge(), horizon=1)
    one = run_backtest(records, prices, threads=1, **kw)
    many = run_backtest(records, prices, threads=8, **kw)
    assert one.to_json() == many.to_json()


def test_report_json_shape(planted_corpus):
    records, prices = planted_corpus
    report = run_backtest(records, prices, SplitSpec(0.75, "t"), spec=_ridge())
    payload = json.loads(report.to_json())
    assert payload["schema_version"] == 2
    assert payload["n_evaluated"] == len(payload["records"])
    assert "runtime" not in report.to_json()
    assert "seed" not in payload
    got = [r["predicted"] for r in payload["records"]]
    assert np.allclose(got, report.predicted_prices)


def test_report_csv(tmp_path, planted_corpus):
    records, prices = planted_corpus
    report = run_backtest(records, prices, SplitSpec(0.75, "t"), spec=_ridge())
    path = tmp_path / "report.csv"
    report.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "date,true,predicted"
    assert len(lines) == 1 + report.n_evaluated


def test_sweeps_match_single_runs(planted_corpus):
    records, prices = planted_corpus
    split = SplitSpec(0.75, "t")
    by_horizon = dict(horizon_sweep(records, prices, split, [1, 3], spec=_ridge()))
    for h, got in by_horizon.items():
        want = run_backtest(records, prices, split, window=1, horizon=h,
                            spec=_ridge()).mape
        assert got == want
    by_window = dict(window_sweep(records, prices, split, [1, 2, 3], r=0.8,
                                  spec=_ridge()))
    for w, got in by_window.items():
        want = run_backtest(records, prices, split, window=w, r=0.8,
                            spec=_ridge()).mape
        assert got == want


def test_planted_relation_is_learnable(planted_corpus):
    records, prices = planted_corpus
    report = run_backtest(records, prices, SplitSpec(0.75, "t"), max_order=2,
                          window=1, spec=_ridge(), horizon=1)
    # 0.5% noise; a model that actually learned the relation sits well
    # under the ~2% daily moves a naive guess would make
    assert report.mape < 1.5


def test_contiguous_days_never_skip():
    # day windows are gap-filled, so every test day has its full history and
    # the defensive skip counter stays at zero even for a clipped date range
    spec = SynthSpec(days=40, tx_per_day=20, seed=5)
    transactions, prices = generate(spec)
    start = prices.first_date + dt.timedelta(days=24)
    split = SplitSpec(0.5, "tail", start=start, end=prices.last_date)
    report = run_backtest(transactions, prices, split, window=4,
                          spec=_ridge(lam=1.0))
    assert report.n_skipped == 0
    assert report.n_evaluated == report.n_test_days


def test_insufficient_data():
    spec = SynthSpec(days=3, tx_per_day=10, seed=1)
    records, prices = generate(spec)
    with pytest.raises(InsufficientData):
        run_backtest(records, prices, SplitSpec(0.5, "tiny"), window=5,
                     spec=_ridge())


def test_bad_horizon(planted_corpus):
    records, prices = planted_corpus
    with pytest.raises(ValueError):
        run_backtest(records, prices, SplitSpec(0.75, "t"), horizon=0)


def test_svr_backtest_runs(planted_corpus):
    records, prices = planted_corpus
    spec = RegressorSpec(kind="linear_svr")
    report = run_backtest(records, prices, SplitSpec(0.75, "t"), window=2,
                          spec=spec)
    assert report.model_kind == "linear_svr"
    assert np.isfinite(report.mape)
