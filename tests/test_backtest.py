import datetime as dt
import json

import numpy as np
import pytest

from txpattern import backtest
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
from txpattern.regress import RegressorSpec, fit, predict
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
    assert len(report.dates) == len(report.predicted_prices) == 20
    assert report.first_test_date == report.dates[0]
    assert len(report.weights) == 2
    assert report.mape >= 0.0
    assert 0.0 <= report.trend_accuracy <= 1.0


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


def test_report_json_deterministic_across_runs(planted_corpus):
    records, prices = planted_corpus
    kw = dict(split=SplitSpec(0.75, "t"), max_order=2, r=0.8, window=2,
              spec=_ridge(), horizon=1)
    first = run_backtest(records, prices, **kw)
    second = run_backtest(records, prices, **kw)
    assert first.to_json() == second.to_json()


def test_report_json_shape(planted_corpus):
    records, prices = planted_corpus
    report = run_backtest(records, prices, SplitSpec(0.75, "t"), spec=_ridge())
    payload = json.loads(report.to_json())
    assert payload["schema_version"] == 3
    assert payload["n_test_days"] == len(payload["records"]) == len(report.dates)
    assert "n_evaluated" not in payload and "n_skipped" not in payload
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
    assert len(lines) == 1 + report.n_test_days


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


def test_horizon_sweep_reuses_a_repeated_horizon(planted_corpus, monkeypatch):
    records, prices = planted_corpus
    fits = []
    monkeypatch.setattr(backtest, "fit", lambda *a, **k: fits.append(a) or fit(*a, **k))
    rows = horizon_sweep(records, prices, SplitSpec(0.75, "t"), [1, 2, 1], spec=_ridge())
    assert [h for h, _ in rows] == [1, 2, 1]
    assert rows[0][1] == rows[2][1]
    assert len(fits) == 2


def _per_day_predictions(table, n_train, alphas, horizon, models):
    """Test row i predicted on its own: one number per offset j, the close
    of row i - j plus the offset model's w.x + b on that row, combined
    anchored on the first."""
    out = []
    for i in range(n_train, len(table.dates)):
        est = np.array([
            float(table.base[i - j])
            + (float(table.x[i - j] @ model.weights) + model.bias)
            for j, model in enumerate(models, start=horizon)
        ])
        out.append(est[0] + float(alphas @ (est - est[0])))
    return np.array(out)


def _offset_models(records, prices, split, spec, offsets):
    table, n_train = backtest._split_table(records, prices, split, 2)
    cut = table.dates[n_train - 1]
    return table, n_train, [table.fit_offset(j, spec, cut)[0] for j in offsets]


@pytest.mark.parametrize("kind", ["ridge", "linear_svr"])
@pytest.mark.parametrize("window,horizon", [(1, 1), (2, 1), (3, 2)])
def test_block_predictions_match_a_per_day_loop(planted_corpus, kind, window, horizon):
    records, prices = planted_corpus
    split, spec = SplitSpec(0.75, "t"), RegressorSpec(kind=kind)
    report = run_backtest(records, prices, split, r=0.8, window=window, spec=spec,
                          horizon=horizon)
    table, n_train, models = _offset_models(records, prices, split, spec,
                                            range(horizon, horizon + window))
    want = _per_day_predictions(table, n_train, np.array(report.weights), horizon,
                                models)
    got = report.predicted_prices
    assert got.shape == want.shape == (report.n_test_days,)
    # within one rounding step: a block's matrix-vector product may round
    # differently from a dot product per row
    assert (np.abs(got - want) <= np.spacing(np.abs(want))).all()


def test_window_one_is_its_single_model_bit_for_bit(planted_corpus):
    records, prices = planted_corpus
    split = SplitSpec(0.75, "t")
    report = run_backtest(records, prices, split, window=1, horizon=2, spec=_ridge())
    table, n_train, [model] = _offset_models(records, prices, split, _ridge(), [2])
    rows = slice(n_train - 2, len(table.dates) - 2)
    want = table.base[rows] + predict(model, table.x[rows])
    assert np.array_equal(report.predicted_prices, want)


def test_planted_relation_is_learnable(planted_corpus):
    records, prices = planted_corpus
    report = run_backtest(records, prices, SplitSpec(0.75, "t"), max_order=2,
                          window=1, spec=_ridge(), horizon=1)
    # 0.5% noise; a model that actually learned the relation sits well
    # under the ~2% daily moves a naive guess would make
    assert report.mape < 1.5


def test_contiguous_days_never_skip():
    # day windows are gap-filled, so every test day has its full history and
    # none is skipped, even for a clipped date range
    spec = SynthSpec(days=40, tx_per_day=20, seed=5)
    transactions, prices = generate(spec)
    start = prices.first_date + dt.timedelta(days=24)
    split = SplitSpec(0.5, "tail", start=start, end=prices.last_date)
    report = run_backtest(transactions, prices, split, window=4,
                          spec=_ridge(lam=1.0))
    assert report.n_test_days == len(report.predicted_prices) == len(report.dates)
    assert np.isfinite(report.predicted_prices).all()


def test_end_alone_bounds_the_range(planted_corpus):
    records, prices = planted_corpus
    end = prices.first_date + dt.timedelta(days=39)
    report = run_backtest(records, prices, SplitSpec(0.8, end=end), spec=_ridge())
    assert report.n_days == 40
    assert report.dates[-1] == end
    both = SplitSpec(0.8, start=prices.first_date, end=end)
    assert report.to_json() == run_backtest(records, prices, both,
                                            spec=_ridge()).to_json()


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
