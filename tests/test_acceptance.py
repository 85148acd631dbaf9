"""Acceptance gate: one test per release criterion.

The terminal summary ends with one ``ACCEPTANCE <n> <label>: PASS/FAIL/SKIP``
line per criterion (emitted by conftest, so they show in any capture mode).
Tolerances and budgets are pinned in the assertions; the numbered labels
match the project's release checklist.
"""

import datetime as dt
import os
import time
from pathlib import Path

import numpy as np
import pytest

from txpattern import kernels
from txpattern.backtest import (INTERVALS, SplitSpec, decay_weights, horizon_sweep,
                                predict_price, run_backtest)
from txpattern.cli import main as cli_main
from txpattern.features import day_feature_table
from txpattern.ingest import parse_prices, parse_transactions, partition_daily
from txpattern.korder import feature_vector, occurrence_matrices, occurrence_matrix_oracle
from txpattern.regress import RegressorSpec, fit, predict
from txpattern.synth import SynthSpec, generate
from txpattern.txgraph import build_graph

from conftest import day_windows, random_window, toy_records


def criterion(number: int, label: str):
    """Tag a test as one numbered release criterion.

    conftest collects the tags and prints one ACCEPTANCE line per criterion
    in the terminal summary, visible in any capture mode.
    """
    def decorate(fn):
        fn._acceptance = (number, label)
        return fn
    return decorate


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    kernels.warmup()


@pytest.fixture(scope="module")
def toy_graph():
    return build_graph(day_windows(toy_records())[0])


@criterion(1, "toy fixture exactness")
def test_1_toy_fixture_exact(toy_graph):
    def check():
        fast = occurrence_matrices(toy_graph, 2)
        slow = [occurrence_matrix_oracle(toy_graph, k) for k in (1, 2)]
        return fast, slow

    fast, slow = check()
    expect1 = np.zeros((20, 20), dtype=np.int64)
    expect1[2 - 1, 1 - 1] = 3
    expect1[1 - 1, 2 - 1] = 1
    expect2 = np.zeros((20, 20), dtype=np.int64)
    expect2[2 - 1, 1 - 1] = 1
    expect2[1 - 1, 1 - 1] = 1
    assert np.array_equal(fast[0].counts, expect1)
    assert np.array_equal(fast[1].counts, expect2)
    assert np.array_equal(slow[0].counts, expect1)
    assert np.array_equal(slow[1].counts, expect2)

    best = min(_timed(check) for _ in range(50))
    assert best < 1e-3, f"toy fixture took {best * 1e3:.3f} ms"


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


@criterion(2, "oracle equivalence on 1000 random graphs")
def test_2_oracle_equivalence():
    rng = np.random.default_rng(90210)
    t0 = time.perf_counter()
    for i in range(1000):
        graph = build_graph(random_window(rng, max_tx=200, max_addr=600))
        k = 1 + i % 4
        fast = occurrence_matrices(graph, k)[k - 1]
        slow = occurrence_matrix_oracle(graph, k)
        assert fast == slow, f"divergence at instance {i}, order {k}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"equivalence sweep took {elapsed:.1f} s"


@criterion(3, "decay weight recurrence")
def test_3_weight_recurrence():
    for r in (0.1, 0.5, 0.8, 0.92, 0.98):
        previous = None
        for window in range(1, 65):
            alphas = decay_weights(r, window)
            assert abs(alphas.sum() - 1.0) < 1e-12
            assert (alphas > 0).all()
            if previous is not None:
                assert np.array_equal(previous[: window - 2], alphas[: window - 2])
            previous = alphas
    golden = decay_weights(0.8, 3)
    assert np.allclose(golden, [0.8, 0.16, 0.04], rtol=0, atol=1e-15)


@criterion(4, "planted relation recovery")
def test_4_planted_recovery():
    t0 = time.perf_counter()
    results = {}
    for sigma in (0.0, 0.01):
        spec = SynthSpec(days=400, tx_per_day=200, seed=11,
                         price_model="planted_linear", noise_sigma=sigma)
        records, prices = generate(spec)
        report = run_backtest(
            records, prices, SplitSpec(0.8, "planted"), max_order=2,
            window=1, horizon=1,
            spec=RegressorSpec(kind="ridge", ridge_lambda=1e-6),
        )
        results[sigma] = report.mape
    assert results[0.0] < 0.1, f"noise-free MAPE {results[0.0]:.4f}%"
    assert results[0.01] < 2.0, f"1%-noise MAPE {results[0.01]:.4f}%"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"planted recovery took {elapsed:.1f} s"


@criterion(5, "error grows with horizon")
def test_5_horizon_monotonicity():
    wins = 0
    for seed in range(10):
        spec = SynthSpec(days=150, tx_per_day=30, seed=seed,
                         price_model="random_walk", volatility=0.02)
        records, prices = generate(spec)
        sweep = dict(horizon_sweep(records, prices, SplitSpec(0.7, "rw"),
                                   [1, 7], max_order=1,
                                   spec=RegressorSpec(ridge_lambda=1.0)))
        if sweep[7] >= sweep[1]:
            wins += 1
    assert wins >= 8, f"horizon-7 error exceeded horizon-1 in only {wins}/10 runs"


@criterion(6, "integration identity and convexity")
def test_6_integration_identity():
    spec = SynthSpec(days=260, tx_per_day=30, seed=33,
                     price_model="planted_linear", noise_sigma=0.01)
    records, prices = generate(spec)
    windows = partition_daily(records)
    dates, table = day_feature_table(windows, 2)
    base = np.array([prices.price_on(d) for d in dates])

    def fit_offset(offset: int):
        x = table[: 100 - offset]
        y = np.array([
            prices.price_on(dates[i + offset]) - base[i]
            for i in range(100 - offset)
        ])
        return fit(RegressorSpec(ridge_lambda=1.0), x, y)

    m1 = fit_offset(1)
    m2 = fit_offset(2)
    w1 = decay_weights(0.8, 1)
    w2 = decay_weights(0.8, 2)

    rng = np.random.default_rng(0)
    days = rng.choice(np.arange(102, len(dates)), size=100, replace=False)
    for i in days:
        e1 = float(base[i - 1]) + predict(m1, table[i - 1])
        single = predict_price([m1], w1, [table[i - 1]], [float(base[i - 1])])
        assert single == e1, "window-1 output must equal the single model bit for bit"

        e2 = float(base[i - 2]) + predict(m2, table[i - 2])
        combined = predict_price(
            [m1, m2], w2,
            [table[i - 1], table[i - 2]],
            [float(base[i - 1]), float(base[i - 2])],
        )
        assert min(e1, e2) <= combined <= max(e1, e2)


@pytest.fixture(scope="module")
def interval_corpus():
    # spans both named evaluation windows (2013-04-01 .. 2017-04-01)
    spec = SynthSpec(days=1480, tx_per_day=15, seed=77,
                     start_date=dt.date(2013, 4, 1),
                     price_model="random_walk", volatility=0.015)
    return generate(spec)


@criterion(7, "no training leakage on either interval preset")
def test_7_leakage_guard(interval_corpus):
    records, prices = interval_corpus
    for name, split in INTERVALS.items():
        report = run_backtest(records, prices, split, max_order=1, window=3,
                              spec=RegressorSpec(ridge_lambda=1.0))
        assert report.interval == name
        assert len(report.offsets) == 3
        for info in report.offsets:
            assert info.train_start < report.first_test_date
            assert info.train_end < report.first_test_date
            assert info.target_end < report.first_test_date


@criterion(8, "byte-identical reports across runs")
def test_8_determinism(tmp_path):
    tx, px = str(tmp_path / "tx.csv"), str(tmp_path / "px.csv")
    assert cli_main(["synth", "--out-tx", tx, "--out-prices", px,
                     "--days", "60", "--tx-per-day", "40", "--seed", "4"]) == 0
    r1, r2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    base = ["backtest", "--tx", tx, "--prices", px, "--train-frac", "0.75",
            "--window", "2", "--order", "2"]
    assert cli_main(base + ["--report", r1]) == 0
    assert cli_main(base + ["--report", r2]) == 0
    assert Path(r1).read_bytes() == Path(r2).read_bytes()


@criterion(9, "100k-transaction day extracts in under 10 s")
def test_9_throughput():
    spec = SynthSpec(days=1, tx_per_day=100_000, seed=3, fixed_tx_count=True,
                     spend_probability=0.4)
    records, _ = generate(spec)
    window = partition_daily(records)[0]
    t0 = time.perf_counter()
    graph = build_graph(window)
    feature_vector(graph, 2)
    elapsed = time.perf_counter() - t0
    assert graph.n_transactions == 100_000
    assert elapsed < 10.0, f"extraction took {elapsed:.2f} s"


@criterion(10, "real-data backtest (stretch)")
def test_10_real_data_stretch():
    if "TXPATTERN_REAL_DATA_DIR" not in os.environ:
        pytest.skip("set TXPATTERN_REAL_DATA_DIR to a directory "
                    "with tx.csv and prices.csv")
    root = Path(os.environ["TXPATTERN_REAL_DATA_DIR"])
    records = parse_transactions(root / "tx.csv")
    prices = parse_prices(root / "prices.csv")
    report = run_backtest(
        records, prices, INTERVALS["interval1"], max_order=2, r=0.8, window=2,
        spec=RegressorSpec(kind="linear_svr"),
    )
    assert 1.2 <= report.mape <= 3.0, f"real-data MAPE {report.mape:.3f}%"
