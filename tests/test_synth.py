import datetime as dt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from txpattern.errors import BadSpec
from txpattern.features import day_feature_table
from txpattern.ingest import parse_prices, parse_transactions, partition_daily
from txpattern.korder import occurrence_matrices
from txpattern import ingest, synth
from txpattern.synth import SynthSpec, generate, write_synth
from txpattern.txgraph import build_graph


def test_write_deterministic(tmp_path):
    spec = SynthSpec(days=10, tx_per_day=30, seed=77)
    a_tx, a_px = tmp_path / "a_tx.csv", tmp_path / "a_px.csv"
    b_tx, b_px = tmp_path / "b_tx.csv", tmp_path / "b_px.csv"
    write_synth(spec, a_tx, a_px)
    write_synth(SynthSpec(days=10, tx_per_day=30, seed=77), b_tx, b_px)
    assert a_tx.read_bytes() == b_tx.read_bytes()
    assert a_px.read_bytes() == b_px.read_bytes()


def test_seed_changes_output():
    a, _ = generate(SynthSpec(days=3, tx_per_day=20, seed=1))
    b, _ = generate(SynthSpec(days=3, tx_per_day=20, seed=2))
    assert a != b


def test_written_files_parse_back(tmp_path):
    spec = SynthSpec(days=6, tx_per_day=25, seed=3)
    tx_path, px_path = tmp_path / "tx.csv", tmp_path / "px.csv"
    n_tx, n_px = write_synth(spec, tx_path, px_path)
    records = parse_transactions(tx_path)
    prices = parse_prices(px_path)
    assert len(records) == n_tx
    assert len(prices.dates) == n_px == 6
    assert prices.first_date == spec.start_date


def test_bad_specs():
    with pytest.raises(BadSpec):
        SynthSpec(days=0)
    with pytest.raises(BadSpec):
        SynthSpec(tx_per_day=0)
    with pytest.raises(BadSpec):
        SynthSpec(seed=-1)
    with pytest.raises(BadSpec):
        SynthSpec(spend_probability=1.5)
    with pytest.raises(BadSpec):
        SynthSpec(price_model="brownian")
    nan = float("nan")
    for bad in (dict(start_price=0.0), dict(start_price=nan),
                dict(start_price=float("inf")),
                dict(noise_sigma=-0.1), dict(noise_sigma=nan),
                dict(volatility=nan)):
        with pytest.raises(BadSpec):
            SynthSpec(**bad)
    with pytest.raises(BadSpec):
        SynthSpec(in_sizes={1: 0.5, 2: 0.4})   # does not sum to 1
    with pytest.raises(BadSpec):
        SynthSpec(in_sizes={0: 1.0})           # zero-size input set
    with pytest.raises(BadSpec):
        SynthSpec(planted_weights={(1, 0, 5): 1.0})
    with pytest.raises(BadSpec):
        SynthSpec(planted_weights={(1, 25, 5): 1.0})
    for coeff in (nan, float("inf"), float("-inf")):
        with pytest.raises(BadSpec):
            SynthSpec(planted_weights={(1, 1, 1): coeff})


def test_no_spending_means_no_depth2_patterns():
    records, _ = generate(SynthSpec(days=5, tx_per_day=40, seed=9,
                                    spend_probability=0.0))
    for window in partition_daily(records):
        graph = build_graph(window)
        assert occurrence_matrices(graph, 2)[1].counts.sum() == 0


def test_spending_creates_depth2_patterns():
    records, _ = generate(SynthSpec(days=5, tx_per_day=80, seed=9,
                                    spend_probability=0.6))
    total = 0
    for window in partition_daily(records):
        graph = build_graph(window)
        total += occurrence_matrices(graph, 2)[1].counts.sum()
    assert total > 0


@given(st.dictionaries(st.integers(1, 50),
                       st.one_of(st.just(0.0), st.floats(0.001, 1.0)),
                       min_size=1, max_size=8).filter(lambda d: sum(d.values()) > 0))
@example(synth.DEFAULT_IN_SIZES)
@example(synth.DEFAULT_OUT_SIZES)
@settings(max_examples=50, deadline=None)
def test_sampler_draws_as_choice(dist):
    # the sampler's draws and the generator state after them are those of
    # rng.choice with the normalised probabilities
    sampler = synth._Sampler(dist)
    sizes = sorted(dist)
    probs = np.array([dist[s] for s in sizes])
    probs /= probs.sum()
    ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
    assert [sampler.draw(ours) for _ in range(2000)] == [
        int(theirs.choice(sizes, p=probs)) for _ in range(2000)]
    assert ours.bit_generator.state == theirs.bit_generator.state


def test_input_size_distribution():
    dist = {1: 0.5, 2: 0.3, 4: 0.2}
    records, _ = generate(SynthSpec(days=20, tx_per_day=300, seed=13,
                                    in_sizes=dist, coinbase_per_day=0,
                                    fixed_tx_count=True,
                                    spend_probability=0.0))
    sizes = records.n_inputs
    observed = np.array([(sizes == s).sum() for s in dist])
    expected = np.array([p * len(sizes) for p in dist.values()])
    _, p_value = stats.chisquare(observed, expected)
    assert p_value > 0.01
    assert observed.sum() == len(sizes)  # no sizes outside the support


def test_fixed_tx_count_exact():
    spec = SynthSpec(days=4, tx_per_day=25, seed=2, fixed_tx_count=True,
                     coinbase_per_day=2)
    records, _ = generate(spec)
    for window in partition_daily(records):
        assert window.rows.size == 25 + 2


def test_poisson_counts_vary():
    records, _ = generate(SynthSpec(days=30, tx_per_day=25, seed=4))
    counts = {w.rows.size for w in partition_daily(records)}
    assert len(counts) > 1


def test_coinbase_per_day():
    records, _ = generate(SynthSpec(days=5, tx_per_day=10, seed=6,
                                    coinbase_per_day=3))
    for window in partition_daily(records):
        assert (records.n_inputs[window.rows] == 0).sum() == 3


def test_planted_linear_price_relation():
    spec = SynthSpec(days=15, tx_per_day=30, seed=8,
                     price_model="planted_linear", noise_sigma=0.0)
    records, prices = generate(spec)
    windows = partition_daily(records)
    dates, table = day_feature_table(windows, spec.max_planted_order)
    w = spec.planted_vector()
    for i in range(len(dates) - 1):
        drift = float(w @ table[i])
        today = prices.price_on(dates[i])
        tomorrow = prices.price_on(dates[i + 1])
        assert tomorrow - today == pytest.approx(drift, abs=1e-9)


def test_price_floor_keeps_prices_positive():
    spec = SynthSpec(days=10, tx_per_day=30, seed=10,
                     price_model="planted_linear", noise_sigma=0.0,
                     planted_weights={(1, 1, 1): -1e9})
    _, prices = generate(spec)
    assert (prices.closes > 0).all()


def test_random_walk_prices():
    spec = SynthSpec(days=50, tx_per_day=10, seed=12, price_model="random_walk")
    _, prices = generate(spec)
    assert len(prices.dates) == 50
    assert (prices.closes > 0).all()
    assert prices.dates == [spec.start_date + dt.timedelta(days=i) for i in range(50)]


def test_planted_vector_layout():
    spec = SynthSpec(planted_weights={(2, 3, 4): 1.5, (1, 1, 1): -0.5})
    v = spec.planted_vector()
    assert spec.max_planted_order == 2
    assert v.shape == (800,)
    assert v[400 + 2 * 20 + 3] == 1.5
    assert v[0] == -0.5
    assert np.count_nonzero(v) == 2


@pytest.mark.parametrize("price_model", ["random_walk", "planted_linear"])
def test_one_parse_per_generation(tmp_path, monkeypatch, price_model):
    # the planted model reads the features of the rows it returns, so it
    # parses them once for both; writing the files parses nothing more
    parses = []

    def counting(buf):
        parses.append(buf.size)
        return parse(buf)

    parse = ingest._parse
    monkeypatch.setattr(ingest, "_parse", counting)
    spec = SynthSpec(days=12, tx_per_day=20, seed=3, price_model=price_model)
    table, _ = generate(spec)
    assert len(parses) == 1
    write_synth(spec, tmp_path / "tx.csv", tmp_path / "px.csv")
    assert len(parses) == 1 + (price_model == "planted_linear")
    assert np.array_equal(parse_transactions(tmp_path / "tx.csv").keys, table.keys)
