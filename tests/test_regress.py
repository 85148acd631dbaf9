import datetime as dt

import numpy as np
import pytest

from txpattern.errors import DimensionMismatch, SingularSystem, TooFewRows
from txpattern.features import Scaler
from txpattern.regress import (
    FittedModel,
    RegressorSpec,
    fit,
    load_model,
    predict,
    save_model,
)


def _linear_data(n=60, d=4, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    w_true = np.array([3.0, -2.0, 0.5, 1.25])[:d]
    y = x @ w_true + 5.0 + noise * rng.normal(size=n)
    return x, y, w_true


def test_spec_validation():
    with pytest.raises(ValueError):
        RegressorSpec(kind="forest")
    with pytest.raises(ValueError):
        RegressorSpec(ridge_lambda=-1.0)
    with pytest.raises(ValueError):
        RegressorSpec(kind="linear_svr", svr_epochs=0)
    with pytest.raises(ValueError):
        RegressorSpec(kind="linear_svr", svr_epsilon=-0.1)


def test_ridge_recovers_clean_linear():
    x, y, w_true = _linear_data()
    model = fit(RegressorSpec(ridge_lambda=1e-10), x, y)
    assert np.allclose(model.weights, w_true, atol=1e-6)
    assert model.bias == pytest.approx(5.0, abs=1e-6)
    assert np.allclose(x @ model.weights + model.bias, y, atol=1e-6)


def test_ridge_zero_penalty_matches_least_squares():
    x, y, _ = _linear_data(noise=0.3, seed=3)
    model = fit(RegressorSpec(ridge_lambda=0.0), x, y)
    augmented = np.hstack([x, np.ones((len(x), 1))])
    coef, *_ = np.linalg.lstsq(augmented, y, rcond=None)
    assert np.allclose(model.weights, coef[:-1], atol=1e-8)
    assert model.bias == pytest.approx(coef[-1], abs=1e-8)


def test_ridge_singular_without_penalty():
    x = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])  # rank 1
    y = np.array([1.0, 2.0, 3.0])
    with pytest.raises(SingularSystem):
        fit(RegressorSpec(ridge_lambda=0.0), x, y)
    # any positive penalty regularizes it
    fit(RegressorSpec(ridge_lambda=1e-3), x, y)


def test_intercept_not_penalized():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(50, 3))
    y = np.full(50, 7.5)
    model = fit(RegressorSpec(ridge_lambda=1e6), x, y)
    assert np.allclose(model.weights, 0.0, atol=1e-4)
    assert model.bias == pytest.approx(7.5, abs=1e-3)


def test_penalty_shrinks_weights():
    x, y, _ = _linear_data(noise=0.1, seed=9)
    small = fit(RegressorSpec(ridge_lambda=1e-6), x, y)
    large = fit(RegressorSpec(ridge_lambda=100.0), x, y)
    assert np.linalg.norm(large.weights) < np.linalg.norm(small.weights)


def test_too_few_rows():
    with pytest.raises(TooFewRows):
        fit(RegressorSpec(), np.ones((1, 3)), np.ones(1))


def test_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        fit(RegressorSpec(), np.ones((4, 3)), np.ones(5))


def test_nan_targets_rejected():
    x = np.ones((3, 2))
    with pytest.raises(ValueError):
        fit(RegressorSpec(), x, np.array([1.0, np.nan, 2.0]))


def test_predict_wrong_dimension():
    x, y, _ = _linear_data()
    model = fit(RegressorSpec(), x, y)
    with pytest.raises(DimensionMismatch):
        predict(model, np.ones(7))


def test_svr_loss_decreases():
    x, y, _ = _linear_data(n=80, noise=0.05, seed=6)
    spec = RegressorSpec(kind="linear_svr", svr_epochs=150,
                         svr_learning_rate=1e-2, svr_c=1.0)
    model = fit(spec, x, y)
    losses = model.epoch_losses
    assert len(losses) == 150
    assert losses[-1] < losses[0]


def test_svr_approximates_linear_relation():
    x, y, w_true = _linear_data(n=200, noise=0.0, seed=7)
    spec = RegressorSpec(kind="linear_svr", svr_epochs=800,
                         svr_learning_rate=5e-2, svr_c=10.0, svr_epsilon=0.01)
    model = fit(spec, x, y)
    pred = x @ model.weights + model.bias
    # subgradient training lands near, not on, the relation
    assert np.mean(np.abs(pred - y)) < 0.5


def test_svr_tolerance_stops_early():
    x, y, _ = _linear_data(n=80, seed=8)
    lax = RegressorSpec(kind="linear_svr", svr_epochs=500,
                        svr_learning_rate=1e-2, svr_tolerance=0.5)
    strict = RegressorSpec(kind="linear_svr", svr_epochs=500,
                           svr_learning_rate=1e-2, svr_tolerance=0.0)
    assert len(fit(lax, x, y).epoch_losses) < len(fit(strict, x, y).epoch_losses)


def test_svr_deterministic():
    x, y, _ = _linear_data(n=60, noise=0.1, seed=10)
    spec = RegressorSpec(kind="linear_svr", svr_epochs=100, svr_learning_rate=1e-2)
    a = fit(spec, x, y)
    b = fit(spec, x, y)
    assert np.array_equal(a.weights, b.weights)
    assert a.bias == b.bias


def test_save_load_roundtrip(tmp_path):
    x, y, _ = _linear_data(noise=0.2, seed=11)
    model = fit(RegressorSpec(ridge_lambda=0.1), x, y,
                train_range=(dt.date(2015, 1, 1), dt.date(2015, 2, 1)))
    scaler = Scaler(mean=x.mean(axis=0), std=x.std(axis=0))
    path = tmp_path / "model.json"
    save_model(path, model, scaler, horizon=3)
    loaded, loaded_scaler, horizon = load_model(path)
    assert horizon == 3
    assert np.array_equal(loaded.weights, model.weights)
    assert loaded.bias == model.bias
    assert loaded.train_range == model.train_range
    assert np.array_equal(loaded_scaler.mean, scaler.mean)
    assert np.array_equal(loaded_scaler.std, scaler.std)
    probe = np.linspace(-1, 1, x.shape[1])
    assert predict(loaded, probe) == predict(model, probe)


def test_save_load_deterministic_bytes(tmp_path):
    x, y, _ = _linear_data(seed=12)
    model = fit(RegressorSpec(), x, y)
    scaler = Scaler(mean=x.mean(axis=0), std=x.std(axis=0))
    p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
    save_model(p1, model, scaler, horizon=1)
    save_model(p2, model, scaler, horizon=1)
    assert p1.read_bytes() == p2.read_bytes()
