import datetime as dt

import numpy as np
import pytest

from txpattern import kernels
from txpattern.errors import BadSpec, DimensionMismatch, SingularSystem, TooFewRows
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
    nan = float("nan")
    for lam in (-1.0, nan):
        with pytest.raises(BadSpec):
            RegressorSpec(ridge_lambda=lam)
    for c in (0.0, nan):
        with pytest.raises(BadSpec):
            RegressorSpec(kind="linear_svr", svr_c=c)
    for tol in (0.0, -1e-4, nan):
        with pytest.raises(BadSpec):
            RegressorSpec(kind="linear_svr", svr_tolerance=tol)
    for eps in (-0.1, nan):
        with pytest.raises(BadSpec):
            RegressorSpec(kind="linear_svr", svr_epsilon=eps)


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
    with pytest.raises(BadSpec):
        fit(RegressorSpec(), x, np.array([1.0, np.nan, 2.0]))


def test_predict_wrong_dimension():
    x, y, _ = _linear_data()
    model = fit(RegressorSpec(), x, y)
    with pytest.raises(DimensionMismatch):
        predict(model, np.ones(7))


def _svr_objective(x, y, w, b, c=1.0, eps=0.1):
    return 0.5 * float(w @ w) + c * float(
        np.maximum(np.abs(x @ w + b - y) - eps, 0.0).sum())


def _planted_uncentred(n=41, seed=0):
    """Columns far from zero mean and of unequal scale, a nonzero bias."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3)) * [1.0, 3.0, 0.5] + [5.0, -3.0, 10.0]
    y = x @ np.array([3.0, -2.0, 0.5]) + 5.0 + 0.5 * rng.normal(size=n)
    return x, y


def test_svr_loss_decreases():
    x, y, _ = _linear_data(n=80, noise=0.05, seed=6)
    model = fit(RegressorSpec(kind="linear_svr", svr_c=1.0), x, y)
    assert model.converged
    assert model.epoch_losses[-1] == pytest.approx(
        _svr_objective(x, y, model.weights, model.bias), rel=1e-9)
    at_zero = _svr_objective(x, y, np.zeros(x.shape[1]), 0.0)
    assert model.epoch_losses[-1] <= at_zero


def test_svr_approximates_linear_relation():
    x, y, w_true = _linear_data(n=200, noise=0.0, seed=7)
    spec = RegressorSpec(kind="linear_svr", svr_c=10.0, svr_epsilon=0.01)
    model = fit(spec, x, y)
    pred = x @ model.weights + model.bias
    # the weight penalty pulls the fit off the exact relation, but only
    # slightly at this C
    assert np.mean(np.abs(pred - y)) < 0.5


def test_svr_tolerance_stops_early():
    x, y, _ = _linear_data(n=80, seed=8)
    iterations = [
        len(fit(RegressorSpec(kind="linear_svr", svr_tolerance=tol), x, y).epoch_losses)
        for tol in (1e-2, 1e-4, 1e-7)
    ]
    assert iterations == sorted(iterations)
    assert iterations[0] < iterations[-1]


def test_svr_matches_scipy_reference():
    # the slack-form primal: min 0.5|w|^2 + C sum(xi) subject to
    # |x w + b - y| <= eps + xi and xi >= 0, with b unpenalised
    optimize = pytest.importorskip("scipy.optimize")
    x, y = _planted_uncentred()
    n, d = x.shape
    c, eps = 1.0, 0.1
    a = np.hstack([x, np.ones((n, 1))])
    eye = np.eye(n)
    constraint = optimize.LinearConstraint(
        np.vstack([np.hstack([a, -eye]), np.hstack([-a, -eye])]),
        -np.inf, np.concatenate([eps + y, eps - y]))
    hess = np.zeros((d + 1 + n, d + 1 + n))
    hess[np.arange(d), np.arange(d)] = 1.0
    lower = np.full(d + 1 + n, -np.inf)
    lower[d + 1:] = 0.0
    start = np.zeros(d + 1 + n)
    start[d + 1:] = np.maximum(np.abs(y) - eps, 0.0)

    def objective(v):
        return 0.5 * float(v[:d] @ v[:d]) + c * float(v[d + 1:].sum())

    def gradient(v):
        g = np.full_like(v, c)
        g[:d] = v[:d]
        g[d] = 0.0
        return g

    res = optimize.minimize(
        objective, start, jac=gradient, hess=lambda v: hess,
        method="trust-constr", constraints=[constraint],
        bounds=optimize.Bounds(lower, np.inf),
        options={"gtol": 1e-10, "xtol": 1e-12, "maxiter": 5000})
    reference = _svr_objective(x, y, res.x[:d], res.x[d], c, eps)
    model = fit(RegressorSpec(kind="linear_svr", svr_c=c, svr_epsilon=eps), x, y)
    assert model.converged
    ours = _svr_objective(x, y, model.weights, model.bias, c, eps)
    assert abs(ours - reference) <= 1e-3 * reference


def test_svr_constant_columns_get_zero_weight():
    x, y = _planted_uncentred(seed=2)
    # 41 copies of 0.1 do not average to exactly 0.1
    with_const = np.hstack([x[:, :1], np.full((len(x), 1), 0.1), x[:, 1:]])
    spec = RegressorSpec(kind="linear_svr")
    full = fit(spec, with_const, y)
    plain = fit(spec, x, y)
    assert full.weights[1] == 0.0
    assert np.array_equal(np.delete(full.weights, 1), plain.weights)
    assert full.bias == pytest.approx(plain.bias, rel=1e-12)
    assert np.array_equal(full.epoch_losses, plain.epoch_losses)


def test_svr_iteration_cap_not_converged(monkeypatch, capsys):
    x, y = _planted_uncentred(seed=1)
    monkeypatch.setattr(kernels, "SVR_MAX_ITER", 3)
    model = fit(RegressorSpec(kind="linear_svr"), x, y)
    assert model.converged is False
    assert len(model.epoch_losses) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line.split(":")[0] for line in captured.err.splitlines()] == ["warning"]
    assert fit(RegressorSpec(), x, y).converged is True


def test_svr_deterministic():
    x, y, _ = _linear_data(n=60, noise=0.1, seed=10)
    spec = RegressorSpec(kind="linear_svr")
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
