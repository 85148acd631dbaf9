import datetime as dt
import warnings

import numpy as np
import pytest

from txpattern import kernels
from txpattern.errors import BadSpec, DimensionMismatch, SingularSystem, TooFewRows
from txpattern.regress import (
    KINDS,
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
    nan, inf = float("nan"), float("inf")
    for lam in (-1.0, nan, inf):
        with pytest.raises(BadSpec):
            RegressorSpec(ridge_lambda=lam)
    for c in (0.0, nan, inf):
        with pytest.raises(BadSpec):
            RegressorSpec(kind="linear_svr", svr_c=c)
    for tol in (0.0, -1e-4, nan, inf):
        with pytest.raises(BadSpec):
            RegressorSpec(kind="linear_svr", svr_tolerance=tol)
    for eps in (-0.1, nan, inf):
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


@pytest.mark.parametrize("design", ["constant_column", "fewer_rows_than_columns"])
def test_ridge_zero_penalty_singular(design):
    if design == "constant_column":
        x, y = _planted_uncentred(seed=4)
        x[:, 1] = 0.1
    else:
        rng = np.random.default_rng(4)
        x, y = rng.normal(size=(4, 6)), rng.normal(size=4)
    with pytest.raises(SingularSystem):
        fit(RegressorSpec(ridge_lambda=0.0), x, y)


def _zscored(x):
    """``(z, mean, std)``: x's columns z-scored with population statistics,
    the space in which both fits solve; a constant column (by range) is all
    0 in z and has std 1."""
    live = x.max(axis=0) > x.min(axis=0)
    mean = x.mean(axis=0)
    std = np.where(live, x.std(axis=0), 1.0)
    return np.where(live, (x - mean) / std, 0.0), mean, std


def _raw_weights(wz, bz, mean, std):
    """z-space weights and bias as weights on the raw columns."""
    w = wz / std
    return w, bz - mean @ w


def _normal_equations(x, y, lam):
    """Ridge by LU on the augmented normal equations of the z-scored
    design: [Z 1]'[Z 1] plus lam on the diagonal but for the intercept's
    entry, mapped back to x's columns."""
    z, mean, std = _zscored(x)
    n, d = z.shape
    a = np.hstack([z, np.ones((n, 1))])
    gram = a.T @ a
    gram[np.arange(d), np.arange(d)] += lam
    wb = np.linalg.solve(gram, a.T @ y)
    return _raw_weights(wb[:d], wb[d], mean, std)


def _with_constants(x, seed):
    """x with constant columns, of nonzero and zero value, put among its
    live ones; returns the new design and the positions of x's columns."""
    rng = np.random.default_rng(seed)
    n, d = x.shape
    values = np.append(rng.normal(size=d + 2) * 3.0, 0.0)
    order = rng.permutation(2 * d + 3)
    full = np.empty((n, 2 * d + 3))
    full[:, order[:d]] = x
    full[:, order[d:]] = values
    return full, order[:d]


@pytest.mark.parametrize("lam", [1e-6, 1.0, 100.0])
@pytest.mark.parametrize("design", ["narrow", "wide"])
def test_ridge_matches_normal_equations(design, lam):
    # uncentred live columns: 3 of them on 41 rows, or 10 on 100
    if design == "narrow":
        x, y = _planted_uncentred(seed=5)
    else:
        x, y = _mostly_constant(constant=0)
    full, live = _with_constants(x, seed=6)
    model = fit(RegressorSpec(ridge_lambda=lam), full, y)
    const = np.setdiff1d(np.arange(full.shape[1]), live)
    assert np.array_equal(model.weights[const], np.zeros(const.size))
    # a constant column's optimal weight is exactly 0, as the unpenalised
    # bias absorbs its effect at no cost, so the reference solves x alone.
    # On the whole design at lam = 1e-6 the augmented matrix's condition
    # number reaches ~1e9, and LU itself is off by up to ~1e-5 there.
    references = [(live, _normal_equations(x, y, lam))]
    if lam >= 1.0:
        references.append((np.arange(full.shape[1]), _normal_equations(full, y, lam)))
    for cols, (w_ref, b_ref) in references:
        err = np.abs(model.weights[cols] - w_ref).max()
        assert err <= 1e-10 * np.abs(w_ref).max()
        assert abs(model.bias - b_ref) <= 1e-10 * abs(b_ref)


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


@pytest.mark.parametrize("where, value", [
    ("x", np.nan), ("x", np.inf), ("y", np.nan), ("y", np.inf)])
@pytest.mark.parametrize("kind", KINDS)
def test_non_finite_training_data_rejected(kind, where, value):
    x, y = _planted_uncentred(seed=3)
    if where == "x":
        x[7, 1] = value
    else:
        y[7] = value
    with pytest.raises(BadSpec):
        fit(RegressorSpec(kind=kind), x, y)


def test_predict_wrong_dimension():
    x, y, _ = _linear_data()
    model = fit(RegressorSpec(), x, y)
    with pytest.raises(DimensionMismatch):
        predict(model, np.ones(7))
    with pytest.raises(DimensionMismatch):
        predict(model, np.ones((2, 7)))
    with pytest.raises(DimensionMismatch):
        predict(model, np.ones((2, 2, x.shape[1])))


def test_predict_one_vector_or_a_row_block():
    x, y, _ = _linear_data()
    model = fit(RegressorSpec(), x, y)
    one = predict(model, x[0])
    assert type(one) is float
    block = predict(model, x[:5])
    assert block.shape == (5,)
    # a row of a block may differ from the same vector alone by a rounding
    # step of the matrix-vector product
    rows = np.array([predict(model, row) for row in x[:5]])
    assert (np.abs(block - rows) <= np.spacing(np.abs(rows))).all()


def _svr_objective(x, y, w, b, c=1.0, eps=0.1):
    """The SVR objective of raw weights w, its penalty on the z-space
    weights w * std (a constant column's weight is 0)."""
    wz = w * x.std(axis=0)
    return 0.5 * float(wz @ wz) + c * float(
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


def _mostly_constant(n=100, live=10, constant=20, seed=3):
    """The shape of a sweep's fit: most columns constant, and several rows
    per live column."""
    rng = np.random.default_rng(seed)
    x = np.empty((n, live + constant))
    order = rng.permutation(live + constant)
    x[:, order[:live]] = rng.normal(size=(n, live)) * rng.uniform(0.2, 3.0, live)
    x[:, order[live:]] = rng.normal(size=constant)
    y = x[:, order[:live]] @ rng.normal(size=live) + 2.0 + 0.5 * rng.normal(size=n)
    return x, y


def _scipy_svr_objective(x, y, c, eps):
    """The optimum of the slack-form primal on the z-scored design Z:
    min 0.5|w|^2 + C sum(xi) subject to |Z w + b - y| <= eps + xi and
    xi >= 0, with b unpenalised."""
    optimize = pytest.importorskip("scipy.optimize")
    z, mean, std = _zscored(x)
    n, d = z.shape
    a = np.hstack([z, np.ones((n, 1))])
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
    w, b = _raw_weights(res.x[:d], res.x[d], mean, std)
    return _svr_objective(x, y, w, b, c, eps)


def test_svr_matches_scipy_reference():
    c, eps = 1.0, 0.1
    for x, y in (_planted_uncentred(), _mostly_constant()):
        reference = _scipy_svr_objective(x, y, c, eps)
        model = fit(RegressorSpec(kind="linear_svr", svr_c=c, svr_epsilon=eps), x, y)
        assert model.converged
        ours = _svr_objective(x, y, model.weights, model.bias, c, eps)
        assert abs(ours - reference) <= 1e-3 * reference


@pytest.mark.parametrize("kind", KINDS)
def test_constant_columns_get_zero_weight(kind):
    x, y = _planted_uncentred(seed=2)
    # 41 copies of 0.1 do not average to exactly 0.1
    with_const = np.hstack([x[:, :1], np.full((len(x), 1), 0.1), x[:, 1:]])
    spec = RegressorSpec(kind=kind)
    full = fit(spec, with_const, y)
    plain = fit(spec, x, y)
    assert full.weights[1] == 0.0
    assert np.array_equal(np.delete(full.weights, 1), plain.weights)
    assert full.bias == pytest.approx(plain.bias, rel=1e-12)
    assert np.array_equal(full.epoch_losses, plain.epoch_losses)


@pytest.mark.parametrize("kind", KINDS)
def test_fits_invariant_to_column_affine_maps(kind):
    # both fits solve on z-scored columns, so scaling and shifting a
    # column changes its weight and the bias but no prediction
    x, y = _planted_uncentred(seed=6)
    x = np.hstack([x, np.full((len(x), 1), 2.5)])
    rng = np.random.default_rng(6)
    a = np.geomspace(1e-3, 1e3, x.shape[1])
    c = rng.normal(size=x.shape[1]) * 10.0
    spec = RegressorSpec(kind=kind, ridge_lambda=1.0)
    plain = predict(fit(spec, x, y), x)
    mapped = predict(fit(spec, x * a + c, y), x * a + c)
    assert np.abs(mapped - plain).max() <= 1e-9 * np.abs(plain).max()


@pytest.mark.parametrize("kind", KINDS)
def test_all_constant_design_fits_zero_weights(kind, capsys):
    y = np.random.default_rng(7).normal(size=20) + 3.0
    x = np.tile([1.0, -2.0, 0.1, 0.0], (20, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = fit(RegressorSpec(kind=kind), x, y)
    assert np.array_equal(model.weights, np.zeros(4))
    assert model.converged
    assert capsys.readouterr().err == ""
    if kind == "ridge":
        assert model.bias == y.mean()


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


def test_svr_cap_only_truncates(monkeypatch, capsys):
    # a capped fit is the uncapped one cut short.  The stopping test also
    # runs at the cap: a cap at the natural count converges, and so does
    # some cap just below it, between two scheduled tests
    x, y = _planted_uncentred(seed=1)
    spec = RegressorSpec(kind="linear_svr")
    full = fit(spec, x, y).epoch_losses
    k = len(full)
    converged_at = []
    for cap in range(1, k):
        monkeypatch.setattr(kernels, "SVR_MAX_ITER", cap)
        capped = fit(spec, x, y)
        assert np.array_equal(capped.epoch_losses, full[:cap])
        if capped.converged:
            converged_at.append(cap)
    assert k % kernels._RHO_EVERY == 0
    assert any(k - kernels._RHO_EVERY < cap for cap in converged_at)
    capsys.readouterr()
    monkeypatch.setattr(kernels, "SVR_MAX_ITER", k)
    at_k = fit(spec, x, y)
    assert at_k.converged is True
    assert np.array_equal(at_k.epoch_losses, full)
    assert capsys.readouterr().err == ""


def _svr_reference(x, y, c, eps, tol, max_iter):
    """``kernels.svr_epochs`` written as plain numpy expressions, each step
    a new array, with the live columns gathered twice and z-scored with
    population statistics; the kernel must equal it bit for bit.  Also
    returns how often rho was rebalanced."""
    live = np.flatnonzero(x.max(axis=0) > x.min(axis=0))
    mu = x[:, live].mean(axis=0)
    xl = x[:, live] - mu
    sd = xl.std(axis=0)
    xl = xl / sd
    lam, v = np.linalg.eigh(xl.T @ xl)
    pt = xl @ v
    p = np.ascontiguousarray(pt.T)
    y_norm = np.linalg.norm(y)
    rho = 1.0
    scale = 1.0 / (lam + 1.0 / rho)
    z = np.zeros_like(y)
    u = np.zeros_like(y)
    objectives = np.empty(max_iter)
    converged, rebalanced = False, 0
    for it in range(max_iter):
        target = y + z - u
        wv = (p @ target) * scale
        b = target.mean()
        resid = pt @ wv + b - y
        objectives[it] = 0.5 * (wv @ wv) + c * np.maximum(
            np.abs(resid) - eps, 0.0).sum()
        a = kernels._ALPHA * resid + (1.0 - kernels._ALPHA) * z + u
        u = np.clip(a - np.clip(a, -eps, eps), -c / rho, c / rho)
        z_old = z
        z = a - u
        if (it % kernels._RHO_EVERY != kernels._RHO_EVERY - 1
                and it != max_iter - 1):
            continue
        dz = z - z_old
        r_norm = np.linalg.norm(resid - z)
        s_norm = rho * np.hypot(np.linalg.norm(p @ dz), dz.sum())
        pri_scale = max(np.linalg.norm(resid + y), np.linalg.norm(z), y_norm)
        dual_scale = rho * np.hypot(np.linalg.norm(p @ u), u.sum())
        if r_norm <= tol * pri_scale and s_norm <= tol * dual_scale:
            converged = True
            break
        if r_norm > 10.0 * s_norm or s_norm > 10.0 * r_norm:
            step = 2.0 if r_norm > s_norm else 0.5
            rho *= step
            u /= step
            scale = 1.0 / (lam + 1.0 / rho)
            rebalanced += 1
    w = np.zeros(x.shape[1])
    w[live] = (v @ wv) / sd
    return w, float(b - mu @ w[live]), objectives[:it + 1], converged, rebalanced


def _noisy_wide(n=120, d=40, seed=11):
    """More columns than the planted designs and heavy noise; the fit
    rebalances rho three times."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d)) * rng.uniform(0.1, 5.0, d)
    return x, x[:, :3] @ [1.0, -2.0, 0.5] + 3.0 * rng.normal(size=n)


@pytest.mark.parametrize("case", ["constant_columns", "eps_zero", "capped_at_25",
                                  "rebalances_rho"])
def test_svr_loop_equals_its_reference_bit_for_bit(case):
    c, eps, tol, max_iter = 1.0, 0.1, 1e-4, kernels.SVR_MAX_ITER
    if case == "constant_columns":
        x, y = _mostly_constant()
    elif case == "eps_zero":
        (x, y), eps = _planted_uncentred(), 0.0
    elif case == "capped_at_25":
        (x, y), max_iter = _planted_uncentred(seed=1), 25
    else:
        x, y = _noisy_wide()
    w, b, objectives, converged = kernels.svr_epochs(x, y, c, eps, tol, max_iter)
    rw, rb, r_objectives, r_converged, rebalanced = _svr_reference(
        x, y, c, eps, tol, max_iter)
    assert np.array_equal(w, rw) and b == rb
    assert objectives.tobytes() == r_objectives.tobytes()
    assert converged is r_converged
    if case == "constant_columns":
        assert (w == 0.0).sum() >= 20 and converged
    elif case == "capped_at_25":
        assert len(objectives) == 25 and 25 % kernels._RHO_EVERY and not converged
    elif case == "rebalances_rho":
        assert rebalanced >= 1 and converged


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
    path = tmp_path / "model.json"
    save_model(path, model, horizon=3)
    loaded, horizon = load_model(path)
    assert horizon == 3
    assert np.array_equal(loaded.weights, model.weights)
    assert loaded.bias == model.bias
    assert loaded.train_range == model.train_range
    probe = np.linspace(-1, 1, x.shape[1])
    assert predict(loaded, probe) == predict(model, probe)


def test_save_load_deterministic_bytes(tmp_path):
    x, y, _ = _linear_data(seed=12)
    model = fit(RegressorSpec(), x, y)
    p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
    save_model(p1, model, horizon=1)
    save_model(p2, model, horizon=1)
    assert p1.read_bytes() == p2.read_bytes()
