import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from txpattern.backtest import decay_weights, integrate, predict_price
from txpattern.errors import BadSpec, LengthMismatch
from txpattern.regress import FittedModel, RegressorSpec


def test_single_weight_is_one():
    w = decay_weights(0.8, 1)
    assert w.shape == (1,)
    assert w[0] == 1.0


def test_hand_derived_weights():
    w = decay_weights(0.8, 3)
    assert np.allclose(w, [0.8, 0.16, 0.04], rtol=0, atol=1e-15)
    w2 = decay_weights(0.8, 2)
    assert np.allclose(w2, [0.8, 0.2], rtol=0, atol=1e-15)


def test_bad_parameters():
    for r in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(BadSpec, match="decay must lie in"):
            decay_weights(r, 3)
    with pytest.raises(BadSpec, match="window must be >= 1"):
        decay_weights(0.8, 0)


@given(r=st.floats(1e-3, 1 - 1e-3), window=st.integers(1, 64))
@settings(max_examples=200)
def test_weights_sum_to_one_and_positive(r, window):
    alphas = decay_weights(r, window)
    assert alphas.shape == (window,)
    assert abs(alphas.sum() - 1.0) < 1e-12
    assert (alphas > 0).all()


@given(r=st.floats(1e-3, 1 - 1e-3), window=st.integers(1, 32))
@settings(max_examples=100)
def test_weights_prefix_stable(r, window):
    # growing the window only splits the last weight; earlier entries are
    # reproduced bit for bit
    small = decay_weights(r, window)
    large = decay_weights(r, window + 1)
    assert np.array_equal(small[: window - 1], large[: window - 1])


@given(r=st.floats(1e-3, 1 - 1e-3), window=st.integers(2, 32))
@settings(max_examples=100)
def test_weights_strictly_decreasing_for_high_r(r, window):
    alphas = decay_weights(r, window)
    if r > 0.5:
        assert (np.diff(alphas) < 0).all()


@given(value=st.floats(-1e12, 1e12))
def test_integrate_single_estimate_identity(value):
    w = decay_weights(0.8, 1)
    assert integrate([value], w) == value


@given(value=st.floats(-1e9, 1e9), window=st.integers(1, 16))
def test_integrate_equal_estimates_fixed_point(value, window):
    w = decay_weights(0.7, window)
    assert integrate([value] * window, w) == value


@given(
    estimates=st.lists(st.floats(1e-3, 1e9), min_size=1, max_size=16),
    r=st.floats(0.05, 0.95),
)
@settings(max_examples=300)
def test_integrate_bounded_by_estimates(estimates, r):
    w = decay_weights(r, len(estimates))
    out = integrate(estimates, w)
    lo, hi = min(estimates), max(estimates)
    # containment up to one rounding step at each bound
    assert np.nextafter(lo, -np.inf) <= out <= np.nextafter(hi, np.inf)


def test_integrate_length_mismatch():
    with pytest.raises(LengthMismatch):
        integrate([1.0, 2.0], decay_weights(0.8, 3))


def test_integrate_two_estimates_exact_split():
    w = decay_weights(0.8, 2)
    out = integrate([100.0, 200.0], w)
    assert out == pytest.approx(0.8 * 100.0 + 0.2 * 200.0, abs=1e-9)


def _constant_model(diff: float, dim: int = 3) -> FittedModel:
    return FittedModel(
        weights=np.zeros(dim), bias=diff, spec=RegressorSpec(ridge_lambda=1.0)
    )


def test_predict_price_combines_offsets():
    # offset-1 model says +10 from base 100; offset-2 says +30 from base 90
    models = [_constant_model(10.0), _constant_model(30.0)]
    out = predict_price(models, decay_weights(0.8, 2),
                        [np.zeros(3), np.zeros(3)], [100.0, 90.0])
    assert out == pytest.approx(0.8 * 110.0 + 0.2 * 120.0, abs=1e-9)


def test_predict_price_missing_offset():
    # two offset models, but features and a base price for only the first
    models = [_constant_model(0.0), _constant_model(0.0)]
    alphas = decay_weights(0.8, 2)
    with pytest.raises(LengthMismatch):
        predict_price(models, alphas, [np.zeros(3)], [100.0])
    with pytest.raises(LengthMismatch):
        predict_price(models, alphas, [np.zeros(3), np.zeros(3)], [100.0])

