"""Combining per-offset price estimates with geometric decay weights.

A window of size w integrates w independent models, one per history offset:
the offset-j model sees the day that lies j days behind the target and adds
its predicted diff to that day's price.  A table's days are consecutive, so
for the target in row i the offset-j day is row i - j; callers pass models,
features and base prices as lists in offset order.  The weight vector is
produced by a growth recurrence: starting from [1.0], each step keeps the
prefix, splits the last weight into last*r and last*(1-r), and appends.
Weight mass therefore decays toward deeper history, the first weight
attaching to the nearest offset, and the weights always sum to one.
"""

from __future__ import annotations

import numpy as np

from .errors import BadDecay, BadWindow, LengthMismatch
from .features import Scaler, apply_scaler
from .regress import FittedModel, predict


def decay_weights(r: float, window: int) -> np.ndarray:
    """Weight vector [a_1..a_window] from the split-the-last recurrence."""
    if not (0.0 < r < 1.0):
        raise BadDecay(f"decay must lie in (0, 1), got {r}")
    if window < 1:
        raise BadWindow(f"window must be >= 1, got {window}")
    alphas = [1.0]
    for _ in range(window - 1):
        last = alphas[-1]
        alphas[-1] = last * r
        alphas.append(last * (1.0 - r))
    return np.array(alphas, dtype=np.float64)


def integrate(estimates, alphas: np.ndarray) -> float:
    """Convex combination sum(a_j * estimate_j).

    Evaluated anchored on the first estimate so that equal estimates come
    back unchanged and a single estimate passes through bit-exactly."""
    est = np.asarray(estimates, dtype=np.float64)
    if est.shape[0] != alphas.shape[0]:
        raise LengthMismatch(f"{est.shape[0]} estimates vs {alphas.shape[0]} weights")
    anchor = float(est[0])
    return anchor + float(alphas @ (est - anchor))


def predict_price(
    models: list[tuple[FittedModel, Scaler]],
    alphas: np.ndarray,
    features: list[np.ndarray],
    base_prices: list[float],
) -> float:
    """Integrated price estimate; entry j of each list belongs to the j-th
    offset."""
    if not len(models) == len(features) == len(base_prices):
        raise LengthMismatch(
            f"{len(models)} models vs {len(features)} feature rows "
            f"vs {len(base_prices)} base prices"
        )
    estimates = [
        base + predict(model, apply_scaler(scaler, x))
        for (model, scaler), x, base in zip(models, features, base_prices)
    ]
    return integrate(estimates, alphas)
