"""Regression models mapping scaled feature vectors to price differences.

Two built-in families:

* ``ridge`` - closed-form solution of the regularized normal equations,
  intercept unpenalized.  Deterministic and independently checkable, so it
  doubles as the test oracle for everything downstream.
* ``linear_svr`` - linear epsilon-insensitive regression, intercept
  unpenalized, solved to a relative residual tolerance by deterministic ADMM
  (see kernels.svr_epochs).  A fit that reaches the iteration cap first is
  kept, marked ``converged = False``, and reported on stderr.

The hyperparameter defaults are not tuned; they are documented,
CLI-overridable values.
"""

from __future__ import annotations

import datetime as dt
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import kernels
from .errors import BadSpec, DimensionMismatch, MissingFile, SingularSystem, TooFewRows
from .features import Scaler

KINDS = ("ridge", "linear_svr")


@dataclass(frozen=True)
class RegressorSpec:
    kind: str = "ridge"
    ridge_lambda: float = 1.0
    svr_c: float = 1.0
    svr_epsilon: float = 0.1
    svr_tolerance: float = 1e-4

    def __post_init__(self):
        if self.kind not in KINDS:
            raise BadSpec(f"unknown regressor kind {self.kind!r}")
        if not self.ridge_lambda >= 0:
            raise BadSpec("ridge_lambda must be >= 0")
        if not self.svr_c > 0:
            raise BadSpec("svr_c must be > 0")
        if not self.svr_epsilon >= 0:
            raise BadSpec("svr_epsilon must be >= 0")
        if not self.svr_tolerance > 0:
            raise BadSpec("svr_tolerance must be > 0")


@dataclass
class FittedModel:
    weights: np.ndarray
    bias: float
    spec: RegressorSpec
    train_range: tuple[dt.date, dt.date] | None = None
    # linear_svr: the objective after each ADMM iteration, and whether the
    # residuals met svr_tolerance before kernels.SVR_MAX_ITER
    epoch_losses: np.ndarray = field(default_factory=lambda: np.empty(0))
    converged: bool = True

    @property
    def feature_dim(self) -> int:
        return self.weights.shape[0]


def _fit_ridge(x: np.ndarray, y: np.ndarray, lam: float) -> tuple[np.ndarray, float]:
    n, d = x.shape
    a = np.hstack([x, np.ones((n, 1))])
    gram = a.T @ a
    penalty = np.full(d + 1, lam)
    penalty[d] = 0.0          # intercept is never regularized
    gram[np.diag_indices(d + 1)] += penalty
    if lam == 0.0 and np.linalg.matrix_rank(gram) < d + 1:
        raise SingularSystem(
            "rank-deficient design with zero regularization; increase lambda"
        )
    try:
        wb = np.linalg.solve(gram, a.T @ y)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from None
    return wb[:d], float(wb[d])


def fit(
    spec: RegressorSpec,
    x: np.ndarray,
    y: np.ndarray,
    train_range: tuple[dt.date, dt.date] | None = None,
) -> FittedModel:
    """Fit one model on scaled features x (n, d) and targets y (n,)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise DimensionMismatch("x must be (n, d) with matching y")
    if x.shape[0] < 2:
        raise TooFewRows(f"need at least 2 training rows, got {x.shape[0]}")
    if np.isnan(y).any():
        raise BadSpec("training targets contain missing values")
    if spec.kind == "ridge":
        w, b = _fit_ridge(x, y, spec.ridge_lambda)
        return FittedModel(w, b, spec, train_range)
    cap = kernels.SVR_MAX_ITER
    w, b, losses, converged = kernels.svr_epochs(
        x, y, spec.svr_c, spec.svr_epsilon, spec.svr_tolerance, cap)
    if not converged:
        print(f"warning: linear_svr stopped at {cap} iterations before "
              f"reaching svr_tolerance {spec.svr_tolerance}", file=sys.stderr)
    return FittedModel(w, b, spec, train_range, losses, converged)


def predict(model: FittedModel, x: np.ndarray) -> float:
    """Predicted price difference w.x + b for a single scaled vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != model.weights.shape:
        raise DimensionMismatch(
            f"feature length {x.shape} does not match model {model.weights.shape}"
        )
    return float(x @ model.weights) + model.bias


MODEL_SCHEMA_VERSION = 2
_MODEL_KEYS = (
    "bias", "feature_dim", "horizon", "kind", "params", "scaler_mean",
    "scaler_std", "train_range", "weights",
)


def save_model(
    path: str | Path, model: FittedModel, scaler: Scaler, horizon: int
) -> None:
    """Persist model + scaler as versioned JSON (loadable by load_model)."""
    spec = model.spec
    payload = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "kind": spec.kind,
        "params": {
            "ridge_lambda": spec.ridge_lambda,
            "svr_c": spec.svr_c,
            "svr_epsilon": spec.svr_epsilon,
            "svr_tolerance": spec.svr_tolerance,
        },
        "horizon": horizon,
        "feature_dim": model.feature_dim,
        "weights": model.weights.tolist(),
        "bias": model.bias,
        "scaler_mean": scaler.mean.tolist(),
        "scaler_std": scaler.std.tolist(),
        "train_range": (
            [model.train_range[0].isoformat(), model.train_range[1].isoformat()]
            if model.train_range
            else None
        ),
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_model(path: str | Path) -> tuple[FittedModel, Scaler, int]:
    path = Path(path)
    if not path.exists():
        raise MissingFile(str(path))
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise BadSpec(f"{path} is not a model file: {exc}") from None
    if not isinstance(payload, dict):
        raise BadSpec(f"{path} is not a model file: not a JSON object")
    if payload.get("schema_version") != MODEL_SCHEMA_VERSION:
        raise BadSpec(f"unsupported model schema: {payload.get('schema_version')}")
    missing = [key for key in _MODEL_KEYS if key not in payload]
    if missing:
        raise BadSpec(f"{path} is not a model file: missing {', '.join(missing)}")
    try:
        weights = np.array(payload["weights"], dtype=np.float64)
        mean = np.array(payload["scaler_mean"], dtype=np.float64)
        std = np.array(payload["scaler_std"], dtype=np.float64)
        bias = float(payload["bias"])
        spec = RegressorSpec(kind=payload["kind"], **payload["params"])
        train_range = None
        if payload["train_range"]:
            first, last = payload["train_range"]
            train_range = (dt.date.fromisoformat(first), dt.date.fromisoformat(last))
    except BadSpec:
        raise
    except (TypeError, ValueError) as exc:
        raise BadSpec(f"{path} is not a model file: {exc}") from None
    horizon = payload["horizon"]
    if type(horizon) is not int or horizon < 1:
        raise BadSpec(f"{path} is not a model file: horizon {horizon!r} "
                      "is not an integer >= 1")
    if not all(np.isfinite(a).all() for a in (weights, bias, mean, std)):
        raise BadSpec(f"{path} is not a model file: "
                      "non-finite weight, bias or scaler value")
    if weights.shape != (payload["feature_dim"],):
        raise DimensionMismatch("stored weights do not match declared feature_dim")
    if mean.shape != weights.shape or std.shape != weights.shape:
        raise DimensionMismatch("stored scaler does not match feature_dim")
    model = FittedModel(weights, bias, spec, train_range)
    return model, Scaler(mean, std), horizon
