"""Regression models mapping feature vectors to price differences.

Each fit z-scores the non-constant columns over its training rows, with
population statistics, and solves its problem in that space; a constant
column gets weight 0.  The weights it returns apply to the raw feature
counts, so prediction and model files need no scaling step (see
kernels.centred_eigh).  Two built-in families:

* ``ridge`` - squared loss plus ``ridge_lambda`` times the squared z-space
  weights, intercept unpenalized, solved in closed form by kernels.ridge
  on the eigenbasis it shares with the SVR.  Deterministic and
  independently checkable, so it doubles as the test oracle downstream.
* ``linear_svr`` - linear epsilon-insensitive regression, intercept
  unpenalized, solved to a relative residual tolerance by deterministic
  over-relaxed ADMM (see kernels.svr_epochs), which tests its residuals
  every 10 iterations and at the cap.  A fit that reaches the iteration cap
  first is kept, marked ``converged = False``, and reported on stderr.

Training data and every hyperparameter must be finite; the defaults are
not tuned but documented, CLI-overridable values.  Model files are strict
JSON, schema 3, whose weights apply to raw counts: no ``NaN`` or
``Infinity`` is written or accepted.
"""

from __future__ import annotations

import datetime as dt
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import kernels
from .errors import BadSpec, DimensionMismatch, MissingFile, TooFewRows

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
        if not 0 <= self.ridge_lambda < math.inf:
            raise BadSpec("ridge_lambda must be finite and >= 0")
        if not 0 < self.svr_c < math.inf:
            raise BadSpec("svr_c must be finite and > 0")
        if not 0 <= self.svr_epsilon < math.inf:
            raise BadSpec("svr_epsilon must be finite and >= 0")
        if not 0 < self.svr_tolerance < math.inf:
            raise BadSpec("svr_tolerance must be finite and > 0")


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


def fit(
    spec: RegressorSpec,
    x: np.ndarray,
    y: np.ndarray,
    train_range: tuple[dt.date, dt.date] | None = None,
) -> FittedModel:
    """Fit one model on raw features x (n, d) and targets y (n,); the
    weights apply to x's own columns."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise DimensionMismatch("x must be (n, d) with matching y")
    if x.shape[0] < 2:
        raise TooFewRows(f"need at least 2 training rows, got {x.shape[0]}")
    # x is checked on the column extremes that kernels.centred_eigh takes
    if not np.isfinite([y.min(), y.max()]).all():
        raise BadSpec("training features and targets must be finite")
    if spec.kind == "ridge":
        w, b = kernels.ridge(x, y, spec.ridge_lambda)
        return FittedModel(w, b, spec, train_range)
    cap = kernels.SVR_MAX_ITER
    w, b, losses, converged = kernels.svr_epochs(
        x, y, spec.svr_c, spec.svr_epsilon, spec.svr_tolerance, cap)
    if not converged:
        print(f"warning: linear_svr stopped at {cap} iterations before "
              f"reaching svr_tolerance {spec.svr_tolerance}", file=sys.stderr)
    return FittedModel(w, b, spec, train_range, losses, converged)


def predict(model: FittedModel, x: np.ndarray):
    """Predicted price difference w.x + b: a float for one raw vector, an
    array with one value per row for a block of rows."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim > 2 or x.shape[-1:] != model.weights.shape:
        raise DimensionMismatch(
            f"feature length {x.shape} does not match model {model.weights.shape}"
        )
    out = x @ model.weights + model.bias
    return float(out) if x.ndim == 1 else out


MODEL_SCHEMA_VERSION = 3
_MODEL_KEYS = (
    "bias", "feature_dim", "horizon", "kind", "params", "train_range", "weights",
)


def save_model(path: str | Path, model: FittedModel, horizon: int) -> None:
    """Persist the model as versioned JSON (loadable by load_model)."""
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
        "train_range": (
            [model.train_range[0].isoformat(), model.train_range[1].isoformat()]
            if model.train_range
            else None
        ),
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True,
                                      allow_nan=False) + "\n")


def load_model(path: str | Path) -> tuple[FittedModel, int]:
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
    # a key of another schema, such as schema 2's scaler, changes what the
    # weights mean, so it is an error and never ignored
    unknown = sorted(payload.keys() - {"schema_version", *_MODEL_KEYS})
    if unknown:
        raise BadSpec(f"{path} is not a model file: unknown {', '.join(unknown)}")
    try:
        weights = np.array(payload["weights"], dtype=np.float64)
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
    if not (np.isfinite(weights).all() and math.isfinite(bias)):
        raise BadSpec(f"{path} is not a model file: non-finite weight or bias")
    if weights.shape != (payload["feature_dim"],):
        raise DimensionMismatch("stored weights do not match declared feature_dim")
    return FittedModel(weights, bias, spec, train_range), horizon
