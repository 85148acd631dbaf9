"""Command line front end.

Every flag, paths included, resolves in precedence order: command line,
then ``TXPATTERN_<NAME>`` environment variable, then ``key=value`` line in
the file given by ``--config`` (or ``TXPATTERN_CONFIG``), then the built-in
default.

Exit codes: 0 success, 1 data or input errors, 2 usage errors.
"""

from __future__ import annotations

import argparse
import datetime as dt
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .backtest import INTERVALS, DayTable, SplitSpec, horizon_sweep, run_backtest, window_sweep
from .ensemble import decay_weights
from .errors import BadSpec, InsufficientData, PriceMissing, TxPatternError
from .features import apply_scaler, day_feature_table, write_feature_csv
from .ingest import parse_prices, parse_transactions, partition_daily
from .korder import GRID_CELLS, occurrence_matrices, occurrence_matrix_oracle
from .regress import RegressorSpec, load_model, predict, save_model
from .synth import SynthSpec, write_synth
from .txgraph import build_graph

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _bool(text: str) -> bool:
    low = str(text).strip().lower()
    if low in _TRUE:
        return True
    if low in _FALSE:
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _iso_date(text: str) -> dt.date:
    return dt.date.fromisoformat(str(text).strip())


def _int_list(text: str) -> list[int]:
    return [int(part) for part in str(text).replace(",", " ").split()]


def _planted(text: str) -> dict[tuple[int, int, int], float]:
    """Parse 'order,m,n:coeff;order,m,n:coeff' triples."""
    out: dict[tuple[int, int, int], float] = {}
    for chunk in str(text).split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        key_part, _, coeff_part = chunk.partition(":")
        order, m, n = (int(p) for p in key_part.split(","))
        out[(order, m, n)] = float(coeff_part)
    return out


def _model_kind(text: str) -> str:
    low = str(text).strip().lower()
    return {"svr": "linear_svr"}.get(low, low)


@dataclass(frozen=True)
class Opt:
    flags: tuple[str, ...]
    dest: str
    conv: Callable | None
    default: object
    help: str
    is_flag: bool = False
    choices: tuple | None = None
    required: bool = False


def _path(flag: str, dest: str, help_text: str, required: bool = True) -> Opt:
    return Opt((flag,), dest, str, None, help_text, required=required)


SEED = Opt(("--seed",), "seed", int, 42, "random seed")
ORDER = Opt(("--k", "--order"), "order", int, 2, "highest subgraph order to extract")
HORIZON = Opt(("--horizon",), "horizon", int, 1, "days ahead to predict")
DECAY_R = Opt(("--r",), "r", float, 0.8, "geometric decay ratio")
TX = _path("--tx", "tx", "transactions CSV")
PRICES = _path("--prices", "prices", "prices CSV")

MODEL_OPTS = [
    Opt(("--model",), "model", _model_kind, "ridge",
        "regressor kind, svr is shorthand for linear_svr",
        choices=("ridge", "linear_svr")),
    Opt(("--ridge-lambda",), "ridge_lambda", float, 1.0, "ridge penalty"),
    Opt(("--svr-c",), "svr_c", float, 1.0, "svr loss weight"),
    Opt(("--svr-epsilon",), "svr_epsilon", float, 0.1, "svr tube half-width"),
    Opt(("--svr-tol",), "svr_tolerance", float, 1e-4,
        "svr relative primal and dual residual tolerance"),
]

SPLIT_OPTS = [
    Opt(("--interval",), "interval", str, "custom",
        "named evaluation window", choices=("custom",) + tuple(INTERVALS)),
    Opt(("--train-frac",), "train_frac", float, 0.8,
        "chronological training fraction (custom interval)"),
    Opt(("--start",), "start", _iso_date, None, "first day, custom interval"),
    Opt(("--end",), "end", _iso_date, None, "last day, custom interval"),
]

SYNTH_OPTS = [
    _path("--out-tx", "out_tx", "transactions CSV to write"),
    _path("--out-prices", "out_prices", "prices CSV to write"),
    Opt(("--days",), "days", int, 30, "number of day windows"),
    Opt(("--tx-per-day",), "tx_per_day", int, 200, "mean transactions per day"),
    Opt(("--spend-prob",), "spend_probability", float, 0.35,
        "chance an input reuses an earlier output address"),
    Opt(("--coinbase-per-day",), "coinbase_per_day", int, 1,
        "inputless transactions per day"),
    Opt(("--fixed-tx-count",), "fixed_tx_count", None, False,
        "exact instead of Poisson transaction counts", is_flag=True),
    Opt(("--price-model",), "price_model", str, "random_walk",
        "price process", choices=("random_walk", "planted_linear")),
    Opt(("--start-date",), "start_date", _iso_date, dt.date(2015, 1, 1), "first day"),
    Opt(("--start-price",), "start_price", float, 1000.0, "initial close"),
    Opt(("--volatility",), "volatility", float, 0.02, "random walk log-sigma"),
    Opt(("--noise-sigma",), "noise_sigma", float, 0.01,
        "planted model noise, as a fraction of price"),
    Opt(("--planted",), "planted", _planted, None,
        "planted weights, 'order,m,n:coeff;...' (default: built in)"),
    SEED,
]

FEATURES_OPTS = [TX, _path("--out", "out", "feature CSV to write"), ORDER]
TRAIN_OPTS = [TX, PRICES, _path("--out", "out", "model JSON to write"),
              ORDER, HORIZON] + MODEL_OPTS
PREDICT_OPTS = [_path("--model-file", "model_file", "model JSON from train"),
                TX, PRICES,
                Opt(("--date",), "date", _iso_date, None,
                    "feature day (default: last day in the data)")]
BACKTEST_OPTS = [TX, PRICES,
                 _path("--report", "report", "write the full report JSON here",
                       required=False),
                 _path("--csv", "csv", "write per-day predictions CSV here",
                       required=False),
                 ] + SPLIT_OPTS + [ORDER, DECAY_R,
                                   Opt(("--window",), "window", int, 2,
                                       "number of history offsets combined"),
                                   HORIZON] + MODEL_OPTS
SWEEP_H_OPTS = [TX, PRICES] + SPLIT_OPTS + [
    ORDER, DECAY_R,
    Opt(("--horizons",), "horizons", _int_list, [1, 2, 7],
        "comma separated horizons")] + MODEL_OPTS
SWEEP_W_OPTS = [TX, PRICES] + SPLIT_OPTS + [
    ORDER, DECAY_R, HORIZON,
    Opt(("--windows",), "windows", _int_list, [1, 2, 3],
        "comma separated window sizes")] + MODEL_OPTS
WEIGHTS_OPTS = [DECAY_R, Opt(("--window",), "window", int, 2, "number of weights")]
ORACLE_OPTS = [TX, ORDER, SEED,
               Opt(("--sample",), "sample", int, 0,
                   "check at most this many days, 0 = all")]


def _add(sp: argparse.ArgumentParser, opts: list[Opt]) -> None:
    for o in opts:
        if o.required:
            text = f"{o.help} (required)"
        elif o.default is None:
            text = o.help
        else:
            text = f"{o.help} (default: {o.default})"
        if o.is_flag:
            sp.add_argument(*o.flags, dest=o.dest, action="store_true",
                            default=argparse.SUPPRESS, help=text)
        else:
            sp.add_argument(*o.flags, dest=o.dest, type=o.conv,
                            default=argparse.SUPPRESS, choices=o.choices, help=text)


def _read_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    p = Path(path)
    if not p.is_file():
        raise TxPatternError(f"config file not found: {path}")
    for raw in p.read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise TxPatternError(f"config line is not key=value: {raw!r}")
        out[key.strip()] = value.strip()
    return out


def _resolve(opts: list[Opt], ns: argparse.Namespace,
             config: dict[str, str], parser: argparse.ArgumentParser) -> dict:
    values: dict[str, object] = {}
    for o in opts:
        conv = _bool if o.is_flag else o.conv
        value = o.default
        if o.dest in config:
            raw = config[o.dest]
            try:
                value = conv(raw) if conv else raw
            except ValueError as exc:
                parser.error(f"config {o.dest}={raw!r}: {exc}")
        env_key = f"TXPATTERN_{o.dest.upper()}"
        if env_key in os.environ:
            raw = os.environ[env_key]
            try:
                value = conv(raw) if conv else raw
            except ValueError as exc:
                parser.error(f"{env_key}={raw!r}: {exc}")
        if hasattr(ns, o.dest):
            value = getattr(ns, o.dest)
        if o.choices is not None and value not in o.choices:
            parser.error(f"{o.dest} must be one of {o.choices}, got {value!r}")
        if o.required and value is None:
            parser.error(f"{o.flags[0]} is required")
        values[o.dest] = value
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="txpattern",
        description="subgraph-pattern features and price backtests "
                    "for transaction graphs",
    )
    parser.add_argument("--config", default=os.environ.get("TXPATTERN_CONFIG"),
                        help="key=value defaults file")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate a synthetic corpus")
    _add(sp, SYNTH_OPTS)

    sp = sub.add_parser("features", help="per-day feature table to CSV")
    _add(sp, FEATURES_OPTS)

    sp = sub.add_parser("train", help="fit one offset model and save it")
    _add(sp, TRAIN_OPTS)

    sp = sub.add_parser("predict", help="predict one day with a saved model")
    _add(sp, PREDICT_OPTS)

    sp = sub.add_parser("backtest", help="chronological train/test evaluation")
    _add(sp, BACKTEST_OPTS)

    sp = sub.add_parser("sweep-horizon", help="MAPE for several horizons")
    _add(sp, SWEEP_H_OPTS)

    sp = sub.add_parser("sweep-window", help="MAPE for several ensemble windows")
    _add(sp, SWEEP_W_OPTS)

    sp = sub.add_parser("weights", help="print the decay weights for r and window")
    _add(sp, WEIGHTS_OPTS)

    sp = sub.add_parser("oracle-check", help="cross-check the matrix pipeline "
                                             "against a direct per-transaction walk")
    _add(sp, ORACLE_OPTS)
    return parser


def _make_spec(v: dict) -> RegressorSpec:
    return RegressorSpec(
        kind=v["model"],
        ridge_lambda=v["ridge_lambda"],
        svr_c=v["svr_c"],
        svr_epsilon=v["svr_epsilon"],
        svr_tolerance=v["svr_tolerance"],
    )


def _make_split(v: dict) -> SplitSpec:
    if v["interval"] != "custom":
        return INTERVALS[v["interval"]]
    return SplitSpec(v["train_frac"], "custom", v["start"], v["end"])


def _order_of(model) -> int:
    dim = model.weights.shape[0]
    if dim % GRID_CELLS:
        raise TxPatternError(f"model dimension {dim} is not a whole number of grids")
    return dim // GRID_CELLS


def _cmd_synth(v: dict) -> int:
    kwargs = dict(
        days=v["days"], tx_per_day=v["tx_per_day"], seed=v["seed"],
        spend_probability=v["spend_probability"],
        coinbase_per_day=v["coinbase_per_day"],
        fixed_tx_count=v["fixed_tx_count"], price_model=v["price_model"],
        start_date=v["start_date"], start_price=v["start_price"],
        volatility=v["volatility"], noise_sigma=v["noise_sigma"],
    )
    if v["planted"] is not None:
        kwargs["planted_weights"] = v["planted"]
    n_tx, n_prices = write_synth(SynthSpec(**kwargs), v["out_tx"], v["out_prices"])
    print(f"wrote {n_tx} transactions to {v['out_tx']}")
    print(f"wrote {n_prices} price rows to {v['out_prices']}")
    return 0


def _cmd_features(v: dict) -> int:
    windows = partition_daily(parse_transactions(v["tx"]))
    dates, table = day_feature_table(windows, v["order"])
    write_feature_csv(dates, table, v["out"])
    print(f"wrote {len(dates)} rows x {table.shape[1]} features to {v['out']}")
    return 0


def _cmd_train(v: dict) -> int:
    transactions = parse_transactions(v["tx"])
    prices = parse_prices(v["prices"])
    table = DayTable(partition_daily(transactions), prices, v["order"])
    model, scaler, info = table.fit_offset(v["horizon"], _make_spec(v),
                                           prices.last_date)
    save_model(v["out"], model, scaler, v["horizon"])
    print(f"trained {model.spec.kind} on {info.train_rows} days, wrote {v['out']}")
    return 0


def _cmd_predict(v: dict) -> int:
    model, scaler, horizon = load_model(v["model_file"])
    windows = partition_daily(parse_transactions(v["tx"]))
    prices = parse_prices(v["prices"])
    if not windows:
        raise InsufficientData(f"no transactions in {v['tx']}")
    date = v["date"] or windows[-1].date
    by_date = {w.date: w for w in windows}
    if date not in by_date:
        raise InsufficientData(f"no transaction window for {date.isoformat()}")
    base = prices.price_on(date)
    if base is None:
        raise PriceMissing(date)
    _, table = day_feature_table([by_date[date]], _order_of(model))
    diff = predict(model, apply_scaler(scaler, table[0]))
    target = date + dt.timedelta(days=horizon)
    print(f"{target.isoformat()} {base + diff!r}")
    return 0


def _cmd_backtest(v: dict) -> int:
    transactions = parse_transactions(v["tx"])
    prices = parse_prices(v["prices"])
    report = run_backtest(transactions, prices, _make_split(v), v["order"], v["r"],
                          v["window"], _make_spec(v), v["horizon"])
    print(report.summary())
    if v["report"]:
        report.write_json(v["report"])
        print(f"wrote {v['report']}")
    if v["csv"]:
        report.write_csv(v["csv"])
        print(f"wrote {v['csv']}")
    return 0


def _cmd_sweep_horizon(v: dict) -> int:
    transactions = parse_transactions(v["tx"])
    prices = parse_prices(v["prices"])
    rows = horizon_sweep(transactions, prices, _make_split(v), v["horizons"],
                         v["order"], _make_spec(v), v["r"])
    print("horizon,mape_percent")
    for h, m in rows:
        print(f"{h},{m:.6f}")
    return 0


def _cmd_sweep_window(v: dict) -> int:
    transactions = parse_transactions(v["tx"])
    prices = parse_prices(v["prices"])
    rows = window_sweep(transactions, prices, _make_split(v), v["windows"], v["r"],
                        v["order"], _make_spec(v), v["horizon"])
    print("window,mape_percent")
    for w, m in rows:
        print(f"{w},{m:.6f}")
    return 0


def _cmd_weights(v: dict) -> int:
    w = decay_weights(v["r"], v["window"])
    print(" ".join(f"{a:g}" for a in w.alphas))
    return 0


def _cmd_oracle_check(v: dict) -> int:
    if v["sample"] < 0:
        raise BadSpec(f"sample must be >= 0, got {v['sample']}")
    windows = partition_daily(parse_transactions(v["tx"]))
    if v["sample"] and v["sample"] < len(windows):
        rng = np.random.default_rng(v["seed"])
        idx = sorted(rng.choice(len(windows), size=v["sample"], replace=False))
        windows = [windows[i] for i in idx]
    checked = 0
    for w in windows:
        graph = build_graph(w)
        fast = occurrence_matrices(graph, v["order"])
        for k in range(1, v["order"] + 1):
            slow = occurrence_matrix_oracle(graph, k)
            if fast[k - 1] != slow:
                print(f"MISMATCH on {w.date.isoformat()} order {k}", file=sys.stderr)
                return 1
            checked += 1
    print(f"oracle check passed: {len(windows)} days, {checked} grids")
    return 0


_HANDLERS = {
    "synth": (_cmd_synth, SYNTH_OPTS),
    "features": (_cmd_features, FEATURES_OPTS),
    "train": (_cmd_train, TRAIN_OPTS),
    "predict": (_cmd_predict, PREDICT_OPTS),
    "backtest": (_cmd_backtest, BACKTEST_OPTS),
    "sweep-horizon": (_cmd_sweep_horizon, SWEEP_H_OPTS),
    "sweep-window": (_cmd_sweep_window, SWEEP_W_OPTS),
    "weights": (_cmd_weights, WEIGHTS_OPTS),
    "oracle-check": (_cmd_oracle_check, ORACLE_OPTS),
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        config = _read_config(ns.config) if ns.config else {}
        handler, opts = _HANDLERS[ns.command]
        values = _resolve(opts, ns, config, parser)
        return handler(values)
    except TxPatternError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
