"""Command line front end.

One argparse parser with a subcommand per step of the pipeline.  Options
that several subcommands share come from parent parsers, so each is
declared once with its type, default and help.

An argument ``@FILE`` is replaced by the arguments in FILE, one per line
(``--r=0.8``); blank lines and ``#`` lines are skipped, and a flag given
after ``@FILE`` overrides the file's value.  Flags must be spelled out in
full: a prefix such as ``--ridge`` is not taken for ``--ridge-lambda``.

Exit codes: 0 success, 1 data, input or file-system errors, 2 usage errors.
"""

from __future__ import annotations

import argparse
import datetime as dt
import sys

import numpy as np

from . import kernels
from .backtest import (INTERVALS, DayTable, SplitSpec, check_params, decay_weights,
                       horizon_sweep, run_backtest, window_sweep)
from .errors import BadSpec, InsufficientData, PriceMissing, TxPatternError
from .features import day_feature_table, write_feature_csv
from .ingest import parse_prices, parse_transactions, partition_daily
# occurrence_matrices is not called here; e2ebench/tracer.py wraps it by this name
from .korder import GRID_CELLS, occurrence_matrices, occurrence_matrix_oracle
from .regress import RegressorSpec, load_model, predict, save_model
from .synth import SynthSpec, write_synth
from .txgraph import build_graph


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


# argparse names a converter in its usage errors ("invalid date value")
_iso_date.__name__ = "date"
_int_list.__name__ = "int list"
_planted.__name__ = "planted spec"


def _model_kind(text: str) -> str:
    low = str(text).strip().lower()
    return {"svr": "linear_svr"}.get(low, low)


class _Parser(argparse.ArgumentParser):
    def convert_arg_line_to_args(self, arg_line: str) -> list[str]:
        """One argument per line of an ``@FILE``; blank and ``#`` lines skipped."""
        line = arg_line.strip()
        return [line] if line and not line.startswith("#") else []


def _shared(*flags: str, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding one option that several subcommands share."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*flags, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    tx = _shared("--tx", required=True, help="transactions CSV")
    prices = _shared("--prices", required=True, help="prices CSV")
    order = _shared("--k", "--order", dest="order", type=int, default=2,
                    help="highest subgraph order to extract")
    horizon = _shared("--horizon", type=int, default=1, help="days ahead to predict")
    decay_r = _shared("--r", type=float, default=0.8, help="geometric decay ratio")
    seed = _shared("--seed", type=int, default=42, help="random seed")

    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--model", type=_model_kind, default="ridge",
                       choices=("ridge", "linear_svr"),
                       help="regressor kind, svr is shorthand for linear_svr")
    model.add_argument("--ridge-lambda", type=float, default=1.0, help="ridge penalty")
    model.add_argument("--svr-c", type=float, default=1.0, help="svr loss weight")
    model.add_argument("--svr-epsilon", type=float, default=0.1,
                       help="svr tube half-width")
    model.add_argument("--svr-tol", dest="svr_tolerance", type=float, default=1e-4,
                       help="svr relative primal and dual residual tolerance")

    split = argparse.ArgumentParser(add_help=False)
    split.add_argument("--interval", default="custom",
                       choices=("custom",) + tuple(INTERVALS),
                       help="named evaluation window")
    split.add_argument("--train-frac", type=float,
                       help="chronological training fraction, custom interval "
                            "only; None means 0.8")
    split.add_argument("--start", type=_iso_date, help="first day, custom interval")
    split.add_argument("--end", type=_iso_date, help="last day, custom interval")

    parser = _Parser(
        prog="txpattern",
        description="subgraph-pattern features and price backtests "
                    "for transaction graphs",
        fromfile_prefix_chars="@",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help_text, parents):
        sp = sub.add_parser(name, help=help_text, parents=parents, allow_abbrev=False,
                            formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        sp.set_defaults(handler=handler)
        return sp

    sp = command("synth", _cmd_synth, "generate a synthetic corpus", [seed])
    sp.add_argument("--out-tx", required=True, help="transactions CSV to write")
    sp.add_argument("--out-prices", required=True, help="prices CSV to write")
    sp.add_argument("--days", type=int, default=30, help="number of day windows")
    sp.add_argument("--tx-per-day", type=int, default=200,
                    help="mean transactions per day")
    sp.add_argument("--spend-prob", dest="spend_probability", type=float, default=0.35,
                    help="chance an input reuses an earlier output address")
    sp.add_argument("--coinbase-per-day", type=int, default=1,
                    help="inputless transactions per day")
    sp.add_argument("--fixed-tx-count", action="store_true",
                    help="exact instead of Poisson transaction counts")
    sp.add_argument("--price-model", default="random_walk",
                    choices=("random_walk", "planted_linear"), help="price process")
    sp.add_argument("--start-date", type=_iso_date, default=dt.date(2015, 1, 1),
                    help="first day")
    sp.add_argument("--start-price", type=float, default=1000.0, help="initial close")
    sp.add_argument("--volatility", type=float, default=0.02,
                    help="random walk log-sigma")
    sp.add_argument("--noise-sigma", type=float, default=0.01,
                    help="planted model noise, as a fraction of price")
    sp.add_argument("--planted", type=_planted,
                    help="planted weights 'order,m,n:coeff;...', "
                         "None for the built-in set")

    sp = command("features", _cmd_features, "per-day feature table to CSV",
                 [tx, order])
    sp.add_argument("--out", required=True, help="feature CSV to write")

    sp = command("train", _cmd_train, "fit one offset model and save it",
                 [tx, prices, order, horizon, model])
    sp.add_argument("--out", required=True, help="model JSON to write")

    sp = command("predict", _cmd_predict, "predict one day with a saved model",
                 [tx, prices])
    sp.add_argument("--model-file", required=True, help="model JSON from train")
    sp.add_argument("--date", type=_iso_date,
                    help="feature day, None for the last day in the data")

    sp = command("backtest", _cmd_backtest, "chronological train/test evaluation",
                 [tx, prices, split, order, decay_r, horizon, model])
    sp.add_argument("--report", help="write the full report JSON here")
    sp.add_argument("--csv", help="write per-day predictions CSV here")
    sp.add_argument("--window", type=int, default=2,
                    help="number of history offsets combined")

    sp = command("sweep-horizon", _cmd_sweep_horizon, "MAPE for several horizons",
                 [tx, prices, split, order, model])
    sp.add_argument("--horizons", type=_int_list, default=[1, 2, 7],
                    help="comma separated horizons")

    sp = command("sweep-window", _cmd_sweep_window, "MAPE for several ensemble windows",
                 [tx, prices, split, order, decay_r, horizon, model])
    sp.add_argument("--windows", type=_int_list, default=[1, 2, 3],
                    help="comma separated window sizes")

    sp = command("weights", _cmd_weights, "print the decay weights for r and window",
                 [decay_r])
    sp.add_argument("--window", type=int, default=2, help="number of weights")

    sp = command("oracle-check", _cmd_oracle_check,
                 "cross-check the matrix pipeline against a direct "
                 "per-transaction walk", [tx, order, seed])
    sp.add_argument("--sample", type=int, default=0,
                    help="check at most this many days, 0 = all")
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
    """The named interval, or the custom split of --train-frac, --start and
    --end; a named interval fixes all three itself."""
    if v["interval"] == "custom":
        frac = 0.8 if v["train_frac"] is None else v["train_frac"]
        return SplitSpec(frac, "custom", v["start"], v["end"])
    for key in ("train_frac", "start", "end"):
        if v[key] is not None:
            flag = "--" + key.replace("_", "-")
            raise BadSpec(f"{flag} cannot be combined with --interval {v['interval']}")
    return INTERVALS[v["interval"]]


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
    check_params(v["order"])
    windows = partition_daily(parse_transactions(v["tx"]))
    dates, table = day_feature_table(windows, v["order"])
    write_feature_csv(dates, table, v["out"])
    print(f"wrote {len(dates)} rows x {table.shape[1]} features to {v['out']}")
    return 0


def _cmd_train(v: dict) -> int:
    spec = _make_spec(v)
    check_params(v["order"], [v["horizon"]])
    transactions = parse_transactions(v["tx"])
    prices = parse_prices(v["prices"])
    table = DayTable(partition_daily(transactions), prices, v["order"])
    model, info = table.fit_offset(v["horizon"], spec, prices.last_date)
    save_model(v["out"], model, v["horizon"])
    print(f"trained {model.spec.kind} on {info.train_rows} days, wrote {v['out']}")
    return 0


def _cmd_predict(v: dict) -> int:
    model, horizon = load_model(v["model_file"])
    windows = partition_daily(parse_transactions(v["tx"]))
    prices = parse_prices(v["prices"])
    if not windows:
        raise InsufficientData(f"no transactions in {v['tx']}")
    date = v["date"] or windows[-1].date
    i = (date - windows[0].date).days
    if not 0 <= i < len(windows):
        raise InsufficientData(f"no transaction window for {date.isoformat()}")
    base = prices.price_on(date)
    if base is None:
        raise PriceMissing(date)
    _, table = day_feature_table([windows[i]], _order_of(model))
    diff = predict(model, table[0])
    target = date + dt.timedelta(days=horizon)
    print(f"{target.isoformat()} {base + diff!r}")
    return 0


def _cmd_backtest(v: dict) -> int:
    split, spec = _make_split(v), _make_spec(v)
    check_params(v["order"], [v["horizon"]], v["r"], [v["window"]])
    transactions = parse_transactions(v["tx"])
    prices = parse_prices(v["prices"])
    report = run_backtest(transactions, prices, split, v["order"], v["r"],
                          v["window"], spec, v["horizon"])
    print(report.summary())
    if v["report"]:
        report.write_json(v["report"])
        print(f"wrote {v['report']}")
    if v["csv"]:
        report.write_csv(v["csv"])
        print(f"wrote {v['csv']}")
    return 0


def _cmd_sweep_horizon(v: dict) -> int:
    if not v["horizons"]:
        raise BadSpec("--horizons lists no horizon")
    split, spec = _make_split(v), _make_spec(v)
    check_params(v["order"], v["horizons"])
    transactions = parse_transactions(v["tx"])
    prices = parse_prices(v["prices"])
    rows = horizon_sweep(transactions, prices, split, v["horizons"], v["order"], spec)
    print("horizon,mape_percent")
    for h, m in rows:
        print(f"{h},{m:.6f}")
    return 0


def _cmd_sweep_window(v: dict) -> int:
    if not v["windows"]:
        raise BadSpec("--windows lists no window")
    split, spec = _make_split(v), _make_spec(v)
    check_params(v["order"], [v["horizon"]], v["r"], v["windows"])
    transactions = parse_transactions(v["tx"])
    prices = parse_prices(v["prices"])
    rows = window_sweep(transactions, prices, split, v["windows"], v["r"],
                        v["order"], spec, v["horizon"])
    print("window,mape_percent")
    for w, m in rows:
        print(f"{w},{m:.6f}")
    return 0


def _cmd_weights(v: dict) -> int:
    print(" ".join(f"{a:g}" for a in decay_weights(v["r"], v["window"])))
    return 0


def _cmd_oracle_check(v: dict) -> int:
    if v["sample"] < 0:
        raise BadSpec(f"sample must be >= 0, got {v['sample']}")
    if v["seed"] < 0:
        raise BadSpec(f"seed must be >= 0, got {v['seed']}")
    check_params(v["order"])
    windows = partition_daily(parse_transactions(v["tx"]))
    if v["sample"] and v["sample"] < len(windows):
        rng = np.random.default_rng(v["seed"])
        idx = sorted(rng.choice(len(windows), size=v["sample"], replace=False))
        windows = [windows[i] for i in idx]
    _, table = day_feature_table(windows, v["order"])
    checked = 0
    for w, row in zip(windows, table):
        graph = build_graph(w)
        for k in range(1, v["order"] + 1):
            slow = occurrence_matrix_oracle(graph, k)
            if not np.array_equal(row[(k - 1) * GRID_CELLS:k * GRID_CELLS], slow.to_flat()):
                print(f"MISMATCH on {w.date.isoformat()} order {k}", file=sys.stderr)
                return 1
            checked += 1
    print(f"oracle check passed: {len(windows)} days, {checked} grids")
    return 0


def main(argv: list[str] | None = None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        # the fits' BLAS calls are small: one thread, the caller's count after
        with kernels.one_blas_thread():
            return ns.handler(vars(ns))
    except (TxPatternError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
