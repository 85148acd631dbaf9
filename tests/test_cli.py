import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import txpattern
from txpattern import cli, kernels
from txpattern.cli import main
from txpattern.errors import BadSpec
from txpattern.korder import GRID_CELLS
from txpattern.regress import MODEL_SCHEMA_VERSION, load_model


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_corpus")
    tx, px = str(root / "tx.csv"), str(root / "px.csv")
    code = main(["synth", "--out-tx", tx, "--out-prices", px,
                 "--days", "30", "--tx-per-day", "40", "--seed", "5",
                 "--price-model", "planted_linear"])
    assert code == 0
    return tx, px


def test_weights_golden(capsys):
    code, out, _ = run(capsys, "weights", "--r", "0.8", "--window", "3")
    assert code == 0
    assert out.strip() == "0.8 0.16 0.04"


def test_weights_default_window(capsys):
    code, out, _ = run(capsys, "weights", "--r", "0.5")
    assert code == 0
    assert out.strip() == "0.5 0.5"


def test_no_subcommand_exit_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_env_is_ignored(capsys, monkeypatch):
    monkeypatch.setenv("TXPATTERN_R", "0.9")
    code, out, _ = run(capsys, "weights")
    assert code == 0
    assert out.strip() == "0.8 0.2"


def test_cli_beats_env(capsys, tmp_path, monkeypatch):
    # a flag after @FILE overrides the file; the environment plays no part
    monkeypatch.setenv("TXPATTERN_R", "0.9")
    args = tmp_path / "args"
    args.write_text("--r=0.75\n")
    code, out, _ = run(capsys, "weights", f"@{args}", "--r", "0.5")
    assert code == 0
    assert out.strip() == "0.5 0.5"


def test_config_supplies_defaults(capsys, tmp_path):
    args = tmp_path / "args"
    args.write_text("# shared settings\n\n--r=0.75\n")
    code, out, _ = run(capsys, "weights", f"@{args}")
    assert code == 0
    assert out.strip() == "0.75 0.25"


def test_bad_argfile_value_is_usage_error(tmp_path):
    args = tmp_path / "args"
    args.write_text("--window=often\n")
    with pytest.raises(SystemExit) as exc:
        main(["weights", f"@{args}"])
    assert exc.value.code == 2


def test_malformed_config_line(capsys, tmp_path):
    args = tmp_path / "args"
    args.write_text("--threads=2\nbogus\n")
    with pytest.raises(SystemExit) as exc:
        main(["weights", f"@{args}"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads=2 bogus" in capsys.readouterr().err


def test_missing_config_file():
    with pytest.raises(SystemExit) as exc:
        main(["weights", "@/nope/args"])
    assert exc.value.code == 2


def test_config_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["--config", "cfg", "weights"])
    assert exc.value.code == 2


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["backtest"])  # required --tx/--prices missing
    assert exc.value.code == 2


def test_model_commands_take_no_seed(corpus):
    # the regressors are deterministic, so a seed would change nothing
    tx, px = corpus
    with pytest.raises(SystemExit) as exc:
        main(["backtest", "--tx", tx, "--prices", px, "--seed", "1"])
    assert exc.value.code == 2


def test_invalid_choice_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["weights", "--r", "abc"])
    assert exc.value.code == 2


def test_missing_input_file_exit_1(capsys):
    code, _, err = run(capsys, "features", "--tx", "/nope.csv", "--out", "/tmp/f.csv")
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    ["features", "--tx", "DIR", "--out", os.devnull],
    ["backtest", "--tx", "TX", "--prices", "DIR"],
    ["predict", "--model-file", "DIR", "--tx", "TX", "--prices", "PX"],
    ["features", "--tx", "TX", "--out", "DIR/missing/f.csv"],
])
def test_file_system_error_exit_1(corpus, tmp_path, capsys, argv):
    tx, px = corpus
    argv = [a.replace("DIR", str(tmp_path)).replace("TX", tx).replace("PX", px)
            for a in argv]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert str(tmp_path) in err


def _cli(*argv, stdin: bytes) -> subprocess.CompletedProcess:
    """The CLI in a fresh interpreter, reading ``stdin`` from a pipe."""
    src = str(Path(txpattern.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "txpattern.cli", *argv],
                          input=stdin, capture_output=True, env=env)


def test_features_reads_a_pipe(corpus, tmp_path, capsys):
    tx, _ = corpus
    from_file, from_pipe = tmp_path / "file.csv", tmp_path / "pipe.csv"
    assert run(capsys, "features", "--tx", tx, "--out", str(from_file))[0] == 0
    done = _cli("features", "--tx", "/dev/stdin", "--out", str(from_pipe),
                stdin=Path(tx).read_bytes())
    assert done.returncode == 0, done.stderr
    assert from_pipe.read_bytes() == from_file.read_bytes()


@pytest.mark.parametrize("row, message", [
    ("t9,x,a,b", "line 4: bad timestamp 'x'"),
    ("t1,7,a,b", "duplicate tx_id 't1' on lines 2 and 4"),
])
def test_piped_bad_line_is_named(row, message):
    data = f"tx_id,timestamp,inputs,outputs\nt1,5,a,b\nt2,6,,c\n{row}\nt3,8,c,d\n"
    done = _cli("features", "--tx", "/dev/stdin", "--out", os.devnull,
                stdin=data.encode())
    assert (done.returncode, done.stderr) == (1, f"error: {message}\n".encode())


_BAD_PARAMETERS = [
    ["backtest", "--svr-c", "0", "--prices", "PX"],
    ["backtest", "--train-frac", "1.5", "--prices", "PX"],
    ["backtest", "--horizon", "0", "--prices", "PX"],
    ["backtest", "--r", "1.5", "--prices", "PX"],
    ["sweep-horizon", "--horizons", "0,1", "--prices", "PX"],
    ["sweep-window", "--horizon", "0", "--prices", "PX"],
    ["train", "--horizon", "0", "--out", os.devnull, "--prices", "PX"],
    ["predict", "--model-file", "PX", "--prices", "PX"],
    ["oracle-check", "--sample", "-1"],
    ["oracle-check", "--sample", "3", "--seed", "-1"],
    ["backtest", "--ridge-lambda", "nan", "--prices", "PX"],
    ["backtest", "--model", "svr", "--svr-c", "nan", "--prices", "PX"],
    ["backtest", "--model", "svr", "--svr-epsilon", "nan", "--prices", "PX"],
    ["train", "--ridge-lambda", "nan", "--out", os.devnull, "--prices", "PX"],
    ["features", "--k", "-1", "--out", os.devnull],
    ["features", "--k", "0", "--out", os.devnull],
    ["backtest", "--k", "-1", "--prices", "PX"],
    ["backtest", "--window", "0", "--prices", "PX"],
    ["backtest", "--k", "0", "--prices", "PX"],
    ["sweep-horizon", "--horizons", "0", "--prices", "PX"],
    ["sweep-window", "--windows", "0,1", "--prices", "PX"],
    ["sweep-window", "--r", "1.5", "--prices", "PX"],
    ["train", "--k", "0", "--out", os.devnull, "--prices", "PX"],
    ["oracle-check", "--k", "0"],
    ["backtest", "--model", "svr", "--svr-c", "inf", "--prices", "PX"],
    ["backtest", "--model", "svr", "--svr-epsilon", "inf", "--prices", "PX"],
    ["backtest", "--ridge-lambda", "inf", "--prices", "PX"],
    ["train", "--model", "svr", "--svr-tol", "inf", "--out", os.devnull,
     "--prices", "PX"],
]


@pytest.mark.parametrize("argv", _BAD_PARAMETERS)
def test_bad_parameter_exit_1(corpus, capsys, argv):
    tx, px = corpus
    argv = [px if a == "PX" else a for a in argv]
    code, _, err = run(capsys, *argv, "--tx", tx)
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", _BAD_PARAMETERS)
def test_bad_parameter_checked_before_reading(corpus, tmp_path, capsys, argv):
    # the transactions file is read first, so a missing one shows whether
    # the parameter error comes before any work
    tx, px = corpus
    argv = [px if a == "PX" else a for a in argv]
    missing = str(tmp_path / "missing.csv")
    code, _, err = run(capsys, *argv, "--tx", missing)
    assert code == 1
    assert missing not in err
    assert (code, err) == run(capsys, *argv, "--tx", tx)[::2]


@pytest.mark.parametrize("flag, value", [
    ("--start", "2015-01-10"), ("--end", "2015-01-20"), ("--train-frac", "0.5"),
])
def test_named_interval_excludes_custom_split_flags(corpus, capsys, flag, value):
    tx, px = corpus
    code, out, err = run(capsys, "backtest", "--tx", tx, "--prices", px,
                         "--interval", "interval1", flag, value)
    assert (code, out) == (1, "")
    assert err == f"error: {flag} cannot be combined with --interval interval1\n"


def test_named_interval_alone_runs(corpus, capsys):
    tx, px = corpus
    code, out, _ = run(capsys, "backtest", "--tx", tx, "--prices", px,
                       "--interval", "interval1")
    assert code == 0
    assert out.startswith("interval=interval1 ")
    assert "train_days=24 test_days=6" in out


def test_timestamp_out_of_range_exit_1(tmp_path, capsys):
    tx = tmp_path / "tx.csv"
    tx.write_text("tx_id,timestamp,inputs,outputs\nt1,1000000000000000,a,b\n")
    code, _, err = run(capsys, "features", "--tx", str(tx),
                       "--out", str(tmp_path / "f.csv"))
    assert code == 1
    assert err == "error: line 2: timestamp '1000000000000000' out of range\n"


@pytest.mark.parametrize("stamp", [" 10", "+20", "1_000", "\u0663", "1.5"])
def test_timestamp_grammar_exit_1(tmp_path, capsys, stamp):
    # a timestamp is -?[0-9]+: int() would take the first four
    tx = tmp_path / "tx.csv"
    tx.write_text(f"tx_id,timestamp,inputs,outputs\nt1,5,a,b\nt2,{stamp},a,b\n")
    code, _, err = run(capsys, "features", "--tx", str(tx),
                       "--out", str(tmp_path / "f.csv"))
    assert code == 1
    assert err == f"error: line 3: bad timestamp {stamp!r}\n"


def test_invalid_utf8_in_transactions(tmp_path, capsys):
    # tokens are opaque bytes: a 0xff address parses, a 0xff timestamp is a
    # bad field named with the byte replaced
    tx = tmp_path / "tx.csv"
    tx.write_bytes(b"tx_id,timestamp,inputs,outputs\n"
                   b"t\xff,5,a\xff,b\nt2,6,a\xfe,a\xff\n")
    code, out, _ = run(capsys, "features", "--tx", str(tx),
                       "--out", str(tmp_path / "f.csv"))
    assert code == 0 and out.startswith("wrote 1 rows")
    tx.write_bytes(b"tx_id,timestamp,inputs,outputs\nt1,5,a,b\nt2,6\xff,a,b\n")
    code, _, err = run(capsys, "features", "--tx", str(tx),
                       "--out", str(tmp_path / "f.csv"))
    assert code == 1
    assert err == "error: line 3: bad timestamp '6\ufffd'\n"


def test_invalid_utf8_in_prices(corpus, tmp_path, capsys):
    tx, px = corpus
    bad = tmp_path / "px.csv"
    lines = open(px, "rb").read().splitlines()
    lines[3] = b"2015-01-0\xff," + lines[3].split(b",")[1]
    bad.write_bytes(b"\n".join(lines) + b"\n")
    code, _, err = run(capsys, "backtest", "--tx", tx, "--prices", str(bad))
    assert code == 1
    assert err == "error: line 4: cannot parse date '2015-01-0\ufffd'\n"


@pytest.mark.parametrize("argv", [
    ["sweep-horizon", "--horizons", " "],
    ["sweep-window", "--windows", ","],
])
def test_empty_sweep_list_exit_1(tmp_path, capsys, argv):
    # rejected before the files are read: these paths do not exist
    missing = str(tmp_path / "missing.csv")
    code, out, err = run(capsys, *argv, "--tx", missing, "--prices", missing)
    assert code == 1
    assert out == ""
    assert err.startswith("error: --") and "lists no" in err


def test_usage_error_names_the_value_type(capsys):
    for argv, kind in ((["--start", "2015-13-01"], "date"),
                       (["--horizons", "1,x"], "int list")):
        with pytest.raises(SystemExit) as exc:
            main(["sweep-horizon", "--tx", "t", "--prices", "p", *argv])
        assert exc.value.code == 2
        assert f"invalid {kind} value" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["synth", "--out-tx", "t", "--out-prices", "p", "--planted", "1,1:2"])
    assert "invalid planted spec value" in capsys.readouterr().err


def test_synth_negative_seed_exit_1(tmp_path, capsys):
    code, out, err = run(capsys, "synth", "--out-tx", str(tmp_path / "tx.csv"),
                         "--out-prices", str(tmp_path / "px.csv"), "--seed", "-1")
    assert (code, out, err) == (1, "", "error: seed must be >= 0, got -1\n")
    assert not (tmp_path / "tx.csv").exists()


def test_synth_nan_parameter_exit_1(tmp_path, capsys):
    code, _, err = run(capsys, "synth", "--out-tx", str(tmp_path / "tx.csv"),
                       "--out-prices", str(tmp_path / "px.csv"),
                       "--start-price", "nan")
    assert code == 1
    assert err == "error: start_price must be positive and finite\n"
    for coeff in ("nan", "inf"):
        code, _, err = run(capsys, "synth", "--out-tx", str(tmp_path / "tx.csv"),
                           "--out-prices", str(tmp_path / "px.csv"),
                           "--price-model", "planted_linear",
                           "--planted", f"1,1,1:{coeff}")
        assert code == 1
        assert err == f"error: planted weight (1, 1, 1) must be finite, got {coeff}\n"


@pytest.mark.parametrize("argv, message", [
    (["--volatility", "inf"],
     "volatility and noise_sigma must be finite and >= 0"),
    (["--price-model", "planted_linear", "--noise-sigma", "inf"],
     "volatility and noise_sigma must be finite and >= 0"),
    (["--seed", "2", "--start-price", "1e308", "--volatility", "0.5"],
     "the close of 2015-01-07 is inf: prices must stay positive and finite"),
    (["--volatility", "1e300"],
     "volatility 1e+300 is too large"),
    (["--start-price", "1e-320", "--price-model", "planted_linear",
      "--planted", "1,1,1:-1e9"],
     "the close of 2015-01-03 is 0.0: prices must stay positive and finite"),
])
def test_synth_unwritable_prices_exit_1(tmp_path, capsys, argv, message):
    # every command rejects a price file with a close that is not positive
    # and finite, so synth fails before writing one
    tx, px = tmp_path / "tx.csv", tmp_path / "px.csv"
    code, _, err = run(capsys, "synth", "--out-tx", str(tx), "--out-prices", str(px),
                       "--days", "30", "--tx-per-day", "5", *argv)
    assert (code, err) == (1, f"error: {message}\n")
    assert not tx.exists() and not px.exists()


@pytest.mark.parametrize("close", ["nan", "inf"])
def test_non_finite_close_exit_1(corpus, tmp_path, capsys, close):
    tx, px = corpus
    bad = tmp_path / "px.csv"
    lines = open(px).read().splitlines()
    lines[3] = lines[3].split(",")[0] + "," + close
    bad.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "backtest", "--tx", tx, "--prices", str(bad))
    assert code == 1
    assert err == f"error: line 4: bad close '{close}'\n"


def test_predict_missing_model_file(corpus, tmp_path, capsys):
    tx, px = corpus
    code, _, err = run(capsys, "predict", "--model-file",
                       str(tmp_path / "missing.json"), "--tx", tx, "--prices", px)
    assert code == 1
    assert "missing.json" in err


def _model_json(**changes) -> str:
    payload = {"schema_version": MODEL_SCHEMA_VERSION, "kind": "ridge", "params": {},
               "horizon": 1, "feature_dim": 1, "weights": [0.5], "bias": 0.0,
               "train_range": ["2015-01-01", "2015-01-30"]}
    payload.update(changes)
    return json.dumps(payload)


@pytest.mark.parametrize("payload, message", [
    ("[]", "not a JSON object"),
    ('{"schema_version": 3}', "missing bias"),
    pytest.param(_model_json(schema_version=1), "unsupported model schema: 1",
                 id="schema-1"),
    pytest.param(_model_json(schema_version=2, scaler_mean=[0.0], scaler_std=[1.0]),
                 "unsupported model schema: 2", id="schema-2"),
    # a schema-2 file relabelled 3: its weights are in z-space
    pytest.param(_model_json(scaler_mean=[5.0], scaler_std=[2.0]),
                 "unknown scaler_mean, scaler_std", id="schema-2-keys"),
    pytest.param(_model_json(params={"bogus": 1}), "bogus", id="unknown-param"),
    pytest.param(_model_json(weights="abc"), "not a model file", id="text-weights"),
    pytest.param(_model_json(train_range=["2015-01-01", "2015-13-40"]),
                 "not a model file", id="bad-date"),
    pytest.param(_model_json(horizon=-5), "horizon -5", id="negative-horizon"),
    pytest.param(_model_json(horizon=0), "horizon 0", id="zero-horizon"),
    pytest.param(_model_json(horizon=2.7), "horizon 2.7", id="fractional-horizon"),
    pytest.param(_model_json(horizon="1"), "horizon '1'", id="text-horizon"),
    pytest.param(_model_json(weights=[float("nan")]), "non-finite", id="nan-weight"),
    pytest.param(_model_json(bias=float("inf")), "non-finite", id="inf-bias"),
    pytest.param(_model_json(params={"svr_tolerance": float("inf")}),
                 "svr_tolerance must be finite", id="inf-param"),
    pytest.param(_model_json(params={"svr_c": float("nan")}),
                 "svr_c must be finite", id="nan-param"),
])
def test_predict_model_file_not_a_model(corpus, tmp_path, capsys, payload, message):
    tx, px = corpus
    bad = tmp_path / "bad.json"
    bad.write_text(payload)
    code, _, err = run(capsys, "predict", "--model-file", str(bad),
                       "--tx", tx, "--prices", px)
    assert code == 1
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_predict_header_only_transactions(corpus, tmp_path, capsys):
    tx, px = corpus
    model_path = str(tmp_path / "model.json")
    assert main(["train", "--tx", tx, "--prices", px, "--out", model_path,
                 "--k", "1"]) == 0
    empty = tmp_path / "empty.csv"
    empty.write_text(open(tx).readline())
    code, _, err = run(capsys, "predict", "--model-file", model_path,
                       "--tx", str(empty), "--prices", px)
    assert code == 1
    assert err.startswith("error: no transactions")


def test_synth_deterministic(tmp_path, capsys):
    args = ["synth", "--days", "5", "--tx-per-day", "20", "--seed", "11"]
    a_tx, a_px = str(tmp_path / "a.csv"), str(tmp_path / "ap.csv")
    b_tx, b_px = str(tmp_path / "b.csv"), str(tmp_path / "bp.csv")
    assert main(args + ["--out-tx", a_tx, "--out-prices", a_px]) == 0
    assert main(args + ["--out-tx", b_tx, "--out-prices", b_px]) == 0
    capsys.readouterr()
    assert open(a_tx, "rb").read() == open(b_tx, "rb").read()
    assert open(a_px, "rb").read() == open(b_px, "rb").read()


def test_features_writes_rows(corpus, tmp_path, capsys):
    tx, _ = corpus
    out = str(tmp_path / "f.csv")
    code, stdout, _ = run(capsys, "features", "--tx", tx, "--out", out,
                          "--order", "2")
    assert code == 0
    lines = open(out).read().splitlines()
    assert len(lines) == 1 + 30
    assert lines[0].startswith("date,f_0,")


def test_k_flag_aliases_order(corpus, tmp_path, capsys):
    tx, _ = corpus
    out = str(tmp_path / "f1.csv")
    code, _, _ = run(capsys, "features", "--tx", tx, "--out", out, "--k", "1")
    assert code == 0
    header = open(out).read().splitlines()[0]
    assert header.count(",") == 400  # date column plus a single 20x20 grid


def test_config_supplies_paths(corpus, tmp_path, capsys):
    tx, _ = corpus
    out = str(tmp_path / "cfg_feats.csv")
    args = tmp_path / "args"
    args.write_text(f"--tx={tx}\n--out={out}\n--order=1\n")
    code, _, _ = run(capsys, "features", f"@{args}")
    assert code == 0
    assert open(out).read().splitlines()[0].startswith("date,f_0,")


def test_model_svr_alias(corpus, tmp_path, capsys):
    tx, px = corpus
    model_path = str(tmp_path / "svr.json")
    code, _, _ = run(capsys, "train", "--tx", tx, "--prices", px,
                     "--out", model_path, "--model", "svr",
                     "--svr-tol", "1e-3")
    assert code == 0
    model, _ = load_model(model_path)
    assert model.spec.kind == "linear_svr"
    assert model.spec.svr_tolerance == 1e-3


def test_train_and_predict(corpus, tmp_path, capsys):
    tx, px = corpus
    model_path = str(tmp_path / "model.json")
    code, out, _ = run(capsys, "train", "--tx", tx, "--prices", px,
                       "--out", model_path, "--ridge-lambda", "1e-6")
    assert code == 0
    model, horizon = load_model(model_path)
    assert horizon == 1
    assert model.feature_dim == 800

    code, out, _ = run(capsys, "predict", "--model-file", model_path,
                       "--tx", tx, "--prices", px)
    assert code == 0
    day, value = out.strip().split()
    assert day == "2015-01-31"  # horizon 1 past the last generated day
    float(value)

    code, _, err = run(capsys, "predict", "--model-file", model_path,
                       "--tx", tx, "--prices", px, "--date", "1999-01-01")
    assert code == 1
    assert "error:" in err


def test_train_zero_ridge_lambda_exit_1(corpus, tmp_path, capsys):
    # most of the 800 feature columns are constant on 30 days, so the
    # unregularised system is singular
    tx, px = corpus
    model_path = tmp_path / "model.json"
    code, out, err = run(capsys, "train", "--tx", tx, "--prices", px,
                         "--out", str(model_path), "--ridge-lambda", "0")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not model_path.exists()


def test_backtest_report(corpus, tmp_path, capsys):
    tx, px = corpus
    report_path = str(tmp_path / "rep.json")
    code, out, _ = run(capsys, "backtest", "--tx", tx, "--prices", px,
                       "--train-frac", "0.7", "--window", "2",
                       "--report", report_path)
    assert code == 0
    assert "MAPE=" in out
    payload = json.loads(open(report_path).read())
    assert payload["window"] == 2
    assert payload["schema_version"] == 3
    assert payload["n_test_days"] == len(payload["records"])
    assert f"test_days={payload['n_test_days']} | MAPE=" in out


def test_backtest_end_without_start(corpus, capsys):
    tx, px = corpus
    code, out, _ = run(capsys, "backtest", "--tx", tx, "--prices", px,
                       "--end", "2015-01-20")
    assert code == 0
    assert "train_days=16 test_days=4" in out


def test_backtest_repeated_runs_identical_report(corpus, tmp_path, capsys):
    tx, px = corpus
    p1, p2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    base = ["backtest", "--tx", tx, "--prices", px, "--train-frac", "0.7"]
    assert main(base + ["--report", p1]) == 0
    assert main(base + ["--report", p2]) == 0
    capsys.readouterr()
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_sweep_horizon_output(corpus, capsys):
    tx, px = corpus
    code, out, _ = run(capsys, "sweep-horizon", "--tx", tx, "--prices", px,
                       "--train-frac", "0.7", "--horizons", "1,2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "horizon,mape_percent"
    assert len(lines) == 3
    assert lines[1].startswith("1,")


def test_sweep_horizon_has_no_decay_ratio(corpus, capsys):
    # every horizon runs one model, weighted 1.0 whatever the ratio; nor is
    # --r taken as an abbreviation of --ridge-lambda
    tx, px = corpus
    with pytest.raises(SystemExit) as exc:
        main(["sweep-horizon", "--tx", tx, "--prices", px, "--r", "0.5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --r 0.5" in capsys.readouterr().err


def test_sweep_window_output(corpus, capsys):
    tx, px = corpus
    code, out, _ = run(capsys, "sweep-window", "--tx", tx, "--prices", px,
                       "--train-frac", "0.7", "--windows", "1,2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "window,mape_percent"
    assert len(lines) == 3


def test_oracle_check(corpus, capsys):
    tx, _ = corpus
    code, out, _ = run(capsys, "oracle-check", "--tx", tx, "--order", "3",
                       "--sample", "10")
    assert code == 0
    assert "oracle check passed" in out


def test_oracle_check_reads_the_feature_table(corpus, capsys, monkeypatch):
    """The fast grids are the feature table's rows, so a wrong cell there
    is a mismatch with exit 1."""
    tx, _ = corpus
    real = cli.day_feature_table

    def off_by_one(windows, max_order):
        dates, table = real(windows, max_order)
        table[3, GRID_CELLS + 7] += 1
        return dates, table

    monkeypatch.setattr(cli, "day_feature_table", off_by_one)
    code, out, err = run(capsys, "oracle-check", "--tx", tx, "--k", "2")
    assert code == 1 and out == ""
    assert err.startswith("MISMATCH on ") and err.rstrip().endswith("order 2")


_MODEL = ["--model", "--ridge-lambda", "--svr-c", "--svr-epsilon", "--svr-tol"]
_SPLIT = ["--interval", "--train-frac", "--start", "--end"]
_FLAGS = {
    "synth": ["--out-tx", "--out-prices", "--days", "--tx-per-day", "--spend-prob",
              "--coinbase-per-day", "--fixed-tx-count", "--price-model",
              "--start-date", "--start-price", "--volatility", "--noise-sigma",
              "--planted", "--seed"],
    "features": ["--tx", "--out", "--k", "--order"],
    "train": ["--tx", "--prices", "--out", "--k", "--horizon"] + _MODEL,
    "predict": ["--model-file", "--tx", "--prices", "--date"],
    "backtest": ["--tx", "--prices", "--report", "--csv", "--k", "--r", "--window",
                 "--horizon"] + _SPLIT + _MODEL,
    "sweep-horizon": ["--tx", "--prices", "--k", "--horizons"] + _SPLIT + _MODEL,
    "sweep-window": ["--tx", "--prices", "--k", "--r", "--horizon",
                     "--windows"] + _SPLIT + _MODEL,
    "weights": ["--r", "--window"],
    "oracle-check": ["--tx", "--k", "--seed", "--sample"],
}


@pytest.mark.parametrize("command", sorted(_FLAGS))
def test_help_lists_every_flag(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag in _FLAGS[command]:
        assert f"{flag} " in out or f"{flag}," in out, flag


def _handler_seeing_threads(monkeypatch, get, raises=None):
    """Replace ``weights``'s handler with one that records the BLAS thread
    count it runs under, then raises ``raises`` if given."""
    seen = []

    def handler(v):
        seen.append(get())
        if raises is not None:
            raise raises
        return 0

    monkeypatch.setattr(cli, "_cmd_weights", handler)
    return seen


@pytest.mark.parametrize("raises", [None, BadSpec("bad"), RuntimeError("boom")])
def test_main_runs_one_blas_thread_and_restores_the_count(monkeypatch, capsys, raises):
    found = kernels.blas_threads()
    if found is None:
        pytest.skip("numpy's BLAS exports no known thread-count setter")
    _, get, _ = found
    before = get()
    seen = _handler_seeing_threads(monkeypatch, get, raises)
    if isinstance(raises, RuntimeError):
        with pytest.raises(RuntimeError):
            main(["weights"])
    else:
        assert main(["weights"]) == (1 if raises else 0)
    assert seen == [1]
    assert get() == before


@pytest.mark.parametrize("raises", [None, RuntimeError("boom")])
def test_main_sets_and_restores_through_the_found_setter(monkeypatch, raises):
    count, calls = [3], []

    def set_threads(n):
        calls.append(n)
        count[0] = n

    monkeypatch.setattr(kernels, "blas_threads",
                        lambda: ("fake_set_num_threads", lambda: count[0], set_threads))
    seen = _handler_seeing_threads(monkeypatch, lambda: count[0], raises)
    if raises is None:
        assert main(["weights"]) == 0
    else:
        with pytest.raises(RuntimeError):
            main(["weights"])
    assert (seen, calls, count) == ([1], [1, 3], [3])


def test_main_without_a_known_blas_setter_prints_the_same_bytes(corpus, monkeypatch,
                                                                capsys):
    tx, px = corpus
    argv = ["sweep-window", "--tx", tx, "--prices", px, "--model", "svr",
            "--windows", "1,2", "--k", "2"]
    with_setter = run(capsys, *argv)
    monkeypatch.setattr(kernels, "blas_threads", lambda: None)
    assert run(capsys, *argv) == with_setter
    assert with_setter[0] == 0 and with_setter[1].startswith("window,mape_percent\n")
