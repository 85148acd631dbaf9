import json
import os

import pytest

from txpattern.cli import main
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


def test_show_weights_top_level(capsys):
    code, out, _ = run(capsys, "--show-weights", "0.8", "3")
    assert code == 0
    assert out.strip() == "0.8 0.16 0.04"


def test_show_weights_bad_args_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["--show-weights", "0.8", "many"])
    assert exc.value.code == 2


def test_no_subcommand_exit_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_env_overrides_default(capsys, monkeypatch):
    monkeypatch.setenv("TXPATTERN_R", "0.9")
    code, out, _ = run(capsys, "weights", "--window", "2")
    assert code == 0
    assert out.strip() == "0.9 0.1"


def test_cli_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("TXPATTERN_R", "0.9")
    code, out, _ = run(capsys, "weights", "--r", "0.25", "--window", "2")
    assert code == 0
    assert out.strip() == "0.25 0.75"


def test_config_supplies_defaults(capsys, tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("# comment line\nr=0.75\nwindow=2\n")
    code, out, _ = run(capsys, "--config", str(cfg), "weights")
    assert code == 0
    assert out.strip() == "0.75 0.25"


def test_env_beats_config(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "cfg"
    cfg.write_text("r=0.75\n")
    monkeypatch.setenv("TXPATTERN_R", "0.5")
    code, out, _ = run(capsys, "--config", str(cfg), "weights", "--window", "2")
    assert code == 0
    assert out.strip() == "0.5 0.5"


def test_bad_env_value_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("TXPATTERN_WINDOW", "often")
    with pytest.raises(SystemExit) as exc:
        main(["weights"])
    assert exc.value.code == 2


def test_malformed_config_line(capsys, tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("this is not an assignment\n")
    code, _, err = run(capsys, "--config", str(cfg), "weights")
    assert code == 1
    assert "error:" in err


def test_missing_config_file(capsys):
    code, _, err = run(capsys, "--config", "/nope/cfg", "weights")
    assert code == 1
    assert "error:" in err


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
    ["backtest", "--svr-c", "0", "--prices", "PX"],
    ["backtest", "--train-frac", "1.5", "--prices", "PX"],
    ["backtest", "--horizon", "0", "--prices", "PX"],
    ["backtest", "--r", "1.5", "--prices", "PX"],
    ["sweep-horizon", "--horizons", "0,1", "--prices", "PX"],
    ["sweep-window", "--horizon", "0", "--prices", "PX"],
    ["train", "--horizon", "0", "--out", os.devnull, "--prices", "PX"],
    ["predict", "--model-file", "PX", "--prices", "PX"],
    ["oracle-check", "--sample", "-1"],
])
def test_bad_parameter_exit_1(corpus, capsys, argv):
    tx, px = corpus
    argv = [px if a == "PX" else a for a in argv]
    code, _, err = run(capsys, *argv, "--tx", tx)
    assert code == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_timestamp_out_of_range_exit_1(tmp_path, capsys):
    tx = tmp_path / "tx.csv"
    tx.write_text("tx_id,timestamp,inputs,outputs\nt1,1000000000000000,a,b\n")
    code, _, err = run(capsys, "features", "--tx", str(tx),
                       "--out", str(tmp_path / "f.csv"))
    assert code == 1
    assert err == "error: line 2: timestamp '1000000000000000' out of range\n"


def test_predict_missing_model_file(corpus, tmp_path, capsys):
    tx, px = corpus
    code, _, err = run(capsys, "predict", "--model-file",
                       str(tmp_path / "missing.json"), "--tx", tx, "--prices", px)
    assert code == 1
    assert "missing.json" in err


def _model_json(**changes) -> str:
    payload = {"schema_version": MODEL_SCHEMA_VERSION, "kind": "ridge", "params": {},
               "horizon": 1, "feature_dim": 1, "weights": [0.5], "bias": 0.0,
               "scaler_mean": [0.0], "scaler_std": [1.0],
               "train_range": ["2015-01-01", "2015-01-30"]}
    payload.update(changes)
    return json.dumps(payload)


@pytest.mark.parametrize("payload, message", [
    ("[]", "not a JSON object"),
    ('{"schema_version": 2}', "missing bias"),
    pytest.param(_model_json(schema_version=1), "unsupported model schema: 1",
                 id="schema-1"),
    pytest.param(_model_json(params={"bogus": 1}), "bogus", id="unknown-param"),
    pytest.param(_model_json(weights="abc"), "not a model file", id="text-weights"),
    pytest.param(_model_json(train_range=["2015-01-01", "2015-13-40"]),
                 "not a model file", id="bad-date"),
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
    cfg = tmp_path / "cfg"
    cfg.write_text(f"tx={tx}\nout={out}\norder=1\n")
    code, _, _ = run(capsys, "--config", str(cfg), "features")
    assert code == 0
    assert open(out).read().splitlines()[0].startswith("date,f_0,")


def test_model_svr_alias(corpus, tmp_path, capsys):
    tx, px = corpus
    model_path = str(tmp_path / "svr.json")
    code, _, _ = run(capsys, "train", "--tx", tx, "--prices", px,
                     "--out", model_path, "--model", "svr",
                     "--svr-tol", "1e-3")
    assert code == 0
    model, _, _ = load_model(model_path)
    assert model.spec.kind == "linear_svr"
    assert model.spec.svr_tolerance == 1e-3


def test_train_and_predict(corpus, tmp_path, capsys):
    tx, px = corpus
    model_path = str(tmp_path / "model.json")
    code, out, _ = run(capsys, "train", "--tx", tx, "--prices", px,
                       "--out", model_path, "--ridge-lambda", "1e-6")
    assert code == 0
    model, scaler, horizon = load_model(model_path)
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
    assert payload["schema_version"] == 2


def test_backtest_threads_identical_report(corpus, tmp_path, capsys):
    tx, px = corpus
    p1, p8 = str(tmp_path / "r1.json"), str(tmp_path / "r8.json")
    base = ["backtest", "--tx", tx, "--prices", px, "--train-frac", "0.7"]
    assert main(base + ["--threads", "1", "--report", p1]) == 0
    assert main(base + ["--threads", "8", "--report", p8]) == 0
    capsys.readouterr()
    assert open(p1, "rb").read() == open(p8, "rb").read()


def test_sweep_horizon_output(corpus, capsys):
    tx, px = corpus
    code, out, _ = run(capsys, "sweep-horizon", "--tx", tx, "--prices", px,
                       "--train-frac", "0.7", "--horizons", "1,2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "horizon,mape_percent"
    assert len(lines) == 3
    assert lines[1].startswith("1,")


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
