import importlib.util
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import txpattern
from txpattern import backtest, cli, features, kernels, korder
from txpattern.errors import BadSpec
from txpattern.txgraph import build_graph

from conftest import day_windows, toy_records

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def _src_env() -> dict[str, str]:
    """The environment with the package's source first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def test_all_names_resolve():
    for name in txpattern.__all__:
        assert hasattr(txpattern, name), name


def test_readme_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    imported = re.search(r"from txpattern import \(([^)]*)\)", code).group(1)
    assert {n.strip() for n in imported.split(",")} <= set(txpattern.__all__)
    exec(compile(code, str(README), "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_readme_quick_start_runs(tmp_path):
    # the quick start block, then the train and predict block, with
    # txpattern a shell function that runs the CLI module: the backtest
    # prints the summary line under "## Reports", and weights the values
    # its comment gives
    readme = README.read_text(encoding="utf-8")

    def section(title):
        return readme.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]

    script = "".join(re.findall(r"```sh\n(.*?)```", section("Quick start"), re.S))
    summary = re.search(r"```\n(.*?)\n```", section("Reports")).group(1)
    weights = re.search(r"# prints: (.*)", script).group(1)
    txpattern = f'txpattern() {{ {shlex.quote(sys.executable)} -m txpattern.cli "$@"; }}\n'
    out = subprocess.run(["bash", "-euo", "pipefail", "-c", txpattern + script],
                         cwd=tmp_path, env=_src_env(), check=True, capture_output=True,
                         text=True).stdout.splitlines()
    assert summary in out, f"no backtest summary {summary!r}"
    assert weights in out, f"weights did not print {weights!r}"


def test_package_runs_without_scipy():
    # scipy is a test extra: every module must import, and the kernels run,
    # with any scipy import failing
    code = ("import importlib, pkgutil, sys\n"
            "sys.modules['scipy'] = None\n"
            "import txpattern\n"
            "names = [m.name for m in pkgutil.iter_modules(txpattern.__path__)]\n"
            "for name in names:\n"
            "    importlib.import_module('txpattern.' + name)\n"
            "txpattern.kernels.warmup()\n"
            "print(len(names))\n")
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(), check=True,
                         capture_output=True, text=True).stdout
    assert int(out) == len(list((ROOT / "src" / "txpattern").glob("*.py"))) - 1


@pytest.mark.parametrize("call, message", [
    (lambda: backtest.decay_weights(1.5, 2), "decay must lie in (0, 1), got 1.5"),
    (lambda: backtest.decay_weights(0.8, 0), "window must be >= 1, got 0"),
    (lambda: features.day_feature_table(day_windows(toy_records()), 0),
     "order must be >= 1, got 0"),
    (lambda: korder.occurrence_matrix_oracle(
        build_graph(day_windows(toy_records())[0]), 0), "order must be >= 1, got 0"),
], ids=["decay", "window", "table-order", "oracle-order"])
def test_out_of_range_parameter_is_badspec(call, message):
    # one error type for "a parameter is out of range", also a ValueError
    with pytest.raises(BadSpec) as exc:
        call()
    assert isinstance(exc.value, ValueError)
    assert str(exc.value) == message


def _install_tracer(monkeypatch):
    """e2ebench/tracer.py installed on the package; monkeypatch puts back
    every name it wraps."""
    for mod in (backtest, cli, features, kernels, korder):
        for name, value in list(vars(mod).items()):
            if callable(value) and not name.startswith("__"):
                monkeypatch.setattr(mod, name, value)
    spec = importlib.util.spec_from_file_location(
        "e2ebench_tracer", ROOT / "e2ebench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    tr = tracer.Tracer()
    tracer.install(tr)
    return tr


def test_benchmark_tracer_installs(monkeypatch, tmp_path):
    # e2ebench/tracer.py wraps package functions by name; a rename must fail
    # here rather than in the benchmark
    tr = _install_tracer(monkeypatch)
    kernels.warmup()
    assert tr.counters["kernels.spgemm_calls"] == 1
    assert tr.counters["kernels.svr_epochs"] == 1
    # the ingest counters read len() of the parsed table and of the day
    # list, and two attributes of each graph
    tx = tmp_path / "tx.csv"
    tx.write_text("tx_id,timestamp,inputs,outputs\n"
                  "t1,10,a;b,c\n"
                  "cb,20,,d\n"
                  "t2,172810,c,a;e\n")
    for window in cli.partition_daily(cli.parse_transactions(tx)):
        cli.build_graph(window)
    assert tr.counters["ingest.records"] == 3
    assert tr.counters["ingest.days"] == 3          # one empty gap day
    assert tr.counters["txgraph.addresses"] == 3 + 0 + 3
    assert tr.counters["txgraph.coinbase_skipped"] == 1


@pytest.mark.parametrize("command,runs", [
    (["sweep-window", "--model", "svr", "--windows", "1,2,3"], 3),
    (["backtest", "--window", "2"], 1),
])
def test_traced_cli_run_sees_the_production_route(monkeypatch, tmp_path, capsys,
                                                  command, runs):
    # a span the tracer reads from a function the production route no
    # longer calls would silently read 0 in the benchmark
    tx, px = str(tmp_path / "tx.csv"), str(tmp_path / "px.csv")
    assert cli.main(["synth", "--out-tx", tx, "--out-prices", px, "--days", "40",
                     "--tx-per-day", "30", "--seed", "3",
                     "--price-model", "planted_linear"]) == 0
    tr = _install_tracer(monkeypatch)
    assert cli.main(command + ["--tx", tx, "--prices", px, "--k", "2"]) == 0
    capsys.readouterr()
    seen = {}
    for _, name, start, end, _, _ in tr.spans:
        seen[name] = seen.get(name, 0.0) + (end - start)
    for name in ("ingest.parse", "features.table", "txgraph.build",
                 "features.vector", "regress.fit", "ensemble.predict",
                 "backtest.run"):
        assert seen.get(name, 0.0) > 0, name
    assert tr.counters["ensemble.predict_calls"] == runs
