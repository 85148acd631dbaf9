"""Whole-program checks through ``cli.main``, in-process, on ``synth``
corpora that are each generated once per session."""

import json

import pytest

from txpattern.cli import main

# the synth flags of each corpus, besides its output paths
CORPORA = {
    # the README's 120-day corpus: its addresses recur across days, and its
    # small days share feature chunks
    "corpA": ["--days", "120", "--tx-per-day", "200", "--price-model", "planted_linear",
              "--seed", "7"],
    # the same settings with high reuse and a random-walk price: about 22k
    # left entries of the products meet a full reach row
    "corpC": ["--days", "120", "--tx-per-day", "200", "--seed", "7", "--spend-prob", "0.9"],
    # sub-dollar prices: every training target of an SVR fit lies within
    # 2 * --svr-epsilon of the others
    "corpD": ["--days", "60", "--tx-per-day", "100", "--seed", "7", "--start-price", "0.5",
              "--volatility", "0.002"],
}


@pytest.fixture(scope="session")
def corpus_tx(tmp_path_factory):
    """The transactions and prices paths of a named corpus, written on
    first use."""
    paths = {}

    def tx(name: str) -> tuple[str, str]:
        if name not in paths:
            root = tmp_path_factory.mktemp(name)
            paths[name] = str(root / "tx.csv"), str(root / "prices.csv")
            assert main(["synth", *CORPORA[name], "--out-tx", paths[name][0],
                         "--out-prices", paths[name][1]]) == 0
        return paths[name]

    return tx


@pytest.mark.parametrize("name, order", [("corpA", 5), ("corpA", 6), ("corpC", 6)])
def test_oracle_check_passes_on_synth_corpora(corpus_tx, capsys, name, order):
    # corpA meets address reuse across days with multi-day feature chunks,
    # two and three orders deeper than the oracle_sweep benchmark; corpC
    # compares the rows that take a full reach row whole with the walk
    # oracle
    tx, _ = corpus_tx(name)
    capsys.readouterr()
    assert main(["oracle-check", "--tx", tx, "--k", str(order)]) == 0
    assert capsys.readouterr().out == f"oracle check passed: 120 days, {120 * order} grids\n"


def _run(capsys, *argv: str) -> str:
    """The stdout of ``main(argv)``, which must return 0 and print no
    stderr line that starts with ``warning:``, as an SVR fit stopped by
    the iteration cap does."""
    capsys.readouterr()
    assert main(list(argv)) == 0
    out, err = capsys.readouterr()
    assert not [line for line in err.splitlines() if line.startswith("warning:")], err
    return out


@pytest.mark.parametrize("tol", [[], ["--svr-tol", "1e-7"]], ids=["default-tol", "tol-1e-7"])
def test_every_svr_fit_of_a_corpA_sweep_converges(corpus_tx, capsys, tol):
    # at 1e-7, a tight duality gap must stay reachable under the cap
    tx, prices = corpus_tx("corpA")
    _run(capsys, "sweep-window", "--tx", tx, "--prices", prices, "--model", "svr",
         "--windows", "1,2,3,4", "--k", "2", *tol)


def test_each_sweep_horizon_row_is_its_window_1_backtest(corpus_tx, capsys, tmp_path):
    # the sweep and the backtest stay one evaluation: each row equals, to
    # its 6 printed decimals, the report's mape_percent at that horizon
    tx, prices = corpus_tx("corpA")
    common = ["--tx", tx, "--prices", prices, "--model", "svr", "--k", "2"]
    rows = _run(capsys, "sweep-horizon", *common, "--horizons", "1,2,7").splitlines()
    for h in (1, 2, 7):
        report = tmp_path / f"report_h{h}.json"
        _run(capsys, "backtest", *common, "--window", "1", "--horizon", str(h),
             "--report", str(report))
        assert f"{h},{json.loads(report.read_text())['mape_percent']:.6f}" in rows


def test_svr_backtest_on_sub_dollar_prices_fits_without_a_warning(corpus_tx, capsys):
    # targets all inside the tube: the fit returns w = 0 and the midrange
    # bias after one step
    tx, prices = corpus_tx("corpD")
    _run(capsys, "backtest", "--tx", tx, "--prices", prices, "--model", "svr", "--k", "2",
         "--window", "2")
