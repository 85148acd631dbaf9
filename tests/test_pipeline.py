"""Whole-program checks through ``cli.main``, in-process, on ``synth``
corpora that are each generated once per session."""

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
}


@pytest.fixture(scope="session")
def corpus_tx(tmp_path_factory):
    """The transactions path of a named corpus, written on first use."""
    paths = {}

    def tx(name: str) -> str:
        if name not in paths:
            root = tmp_path_factory.mktemp(name)
            assert main(["synth", *CORPORA[name], "--out-tx", str(root / "tx.csv"),
                         "--out-prices", str(root / "prices.csv")]) == 0
            paths[name] = str(root / "tx.csv")
        return paths[name]

    return tx


@pytest.mark.parametrize("name, order", [("corpA", 5), ("corpA", 6), ("corpC", 6)])
def test_oracle_check_passes_on_synth_corpora(corpus_tx, capsys, name, order):
    # corpA meets address reuse across days with multi-day feature chunks,
    # two and three orders deeper than the oracle_sweep benchmark; corpC
    # compares the rows that take a full reach row whole with the walk
    # oracle
    tx = corpus_tx(name)
    capsys.readouterr()
    assert main(["oracle-check", "--tx", tx, "--k", str(order)]) == 0
    assert capsys.readouterr().out == f"oracle check passed: 120 days, {120 * order} grids\n"
