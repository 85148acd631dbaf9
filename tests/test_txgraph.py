import datetime as dt

from txpattern.ingest import DayWindow, TransactionRecord, partition_daily
from txpattern.txgraph import build_graph

from conftest import DAY0_TS


def test_toy_graph_shape(toy_graph):
    assert toy_graph.n_transactions == 4
    assert toy_graph.n_addresses == 8
    assert toy_graph.n_coinbase_skipped == 0


def test_address_interning_first_appearance(toy_graph):
    # a1, a2 enter via t1's inputs, a5 via its output, and so on
    assert toy_graph.addresses[:3] == ["a1", "a2", "a5"]
    assert toy_graph.tx_ids == ["t1", "t2", "t3", "t4"]


def test_input_output_ids(toy_graph):
    a = {addr: i for i, addr in enumerate(toy_graph.addresses)}
    assert list(toy_graph.input_ids(0)) == sorted([a["a1"], a["a2"]])
    assert list(toy_graph.output_ids(1)) == sorted([a["a4"], a["a6"]])


def test_coinbase_skipped_and_counted():
    records = [
        TransactionRecord("cb", DAY0_TS, (), ("x",)),
        TransactionRecord("t1", DAY0_TS + 1, ("x",), ("y",)),
    ]
    graph = build_graph(partition_daily(records)[0])
    assert graph.n_transactions == 1
    assert graph.tx_ids == ["t1"]
    assert graph.n_coinbase_skipped == 1


def test_repeated_input_address_deduplicated():
    records = [
        TransactionRecord("t1", DAY0_TS, ("a", "a", "b"), ("c", "c")),
    ]
    graph = build_graph(partition_daily(records)[0])
    assert len(graph.input_ids(0)) == 2
    assert len(graph.output_ids(0)) == 1


def test_input_set_sizes(toy_graph):
    assert list(toy_graph.input_set_sizes) == [2, 1, 2, 2]
    assert toy_graph.tx_ids[0] == "t1"
    assert len(toy_graph.input_ids(0)) == 2


def test_csr_arrays_read_only(toy_graph):
    for arr in (toy_graph.in_indptr, toy_graph.in_indices,
                toy_graph.out_indptr, toy_graph.out_indices):
        assert not arr.flags.writeable


def test_empty_window():
    graph = build_graph(DayWindow(dt.date(2015, 1, 1), ()))
    assert graph.n_transactions == 0
    assert graph.n_addresses == 0
