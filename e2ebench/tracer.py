"""In-memory spans and counters around txpattern's public functions.

Imported only inside a job's child process.  :func:`install` replaces the
names the program looks up at call time with wrappers that record a span
(name, start, end, parent, thread) and bump counters computed from the
call's arguments and result.  The parent stack is kept per thread; a span
opened on a worker thread with an empty stack takes the main thread's
innermost open span as its parent, because ``features`` fans days out to a
thread pool from inside that span.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

CLAMP = 20


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []          # (id, name, start, end, parent, thread)
        self.counters: dict[str, float] = defaultdict(int)
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main = threading.get_ident()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else (
            self._main_stack[-1] if self._main_stack else -1)
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent,
                               threading.get_ident()))

    def add(self, key: str, value) -> None:
        with self._lock:
            self.counters[key] += value

    def peak(self, key: str, value) -> None:
        with self._lock:
            self.counters[key] = max(self.counters[key], value)

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if count is not None:
                count(self, args, out)
            return out

        setattr(module, attr, traced)


def _records(tr, args, out):
    tr.add("ingest.records", len(out))


def _days(tr, args, out):
    tr.add("ingest.days", len(out))


def _graph(tr, args, out):
    tr.add("txgraph.addresses", out.n_addresses)
    tr.add("txgraph.coinbase_skipped", out.n_coinbase_skipped)


def _clamped(tr, args, out):
    for grid in out:
        tr.add(f"korder.rows_clamped.k{grid.order}",
               int(grid.counts[:, CLAMP - 1].sum()))


def _oracle(tr, args, out):
    tr.add("korder.oracle_grids", 1)


def _spgemm(tr, args, out):
    _, a_indices, b_indptr = args[:3]
    pairs = int(np.diff(b_indptr)[a_indices].sum())
    nnz = int(out[1].size)
    tr.add("kernels.spgemm_calls", 1)
    tr.add("kernels.spgemm_pairs", pairs)
    tr.add("kernels.spgemm_out_nnz", nnz)
    tr.peak("kernels.spgemm_out_nnz_max", nnz)


def _svr(tr, args, out):
    tr.add("kernels.svr_epochs", len(out[2]))


def _fit(tr, args, out):
    spec, x, y = args[:3]
    tr.add("regress.fits", 1)
    tr.add("regress.train_rows", len(y))
    if spec.kind == "linear_svr":
        # objective at w = 0, b = 0 is the loss term alone
        at_zero = spec.svr_c * float(
            np.maximum(np.abs(y) - spec.svr_epsilon, 0.0).sum())
        if at_zero > 0:
            tr.peak("regress.svr_objective_ratio",
                    float(out.epoch_losses[-1]) / at_zero)


def _predict(tr, args, out):
    tr.add("ensemble.predict_calls", 1)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    from txpattern import backtest, cli, features, kernels, korder

    tracer.wrap(cli, "parse_transactions", "ingest.parse", _records)
    tracer.wrap(cli, "parse_prices", "ingest.parse")
    for mod in (cli, backtest):
        tracer.wrap(mod, "partition_daily", "ingest.partition", _days)
        tracer.wrap(mod, "day_feature_table", "features.table")
    for mod in (features, cli):
        tracer.wrap(mod, "build_graph", "txgraph.build", _graph)
    tracer.wrap(features, "feature_vector", "features.vector")
    for mod in (korder, cli):
        tracer.wrap(mod, "occurrence_matrices", "korder.occurrence", _clamped)
    tracer.wrap(kernels, "spgemm_bool", "kernels.spgemm", _spgemm)
    tracer.wrap(kernels, "svr_epochs", "kernels.svr", _svr)
    tracer.wrap(cli, "occurrence_matrix_oracle", "korder.oracle", _oracle)
    tracer.wrap(backtest, "fit", "regress.fit", _fit)
    tracer.wrap(backtest, "predict_price", "ensemble.predict", _predict)
    for name in ("run_backtest", "window_sweep"):
        tracer.wrap(cli, name, "backtest.run")
