"""Hot numeric kernels, one numpy implementation each.

``spgemm_bool`` is the boolean sparse product behind the k-order grids and
``svr_epochs`` the linear SVR training loop.  Callers reach both, and
``warmup``, through the module attribute (``kernels.spgemm_bool(...)``):
the end-to-end benchmark in ``e2ebench/`` wraps them by these names to time
them, so the names are kept stable.
"""

from __future__ import annotations

import numpy as np


def _unique_sorted(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an int64 array, as ``np.unique`` returns
    them.  Sort plus a neighbour compare: numpy 2.x runs ``np.unique`` on
    integers through a hash table, 7-57x slower on 1k-2M random keys."""
    keys = np.sort(keys)
    keep = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


# ---------------------------------------------------------------------------
# Boolean CSR matrix product (set-semantics sparse matmul)
# ---------------------------------------------------------------------------
#
# Inputs are canonical CSR: int64 indptr of length n_rows+1, int64 indices
# sorted and unique within each row.  Output is in the same canonical form.
# Values are implicit (all true); the boolean semiring makes products
# idempotent, so only the set of populated positions matters.


def spgemm_bool(a_indptr, a_indices, b_indptr, b_indices, n_rows, n_cols):
    # Expand every (i,j) of A against row j of B, then dedupe (row,col) pairs
    # through a single int64 key.  No python loop over rows.
    a_nnz_per_row = np.diff(a_indptr)
    a_rows = np.repeat(np.arange(n_rows, dtype=np.int64), a_nnz_per_row)
    b_nnz = np.diff(b_indptr)
    lens = b_nnz[a_indices]
    total = int(lens.sum())
    if total == 0:
        return np.zeros(n_rows + 1, np.int64), np.empty(0, np.int64)
    starts = b_indptr[a_indices]
    cum = np.cumsum(lens)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(cum - lens, lens)
    cols = b_indices[np.repeat(starts, lens) + offsets]
    rows = np.repeat(a_rows, lens)
    keys = _unique_sorted(rows * n_cols + cols)
    out_rows = keys // n_cols
    c_indptr = np.zeros(n_rows + 1, np.int64)
    np.cumsum(np.bincount(out_rows, minlength=n_rows), out=c_indptr[1:])
    return c_indptr, keys % n_cols


# ---------------------------------------------------------------------------
# Linear epsilon-insensitive regression, subgradient epochs
# ---------------------------------------------------------------------------
#
# Objective: 0.5*||w||^2 + C * sum_i max(0, |w.x_i + b - y_i| - eps).
# Samples are visited in data order each epoch; the learning rate decays as
# lr0 / (1 + epoch).  The per-sample step folds the regularizer in as
# w *= (1 - lr/n).  Returns per-epoch objective values so callers can check
# convergence; iteration stops early once the epoch-to-epoch improvement
# drops below tol.


def svr_epochs(x, y, c, eps, epochs, lr0, tol):
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    n, d = x.shape
    w = np.zeros(d, np.float64)
    b = 0.0
    losses = []
    prev = np.inf
    for epoch in range(epochs):
        lr = lr0 / (1.0 + epoch)
        for i in range(n):
            r = float(x[i] @ w) + b - y[i]
            g = 1.0 if r > eps else (-1.0 if r < -eps else 0.0)
            w *= 1.0 - lr / n
            if g != 0.0:
                step = lr * c * g
                w -= step * x[i]
                b -= step
        margin = np.abs(x @ w + b - y) - eps
        loss = 0.5 * float(w @ w) + c * float(margin[margin > 0.0].sum())
        losses.append(loss)
        if prev - loss < tol:
            break
        prev = loss
    return w, float(b), np.array(losses, dtype=np.float64)


def warmup() -> None:
    """Run each kernel once on tiny inputs, so one-time costs (imports,
    first-call allocation) fall outside any timed region."""
    ip = np.array([0, 1], np.int64)
    ix = np.array([0], np.int64)
    spgemm_bool(ip, ix, ip, ix, 1, 1)
    svr_epochs(np.ones((2, 1)), np.zeros(2), 1.0, 0.1, 1, 1e-3, 0.0)
