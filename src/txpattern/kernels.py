"""Hot numeric kernels, one numpy implementation each.

It owns canonical CSR, the form of every sparse row set in the package:
int64 ``indptr`` and ``indices``, each row's columns sorted and distinct.
``csr`` builds it from (row, col) pairs, ``indptr_from`` from row sizes,
and ``ranges`` expands (start, length) pairs into positions.

``spgemm_bool`` is the boolean sparse product behind the k-order grids and
``svr_epochs`` the linear SVR solver, an ADMM loop whose "epochs" are its
iterations.  Callers reach both, and ``warmup``, through the module
attribute (``kernels.spgemm_bool(...)``): the end-to-end benchmark in
``e2ebench/`` wraps them by these names to time them, so the names are kept
stable.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# Canonical CSR and the boolean product (set-semantics sparse matmul)
# ---------------------------------------------------------------------------


def indptr_from(counts: np.ndarray) -> np.ndarray:
    """Row offsets of consecutive rows with the given sizes: 0, then the
    running sum."""
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr


def ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The positions ``start, ..., start + len - 1`` of every pair, end to end."""
    ends = np.cumsum(lens)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total, dtype=np.int64) + np.repeat(starts - (ends - lens), lens)


def csr(rows: np.ndarray, cols: np.ndarray, n_rows: int,
        n_cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Canonical CSR ``(indptr, indices)`` of the (row, col) pairs; repeated
    pairs count once.  Each pair is one int64 key, deduplicated by a sort
    and a neighbour compare: numpy 2.x runs ``np.unique`` on integers
    through a hash table, 7-57x slower on 1k-2M random keys."""
    width = max(n_cols, 1)
    keys = np.sort(rows * width + cols)
    new = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    keys = keys[new]
    return indptr_from(np.bincount(keys // width, minlength=n_rows)), keys % width


def spgemm_bool(a_indptr, a_indices, b_indptr, b_indices, n_rows, n_cols):
    """Canonical CSR of the boolean product A.B of two canonical CSR
    matrices, row by row as in Gustavson (ACM TOMS 1978): every entry (i, j)
    of A expands to row j of B, and the (i, col) pairs are merged by
    ``csr``.  No python loop over rows."""
    lens = np.diff(b_indptr)[a_indices]
    rows = np.repeat(np.arange(n_rows, dtype=np.int64), np.diff(a_indptr))
    cols = b_indices[ranges(b_indptr[a_indices], lens)]
    return csr(np.repeat(rows, lens), cols, n_rows, n_cols)


# ---------------------------------------------------------------------------
# Linear epsilon-insensitive regression by ADMM
# ---------------------------------------------------------------------------
#
# Objective: 0.5*||w||^2 + C * sum_i max(0, |x_i.w + b - y_i| - eps), with
# the bias b unpenalised.  ADMM on the split z = Xw + b - y (Boyd et al.,
# "Distributed Optimization and Statistical Learning via the Alternating
# Direction Method of Multipliers", FnT ML 2011, sections 3 and 6).
#
# The columns are centred first.  Because b is unpenalised, fitting on
# X - mu and returning b - mu.w solves the same problem, and with centred
# columns the joint (w, b) step splits: b is the mean of its target and w
# solves (X'X + I/rho) w = X'v.  Columns that are constant get weight 0 and
# are dropped.  One eigendecomposition X'X = V diag(lam) V' of the live
# columns serves every w-step at every rho, so rho can be rebalanced
# without refactoring.

SVR_MAX_ITER = 10_000   # ADMM iterations before a fit gives up
_RHO_EVERY = 10         # iterations between residual-balancing checks


def svr_epochs(x, y, c, eps, tol, max_iter):
    """Fit (w, b) for the objective above; returns ``(w, b, objectives,
    converged)``.

    One "epoch" is one ADMM iteration: ``objectives`` holds the objective
    after each, so its length is the iteration count.  The fit stops when
    Boyd's primal and dual residuals are both below ``tol`` relative to
    their scales (``converged`` True), or after ``max_iter`` iterations."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, d = x.shape
    # constant columns are found by range: centred, they need not be
    # exactly zero, as a mean rounds
    live = np.flatnonzero(x.max(axis=0) > x.min(axis=0))
    xl = x[:, live]
    mu = xl.mean(axis=0)
    xl = xl - mu
    lam, v = np.linalg.eigh(xl.T @ xl)
    pt = xl @ v                     # X V, the live columns in the eigenbasis
    p = np.ascontiguousarray(pt.T)
    y_norm = np.linalg.norm(y)
    rho = 1.0
    z = np.zeros(n)
    u = np.zeros(n)
    objectives = np.empty(max_iter)
    converged = False
    for it in range(max_iter):
        # (w, b)-step, with w in the eigenbasis, where its norm is the same
        target = y + z - u
        wv = (p @ target) / (lam + 1.0 / rho)
        b = target.mean()
        fitted = pt @ wv + b
        # z-step: the prox of (C/rho) times the eps-insensitive loss shrinks
        # the part of the residual outside the tube by up to C/rho
        a = fitted - y + u
        z_old = z
        z = a - np.clip(a - np.clip(a, -eps, eps), -c / rho, c / rho)
        r = fitted - y - z
        u = u + r
        objectives[it] = 0.5 * (wv @ wv) + c * np.maximum(
            np.abs(fitted - y) - eps, 0.0).sum()
        # primal residual r, dual residual rho [X 1]'(z - z_old); the norm
        # of X'q is that of p q, since V is orthogonal
        dz = z - z_old
        r_norm = np.linalg.norm(r)
        s_norm = rho * np.hypot(np.linalg.norm(p @ dz), dz.sum())
        pri_scale = max(np.linalg.norm(fitted), np.linalg.norm(z), y_norm)
        dual_scale = rho * np.hypot(np.linalg.norm(p @ u), u.sum())
        if r_norm <= tol * pri_scale and s_norm <= tol * dual_scale:
            converged = True
            break
        if it % _RHO_EVERY == _RHO_EVERY - 1:
            if r_norm > 10.0 * s_norm:
                rho *= 2.0
                u /= 2.0
            elif s_norm > 10.0 * r_norm:
                rho /= 2.0
                u *= 2.0
    w = np.zeros(d)
    w[live] = v @ wv
    return w, float(b - mu @ w[live]), objectives[:it + 1].copy(), converged


def warmup() -> None:
    """Run each kernel once on tiny inputs, so one-time costs (imports,
    first-call allocation) fall outside any timed region."""
    ip = np.array([0, 1], np.int64)
    ix = np.array([0], np.int64)
    spgemm_bool(ip, ix, ip, ix, 1, 1)
    svr_epochs(np.ones((2, 1)), np.zeros(2), 1.0, 0.1, 1e-4, 1)
