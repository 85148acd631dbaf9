"""Hot numeric kernels, one numpy implementation each.

It owns canonical CSR, the form of every sparse row set in the package:
int64 ``indptr`` and ``indices``, each row's columns sorted and distinct.
``csr`` builds it from (row, col) pairs, ``indptr_from`` from row sizes,
and ``ranges`` expands (start, length) pairs into positions.

``spgemm_bool`` is the boolean sparse product behind the k-order grids.
``centred_eigh`` owns what both linear fits decide about the unpenalised
bias, constant columns and column scaling, and rejects a design holding
NaN or infinity; ``ridge`` is one closed-form step on its basis and
``svr_epochs`` the linear SVR solver, an ADMM loop whose "epochs" are its
iterations.  ``one_blas_thread`` runs a block with numpy's OpenBLAS on
one thread, as the command line runs.  Callers reach the kernels, and
``warmup``, through the module attribute (``kernels.spgemm_bool(...)``):
the end-to-end benchmark in ``e2ebench/`` wraps ``spgemm_bool`` and
``svr_epochs`` by these names to time them, so the names are kept
stable.

``on_processes`` shares independent tasks between ``CPUS`` processes, as
the GIL would serialise their many small numpy calls on threads: the
feature table's chunks, a run's offset fits and ``oracle-check``'s days.
The caller runs the first share of about equal cost and forks a worker
for each other one, which sends back its results and printed text and
leaves through ``os._exit``; the caller runs again the share of a worker
that did not exit 0, so an error is the serial one.  It trims the C heap
just before each fork, so the worker shares none of its free pages.

``keep_heap`` fixes glibc's mmap and trim thresholds for the rest of the
process, as the command line does before it parses, so a parse's chunks
reuse the memory that the chunk before them freed.  Where the C library
has no ``mallopt`` and ``malloc_trim`` (macOS, musl), both are no-ops.
"""

from __future__ import annotations

import contextlib
import ctypes
import importlib
import io
import os
import pickle
import sys

import numpy as np

from .errors import BadSpec, SingularSystem

# CPUs that a stage shares its work between: the parse's threads and the
# processes of on_processes
CPUS = 2


# ---------------------------------------------------------------------------
# Independent tasks on forked processes
# ---------------------------------------------------------------------------


def _shares(costs) -> list[range]:
    """The items cut into up to ``CPUS`` contiguous shares at even steps of
    their summed ``costs``; every share holds an item, and there is one
    share on a platform that cannot fork."""
    at = indptr_from(costs)
    n = min(CPUS if hasattr(os, "fork") else 1, len(costs))
    cuts = np.searchsorted(at, at[-1] * np.arange(1, n) / n)
    cuts = np.unique(np.clip(cuts, 1, len(costs) - 1)).tolist()
    return [range(lo, hi) for lo, hi in zip([0] + cuts, cuts + [len(costs)])]


def _fork(task, share: range) -> tuple[int, io.BufferedReader]:
    """A worker running ``task`` over ``share``, and the pipe that brings
    back, pickled, its results and what it wrote to ``sys.stdout`` and
    ``sys.stderr``.  It leaves through ``os._exit``, never back into the
    caller's frames, so it flushes none of the caller's buffers."""
    read, write = os.pipe()
    _trim_heap()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                results = [task(i) for i in share]
            with open(write, "wb") as pipe:
                pickle.dump((results, out.getvalue(), err.getvalue()), pipe)
            os._exit(0)
        finally:
            os._exit(1)
    os.close(write)
    return pid, open(read, "rb")


def on_processes(task, costs) -> list:
    """``[task(i) for i in range(len(costs))]``, the items cut by
    :func:`_shares`.  The caller runs the first share and a forked worker
    each other one; the caller then writes each worker's text after its
    own, in share order, so the streams read as in a serial run.  Every
    worker is waited for, also when the caller's share raises, and a share
    whose worker did not exit 0 runs again in the caller, where its error,
    if any, is raised."""
    mine, *theirs = _shares(costs)
    workers, done = [], []
    try:
        for share in theirs:
            workers.append(_fork(task, share))
        results = [task(i) for i in mine]
    finally:
        for pid, pipe in workers:
            with pipe:
                data = pipe.read()
            done.append((os.waitpid(pid, 0)[1], data))
    for share, (status, data) in zip(theirs, done):
        if status:
            results += [task(i) for i in share]
            continue
        got, out, err = pickle.loads(data)
        results += got
        sys.stdout.write(out)
        sys.stderr.write(err)
    return results


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
# Linear fits with an unpenalised bias: ridge, and epsilon-SVR by ADMM
# ---------------------------------------------------------------------------
#
# Both fits run on the z-scored live columns Z = (X - mu) / sd, with the
# population mean and std of each column over the training rows, and map
# their weights back to the raw columns, as glmnet standardises inside the
# fit (Friedman, Hastie and Tibshirani, JSS 2010): w = w_z / sd, and as b
# is unpenalised, returning b - mu.w solves the same problem.  On Z the
# joint (w_z, b) step splits: b is the mean of its target v and w_z solves
# (Z'Z + s I) w_z = Z'v.  centred_eigh drops the constant columns (weight
# 0) and factors Z'Z = V diag(lam) V' once, so w_z = V diag(1/(lam + s))
# V'Z'v for every s.  The penalties and the objective below act on w_z,
# so scaling or shifting a column changes no prediction.  Ridge is this step
# with s its penalty (Hastie et al., "The Elements of Statistical
# Learning", section 3.4.1); the SVR takes it with s = 1/rho at every ADMM
# iteration, so rho can be rebalanced without refactoring.
#
# The SVR minimises 0.5*||w||^2 + C * sum_i max(0, |x_i.w + b - y_i| - eps),
# here with X the z-scored design Z and w its weights w_z, by ADMM on the
# split z = Xw + b - y (Boyd et al., "Distributed Optimization and
# Statistical Learning via the Alternating Direction Method of
# Multipliers", FnT ML 2011, sections 3 and 6).
#
# The z- and u-steps are over-relaxed (Boyd section 3.4.3): they see
# h = alpha*(Xw + b) + (1 - alpha)*(z + y) in place of the fitted values.
# With a = h - y + u = alpha*(Xw + b - y) + (1 - alpha)*z + u, the z-step
# is z = a - q, where q is the part of a outside the tube clipped to
# [-C/rho, C/rho]; so the new scaled dual u + h - y - z is q itself.
#
# The fit stops on a duality gap (Boyd and Vandenberghe, "Convex
# Optimization", section 5.5).  The dual is: maximise D(nu) =
# -0.5*||X'nu||^2 - y.nu - eps*||nu||_1 subject to sum(nu) = 0 and
# |nu_i| <= C, and each feasible nu bounds the optimum from below.  ADMM's
# own nu = rho*u lies in [-C, C], as the u-step clips u to +-C/rho; with
# its larger-signed side scaled down to sum to 0, (P - D)/P bounds how far
# the objective P is above the optimum, relative.  ||X'nu|| is ||p nu|| in
# the eigenbasis.  The gap is checked, and rho rebalanced by Boyd's primal
# and dual residuals (section 3.4.1), every _RHO_EVERY iterations and at
# the last allowed one, so a capped fit is the uncapped one cut short.

SVR_MAX_ITER = 10_000   # ADMM iterations before a fit gives up
_RHO_EVERY = 10         # iterations between gap checks and rho balancing
_ALPHA = 1.8            # over-relaxation: on the svr_sweep benchmark's fits,
                        # 1.5-1.9 take 1000-1190 iterations, 1.0 takes 1390


def centred_eigh(x):
    """``(pt, lam, back)`` for the live (not constant) columns L of x, their
    means mu, their population stds sd after centring, Z = (L - mu) / sd and
    Z'Z = V diag(lam) V': pt = Z V, and back(wv, b) = (w, b - mu.w), with
    w = (V wv) / sd on L and exactly 0 elsewhere, weights on x itself.
    Raises ``BadSpec`` when x holds NaN or infinity."""
    hi, lo = x.max(axis=0), x.min(axis=0)
    # the column extremes carry any NaN or infinity, with no (n, d) temporary
    if not (np.isfinite(hi).all() and np.isfinite(lo).all()):
        raise BadSpec("training features and targets must be finite")
    # by range: centred, a constant column need not be exactly 0
    live = np.flatnonzero(hi > lo)
    xl = x[:, live]
    mu = xl.mean(axis=0)
    xl -= mu
    sd = xl.std(axis=0)
    xl /= sd
    lam, v = np.linalg.eigh(xl.T @ xl)

    def back(wv, b):
        w = np.zeros(x.shape[1])
        w[live] = (v @ wv) / sd
        return w, float(b - mu @ w[live])
    return xl @ v, lam, back


def ridge(x, y, lam):
    """Fit (w, b) minimising ||Z w_z + b - y||^2 + lam ||w_z||^2 on the
    z-scored columns Z, returned on x's own columns.  At ``lam`` = 0
    a constant column, or a smallest eigenvalue at or below numpy's
    ``matrix_rank`` tolerance, raises ``SingularSystem``."""
    pt, eig, back = centred_eigh(x)
    if lam == 0.0 and (pt.shape[1] < x.shape[1] or eig.size and (
            eig[0] <= eig[-1] * eig.size * np.finfo(np.float64).eps)):
        raise SingularSystem("rank-deficient design; ridge_lambda must be > 0")
    return back((pt.T @ y) / (eig + lam), y.mean())


def svr_epochs(x, y, c, eps, tol, max_iter):
    """Fit (w, b) for the objective above; returns ``(w, b, objectives,
    converged, gap)``.

    One "epoch" is one ADMM iteration: ``objectives`` holds the objective
    after each, so its length is the iteration count.  The fit stops when
    the relative duality gap is at most ``tol`` (``converged`` True), or
    after ``max_iter`` iterations; ``gap`` is the last one checked.  The
    check runs every ``_RHO_EVERY`` iterations and at the last one, so the
    count is a multiple of ``_RHO_EVERY`` unless ``max_iter`` ends it or
    the targets fit inside the tube.  When no two targets are more than
    ``2 * eps`` apart, w = 0 and the midrange bias cost 0, the optimum,
    which ADMM meets only up to rounding and no relative gap certifies:
    that fit returns them after one step, converged with gap 0."""
    pt, lam, back = centred_eigh(x)
    lo, hi = y.min(), y.max()
    if hi - lo <= 2 * eps:
        b = 0.5 * (lo + hi)
        loss = c * np.maximum(np.abs(b - y) - eps, 0.0).sum()
        return (*back(np.zeros(lam.size), b), np.array([loss]), True, 0.0)
    p = np.ascontiguousarray(pt.T)
    rho = 1.0
    scale = 1.0 / (lam + 1.0 / rho)
    z = np.zeros_like(y)
    u = np.zeros_like(y)
    objectives = np.empty(max_iter)
    converged, gap = False, np.inf
    for it in range(max_iter):
        # (w, b)-step, with w in the eigenbasis, where its norm is the same
        target = y + z - u
        wv = (p @ target) * scale
        b = target.mean()
        resid = pt @ wv + b - y
        objectives[it] = 0.5 * (wv @ wv) + c * np.maximum(
            np.abs(resid) - eps, 0.0).sum()
        # z- and u-steps on the relaxed fit: the prox of (C/rho) times the
        # eps-insensitive loss shrinks the part of a outside the tube by up
        # to C/rho
        a = _ALPHA * resid + (1.0 - _ALPHA) * z + u
        u = np.clip(a - np.clip(a, -eps, eps), -c / rho, c / rho)
        z_old, z = z, a - u
        if it % _RHO_EVERY != _RHO_EVERY - 1 and it != max_iter - 1:
            continue
        # the dual guess nu = rho*u, its larger-signed side scaled down so
        # that it sums to 0
        nu = rho * u
        up, down = nu[nu > 0].sum(), -nu[nu < 0].sum()
        if up != down:
            nu[(nu > 0) if up > down else (nu < 0)] *= min(up, down) / max(up, down)
        pn = p @ nu
        dual = -0.5 * (pn @ pn) - y @ nu - eps * np.abs(nu).sum()
        # no objective is below 0, so P = 0 is optimal
        primal = objectives[it]
        gap = float((primal - dual) / primal) if primal > 0 else 0.0
        if gap <= tol:
            converged = True
            break
        # primal residual Xw + b - y - z, dual residual rho [X 1]'(z - z_old)
        dz = z - z_old
        r_norm = np.linalg.norm(resid - z)
        s_norm = rho * np.hypot(np.linalg.norm(p @ dz), dz.sum())
        if r_norm > 10.0 * s_norm or s_norm > 10.0 * r_norm:
            step = 2.0 if r_norm > s_norm else 0.5
            rho *= step
            u /= step
            scale = 1.0 / (lam + 1.0 / rho)
    return (*back(wv, b), objectives[:it + 1].copy(), converged, gap)


# ---------------------------------------------------------------------------
# The BLAS thread pool
# ---------------------------------------------------------------------------
#
# The fits' BLAS calls are small (at most about 1200 x 800), and on a
# 2-CPU host OpenBLAS's second thread made some processes' first calls
# 100x slower.  numpy exposes no thread control, so the setter is found by
# ctypes through numpy's linear-algebra extension, whose lookup also
# searches the OpenBLAS it is linked to.  Known names, newest build first:
# numpy 2.x wheels bundle scipy-openblas; older wheels and distribution
# builds export OpenBLAS's own names, with or without the 64-bit-integer
# suffix.

_BLAS_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def blas_threads():
    """``(symbol, get, set)``: the name of the setter found, and OpenBLAS's
    thread-count getter and setter as ctypes functions; None when numpy's
    BLAS exports no known pair (another BLAS, say)."""
    ext = importlib.import_module("numpy.linalg._umath_linalg")
    try:
        lib = ctypes.CDLL(ext.__file__)
    except OSError:
        return None
    for symbol in _BLAS_SETTERS:
        getter = symbol.replace("_set_", "_get_")
        if hasattr(lib, symbol) and hasattr(lib, getter):
            get, set_ = getattr(lib, getter), getattr(lib, symbol)
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return symbol, get, set_
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the body with the BLAS pool at one thread, and give it back the
    count it had, also when the body raises; a no-op where
    :func:`blas_threads` finds nothing."""
    found = blas_threads()
    if found is None:
        yield
        return
    _, get, set_ = found
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


# ---------------------------------------------------------------------------
# The C heap
# ---------------------------------------------------------------------------
#
# glibc serves a block above its mmap threshold by its own mapping, and
# hands the top of the heap back to the kernel once it passes the trim
# threshold.  Both start low (128 KiB) and only rise as large blocks are
# freed, so each 512 KiB chunk of a fresh process's parse gave back its
# few MB of numpy temporaries and the next chunk faulted them in again.
# keep_heap sets the first to glibc's 64-bit maximum and the second to
# twice that, as glibc's own dynamic rule would (mallopt(3)).

# mallopt's option numbers (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
# glibc's largest mmap threshold on 64-bit systems
_MMAP_MAX = 32 << 20


def _malloc():
    """``(mallopt, malloc_trim)`` of the C library as ctypes functions;
    None where it lacks either (macOS, musl)."""
    try:
        lib = ctypes.CDLL(None)
    except (OSError, TypeError):         # TypeError: Windows has no handle for None
        return None
    if not (hasattr(lib, "mallopt") and hasattr(lib, "malloc_trim")):
        return None
    lib.mallopt.argtypes, lib.mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    lib.malloc_trim.argtypes, lib.malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int
    return lib.mallopt, lib.malloc_trim


def keep_heap() -> None:
    """Fix glibc's mmap threshold at 32 MiB and its trim threshold at 64
    MiB for the rest of the process, so memory freed between a parse's
    chunks stays in the heap for the next; a no-op where :func:`_malloc`
    finds nothing."""
    found = _malloc()
    if found is not None:
        mallopt, _ = found
        mallopt(_M_MMAP_THRESHOLD, _MMAP_MAX)
        mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_MAX)


def _trim_heap() -> None:
    """Give the heap's free pages back to the kernel (``malloc_trim(0)``),
    so a fork shares none that the caller would then copy on write; a
    no-op where :func:`_malloc` finds nothing."""
    found = _malloc()
    if found is not None:
        _, malloc_trim = found
        malloc_trim(0)


def warmup() -> None:
    """Run each kernel once on tiny inputs, so one-time costs (imports,
    first-call allocation) fall outside any timed region."""
    ip = np.array([0, 1], np.int64)
    ix = np.array([0], np.int64)
    spgemm_bool(ip, ix, ip, ix, 1, 1)
    # targets further apart than 2 * eps, so that the ADMM loop runs
    svr_epochs(np.ones((2, 1)), np.array([0.0, 1.0]), 1.0, 0.1, 1e-4, 1)
