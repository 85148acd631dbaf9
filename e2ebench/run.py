"""End-to-end benchmark for txpattern.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/txpattern`` must exist).  The
harness never imports txpattern.  It generates the workload's corpus from
the seed (cached per workload and seed under ``.e2ebench-work/``), then runs
jobs in a closed loop, one at a time, each in a fresh child process
(``child.py``) that invokes the txpattern CLI entry point.  Jobs keep
starting until ``--seconds`` have passed.  Every output is checked outside
the timed region.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
``setup_s``, ``wall_s``, ``tx_per_s`` and ``peak_rss_mb``.  With
``--trace 1`` untraced and traced jobs alternate, and the last line carries
the per-layer metrics computed from the traced jobs' spans, plus
``trace.overhead_s``.  The lines before it print every metric by name with
its unit, ``mape_percent``, ``error_rate`` and the outcome of every check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import corpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".e2ebench-work"

RUN_LIMIT_S = 170.0        # the whole run, corpus and checks included
JOB_TIMEOUT_S = 120.0
SETUP_PROBES = 8           # set-up-only children per run, besides the jobs
KEEP_CORPORA = 2           # cached corpora kept per workload
GRID_CELLS = 400
# a model must win back at least a quarter of the gap between the
# no-change predictor and the planted drift, both measured on the test days
MAPE_SHARE_OF_SIGNAL = 0.25


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable          # corpus function: (rng, out_dir, **kwargs) -> meta
    kwargs: dict
    args: Callable          # (corpus dir, job dir) -> CLI arguments
    outputs: tuple = ()     # files the job writes; none: its stdout is checked
    check: Callable = lambda meta, text, oracle: []
    mape: Callable | None = None    # output bytes -> the MAPE it reports


def _report_mape(output: bytes) -> float:
    return json.loads(output.split(b"\0")[0])["mape_percent"]


def _sweep_mape(output: bytes) -> float:
    return statistics.fmean(float(r.split(",")[1])
                            for r in output.decode().split()[1:])


def _check_sweep(meta, text, oracle):
    rows = text.split()
    if rows[:1] != ["window,mape_percent"] or [
            r.split(",")[0] for r in rows[1:]] != list("1234"):
        return [f"unexpected sweep rows: {text!r}"]
    return []


def _check_oracle_line(meta, text, oracle):
    g = meta["graphs"]
    want = f"oracle check passed: {g} days, {3 * g} grids\n"
    return [] if text == want else [f"expected {want.strip()!r}, got {text.strip()!r}"]


def _check_features(meta, text, oracle):
    """Every grid of the feature CSV equals the walk oracle's."""
    if oracle is None:
        return []           # reported once as a failed run-level check
    rows = text.splitlines()[1:]
    problems = [] if len(rows) == meta["days"] else [
        f"{len(rows)} feature rows, expected {meta['days']}"]
    for d, row in enumerate(rows):
        cells = [int(v) for v in row.split(",")[1:]]
        for k in (1, 2, 3):
            if cells[(k - 1) * GRID_CELLS:k * GRID_CELLS] != oracle.get(f"{d}:{k}"):
                problems.append(f"day {d} order {k} differs from the walk oracle")
    return problems


WORKLOADS = {w.name: w for w in (
    Workload("year_backtest", corpus.planted_corpus,
             {"n_days": 365, "tx_per_day": 2000, "coeff": 1.0, "noise": 0.003,
              "sample_days": 3},
             lambda c, j: ["backtest", "--tx", str(c / "tx.csv"),
                           "--prices", str(c / "prices.csv"), "--k", "2",
                           "--window", "2", "--report", str(j / "report.json"),
                           "--csv", str(j / "preds.csv")],
             outputs=("report.json", "preds.csv"), mape=_report_mape),
    Workload("hub_days", corpus.hub_corpus,
             {"wide_day": 100_000, "background": 20_000, "hubs": [700, 1400]},
             lambda c, j: ["features", "--tx", str(c / "tx.csv"), "--k", "3",
                           "--out", str(j / "features.csv")],
             outputs=("features.csv",), check=_check_features),
    Workload("svr_sweep", corpus.planted_corpus,
             {"n_days": 1500, "tx_per_day": 20, "coeff": 5.0, "noise": 0.003},
             lambda c, j: ["sweep-window", "--tx", str(c / "tx.csv"),
                           "--prices", str(c / "prices.csv"), "--model", "svr",
                           "--windows", "1,2,3,4", "--k", "2"],
             check=_check_sweep, mape=_sweep_mape),
    Workload("oracle_sweep", corpus.adversarial_corpus, {"graphs": 50},
             lambda c, j: ["oracle-check", "--tx", str(c / "tx.csv"), "--k", "3"],
             check=_check_oracle_line),
)}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def sha256(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# corpora
# ---------------------------------------------------------------------------

def prepare_corpus(wl: Workload, seed: int) -> tuple[Path, dict]:
    """Generate (or reuse) the corpus; generation time is logged only."""
    params = json.dumps(wl.kwargs, sort_keys=True).encode()
    key = sha256((HERE / "corpus.py").read_bytes(), params)[:12]
    base = WORK / "corpus"
    out = base / f"{wl.name}-{seed}-{key}"
    meta_path = out / "meta.json"
    if meta_path.is_file():
        os.utime(out)
        return out, json.loads(meta_path.read_text())
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    t0 = time.monotonic()
    meta = wl.make(np.random.default_rng(seed), out, **wl.kwargs)
    meta_path.write_text(json.dumps(meta))
    log(f"generated {wl.name} seed {seed} in {time.monotonic() - t0:.2f} s")
    # keep the newest few corpora of this workload
    others = sorted((p for p in base.glob(f"{wl.name}-*") if p != out),
                    key=lambda p: p.stat().st_mtime, reverse=True)
    for stale in others[KEEP_CORPORA - 1:]:
        shutil.rmtree(stale, ignore_errors=True)
    return out, meta


def src_digest() -> str:
    """Identity of the program under test: its source files."""
    files = sorted(SRC.rglob("*.py"))
    return sha256(*(str(p.relative_to(SRC)).encode() + p.read_bytes()
                    for p in files))[:16]


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

@dataclass
class Job:
    dir: Path
    traced: bool = False
    rss_mb: float = 0.0
    result: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def stdout(self) -> bytes:
        return (self.dir / "stdout.txt").read_bytes()


def spawn(script: str, args: list[str], job_dir: Path, timeout: float) -> Job:
    """Run one child to completion.  Its peak RSS comes from its own rusage
    (``os.wait4``); a timeout kills it and counts as a failure."""
    job_dir.mkdir(parents=True, exist_ok=True)
    job = Job(job_dir)
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("TXPATTERN_") and k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(SRC)
    timed_out = threading.Event()
    with open(job_dir / "stdout.txt", "wb") as out, \
            open(job_dir / "stderr.txt", "wb") as err:
        proc = subprocess.Popen([sys.executable, str(HERE / script), *args],
                                cwd=job_dir, env=env, stdout=out, stderr=err)

        def kill():
            timed_out.set()
            proc.kill()

        timer = threading.Timer(max(timeout, 0.1), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    proc.returncode = rc = os.waitstatus_to_exitcode(status)
    job.rss_mb = usage.ru_maxrss / 1024.0
    if timed_out.is_set():
        job.problems.append(f"timed out after {timeout:.0f} s")
    elif rc != 0:
        tail = (job_dir / "stderr.txt").read_text(errors="replace")[-400:]
        job.problems.append(f"exit code {rc}: {tail.strip()}")
    return job


def run_child(cli_args: list[str], job_dir: Path, timeout: float,
              flag: str | None = None) -> Job:
    """One ``child.py`` process: set-up and, unless ``--setup-only``, one
    CLI invocation, optionally traced."""
    result = job_dir / "result.json"
    head = [repr(time.monotonic()), str(result), *([flag] if flag else []), "--"]
    job = spawn("child.py", head + cli_args, job_dir, timeout)
    job.traced = flag == "--trace"
    if job.ok:
        job.result = json.loads(result.read_text())
        # isolation: the child must run the checkout's own package
        if not job.result["txpattern"].startswith(str(SRC)):
            job.problems.append(f"imported {job.result['txpattern']}")
    return job


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def job_output(wl: Workload, job: Job) -> bytes:
    """The bytes a job produced; identical inputs must give identical bytes."""
    if not wl.outputs:
        return job.stdout
    return b"\0".join((job.dir / name).read_bytes() for name in wl.outputs)


def mape_ceiling(meta: dict) -> float:
    naive, signal = meta["naive_mape"], meta["signal_mape"]
    return naive - MAPE_SHARE_OF_SIGNAL * (naive - signal)


def check_job(wl: Workload, meta: dict, output: bytes, oracle: dict | None,
              reference: str) -> list[str]:
    """Problems with one job's output; empty when it is correct."""
    problems = []
    if sha256(output) != reference:
        problems.append("output differs from the reference bytes of this "
                        "commit and corpus")
    if wl.mape is not None:
        mape = wl.mape(output)
        if not mape < mape_ceiling(meta):
            problems.append(f"MAPE {mape:.4f}% not under ceiling "
                            f"{mape_ceiling(meta):.4f}%")
    return problems + wl.check(meta, output.decode(), oracle)


def hub_oracle(c: Path, timeout: float) -> tuple[dict | None, str]:
    """Walk-oracle grids for every day and order.  They are cached per
    corpus (a few kB, kept when the corpus itself is pruned).  Two children
    split the orders, so the check uses both CPUs."""
    cached = WORK / "oracle" / f"{c.name}.json"
    if cached.is_file():
        return json.loads(cached.read_text()), "cached"
    t0 = time.monotonic()
    dirs = [WORK / "jobs" / f"oracle-{i}" for i in range(2)]
    threads = [threading.Thread(target=spawn, args=(
        "oracle_grids.py", [str(c / "tx.csv"), str(d / "grids.json"), *orders],
        d, timeout)) for d, orders in zip(dirs, (["1", "3"], ["2"]))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    grids = {}
    for d in dirs:
        if not (d / "grids.json").is_file():
            return None, "walk oracle failed: " + (d / "stderr.txt").read_text()[-400:]
        grids.update(json.loads((d / "grids.json").read_text()))
    cached.parent.mkdir(parents=True, exist_ok=True)
    cached.write_text(json.dumps(grids))
    return grids, f"computed in {time.monotonic() - t0:.1f} s"


def sampled_days_check(c: Path, timeout: float) -> list[str]:
    """year_backtest: the program's grids on a few sampled days equal the
    walk oracle's (``oracle-check`` on a file holding only those days)."""
    job = run_child(["oracle-check", "--tx", str(c / "sample.csv"), "--k", "2"],
                    WORK / "jobs" / "sample", timeout)
    if job.problems:
        return job.problems
    text = job.stdout.decode()
    return [] if text.startswith("oracle check passed:") else [text.strip()]


# ---------------------------------------------------------------------------
# trace analysis
# ---------------------------------------------------------------------------

SHARE_GROUPS = (
    ("ingest", ("ingest.parse", "ingest.partition")),
    ("txgraph", ("txgraph.build",)),
    ("korder + kernels.spgemm_bool", ("korder.occurrence", "kernels.spgemm")),
    ("korder.occurrence_matrix_oracle", ("korder.oracle",)),
    ("regress + kernels.svr_epochs", ("regress.fit", "kernels.svr")),
    ("ensemble, backtest, features, cli glue",
     ("ensemble.predict", "backtest.run", "features.table", "features.vector",
      "cli.main")),
)

PER_LAYER_UNITS = {
    "ingest.parse_s": "s", "ingest.partition_s": "s",
    "ingest.records": "count", "ingest.days": "count",
    "txgraph.build_s": "s", "txgraph.addresses": "count",
    "txgraph.coinbase_skipped": "count",
    "features.table_s": "s", "features.day_ms_p50": "ms",
    "features.day_ms_max": "ms",
    "korder.occurrence_s": "s", "korder.rows_clamped.k1": "count",
    "korder.rows_clamped.k2": "count", "korder.rows_clamped.k3": "count",
    "korder.oracle_s": "s", "korder.oracle_grids": "count",
    "kernels.spgemm_s": "s", "kernels.spgemm_calls": "count",
    "kernels.spgemm_pairs": "count", "kernels.spgemm_out_nnz": "count",
    "kernels.spgemm_out_nnz_max": "count", "kernels.spgemm_keep_ratio": "ratio",
    "kernels.svr_s": "s", "kernels.svr_epochs": "count",
    "regress.fit_s": "s", "regress.fits": "count",
    "regress.train_rows": "count", "regress.svr_objective_ratio": "ratio",
    "ensemble.predict_s": "s", "ensemble.predict_calls": "count",
    "backtest.self_s": "s", "trace.overhead_s": "s",
}


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, hi)
        if e > s:
            total += e - s
            reach = e
    return total


def self_times(spans: list) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    children: dict[int, list] = {}
    for sid, _, s, e, parent, _ in spans:
        children.setdefault(parent, []).append((s, e))
    return {sid: (e - s) - _covered(children.get(sid, []), s, e)
            for sid, _, s, e, _, _ in spans}


def leaf_attribution(spans: list) -> dict[str, float]:
    """Split wall time among the innermost running spans.

    At each instant the open spans with no open child are the ones doing
    the work; each gets an equal part of the instant.  A span on a pool
    thread is a child of the main-thread span that fanned it out, so time
    in ``features.table`` while its days run counts for the days."""
    name = {sid: n for sid, n, *_ in spans}
    parent = {sid: p for sid, _, _, _, p, _ in spans}
    events = sorted([(s, 1, sid) for sid, _, s, _, _, _ in spans]
                    + [(e, 0, sid) for sid, _, _, e, _, _ in spans])
    open_children: dict[int, int] = {}
    leaves: set[int] = set()
    out: dict[str, float] = {}
    last = events[0][0] if events else 0.0
    for t, is_start, sid in events:
        if leaves:
            share = (t - last) / len(leaves)
            for leaf in leaves:
                out[name[leaf]] = out.get(name[leaf], 0.0) + share
        last = t
        p = parent[sid]
        if is_start:
            open_children[sid] = 0
            leaves.add(sid)
            if p in open_children:
                open_children[p] += 1
                leaves.discard(p)
        else:
            del open_children[sid]
            leaves.discard(sid)
            if p in open_children:
                open_children[p] -= 1
                if open_children[p] == 0:
                    leaves.add(p)
    return out


def layer_metrics(result: dict) -> dict[str, float]:
    """Per-layer metrics of one traced job."""
    spans = [tuple(s) for s in result["spans"]]
    counters = result["counters"]
    selfs = self_times(spans)

    def total(n, use_self=False):
        return sum(selfs[sid] if use_self else e - s
                   for sid, nm, s, e, _, _ in spans if nm == n)

    # a day's features: its build_graph span through its feature_vector span
    days = []
    for thread in {s[5] for s in spans}:
        build_start = None
        for _, nm, s, e, _, _ in sorted((x for x in spans if x[5] == thread),
                                        key=lambda x: x[2]):
            if nm == "txgraph.build":
                build_start = s
            elif nm == "features.vector" and build_start is not None:
                days.append(e - build_start)
                build_start = None
    pairs = counters.get("kernels.spgemm_pairs", 0)
    m = {
        "ingest.parse_s": total("ingest.parse"),
        "ingest.partition_s": total("ingest.partition"),
        "txgraph.build_s": total("txgraph.build"),
        "features.table_s": total("features.table"),
        "features.day_ms_p50": 1e3 * statistics.median(days) if days else 0.0,
        "features.day_ms_max": 1e3 * max(days) if days else 0.0,
        "korder.occurrence_s": total("korder.occurrence", use_self=True),
        "korder.oracle_s": total("korder.oracle"),
        "kernels.spgemm_s": total("kernels.spgemm"),
        "kernels.spgemm_keep_ratio":
            counters.get("kernels.spgemm_out_nnz", 0) / pairs if pairs else 0.0,
        "kernels.svr_s": total("kernels.svr"),
        "regress.fit_s": total("regress.fit"),
        "ensemble.predict_s": total("ensemble.predict"),
        "backtest.self_s": total("backtest.run", use_self=True),
    }
    for key, unit in PER_LAYER_UNITS.items():
        if unit == "count" or key == "regress.svr_objective_ratio":
            m[key] = counters.get(key, 0)
    return m


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "txpattern" / "cli.py").is_file():
        log(f"error: {SRC / 'txpattern'} not found; run from a txpattern checkout")
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    wl = WORKLOADS[args.workload]
    trace = bool(args.trace)
    shutil.rmtree(WORK / "jobs", ignore_errors=True)

    def remaining() -> float:
        return min(JOB_TIMEOUT_S, deadline - time.monotonic())

    c, meta = prepare_corpus(wl, args.seed)
    checks: list[tuple[str, list[str]]] = []   # run-level checks
    oracle = None
    if wl.name == "hub_days":
        oracle, how = hub_oracle(c, remaining())
        log(f"walk-oracle grids {how}")
        checks.append(("walk-oracle grids available",
                       [] if oracle is not None else [how]))
    if wl.name == "year_backtest":
        checks.append(("sampled days equal the walk oracle",
                       sampled_days_check(c, remaining())))

    probes = [run_child([], WORK / "jobs" / f"probe-{i}", remaining(),
                        "--setup-only") for i in range(SETUP_PROBES)]

    # closed loop: one job at a time until the measuring time is up
    jobs: list[Job] = []
    measure_start = time.monotonic()
    while True:
        for flag in ((None, "--trace") if trace else (None,)):
            d = WORK / "jobs" / f"job-{len(jobs)}"
            jobs.append(run_child(wl.args(c, d), d, remaining(), flag))
        walls = [j.result["wall_s"] for j in jobs if j.ok]
        # the next round must fit before the deadline, checks included
        expect = 1.5 * (max(walls) if walls else JOB_TIMEOUT_S) * (1 + trace)
        if (time.monotonic() - measure_start >= args.seconds
                or time.monotonic() + expect > deadline - 10):
            break

    # output checks, outside every timed region; the first output of this
    # commit on this corpus is the reference
    ran = [j for j in jobs if j.ok]
    outputs = {id(j): job_output(wl, j) for j in ran}
    ref_file = WORK / "reference" / src_digest() / c.name
    if not ref_file.is_file() and ran:
        ref_file.parent.mkdir(parents=True, exist_ok=True)
        ref_file.write_text(sha256(outputs[id(ran[0])]))
    reference = ref_file.read_text() if ref_file.is_file() else ""
    for job in ran:
        job.problems += check_job(wl, meta, outputs[id(job)], oracle, reference)
    if trace:
        same = len({outputs[id(j)] for j in ran}) <= 1
        checks.append(("traced outputs equal untraced",
                       [] if same else ["outputs differ"]))

    for j in jobs:
        if j.problems:
            log(f"job failed: {'; '.join(j.problems)}")
    plain = [j for j in ran if not j.traced]
    traced = [j for j in ran if j.traced]
    if not plain or (trace and not traced):
        return 1

    attempted = len(jobs) + len(checks)
    failed = sum(not j.ok for j in jobs) + sum(bool(p) for _, p in checks)
    wall = statistics.median(j.result["wall_s"] for j in plain)
    setups = [j.result["setup_s"] for j in probes + ran if j.result]
    e2e = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "tx_per_s": (meta["transactions"] / wall, "tx/s"),
        "peak_rss_mb": (statistics.median(j.rss_mb for j in plain), "MB"),
    }

    print(f"workload {wl.name}, seed {args.seed}: "
          + ", ".join(f"{k} {v}" for k, v in meta.items()))
    for i, j in enumerate(jobs):
        state = "ok" if j.ok else "FAILED: " + "; ".join(j.problems)
        wall_text = f"{j.result['wall_s']:.3f} s" if "wall_s" in j.result else "-"
        print(f"  job {i}{' traced' if j.traced else ''}: wall_s {wall_text}, "
              f"peak_rss_mb {j.rss_mb:.1f} MB, {state}")
    for name, (value, unit) in e2e.items():
        print(f"{name:<14} {value:14.4f} {unit}")
    if wl.mape is not None:
        print(f"{'mape_percent':<14} {wl.mape(outputs[id(plain[0])]):14.4f} % "
              f"  (ceiling {mape_ceiling(meta):.4f} %, deterministic)")
    print(f"{'error_rate':<14} {failed / attempted:14.4f} ratio "
          f"({failed} of {attempted} operations failed)")
    print("check every job's output (reference bytes, MAPE, grids): "
          + ("pass" if all(j.ok for j in jobs) else "FAIL"))
    for name, problems in checks:
        print(f"check {name}: " + ("pass" if not problems else "FAIL " + "; ".join(problems)))

    if trace:
        per_job = [layer_metrics(j.result) for j in traced]
        layer = {k: statistics.median(m[k] for m in per_job) for k in per_job[0]}
        layer["trace.overhead_s"] = (
            statistics.median(j.result["wall_s"] for j in traced) - wall)
        for name, unit in PER_LAYER_UNITS.items():
            print(f"{name:<30} {layer[name]:16.6g} {unit}")
        share = leaf_attribution([tuple(s) for s in traced[0].result["spans"]])
        traced_wall = traced[0].result["wall_s"]
        print(f"layer shares of traced wall_s {traced_wall:.3f} s (first traced job):")
        for label, names in SHARE_GROUPS:
            secs = sum(share.get(n, 0.0) for n in names)
            print(f"  {label:<42} {100 * secs / traced_wall:6.1f} %")
        metrics = {k: {"value": layer[k], "unit": u}
                   for k, u in PER_LAYER_UNITS.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}

    shutil.rmtree(WORK / "jobs", ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
