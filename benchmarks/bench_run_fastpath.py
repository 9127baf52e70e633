"""Fast-path speedups: hit-filtered event loop + sweep memoization.

Standalone script (not a pytest benchmark): records two headline
numbers to ``BENCH_fastpath.json`` at the repo root.

* ``single_run_speedup`` -- one full-scale optimized run, reference
  event loop vs the default hit-filtered fast loop
  (:mod:`repro.sim.fastpath`).  The ISSUE acceptance bound is >= 2x
  (``SINGLE_RUN_BOUND``): most accesses are L1/L2 hits, and the fast
  loop keeps them off the global heap entirely.
* ``sweep_speedup`` -- a small end-to-end grid, reference engine with
  the compile/trace memo disabled vs fast engine with the memo on
  (:mod:`repro.sim.memo`); this is the configuration every sweep runs
  by default, and it additionally reuses transform/trace artifacts
  across grid points that share them.

It also records, without a bound, the same single-run comparison for
the two other machine shapes of the paper's evaluation: a shared SNUCA
L2 (``shapes.shared_l2``, Figure 22) and two threads per core
(``shapes.threads_2``, Figure 24), each with its medians, the
interquartile range of each pool, and the provenance of the host.

Both comparisons are median-of-repeats with a warmup run per engine,
and the engines are interleaved (A, B, A, B, ...) so clock drift hits
both pools equally.  The results are bit-identical across engines --
``tests/test_fastpath_equivalence.py`` pins that -- so this script
cross-checks one metrics field per pair as a cheap tripwire.

Usage::

    PYTHONPATH=src python benchmarks/bench_run_fastpath.py
    REPRO_BENCH_SCALE=0.5 REPRO_BENCH_REPEATS=3 PYTHONPATH=src \
        python benchmarks/bench_run_fastpath.py
"""

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro import MachineConfig, RunSpec, run_simulation
from repro.sim import memo
from repro.sim.sweep import Sweep
from repro.workloads import build_workload

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
REPEATS = int(os.environ.get("REPRO_BENCH_REPEATS", "5"))
APP = os.environ.get("REPRO_BENCH_APP", "swim")
SWEEP_SCALE = float(os.environ.get("REPRO_BENCH_SWEEP_SCALE", "0.4"))
OUT = Path(__file__).resolve().parent.parent / "BENCH_fastpath.json"

#: ISSUE acceptance bound on the single-run speedup.
SINGLE_RUN_BOUND = 2.0


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


#: The paper's other machine shapes, timed like the single run.
SHAPES = {"shared_l2": {"shared_l2": True},
          "threads_2": {"threads_per_core": 2}}


def _git(*args):
    try:
        return subprocess.run(["git", *args], capture_output=True,
                              text=True, cwd=OUT.parent,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _provenance():
    """Where the numbers were measured (``git_dirty``: the tree had
    uncommitted changes to tracked files)."""
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {"git_sha": _git("rev-parse", "HEAD"),
            "git_dirty": None if status is None else bool(status),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__}


def _iqr(pool):
    if len(pool) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(pool, n=4)
    return q3 - q1


def bench_single_run(program, config):
    """Median seconds of the reference and the fast engine, plus the
    interquartile range of each pool."""
    def run(engine):
        spec = RunSpec(program=program, config=config, optimized=True,
                       engine=engine)
        return run_simulation(spec).metrics

    memo.configure(enabled=False)  # isolate the event-loop cost
    try:
        for engine in ("reference", "fast"):
            run(engine)  # warmup
        pools = {"reference": [], "fast": []}
        for _ in range(REPEATS):
            for engine in ("reference", "fast"):
                seconds, metrics = _timed(lambda e=engine: run(e))
                pools[engine].append((seconds, metrics))
        ref_exec = pools["reference"][0][1].exec_time
        fast_exec = pools["fast"][0][1].exec_time
        if ref_exec != fast_exec:
            raise SystemExit(
                f"engines diverged: exec_time {ref_exec} (reference) "
                f"vs {fast_exec} (fast)")
        ref = [s for s, _ in pools["reference"]]
        fast = [s for s, _ in pools["fast"]]
    finally:
        memo.configure(enabled=True)
    return {"reference_seconds": round(statistics.median(ref), 4),
            "reference_iqr_seconds": round(_iqr(ref), 4),
            "fast_seconds": round(statistics.median(fast), 4),
            "fast_iqr_seconds": round(_iqr(fast), 4),
            "speedup": round(statistics.median(ref)
                             / statistics.median(fast), 2)}


def bench_sweep(program, config):
    axes = {"mapping": ["M1", "M2"], "num_mcs": [4, 8]}

    def run(engine, memo_enabled):
        memo.configure(enabled=memo_enabled)
        try:
            sweep = Sweep(program, config, engine=engine)
            return sweep.run(**axes)
        finally:
            memo.configure(enabled=True)

    for engine, enabled in (("reference", False), ("fast", True)):
        run(engine, enabled)  # warmup
    ref_pool, fast_pool = [], []
    rows = {}
    for _ in range(REPEATS):
        seconds, points = _timed(lambda: run("reference", False))
        ref_pool.append(seconds)
        rows["reference"] = [p.row() for p in points]
        seconds, points = _timed(lambda: run("fast", True))
        fast_pool.append(seconds)
        rows["fast"] = [p.row() for p in points]
    if rows["reference"] != rows["fast"]:
        raise SystemExit("sweep rows diverged between engines")
    return statistics.median(ref_pool), statistics.median(fast_pool)


def main():
    config = MachineConfig.scaled_default().with_(
        interleaving="cache_line")
    program = build_workload(APP, SCALE)
    single = bench_single_run(program, config)
    shapes = {name: bench_single_run(program, config.with_(**knobs))
              for name, knobs in SHAPES.items()}
    sweep_ref, sweep_fast = bench_sweep(
        build_workload(APP, SWEEP_SCALE), config)

    payload = {
        "benchmark": "run_fastpath",
        "app": APP,
        "scale": SCALE,
        "sweep_scale": SWEEP_SCALE,
        "repeats": REPEATS,
        "provenance": _provenance(),
        "single_run": single,
        "shapes": shapes,
        "sweep": {
            "axes": "mapping=M1,M2 x num_mcs=4,8",
            "reference_no_memo_seconds": round(sweep_ref, 4),
            "fast_memo_seconds": round(sweep_fast, 4),
            "speedup": round(sweep_ref / sweep_fast, 2),
        },
        "single_run_bound": SINGLE_RUN_BOUND,
    }
    OUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    if payload["single_run"]["speedup"] < SINGLE_RUN_BOUND:
        print(f"FAIL: single-run speedup "
              f"{payload['single_run']['speedup']}x "
              f"(< {SINGLE_RUN_BOUND}x)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
