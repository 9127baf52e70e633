"""Reference sweep: serial vs. process-pool execution.

Standalone script (not a pytest benchmark): runs the reference design-
space sweep :data:`PAIRS` times with ``workers=1`` and ``workers=N``,
interleaved (serial, parallel, serial, ...), asserts every CSV is
byte-identical to the first serial one, and records the median
wall-clock timings with every sample, the steal-queue counters (summed
over the parallel runs), and the machine's CPU count to
``BENCH_sweep.json`` at the repo root.

Honesty rules, enforced here rather than left to the reader:

* The memo cache and the mapping cache are cleared before every timed
  run.  Pool workers are forked, so a warm parent cache would be
  inherited by every worker and flatter the parallel timing with work
  the serial run had to do.
* The headline number is ``per_core_efficiency``: the median serial
  time over the median parallel time, divided by the cores the pool
  could actually use (``min(workers, cpu_count)``).  A raw "speedup"
  from a 4-worker pool time-slicing one core is meaningless, and one
  pair of runs on a noisy host is not a measurement.  Interleaving the
  pairs spreads host drift over both sides.
* On a single-core machine no speedup is possible, only overhead -- the
  record then carries ``skipped: true`` with the reason, and no
  efficiency bound is applied (the CSV identity check still is).
* With two or more cores the bench *fails* (exit 1) below 0.8x
  per-core efficiency -- scaling regressions break the build instead
  of quietly shipping a smaller number.

Usage::

    PYTHONPATH=src python benchmarks/bench_sweep_parallel.py
    REPRO_BENCH_SCALE=0.3 REPRO_BENCH_WORKERS=2 PYTHONPATH=src \
        python benchmarks/bench_sweep_parallel.py
"""

import json
import os
import statistics
import sys
import time
from pathlib import Path

from repro import MachineConfig
from repro.arch.clustering import machine_mapping
from repro.sim import memo
from repro.sim.executor import reset_steal_stats, steal_stats
from repro.sim.sweep import Sweep, to_csv
from repro.workloads import build_workload

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.3"))
PARALLEL_WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "4"))
EFFICIENCY_BOUND = 0.8
#: Interleaved serial/parallel pairs; the gate compares their medians.
PAIRS = 5
AXES = dict(mapping=["M1", "M2", "voronoi"],
            num_mcs=[4, 8],
            interleaving=["page", "cache_line"])
OUT = Path(__file__).resolve().parent.parent / "BENCH_sweep.json"


def timed_sweep(program, config, workers):
    # Forked workers inherit the parent's caches: start every run cold.
    memo.cache.clear()
    machine_mapping.cache_clear()
    sweep = Sweep(program, config, workers=workers)
    start = time.perf_counter()
    points = sweep.run(**AXES)
    return time.perf_counter() - start, to_csv(points)


def main():
    program = build_workload("swim", SCALE)
    config = MachineConfig.scaled_default().with_(
        interleaving="cache_line")
    grid = 1
    for values in AXES.values():
        grid *= len(values)
    cpu_count = os.cpu_count() or 1
    usable_cores = min(PARALLEL_WORKERS, cpu_count)

    serial, parallel, csvs = [], [], []
    reset_steal_stats()
    for _ in range(PAIRS):
        for workers, samples in ((1, serial), (PARALLEL_WORKERS, parallel)):
            seconds, csv = timed_sweep(program, config, workers=workers)
            samples.append(seconds)
            csvs.append(csv)
    identical = all(csv == csvs[0] for csv in csvs)
    serial_s = statistics.median(serial)
    parallel_s = statistics.median(parallel)
    speedup = serial_s / parallel_s
    efficiency = speedup / usable_cores
    single_core = cpu_count < 2
    payload = {
        "benchmark": "reference_sweep_parallel",
        "app": "swim",
        "scale": SCALE,
        "axes": {name: list(values) for name, values in AXES.items()},
        "grid_points": grid,
        "cpu_count": cpu_count,
        "pairs": PAIRS,
        "serial_seconds": round(serial_s, 3),
        "serial_samples": [round(s, 3) for s in serial],
        "parallel_workers": PARALLEL_WORKERS,
        "parallel_seconds": round(parallel_s, 3),
        "parallel_samples": [round(s, 3) for s in parallel],
        "csv_byte_identical": identical,
        "steal": steal_stats(),
        "efficiency_bound": EFFICIENCY_BOUND,
    }
    if single_core:
        # A pool on one core can only time-slice; publishing a
        # "speedup" from that regime would be noise presented as data.
        payload["skipped"] = True
        payload["skip_reason"] = (
            "cpu_count=1: parallel speedup is unmeasurable on a "
            "single-core machine; only the CSV identity and "
            "overhead are recorded")
        payload["parallel_overhead"] = round(parallel_s / serial_s, 3)
    else:
        payload["skipped"] = False
        payload["speedup"] = round(speedup, 3)
        payload["usable_cores"] = usable_cores
        payload["per_core_efficiency"] = round(efficiency, 3)

    OUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    if not identical:
        print("FAIL: parallel CSV differs from serial", file=sys.stderr)
        return 1
    if not single_core and efficiency < EFFICIENCY_BOUND:
        print(f"FAIL: per-core efficiency {efficiency:.3f} below "
              f"{EFFICIENCY_BOUND}x bound "
              f"({speedup:.2f}x over {usable_cores} usable cores)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
