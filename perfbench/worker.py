"""One workload in one fresh process: set up, run passes, check.

Started by ``run.py`` (never by hand); prints ``READY`` and the host
speed sampled during set-up (see :mod:`calibrate`) when set-up is done
and, as its last line, a JSON document with the measurements, the
outcome of every output check and the per-layer numbers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List

#: The seed the digests in expected.json were recorded with.
DEFAULT_SEED = 0
EXPECTED = Path(__file__).with_name("expected.json")
#: Serve samples this many server start-ups for ``setup_s``.
SETUP_SAMPLES = 3


def digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows, sort_keys=True)
                          .encode()).hexdigest()[:16]


def row_problems(rows: Dict[str, dict]) -> List[str]:
    """Accounting identities every run's metrics satisfy."""
    problems = []
    for label, row in rows.items():
        served = (row["l1_hits"] + row["l2_hits"] + row["onchip_remote"]
                  + row["offchip"])
        if row["total_accesses"] <= 0 or served != row["total_accesses"]:
            problems.append(f"{label}: accesses {row['total_accesses']} "
                            f"!= hits and misses {served}")
        if not row["exec_time"] > 0:
            problems.append(f"{label}: exec_time {row['exec_time']}")
    return problems


def check(workload, passes, expected) -> Dict[int, str]:
    """Check every op of every pass; returns failing flat op indices.

    An op fails when it raised or was refused, when its rows break an
    accounting identity, when its digest differs from the same op in
    the other passes, or -- at the recorded size, for the recorded
    seed or an op the seed does not affect -- from ``expected.json``.
    """
    flat = [op for p in passes for op in p.ops]
    failed: Dict[int, str] = {}
    by_op: Dict[str, List[int]] = {}
    for i, op in enumerate(flat):
        by_op.setdefault(op.op, []).append(i)
        if op.error:
            failed[i] = f"{op.op}: {op.error}"
        else:
            problems = row_problems(op.rows)
            if problems:
                failed[i] = f"{op.op}: {'; '.join(problems)}"
    for op_id, indices in by_op.items():
        digests = Counter(digest(flat[i].rows) for i in indices
                          if i not in failed)
        if len(digests) > 1:
            top, count = digests.most_common(1)[0]
            for i in indices:
                if count * 2 <= len(indices) or digest(flat[i].rows) != top:
                    failed.setdefault(i, f"{op_id}: differs between passes")
    if expected is not None:
        recorded = expected["ops"]
        invariant = set(expected["seed_invariant"])
        for i, op in enumerate(flat):
            if i in failed or op.op not in recorded:
                if op.op not in recorded:
                    failed.setdefault(i, f"{op.op}: no recorded digest")
                continue
            if (workload.seed == expected["seed"] or op.op in invariant) \
                    and digest(op.rows) != recorded[op.op]:
                failed[i] = f"{op.op}: digest differs from expected.json"
    verify = getattr(workload, "verify", None)
    if verify is not None:
        for i, message in verify(flat).items():
            failed.setdefault(i, message)
    return failed


def quantile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mb(concurrent_children: int) -> float:
    """Peak RSS of this process plus ``concurrent_children`` times the
    largest peak among its finished children (pool workers, the
    server): the sum of the parts' peaks, which bounds the tree's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + concurrent_children * child) / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--scale-factor", type=float, default=1.0)
    parser.add_argument("--inject-fault", type=int, default=-1)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--no-expected", action="store_true")
    args = parser.parse_args()
    trace = bool(args.trace)

    import calibrate
    # Set-up layer times exclude the sampler's kernel.
    with calibrate.Sampler() as setup_sampler:
        start, kernel_s = time.perf_counter(), setup_sampler.kernel_s
        import repro
        import_s = (time.perf_counter() - start
                    - (setup_sampler.kernel_s - kernel_s))
        from repro.sim import memo
        from repro.workloads import build_workload

        import layers
        import workloads
        probes = layers.Probes()
        if trace:
            probes.install()
        workload = workloads.make(args.workload, args.seed,
                                  args.scale_factor)
        workload.probes = probes
        start, kernel_s = time.perf_counter(), setup_sampler.kernel_s
        workload.build()
        build_s = (time.perf_counter() - start
                   - (setup_sampler.kernel_s - kernel_s))
        if args.workload != "serve":
            # One untimed run that finishes the lazy imports
            # (scipy.optimize behind the default mappings) before
            # anything is timed.
            repro.run(program=build_workload("swim", 0.25), optimized=True)
    print("READY " + json.dumps(setup_sampler.record()), flush=True)
    if args.setup_only:
        workload.close()
        return 0

    passes, traced_flags, elapsed = [], [], []
    began = time.perf_counter()
    try:
        while True:
            traced = trace and len(passes) % 2 == 1
            if traced:
                probes.install()
            else:
                probes.uninstall()
            memo.cache.clear()
            before = probes.snapshot()
            t0 = time.perf_counter()
            result = workload.run_pass(traced)
            elapsed.append(time.perf_counter() - t0)
            traced_flags.append(traced)
            if traced:
                layers.merge(result.layers,
                             layers.delta(probes.snapshot(), before))
            passes.append(result)
            done = time.perf_counter() - began
            next_s = statistics.median(elapsed)
            if len(passes) >= (2 if trace else 1) \
                    and done + next_s > args.seconds:
                break
        probes.uninstall()
        if args.workload == "serve":
            workload.extra_setup_samples(SETUP_SAMPLES)

        if 0 <= args.inject_fault < len(passes[0].ops):
            op = passes[0].ops[args.inject_fault]
            for row in op.rows.values():
                row["l1_hits"] += 1
                break

        expected = None
        if args.scale_factor == 1.0 and EXPECTED.exists() \
                and not args.no_expected:
            expected = json.loads(EXPECTED.read_text()).get(args.workload)
        failed = check(workload, passes, expected)
    finally:
        workload.close()

    flat = [op for p in passes for op in p.ops]
    plain = [p for p, t in zip(passes, traced_flags) if not t]
    traced_passes = [p for p, t in zip(passes, traced_flags) if t]
    measured = traced_passes if trace else plain

    def per_pass(fn) -> float:
        return statistics.median(fn(p) for p in measured)

    latencies = [op.latency_s for p in measured for op in p.ops]
    e2e = {
        "wall_s": per_pass(lambda p: p.ref_s),
        "accesses_per_s": per_pass(
            lambda p: workloads.accesses(p.ops) / p.ref_s),
        "ops_per_s": per_pass(lambda p: len(p.ops) / p.ref_s),
        "host_wall_s": per_pass(lambda p: p.wall_s - p.kernel_s),
        "op_p50_ms": 1e3 * quantile(latencies, 0.5),
        "op_p90_ms": 1e3 * quantile(latencies, 0.9),
        "peak_rss_mb": peak_rss_mb({"sweep": workloads.SWEEP_WORKERS,
                                    "serve": 1}.get(args.workload, 0)),
    }
    e2e.update(workloads.reductions(workload.pairs(passes[0].ops)))

    per_layer: Dict[str, float] = {}
    if trace:
        totals: Dict[str, float] = {}
        extra: Dict[str, float] = {}
        for p in traced_passes:
            layers.merge(totals, p.layers)
            layers.merge(extra, p.extra, 1.0 / len(traced_passes))
        per_layer = layers.layer_metrics(totals, len(traced_passes))
        for name in ("sim.executor.busy_ratio", "sim.executor.batches",
                     "sim.executor.steal_requeued",
                     "sim.shm.published_bytes", "sim.shm.attached",
                     "store.hit_ratio", "serve.coalesced",
                     "serve.overhead_ms"):
            per_layer[name] = extra.get(name, 0.0)
        untraced_ref = statistics.median(p.ref_s for p in plain)
        per_layer.update({
            "repro.import_s": import_s,
            "core.first_compile_s": probes.first_compile_s,
            "arch.first_mapping_s": probes.first_mapping_s,
            "workloads.build_s": build_s,
            # As the clock read it: layer seconds include the kernel
            # calls that interrupted them.
            "trace.wall_s": per_pass(lambda p: p.wall_s),
            "trace.overhead_pct": 100.0 * (e2e["wall_s"] - untraced_ref)
            / untraced_ref,
        })

    payload = {
        "attempted": len(flat),
        "failed": len(failed),
        "failures": [failed[i] for i in sorted(failed)][:20],
        "passes": len(measured),
        "samples": len(latencies),
        "end_to_end": e2e,
        "per_layer": per_layer,
        "digests": {op.op: digest(op.rows) for op in passes[0].ops},
        "setup_samples": getattr(workload, "setup_samples", []),
        "config_reductions": (workload.config_reductions(passes[0].ops)
                              if hasattr(workload, "config_reductions")
                              else {}),
        "environment": {
            "python": platform.python_version(),
            "numpy": _version("numpy"), "scipy": _version("scipy"),
            "start_method": multiprocessing.get_start_method(),
        },
    }
    print(json.dumps(payload), flush=True)
    return 0


def _version(module: str) -> str:
    try:
        return __import__(module).__version__
    except ImportError:
        return "absent"


if __name__ == "__main__":
    sys.exit(main())
