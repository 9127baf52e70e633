"""The reproduction's benchmark: one command, four workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload suite --seed 0 --seconds 25 --trace 0

``--workload`` is one of ``suite``, ``paper-configs``, ``sweep`` and
``serve`` (see README.md).  The workload runs in a fresh worker
process; set-up is timed from spawning that process until it reports
ready, several times, and ``setup_s`` is the median.  The last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``.  The exit code is 0 when every output
check passed, 1 when one failed, and 2 when the benchmark could not
run at all (for instance when the program's sources are missing).

``--record`` re-records the digests of ``expected.json`` for one
workload (seed 0, plus seed 1 to find the ops the seed does not
affect); use it only after a change that is meant to move simulated
results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("suite", "paper-configs", "sweep", "serve")
#: Setup-only worker processes started besides the measured one.
SETUP_PROBES = 2
#: A run must end within this many seconds of wall time.
DEADLINE_S = 170.0

#: The paper's values (percent) printed beside the simulated reductions:
#: Fig 16 for ``suite``, and per configuration of ``paper-configs`` the
#: figure with its execution-time and off-chip network values.
PAPER_SUITE = {"exec_time_reduction_pct": 20.5,
               "offchip_net_reduction_pct": 66.4}
PAPER_CONFIGS = {"shared_l2": ("Fig 22", 24.3, None),
                 "threads_2": ("Fig 24", None, None),
                 "page_mc_aware": ("Fig 14", 17.1, 62.8),
                 "first_touch": ("Fig 23 (ours vs first-touch)", 12.3, None)}


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _child_env() -> Dict[str, str]:
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    # Temporary files of the program (shared-memory janitor, serve
    # stores) stay inside the checkout.
    env["TMPDIR"] = str(tmp)
    return env


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill a worker and everything it started, then reap it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def spawn_worker(args: List[str], deadline: float
                 ) -> Tuple[float, Optional[dict], str]:
    """Run ``worker.py args``; returns (seconds from spawn to READY at
    the reference host speed, the worker's JSON payload or None, error
    text)."""
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=_child_env(), cwd=str(ROOT),
                            start_new_session=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        if not ready.startswith("READY "):
            proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
            return setup_s, None, f"worker failed during set-up ({ready!r})"
        setup_s = calibrate.normalised(setup_s, json.loads(ready[6:]))
        out, _ = proc.communicate(
            timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        return 0.0, None, "worker exceeded the deadline"
    finally:
        if proc.poll() is None:
            _stop_group(proc)
        proc.stdout.close()
    if proc.returncode != 0:
        return setup_s, None, f"worker exited with {proc.returncode}"
    lines = [line for line in out.splitlines() if line.strip()]
    return setup_s, (json.loads(lines[-1]) if lines else None), ""


def provenance(args, payload: dict) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(str(path.relative_to(SRC)).encode())
        src.update(path.read_bytes())
    return dict({"workload": args.workload, "seed": args.seed,
                 "seconds": args.seconds, "trace": args.trace,
                 "git_sha": sha, "src_sha256": src.hexdigest()[:16],
                 "cpu_count": os.cpu_count(),
                 "machine": platform.machine()},
                **payload.get("environment", {}))


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(args, payload: dict, metrics: Dict[str, float],
           declared: List[dict]) -> None:
    """The human-readable table (everything above the JSON line)."""
    print(f"perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace}: {payload['passes']} measured pass(es)")
    units = {m["name"]: m["unit"] for m in declared}
    for name, value in metrics.items():
        note = ""
        if args.workload == "suite" and name in PAPER_SUITE:
            paper = PAPER_SUITE[name]
            note = f"   paper Fig 16: {paper}% (diff {value - paper:+.1f} pp)"
        print(f"  {name:<28} {_fmt(value):>14} {units.get(name, ''):<6}"
              f"{note}")
    attempted, failed = payload["attempted"], payload["failed"]
    print("  not gated (see README):")
    print(f"  {'fail_ratio':<28} {_fmt(failed / attempted):>14} ratio"
          f"   ({failed} of {attempted} ops)")
    if not args.trace:
        e2e = payload["end_to_end"]
        print(f"  {'host_wall_s':<28} {_fmt(e2e['host_wall_s']):>14} s"
              f"      (wall_s before normalising to the reference speed)")
        for name in ("op_p50_ms", "op_p90_ms"):
            print(f"  {name:<28} {_fmt(e2e[name]):>14} "
                  f"ms     ({payload['samples']} op latencies)")
    if not args.trace and payload.get("config_reductions"):
        print("  simulated reductions per configuration (exec / off-chip "
              "net, %):")
        for cname, red in payload["config_reductions"].items():
            fig, exec_ref, net_ref = PAPER_CONFIGS[cname]
            paper = "/".join("-" if v is None else f"{v}"
                             for v in (exec_ref, net_ref))
            print(f"    {cname:<14} {red['exec_time_reduction_pct']:7.2f} "
                  f"/ {red['offchip_net_reduction_pct']:7.2f}   "
                  f"paper {fig}: {paper}")
    for message in payload.get("failures", []):
        print(f"  FAILED {message}")


def record(args) -> int:
    """Re-record expected.json digests for ``args.workload``."""
    deadline = time.perf_counter() + 2 * DEADLINE_S
    digests = []
    for seed in (0, 1):
        _, payload, error = spawn_worker(
            ["--workload", args.workload, "--seed", str(seed),
             "--seconds", "0", "--trace", "0", "--no-expected"], deadline)
        if payload is None or payload["failed"]:
            print(f"record failed: {error or payload['failures']}",
                  file=sys.stderr)
            return 1
        digests.append(payload["digests"])
    path = HERE / "expected.json"
    expected = json.loads(path.read_text()) if path.exists() else {}
    expected[args.workload] = {
        "seed": 0, "ops": digests[0],
        "seed_invariant": sorted(op for op, d in digests[0].items()
                                 if digests[1].get(op) == d)}
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests[0])} op digests for {args.workload}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale-factor", type=float, default=1.0,
                        help="shrink every workload (tests); the "
                        "recorded digests are checked only at 1.0")
    parser.add_argument("--inject-fault", type=int, default=-1,
                        help="corrupt the result of this op of the first "
                        "pass (tests the output check)")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources ({SRC / 'repro'}) are "
              f"missing; run from a full checkout", file=sys.stderr)
        return 2
    if args.record:
        return record(args)
    benchmark = load_benchmark()
    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    deadline = time.perf_counter() + DEADLINE_S

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--scale-factor", repr(args.scale_factor)]
    setup = []
    if args.workload != "serve":
        for _ in range(SETUP_PROBES):
            setup_s, _, error = spawn_worker(common + ["--setup-only"],
                                             deadline)
            if error:
                print(f"perfbench: {error}", file=sys.stderr)
                return 2
            setup.append(setup_s)
    setup_s, payload, error = spawn_worker(
        common + ["--seconds", repr(args.seconds),
                  "--trace", str(args.trace),
                  "--inject-fault", str(args.inject_fault)], deadline)
    if payload is None:
        print(f"perfbench: {error or 'worker printed no result'}",
              file=sys.stderr)
        return 2
    if args.workload == "serve":
        setup = payload["setup_samples"]
    else:
        setup.append(setup_s)

    measured = dict(payload["end_to_end"], setup_s=statistics.median(setup))
    if args.trace:
        measured = payload["per_layer"]
    metrics = {m["name"]: measured[m["name"]] for m in declared}
    record_of_run = provenance(args, payload)
    print("provenance " + json.dumps(record_of_run, sort_keys=True))
    report(args, payload, metrics, declared)
    correct = payload["failed"] == 0
    result = {"correct": correct, "attempted": payload["attempted"],
              "failed": payload["failed"],
              "metrics": {m["name"]: {"value": metrics[m["name"]],
                                      "unit": m["unit"]}
                          for m in declared}}
    OUT.mkdir(exist_ok=True)
    with open(OUT / "ledger.jsonl", "a") as ledger:
        ledger.write(json.dumps({"provenance": record_of_run,
                                 "setup_samples": setup,
                                 "result": result}) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
