"""The benchmark's workloads and the canonical rows their outputs check.

A workload is built once per process (set-up) from ``--seed`` and then
run as *passes*: one pass is the workload's fixed unit of work, and
every pass of one invocation does exactly the same work.  Each pass
returns one :class:`OpResult` per operation -- a compare, a run, a
grid point or a request -- carrying the operation's latency and its
canonical result rows, which ``worker.check`` digests and verifies.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import calibrate
from layers import delta, merge, per_worker

#: Workload -> scale of its programs (see README.md, "Sizing").
SIZES = {"suite": 1.0, "paper-configs": 0.4, "sweep": 1.0, "serve": 0.3}

#: The four machine configurations of ``paper-configs`` as
#: (name, MachineConfig overrides, baseline page policy), with the
#: figure each samples.
PAPER_CONFIGS = (
    ("shared_l2", {"shared_l2": True}, "auto"),                # Fig 22
    ("threads_2", {"threads_per_core": 2}, "auto"),            # Fig 24
    ("page_mc_aware", {"interleaving": "page"}, "auto"),       # Fig 14
    ("first_touch", {"interleaving": "page"}, "first_touch"),  # Fig 23
)
PAPER_CONFIG_APPS = ("swim", "apsi", "fma3d", "hpccg")

#: The 12-point reference grid of ``sweep``.
SWEEP_AXES = {"mapping": ["M1", "M2", "voronoi"], "num_mcs": [4, 8],
              "interleaving": ["page", "cache_line"]}
SWEEP_POINTS = 12
SWEEP_WORKERS = 2

#: RunMetrics fields a canonical row keeps: every simulated count and
#: latency sum a figure is computed from.
ROW_FIELDS = ("exec_time", "total_accesses", "l1_hits", "l2_hits",
              "onchip_remote", "offchip", "onchip_net_sum",
              "offchip_net_sum", "offchip_mem_sum", "offchip_queue_sum",
              "net_wait_cycles", "mc_requests", "mc_row_hits")


def metrics_row(metrics) -> Dict[str, object]:
    """The canonical, JSON-exact row of one run's metrics."""
    row: Dict[str, object] = {}
    for name in ROW_FIELDS:
        value = getattr(metrics, name)
        if isinstance(value, (list, tuple)):
            value = [int(v) for v in value]
        elif name in ("exec_time",) or name.endswith("_sum") \
                or name == "net_wait_cycles":
            value = float(value)
        else:
            value = int(value)
        row[name] = value
    return row


@dataclass
class OpResult:
    """One operation of a pass: its id (stable across passes and
    seeds), host latency, canonical rows and any error."""

    op: str
    latency_s: float
    rows: Dict[str, Dict[str, object]] = field(default_factory=dict)
    error: str = ""


@dataclass
class PassResult:
    """One pass: host wall time of the timed section plus its ops.

    ``kernel_s`` is the part of ``wall_s`` the calibration kernel took
    (see :mod:`calibrate`), and ``ref_s`` the time without it at the
    reference host speed.  ``layers`` holds probe accumulators measured
    in other processes (pool workers, the server), already normalised
    to wall-clock seconds; ``extra`` holds workload-specific per-layer
    values.
    """

    wall_s: float
    kernel_s: float
    ref_s: float
    ops: List[OpResult]
    layers: Dict[str, float] = field(default_factory=dict)
    extra: Dict[str, float] = field(default_factory=dict)


def accesses(ops: List[OpResult]) -> int:
    """Simulated memory accesses the rows of ``ops`` account for; an
    op id repeated within a pass (a served repeat) was simulated once."""
    first = {}
    for op in ops:
        first.setdefault(op.op, op.rows)
    return sum(int(row["total_accesses"]) for rows in first.values()
               for row in rows.values())


def _reduction(before: float, after: float) -> float:
    return (before - after) / before if before > 0 else 0.0


def _offchip_net(row: Dict[str, object]) -> float:
    offchip = int(row["offchip"])
    return float(row["offchip_net_sum"]) / offchip if offchip else 0.0


def reductions(pairs: List[Tuple[dict, dict]]) -> Dict[str, float]:
    """Mean simulated execution-time and off-chip network-latency
    reductions (percent) over baseline/optimized row pairs."""
    if not pairs:
        return {"exec_time_reduction_pct": 0.0,
                "offchip_net_reduction_pct": 0.0}
    exec_red = [_reduction(float(b["exec_time"]), float(o["exec_time"]))
                for b, o in pairs]
    net_red = [_reduction(_offchip_net(b), _offchip_net(o))
               for b, o in pairs]
    return {"exec_time_reduction_pct": 100.0 * sum(exec_red) / len(pairs),
            "offchip_net_reduction_pct": 100.0 * sum(net_red) / len(pairs)}


class Workload:
    """Base class: ``build`` is set-up, ``run_pass`` one timed pass."""

    name = ""

    def __init__(self, seed: int, scale_factor: float = 1.0):
        self.seed = seed
        self.scale = SIZES[self.name] * scale_factor
        self.rng = random.Random(seed)

    def build(self) -> None:
        raise NotImplementedError

    #: The worker's :class:`layers.Probes`; workloads that simulate in
    #: other processes use it to measure there.
    probes = None

    def run_pass(self, traced: bool = False) -> PassResult:
        raise NotImplementedError

    def pairs(self, ops: List[OpResult]) -> List[Tuple[dict, dict]]:
        return [(op.rows["base"], op.rows["opt"]) for op in ops
                if "base" in op.rows and "opt" in op.rows]

    def close(self) -> None:
        pass


def _timed_ops(calls: List[Tuple[str, Callable[[], Dict[str, dict]]]]
               ) -> PassResult:
    """Run ``(op id, call)`` pairs serially as a closed loop with one
    caller, sampling the host speed throughout; an op that raises is
    recorded, not propagated.  Times exclude the calibration kernel."""
    ops: List[OpResult] = []
    with calibrate.Sampler() as sampler:
        start = time.perf_counter()
        for op_id, call in calls:
            t0, kernel_s = time.perf_counter(), sampler.kernel_s
            try:
                rows = call()
                error = ""
            except Exception as err:  # noqa: BLE001 -- counted as failed
                rows, error = {}, f"{type(err).__name__}: {err}"
            latency = time.perf_counter() - t0 - (sampler.kernel_s
                                                  - kernel_s)
            ops.append(OpResult(op_id, latency, rows, error))
        wall = time.perf_counter() - start
    return PassResult(wall_s=wall, kernel_s=sampler.kernel_s,
                      ref_s=calibrate.normalised(wall, sampler.record()),
                      ops=ops)


class Suite(Workload):
    """All 13 applications, baseline and optimized, on the default
    private-L2 cache-line-interleaved machine; the seed fixes the
    application order."""

    name = "suite"

    def build(self) -> None:
        from repro.workloads import SUITE_ORDER, build_workload
        self.apps = list(SUITE_ORDER)
        self.rng.shuffle(self.apps)
        self.programs = {app: build_workload(app, self.scale)
                         for app in self.apps}

    def run_pass(self, traced: bool = False) -> PassResult:
        import repro

        def compare(app):
            comparison = repro.compare(self.programs[app])
            return {"base": metrics_row(comparison.base),
                    "opt": metrics_row(comparison.opt)}

        return _timed_ops([(app, lambda app=app: compare(app))
                           for app in self.apps])


class PaperConfigs(Workload):
    """swim, apsi, fma3d and hpccg, baseline and optimized, under the
    four configurations of :data:`PAPER_CONFIGS`; the seed is the
    ``RunSpec.seed`` of the first-touch runs (their page-race
    tie-breaks)."""

    name = "paper-configs"

    def build(self) -> None:
        from repro import MachineConfig
        from repro.workloads import build_workload
        self.programs = {app: build_workload(app, self.scale)
                         for app in PAPER_CONFIG_APPS}
        base = MachineConfig.scaled_default().with_(
            interleaving="cache_line")
        self.calls = []
        for app in PAPER_CONFIG_APPS:
            for cname, overrides, policy in PAPER_CONFIGS:
                config = base.with_(**overrides)
                for optimized in (False, True):
                    first_touch = policy == "first_touch" and not optimized
                    spec = {"config": config, "optimized": optimized,
                            "page_policy": policy if not optimized
                            else "auto",
                            "seed": self.seed if first_touch else 0}
                    side = "opt" if optimized else "base"
                    self.calls.append((f"{app}/{cname}/{side}", app, spec))

    def run_pass(self, traced: bool = False) -> PassResult:
        import repro

        def run(app, spec):
            result = repro.run(program=self.programs[app], **spec)
            return {"run": metrics_row(result.metrics)}

        return _timed_ops([(op, lambda a=app, s=spec: run(a, s))
                           for op, app, spec in self.calls])

    def pairs(self, ops: List[OpResult]) -> List[Tuple[dict, dict]]:
        by_id = {op.op: op.rows.get("run") for op in ops}
        out = []
        for op_id, row in by_id.items():
            if op_id.endswith("/base"):
                opt = by_id.get(op_id[:-len("base")] + "opt")
                if row is not None and opt is not None:
                    out.append((row, opt))
        return out

    def config_reductions(self, ops: List[OpResult]
                          ) -> Dict[str, Dict[str, float]]:
        """Mean reductions per configuration (for the paper table)."""
        by_id = {op.op: op.rows.get("run") for op in ops}
        out = {}
        for cname, _, _ in PAPER_CONFIGS:
            pairs = [(by_id.get(f"{app}/{cname}/base"),
                      by_id.get(f"{app}/{cname}/opt"))
                     for app in PAPER_CONFIG_APPS]
            out[cname] = reductions([p for p in pairs
                                     if p[0] is not None
                                     and p[1] is not None])
        return out


class GridSweep(Workload):
    """The 12-point reference grid on swim through ``repro.sweep``
    with two pool workers; the seed is every point's ``RunSpec.seed``.
    The compile/trace memo is cleared before each pass."""

    name = "sweep"

    def build(self) -> None:
        from repro.sim import executor
        from repro.workloads import build_workload
        self.program = build_workload("swim", self.scale)
        self.executor = executor
        # Installed before any pool forks, and resolved by the pool
        # through the module global, so every worker inherits it.
        self._run_point = executor.run_point
        self._probes = None
        self._parent = os.getpid()
        executor.run_point = self._timed_run_point

    def _timed_run_point(self, task):
        probes = self._probes
        before = probes.snapshot() if probes is not None else None
        with calibrate.Sampler() as sampler:
            start = time.perf_counter()
            outcome = self._run_point(task)
            busy = time.perf_counter() - start - sampler.kernel_s
        outcome.perfbench = {
            "busy_s": busy,
            "sampler": sampler.record(),
            # The serial fallback runs points in this process, whose
            # own probes already count them.
            "remote": os.getpid() != self._parent,
            "layers": (delta(probes.snapshot(), before)
                       if probes is not None else {})}
        return outcome

    def close(self) -> None:
        self.executor.run_point = self._run_point

    def run_pass(self, traced: bool = False) -> PassResult:
        import repro
        from repro.sim import shm
        self._probes = self.probes if traced else None
        self.executor.reset_steal_stats()
        shm.reset_shm_stats()
        outcomes = []
        start = time.perf_counter()
        error = ""
        try:
            repro.sweep(self.program, workers=SWEEP_WORKERS,
                        seed=self.seed, progress=outcomes.append,
                        **SWEEP_AXES)
        except Exception as err:  # noqa: BLE001 -- counted as failed
            error = f"{type(err).__name__}: {err}"
        wall = time.perf_counter() - start
        steal, plane = self.executor.steal_stats(), shm.shm_stats()
        ops, remote, busy, samplers = [], {}, 0.0, []
        for outcome in outcomes:
            info = getattr(outcome, "perfbench", {})
            busy += info.get("busy_s", 0.0)
            if "sampler" in info:
                samplers.append(info["sampler"])
            op_id = ",".join(f"{k}={v}" for k, v in
                             sorted(outcome.settings.items()))
            rows = {}
            if outcome.comparison is not None:
                rows = {"base": metrics_row(outcome.comparison.base),
                        "opt": metrics_row(outcome.comparison.opt)}
            ops.append(OpResult(op_id, info.get("busy_s", 0.0), rows,
                                outcome.error or ""))
            if info.get("remote"):
                merge(remote, info.get("layers", {}))
        if error or len(ops) != SWEEP_POINTS:
            ops.append(OpResult("sweep", wall, {}, error or
                                f"{len(ops)} of {SWEEP_POINTS} points"))
        # The workers sampled side by side, each slowed by its kernel.
        sampled = calibrate.combined(samplers)
        if not sampled["samples"]:
            with calibrate.Sampler() as sampler:
                pass
            sampled = sampler.record()
        kernel_s = sampled["kernel_s"] / SWEEP_WORKERS
        return PassResult(
            wall_s=wall, kernel_s=kernel_s,
            ref_s=calibrate.normalised(wall, sampled, SWEEP_WORKERS),
            ops=ops, layers=per_worker(remote, SWEEP_WORKERS),
            extra={"sim.executor.busy_ratio":
                   busy / (SWEEP_WORKERS * (wall - kernel_s))
                   if wall > kernel_s else 0.0,
                   "sim.executor.batches": float(steal["batches"]),
                   "sim.executor.steal_requeued": float(steal["requeued"]),
                   "sim.shm.published_bytes": float(plane["bytes"]),
                   "sim.shm.attached": float(plane["attached"])})


def make(name: str, seed: int, scale_factor: float = 1.0) -> Workload:
    if name == "serve":
        from serveload import Serve
        return Serve(seed, scale_factor)
    classes = {cls.name: cls for cls in (Suite, PaperConfigs, GridSweep)}
    return classes[name](seed, scale_factor)
