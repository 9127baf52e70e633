"""Per-layer probes: time the program's layers from outside.

Each probe replaces one public function of a layer with a wrapper that
times the call and counts it, then calls the original.  Nothing under
``src/`` changes: the wrappers are installed by assigning module and
class attributes, and removed by assigning the originals back.

Layers probed (the module each function is looked up through is the
one patched, so callers that bound the name at import time are
covered too):

=========================  ==========================================
probe                      function
=========================  ==========================================
``core.compile``           ``repro.sim.memo.compiled``
``program.trace``          ``repro.sim.memo.placed_traces``
``osmodel.translate``      ``repro.sim.run.translate_traces``
``sim.build_streams``      ``repro.sim.run.build_streams``
``sim.events``             ``repro.sim.system.SystemSimulator.run``
``sim.fast``               ``repro.sim.fastpath.eligible`` (result)
``arch.first_mapping``     ``MachineConfig.default_mapping`` (first)
``store.get``              ``repro.store.records.load_result``
``store.put``              ``repro.store.records.store_result``
``serve.sim``              ``repro.serve.jobs.run_simulation``
=========================  ==========================================

Times are host wall-clock seconds per calling thread, so two job
threads of the server each add their own time.  The model statistics
of every ``SystemSimulator.run`` call (simulated, exact) are summed
too, so a traced run can show that a speed-only change left them
alone.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Dict, List, Tuple

#: Float accumulators a probe set keeps (seconds, counts, model sums).
FIELDS = (
    "core.compile_s", "core.compile_calls",
    "program.trace_s", "program.trace_calls",
    "osmodel.translate_s",
    "sim.build_streams_s",
    "sim.events_s", "sim.runs", "sim.fast_runs", "sim.fast_events_s",
    "sim.accesses", "sim.l2_misses", "sim.fast_l2_misses",
    "cache.l1_hits", "cache.l2_hits",
    "noc.offchip_hop_sum", "noc.offchip_msgs", "noc.wait_cycles",
    "memsys.requests", "memsys.row_hits", "memsys.queue_wait",
    "memsys.imbalance_sum", "memsys.imbalance_runs",
    "store.get_s", "store.get_calls", "store.put_s", "store.put_calls",
    "serve.sim_s", "serve.sim_miss_s",
    "serve.sim_miss_calls",
    "memo.hits", "memo.misses",
)


class Probes:
    """A set of layer probes with its own accumulators.

    ``install()`` patches the layers, ``uninstall()`` restores them;
    ``snapshot()`` returns the accumulators (memo counters included),
    and two snapshots subtract with :func:`delta`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._totals: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._saved: List[Tuple[object, str, object]] = []
        self.first_compile_s = 0.0
        self.first_mapping_s = 0.0

    # -- accounting ---------------------------------------------------------

    def _add(self, **amounts: float) -> None:
        with self._lock:
            for name, amount in amounts.items():
                self._totals[name.replace("__", ".")] += amount

    def snapshot(self) -> Dict[str, float]:
        from repro.sim import memo
        with self._lock:
            out = {name: self._totals.get(name, 0.0) for name in FIELDS}
        out["memo.hits"] = float(memo.cache.hits)
        out["memo.misses"] = float(memo.cache.misses)
        return out

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, name: str, wrapper) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def install(self) -> None:
        if self._saved:
            return
        from repro.arch.config import MachineConfig
        from repro.serve import jobs
        from repro.sim import fastpath, memo, run, system
        from repro.store import records

        def timed(field: str, original):
            def wrapper(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    self._add(**{field + "_s":
                                 time.perf_counter() - start,
                                 field + "_calls": 1.0})
            return wrapper

        compiled = memo.compiled

        def compiled_wrapper(spec):
            start = time.perf_counter()
            try:
                return compiled(spec)
            finally:
                elapsed = time.perf_counter() - start
                self._add(core__compile_s=elapsed, core__compile_calls=1.0)
                if spec.optimized and not self.first_compile_s:
                    self.first_compile_s = elapsed

        default_mapping = MachineConfig.default_mapping

        def mapping_wrapper(config):
            start = time.perf_counter()
            try:
                return default_mapping(config)
            finally:
                if not self.first_mapping_s:
                    self.first_mapping_s = time.perf_counter() - start

        load_result = records.load_result

        def load_wrapper(store, spec):
            start = time.perf_counter()
            result = load_result(store, spec)
            self._add(store__get_s=time.perf_counter() - start,
                      store__get_calls=1.0)
            self._local.store_hit = result is not None
            return result

        eligible = fastpath.eligible

        def eligible_wrapper(sim, streams):
            result = eligible(sim, streams)
            self._local.fast = result
            return result

        sim_run = system.SystemSimulator.run

        def run_wrapper(sim, streams, *args, **kwargs):
            self._local.fast = False
            start = time.perf_counter()
            metrics = sim_run(sim, streams, *args, **kwargs)
            elapsed = time.perf_counter() - start
            fast = bool(self._local.fast)
            misses = metrics.onchip_remote + metrics.offchip
            requests = [int(r) for r in metrics.mc_requests]
            mean = sum(requests) / len(requests) if requests else 0.0
            self._add(
                sim__events_s=elapsed, sim__runs=1.0,
                sim__fast_runs=float(fast),
                sim__fast_events_s=elapsed if fast else 0.0,
                sim__accesses=metrics.total_accesses,
                sim__l2_misses=misses,
                sim__fast_l2_misses=misses if fast else 0.0,
                cache__l1_hits=metrics.l1_hits,
                cache__l2_hits=metrics.l2_hits,
                noc__offchip_hop_sum=sum(
                    h * c for h, c in metrics.offchip_hops.items()),
                noc__offchip_msgs=sum(metrics.offchip_hops.values()),
                noc__wait_cycles=metrics.net_wait_cycles,
                memsys__requests=sum(requests),
                memsys__row_hits=sum(metrics.mc_row_hits),
                memsys__queue_wait=sum(metrics.mc_queue_wait),
                memsys__imbalance_sum=(max(requests) / mean
                                       if mean else 0.0),
                memsys__imbalance_runs=1.0 if mean else 0.0)
            return metrics

        serve_run = jobs.run_simulation

        def serve_wrapper(spec):
            self._local.store_hit = False
            start = time.perf_counter()
            result = serve_run(spec)
            elapsed = time.perf_counter() - start
            miss = not self._local.store_hit
            self._add(serve__sim_s=elapsed,
                      serve__sim_miss_s=elapsed if miss else 0.0,
                      serve__sim_miss_calls=float(miss))
            return result

        self._patch(memo, "compiled", compiled_wrapper)
        self._patch(memo, "placed_traces",
                    timed("program.trace", memo.placed_traces))
        self._patch(run, "translate_traces",
                    timed("osmodel.translate", run.translate_traces))
        self._patch(run, "build_streams",
                    timed("sim.build_streams", run.build_streams))
        self._patch(fastpath, "eligible", eligible_wrapper)
        self._patch(system.SystemSimulator, "run", run_wrapper)
        self._patch(MachineConfig, "default_mapping", mapping_wrapper)
        self._patch(records, "load_result", load_wrapper)
        self._patch(records, "store_result",
                    timed("store.put", records.store_result))
        self._patch(jobs, "run_simulation", serve_wrapper)


def delta(after: Dict[str, float],
          before: Dict[str, float]) -> Dict[str, float]:
    return {name: after.get(name, 0.0) - before.get(name, 0.0)
            for name in after}


def per_worker(totals: Dict[str, float], workers: int) -> Dict[str, float]:
    """Divide the seconds measured in ``workers`` concurrent workers
    among them, so a layer's seconds compare with the wall time of the
    section they ran in.  Counts, and the ``serve.*``/``store.*``
    seconds that only feed per-call means, are kept as summed."""
    return {name: value / workers
            if name.endswith("_s")
            and not name.startswith(("serve.", "store.")) else value
            for name, value in totals.items()}


def merge(into: Dict[str, float], part: Dict[str, float],
          weight: float = 1.0) -> None:
    for name, value in part.items():
        into[name] = into.get(name, 0.0) + weight * value


def layer_metrics(totals: Dict[str, float], passes: int) -> Dict[str, float]:
    """Per-pass layer metrics from summed probe accumulators.

    Seconds and counts are per pass; ratios and means are over every
    call the passes made.  A layer the workload never reached reads 0.
    """
    t = totals
    n = max(1, passes)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    accesses = t.get("sim.accesses", 0.0)
    l1_misses = accesses - t.get("cache.l1_hits", 0.0)
    return {
        "core.compile_s": t.get("core.compile_s", 0.0) / n,
        "core.compile_calls": t.get("core.compile_calls", 0.0) / n,
        "sim.memo.hit_ratio": ratio(
            t.get("memo.hits", 0.0),
            t.get("memo.hits", 0.0) + t.get("memo.misses", 0.0)),
        "program.trace_s": t.get("program.trace_s", 0.0) / n,
        "program.trace_calls": t.get("program.trace_calls", 0.0) / n,
        "osmodel.translate_s": t.get("osmodel.translate_s", 0.0) / n,
        "sim.build_streams_s": t.get("sim.build_streams_s", 0.0) / n,
        "sim.events_s": t.get("sim.events_s", 0.0) / n,
        "sim.fast_share": ratio(t.get("sim.fast_runs", 0.0),
                                t.get("sim.runs", 0.0)),
        "sim.us_per_access": 1e6 * ratio(t.get("sim.events_s", 0.0),
                                         accesses),
        "sim.us_per_miss": 1e6 * ratio(t.get("sim.fast_events_s", 0.0),
                                       t.get("sim.fast_l2_misses", 0.0)),
        "sim.accesses": accesses / n,
        "sim.l2_misses": t.get("sim.l2_misses", 0.0) / n,
        "cache.l1_hit_rate": ratio(t.get("cache.l1_hits", 0.0), accesses),
        "cache.l2_hit_rate": ratio(t.get("cache.l2_hits", 0.0), l1_misses),
        "noc.offchip_hops_mean": ratio(t.get("noc.offchip_hop_sum", 0.0),
                                       t.get("noc.offchip_msgs", 0.0)),
        "noc.wait_cycles": t.get("noc.wait_cycles", 0.0) / n,
        "memsys.requests": t.get("memsys.requests", 0.0) / n,
        "memsys.queue_wait_mean": ratio(t.get("memsys.queue_wait", 0.0),
                                        t.get("memsys.requests", 0.0)),
        "memsys.row_hit_rate": ratio(t.get("memsys.row_hits", 0.0),
                                     t.get("memsys.requests", 0.0)),
        "memsys.mc_imbalance": ratio(t.get("memsys.imbalance_sum", 0.0),
                                     t.get("memsys.imbalance_runs", 0.0)),
        "store.get_ms": 1e3 * ratio(t.get("store.get_s", 0.0),
                                    t.get("store.get_calls", 0.0)),
        "store.put_ms": 1e3 * ratio(t.get("store.put_s", 0.0),
                                    t.get("store.put_calls", 0.0)),
        "serve.sim_ms": 1e3 * ratio(t.get("serve.sim_miss_s", 0.0),
                                    t.get("serve.sim_miss_calls", 0.0)),
    }
