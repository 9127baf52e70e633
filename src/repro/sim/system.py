"""The full-system simulator: cores, caches, NoC, directories, MCs.

Models the two organizations of Figure 2:

* **Private L2s** (Figure 2a): an L1 miss probes the local L2 (same
  node, no network).  An L2 miss sends a request over the NoC to the
  directory cached at the MC owning the address (path 1); the directory
  either forwards to a sharing L2 (cache-to-cache transfer -- an
  *on-chip* access) or schedules the off-chip access (path 2) and the
  response returns over the NoC (path 3).

* **Shared SNUCA L2** (Figure 2b): an L1 miss travels to the line's home
  bank (path 1).  A home-bank hit returns data (path 5) -- an *on-chip*
  access.  A miss goes home-bank -> MC (path 2), through the memory
  system (path 3), back to the home bank (path 4) and on to the
  requester (path 5); the off-chip network latency is paths 2 + 4,
  matching the paper's cost decomposition.

Cores are in-order and blocking with one outstanding miss (the simulated
two-issue SPARC hides little memory latency); each thread is an
independent agent with its own clock, so multiple threads per core model
Figure 24's configurations, sharing their node's caches and injecting
into the same network.  A global heap interleaves threads by time, so
contention for links, banks, and the channel is resolved in global
request order.

The *optimal scheme* of Section 2 (Figure 4) is the ``optimal`` flag:
every L2 miss travels to the **nearest** controller and is served at
row-hit latency with no bank contention ("high locality and high
memory-level parallelism").
"""

from __future__ import annotations

import heapq
import math
import threading
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from repro.arch.clustering import L2ToMCMapping
from repro.arch.config import MachineConfig
from repro.cache.cache import SetAssociativeCache
from repro.cache.directory import Directory
from repro.errors import SimulationError
from repro.memsys.address import AddressMap
from repro.memsys.controller import MemoryController
from repro.noc.network import Network
from repro.obs.tracer import obs_span
from repro.sim.metrics import RunMetrics

if TYPE_CHECKING:
    from repro.faults.models import ControllerFaultModel, NetworkFaultModel
    from repro.faults.plan import FaultPlan

# Cycles the directory / home-bank controller spends deciding.
DIRECTORY_LATENCY = 2

#: ``engine="fast"`` runs that fell back to the reference loop in this
#: process, by reason (:data:`repro.sim.fastpath.FALLBACK_REASONS`).
_FALLBACKS: Dict[str, int] = {}
_FALLBACKS_LOCK = threading.Lock()


def engine_fallbacks() -> Dict[str, int]:
    """Process-wide fallback counts by reason (exported by
    :func:`repro.obs.export.process_registry` as
    ``sim.engine.fallback.<reason>``)."""
    with _FALLBACKS_LOCK:
        return dict(_FALLBACKS)


def _note_fallback(reason: str, telemetry) -> None:
    with _FALLBACKS_LOCK:
        _FALLBACKS[reason] = _FALLBACKS.get(reason, 0) + 1
    if telemetry is not None:
        telemetry.counter(f"sim.engine.fallback.{reason}").inc()


class ThreadStream:
    """One thread's precomputed access stream (all plain Python lists --
    the hot loop avoids NumPy scalar overhead).

    ``np_l1``/``np_l2``/``np_gaps`` optionally carry the same data as
    int64 arrays.  :func:`build_streams` has the arrays in hand anyway,
    and the fast engine (:mod:`repro.sim.fastpath`) consumes them
    vectorized; the reference event loop never touches them.
    """

    __slots__ = ("node", "l1_lines", "l2_lines", "gaps", "mcs", "banks",
                 "rows", "homes", "writes", "phases", "length",
                 "np_l1", "np_l2", "np_gaps")

    def __init__(self, node: int, l1_lines: List[int], l2_lines: List[int],
                 gaps: List[int], mcs: List[int], banks: List[int],
                 rows: List[int], homes: Optional[List[int]],
                 writes: Optional[List[bool]] = None,
                 phases: Optional[List[str]] = None,
                 np_l1: Optional[np.ndarray] = None,
                 np_l2: Optional[np.ndarray] = None,
                 np_gaps: Optional[np.ndarray] = None):
        self.node = node
        self.l1_lines = l1_lines
        self.l2_lines = l2_lines
        self.gaps = gaps
        self.mcs = mcs
        self.banks = banks
        self.rows = rows
        self.homes = homes
        self.writes = writes if writes is not None \
            else [False] * len(l1_lines)
        self.phases = phases
        self.length = len(l1_lines)
        self.np_l1 = np_l1
        self.np_l2 = np_l2
        self.np_gaps = np_gaps


def build_streams(config: MachineConfig, thread_nodes: Sequence[int],
                  vtraces: Sequence[np.ndarray],
                  ptraces: Sequence[np.ndarray],
                  gaps: Sequence[np.ndarray],
                  writes: Optional[Sequence[np.ndarray]] = None,
                  segments: Optional[Sequence[tuple]] = None
                  ) -> List[ThreadStream]:
    """Precompute per-access fields for every thread, vectorized.

    ``thread_nodes[t]`` is the mesh node thread ``t`` is pinned to.
    ``writes`` (optional per-thread bool arrays) feed the coherence
    model when ``config.model_writes`` is set.  ``segments`` (optional
    per-thread ``(nest, start, end)`` tuples) label each access with its
    nest when ``config.track_phases`` is set.
    """
    amap = AddressMap(config)
    streams = []
    for tid, (vtrace, ptrace, gap) in enumerate(zip(vtraces, ptraces, gaps)):
        node = thread_nodes[tid]
        v = np.asarray(vtrace, dtype=np.int64)
        p = np.asarray(ptrace, dtype=np.int64)
        homes = None
        if config.shared_l2:
            homes = amap.home_bank_of(v, config.num_cores).tolist()
        wr = None
        if writes is not None and config.model_writes:
            wr = np.asarray(writes[tid], dtype=bool).tolist()
        phases = None
        if segments is not None and config.track_phases:
            phases = [""] * len(v)
            for name, start, end in segments[tid]:
                for idx in range(start, end):
                    phases[idx] = name
        np_l1 = v // config.l1_line
        np_l2 = v // config.l2_line
        np_gaps = np.asarray(gap, dtype=np.int64)
        streams.append(ThreadStream(
            node=node,
            l1_lines=np_l1.tolist(),
            l2_lines=np_l2.tolist(),
            gaps=np_gaps.tolist(),
            mcs=amap.mc_of(p).tolist(),
            banks=amap.bank_of(p).tolist(),
            rows=amap.row_of(p).tolist(),
            homes=homes,
            writes=wr,
            phases=phases,
            np_l1=np_l1,
            np_l2=np_l2,
            np_gaps=np_gaps))
    return streams


class SystemSimulator:
    """Runs a set of thread streams to completion and reports metrics."""

    def __init__(self, config: MachineConfig, mapping: L2ToMCMapping,
                 optimal: bool = False,
                 miss_overlap: Optional[float] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 network_audit=None, telemetry=None):
        self.config = config
        self.mapping = mapping
        self.optimal = optimal
        # Optional repro.obs registry (obs=full): the NoC and the MCs
        # publish into it inline; caches and aggregates flush at the
        # end of run().  None (obs off) keeps every hot path untouched.
        self.telemetry = telemetry
        # Set by run(): the event loop that ran ("fast"/"reference")
        # and, when engine="fast" fell back, why.
        self.engine_used: Optional[str] = None
        self.fallback_reason: Optional[str] = None
        if miss_overlap is None:
            miss_overlap = config.miss_overlap
        self.mesh = mapping.mesh
        # Kept for the fast engine's exact-integer-time eligibility test
        # (fractional degradation factors force the general timing mode).
        self._fault_plan = fault_plan
        net_faults: Optional[NetworkFaultModel] = None
        self._mc_faults: Optional[ControllerFaultModel] = None
        if fault_plan is not None and not fault_plan.empty:
            from repro.faults.models import (ControllerFaultModel,
                                             NetworkFaultModel)
            if fault_plan.link_faults or fault_plan.link_degradations:
                net_faults = NetworkFaultModel(self.mesh, fault_plan)
            if fault_plan.mc_faults or fault_plan.bank_faults:
                self._mc_faults = ControllerFaultModel(
                    fault_plan, len(mapping.mc_nodes),
                    config.banks_per_mc)
        self.network = Network(self.mesh, config, faults=net_faults,
                               audit=network_audit, telemetry=telemetry)
        self.mc_nodes = mapping.mc_nodes
        self.controllers = [MemoryController(config, node, optimal=optimal,
                                             faults=self._mc_faults,
                                             mc_index=j,
                                             telemetry=telemetry)
                            for j, node in enumerate(self.mc_nodes)]
        self._failover_order = self._build_failover_order()
        self.l1 = [SetAssociativeCache(config.l1_size, config.l1_line,
                                       config.l1_ways)
                   for _ in range(config.num_cores)]
        if config.shared_l2:
            self.l2 = [SetAssociativeCache(config.l2_size, config.l2_line,
                                           config.l2_ways)
                       for _ in range(config.num_cores)]
            self.directory = None
        else:
            self.l2 = [SetAssociativeCache(config.l2_size, config.l2_line,
                                           config.l2_ways)
                       for _ in range(config.num_cores)]
            self.directory = Directory()
        # fraction of a non-L1-hit latency actually charged to the core
        self._keep = 1.0 - miss_overlap
        # nearest MC per node, for the optimal scheme
        self._nearest_mc = [
            min(range(len(self.mc_nodes)),
                key=lambda j: (self.mesh.distance(node, self.mc_nodes[j]), j))
            for node in range(config.num_cores)]

    # ------------------------------------------------------------------
    def _build_failover_order(self) -> List[List[int]]:
        """Per controller, the alternates tried when it is offline.

        Clustering-derived: controllers sharing a cluster with the
        failed one come first (they serve the same cores, so the paper's
        locality structure survives), then the rest by mesh distance
        between controller nodes, ties by hardware index.
        """
        mapping = self.mapping
        num = len(self.mc_nodes)
        cluster_mates: List[set] = [set() for _ in range(num)]
        for cluster in mapping.clusters:
            for j in cluster.mc_indices:
                if j < num:
                    cluster_mates[j].update(
                        k for k in cluster.mc_indices if k != j)
        order = []
        for j in range(num):
            others = [k for k in range(num) if k != j]
            others.sort(key=lambda k: (
                k not in cluster_mates[j],
                self.mesh.distance(self.mc_nodes[j], self.mc_nodes[k]),
                k))
            order.append(others)
        return order

    def _route_mc(self, mc: int, t: float, m: RunMetrics) -> int:
        """Graceful degradation: divert a request whose controller is
        offline at ``t`` to the nearest live alternate (counted as a
        failover); with no live alternate the request stalls at its own
        controller until the window ends."""
        faults = self._mc_faults
        if faults is None or not faults.offline(mc, t):
            return mc
        for alt in self._failover_order[mc]:
            if not faults.offline(alt, t):
                m.mc_failovers += 1
                return alt
        if faults.next_online(mc, t) == math.inf:
            raise SimulationError(
                "every memory controller is offline with no recovery "
                "window; the machine cannot make progress")
        m.mc_offline_waits += 1
        return mc

    # ------------------------------------------------------------------
    def run(self, streams: Sequence[ThreadStream],
            transform_overhead: float = 0.0,
            name: str = "", engine: str = "fast") -> RunMetrics:
        """Simulate all threads to completion.

        ``engine`` selects the event loop: ``"fast"`` (default) uses the
        hit-filtered loop of :mod:`repro.sim.fastpath` when the run is
        eligible -- bit-identical metrics, only global events enter the
        heap -- and falls back to the reference loop otherwise;
        ``"reference"`` always runs the original per-access loop.  The
        loop that actually ran is left in :attr:`engine_used`, and the
        reason for a fallback in :attr:`fallback_reason`.
        """
        if engine not in ("fast", "reference"):
            raise ValueError(f"unknown engine {engine!r}; "
                             f"engines: fast, reference")
        m = RunMetrics(name=name)
        m.mc_node_requests = np.zeros(
            (len(self.controllers), self.config.num_cores), dtype=np.int64)

        events_span = obs_span("sim.events", cat="sim",
                               threads=len(streams))
        events_span.__enter__()
        use_fast = False
        self.fallback_reason = None
        if engine == "fast":
            from repro.sim import fastpath
            use_fast = fastpath.eligible(self, streams)
            if not use_fast:
                self.fallback_reason = fastpath.fallback_reason(
                    self, streams)
                _note_fallback(self.fallback_reason, self.telemetry)
        self.engine_used = "fast" if use_fast else "reference"
        if use_fast:
            finish_times = fastpath.run_events(self, streams, m)
        else:
            finish_times = self._run_reference(streams, m)
        events_span.add(accesses=m.total_accesses,
                        engine=self.engine_used)
        if self.fallback_reason is not None:
            events_span.add(fallback=self.fallback_reason)
        events_span.__exit__()

        m.thread_finish = [f * (1.0 + transform_overhead)
                           for f in finish_times]
        m.exec_time = max(finish_times, default=0.0) \
            * (1.0 + transform_overhead)
        m.mc_requests = [c.stats.requests for c in self.controllers]
        m.mc_row_hits = [c.stats.row_hits for c in self.controllers]
        m.mc_queue_wait = [c.stats.queue_wait_total
                           for c in self.controllers]
        m.mc_busy_elapsed = [c.stats.busy_elapsed
                             for c in self.controllers]
        m.net_wait_cycles = self.network.stats.wait_cycles
        m.link_detours = self.network.stats.detoured
        m.detour_extra_hops = self.network.stats.detour_extra_hops
        m.bank_remaps = sum(c.stats.bank_remaps for c in self.controllers)
        if self.telemetry is not None:
            self._publish_telemetry(m)
        return m

    def _run_reference(self, streams: Sequence[ThreadStream],
                       m: RunMetrics) -> List[float]:
        """The original event loop: every access is a heap event."""
        stagger = self.config.thread_stagger
        heap = [(float(tid * stagger), tid)
                for tid, s in enumerate(streams) if s.length]
        heapq.heapify(heap)
        positions = [0] * len(streams)
        finish_times = [0.0] * len(streams)
        step = (self._step_shared if self.config.shared_l2
                else self._step_private)

        while heap:
            t0, tid = heapq.heappop(heap)
            stream = streams[tid]
            i = positions[tid]
            t = step(stream, i, t0, m)
            if stream.phases is not None:
                name = stream.phases[i]
                m.phase_cycles[name] = m.phase_cycles.get(name, 0.0) \
                    + (t - t0)
                m.phase_accesses[name] = \
                    m.phase_accesses.get(name, 0) + 1
            positions[tid] = i + 1
            finish_times[tid] = t
            if i + 1 < stream.length:
                heapq.heappush(heap, (t, tid))
        return finish_times

    def _publish_telemetry(self, m: RunMetrics) -> None:
        """End-of-run flush into the obs=full registry: per-link NoC
        occupancy, per-node cache totals, access-class counters, and
        the graceful-degradation event counts."""
        registry = self.telemetry
        self.network.publish_telemetry()
        for node, (l1, l2) in enumerate(zip(self.l1, self.l2)):
            registry.counter(f"cache.l1.{node}.hits").inc(l1.hits)
            registry.counter(f"cache.l1.{node}.misses").inc(l1.misses)
            registry.counter(f"cache.l2.{node}.hits").inc(l2.hits)
            registry.counter(f"cache.l2.{node}.misses").inc(l2.misses)
        registry.counter("sim.accesses").inc(m.total_accesses)
        registry.counter("sim.l1_hits").inc(m.l1_hits)
        registry.counter("sim.l2_hits").inc(m.l2_hits)
        registry.counter("sim.onchip_remote").inc(m.onchip_remote)
        registry.counter("sim.offchip").inc(m.offchip)
        registry.gauge("sim.exec_time").set(m.exec_time)
        for name, value in (("faults.mc_failovers", m.mc_failovers),
                            ("faults.mc_offline_waits",
                             m.mc_offline_waits),
                            ("faults.link_detours", m.link_detours),
                            ("faults.bank_remaps", m.bank_remaps)):
            if value:
                registry.counter(name).inc(value)

    # ------------------------------------------------------------------
    def _step_private(self, s: ThreadStream, i: int, t: float,
                      m: RunMetrics) -> float:
        cfg = self.config
        m.total_accesses += 1
        t += s.gaps[i]
        node = s.node
        is_write = cfg.model_writes and s.writes[i]
        line2 = s.l2_lines[i]

        if self.l1[node].access(s.l1_lines[i]):
            m.l1_hits += 1
            t += cfg.l1_latency
            if is_write:
                t = self._upgrade_if_shared(line2, node, t, m)
            return t

        t += cfg.l1_latency
        issue = t - cfg.l1_latency
        if self.l2[node].access(line2):
            m.l2_hits += 1
            self._fill_l1(node, s.l1_lines[i])
            finish = t + cfg.l2_latency
            if is_write:
                finish = self._upgrade_if_shared(line2, node, finish, m)
            return issue + self._keep * (finish - issue)
        t += cfg.l2_latency

        # L2 miss: consult the directory at the owning MC (path 1).
        mc = self._nearest_mc[node] if self.optimal else s.mcs[i]
        if self._mc_faults is not None:
            mc = self._route_mc(mc, t, m)
        mc_node = self.mc_nodes[mc]
        t1, h1 = self.network.send(node, mc_node, cfg.control_flits, t,
                                   vnet=0)
        t1 += DIRECTORY_LATENCY

        owner = self.directory.find_sharer(line2, node)
        if owner is not None:
            # On-chip: forward to the sharer, cache-to-cache transfer.
            t2, h2 = self.network.send(mc_node, owner, cfg.control_flits,
                                       t1, vnet=0)
            t2 += cfg.l2_latency
            t3, h3 = self.network.send(owner, node, cfg.data_flits, t2)
            m.onchip_remote += 1
            net = (t1 - DIRECTORY_LATENCY - t) + (t2 - cfg.l2_latency - t1) \
                + (t3 - t2)
            m.onchip_net_sum += net
            m.onchip_hops[h1 + h2 + h3] += 1
            finish = t3
            if is_write:
                finish = self._invalidate_sharers(line2, node, mc_node,
                                                  finish, m)
        else:
            # Off-chip: schedule at the MC (path 2), respond (path 3).
            finish_mc, wait, _ = self.controllers[mc].service(
                s.banks[i], s.rows[i], t1)
            t3, h3 = self.network.send(mc_node, node, cfg.data_flits,
                                       finish_mc)
            m.offchip += 1
            m.offchip_net_sum += (t1 - DIRECTORY_LATENCY - t) \
                + (t3 - finish_mc)
            m.offchip_mem_sum += finish_mc - t1
            m.offchip_queue_sum += wait
            m.offchip_hops[h1 + h3] += 1
            m.mc_node_requests[mc, node] += 1
            finish = t3

        self._fill_l2(node, line2)
        self._fill_l1(node, s.l1_lines[i])
        self.directory.add_sharer(line2, node)
        return issue + self._keep * (finish - issue)

    def _upgrade_if_shared(self, line2: int, node: int, t: float,
                           m: RunMetrics) -> float:
        """Write hit on a possibly-shared line: consult the directory
        and invalidate other sharers before the write proceeds."""
        if self.directory.find_sharer(line2, node) is None:
            return t
        cfg = self.config
        mc = self._nearest_mc[node] if self.optimal \
            else self._dir_mc_of_line(line2)
        mc_node = self.mc_nodes[mc]
        t1, _ = self.network.send(node, mc_node, cfg.control_flits, t,
                                  vnet=0)
        t1 += DIRECTORY_LATENCY
        t1 = self._invalidate_sharers(line2, node, mc_node, t1, m)
        t2, _ = self.network.send(mc_node, node, cfg.control_flits, t1,
                                  vnet=0)
        return t2

    def _dir_mc_of_line(self, line2: int) -> int:
        """Directory home for a line (cache-line interleave of line
        addresses over controllers)."""
        return line2 % len(self.controllers)

    def _invalidate_sharers(self, line2: int, requester: int,
                            mc_node: int, t: float,
                            m: RunMetrics) -> float:
        """Write coherence: the directory invalidates every other
        sharer (parallel control messages + acks); stale L1/L2 copies
        are dropped.  Sharers are invalidated in ascending node order.
        Returns the time the last ack arrives."""
        cfg = self.config
        latest = t
        ratio = cfg.l2_line // cfg.l1_line
        for sharer in sorted(self.directory.sharers_of(line2)):
            if sharer == requester:
                continue
            t_inv, _ = self.network.send(mc_node, sharer,
                                         cfg.control_flits, t, vnet=0)
            t_ack, _ = self.network.send(sharer, mc_node,
                                         cfg.control_flits, t_inv,
                                         vnet=0)
            latest = max(latest, t_ack)
            self.l2[sharer].invalidate(line2)
            for sub in range(ratio):
                self.l1[sharer].invalidate(line2 * ratio + sub)
            self.directory.remove_sharer(line2, sharer)
            m.invalidations += 1
        return latest

    def _fill_l2(self, node: int, line2: int) -> None:
        evicted = self.l2[node].fill(line2)
        if evicted is not None and self.directory is not None:
            self.directory.remove_sharer(evicted, node)

    def _fill_l1(self, node: int, line1: int) -> None:
        self.l1[node].fill(line1)

    # ------------------------------------------------------------------
    def _step_shared(self, s: ThreadStream, i: int, t: float,
                     m: RunMetrics) -> float:
        cfg = self.config
        m.total_accesses += 1
        t += s.gaps[i]
        node = s.node

        if self.l1[node].access(s.l1_lines[i]):
            m.l1_hits += 1
            return t + cfg.l1_latency
        t += cfg.l1_latency

        issue = t - cfg.l1_latency
        home = s.homes[i]
        line2 = s.l2_lines[i]
        # Path 1: L1 -> home bank.
        t1, h1 = self.network.send(node, home, cfg.control_flits, t,
                                   vnet=0)
        t1 += cfg.l2_latency

        if self.l2[home].access(line2):
            # Path 5: home bank -> L1.  An on-chip access.
            t5, h5 = self.network.send(home, node, cfg.data_flits, t1)
            if home == node:
                m.l2_hits += 1
            else:
                m.onchip_remote += 1
                m.onchip_net_sum += (t1 - cfg.l2_latency - t) + (t5 - t1)
                m.onchip_hops[h1 + h5] += 1
            self._fill_l1(node, s.l1_lines[i])
            return issue + self._keep * (t5 - issue)

        # Path 2: home bank -> MC.
        mc = self._nearest_mc[home] if self.optimal else s.mcs[i]
        if self._mc_faults is not None:
            mc = self._route_mc(mc, t1, m)
        mc_node = self.mc_nodes[mc]
        t2, h2 = self.network.send(home, mc_node, cfg.control_flits, t1,
                                   vnet=0)
        t2 += DIRECTORY_LATENCY
        finish_mc, wait, _ = self.controllers[mc].service(
            s.banks[i], s.rows[i], t2)
        # Path 4: MC -> home bank.
        t4, h4 = self.network.send(mc_node, home, cfg.data_flits, finish_mc)
        self.l2[home].fill(line2)
        # Path 5: home bank -> L1.
        t5, h5 = self.network.send(home, node, cfg.data_flits, t4)
        self._fill_l1(node, s.l1_lines[i])

        m.offchip += 1
        # The paper's off-chip network cost is paths 2 and 4.
        m.offchip_net_sum += (t2 - DIRECTORY_LATENCY - t1) + (t4 - finish_mc)
        m.offchip_mem_sum += finish_mc - t2
        m.offchip_queue_sum += wait
        m.offchip_hops[h2 + h4] += 1
        m.mc_node_requests[mc, home] += 1
        return issue + self._keep * (t5 - issue)
