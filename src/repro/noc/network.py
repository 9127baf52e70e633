"""Event-approximate wormhole NoC with per-link contention.

Messages traverse XY routes hop by hop.  Each directed link is a
busy-until resource: a message arriving at a busy link waits, then holds
the link for its serialization time (``flits`` cycles -- one flit per
link-width chunk per cycle) while its header moves on after
``hop_latency`` cycles (Table 1: 2-cycle router pipeline + link, modeled
as the combined per-hop latency).  End-to-end latency of an
uncontended message is therefore ``hops * hop_latency + flits`` -- the
standard wormhole approximation -- and contention adds waiting at each
link.

This captures exactly the effects the paper leans on: off-chip requests
that travel farther hold more links for longer, which both slows them
down and delays unrelated on-chip traffic sharing those links.

When a :class:`~repro.faults.models.NetworkFaultModel` is attached,
messages route around dead links on turn-model (west-first) detours
instead of crashing or deadlocking, and degraded links serialize flits
more slowly; the extra hops and waits show up in the stats, so the
metrics expose exactly how much a damaged fabric costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.arch.config import MachineConfig
from repro.arch.topology import Mesh
from repro.faults.models import NetworkFaultModel


@dataclass
class NetworkStats:
    """Aggregate traffic statistics."""

    messages: int = 0
    total_hops: int = 0
    flit_hops: int = 0
    wait_cycles: float = 0.0
    detoured: int = 0          # messages rerouted around dead links
    detour_extra_hops: int = 0  # hops beyond the Manhattan distance

    @property
    def avg_hops(self) -> float:
        return self.total_hops / self.messages if self.messages else 0.0


class Network:
    """The mesh interconnect with busy-until links.

    Two virtual networks (request/control and response/data) share the
    physical topology but arbitrate separately, as real protocols require
    for deadlock freedom -- this also prevents single-flit control
    messages from waiting head-of-line behind multi-flit data bursts.
    """

    NUM_VNETS = 2
    VNET_CONTROL = 0
    VNET_DATA = 1

    def __init__(self, mesh: Mesh, config: MachineConfig,
                 faults: Optional[NetworkFaultModel] = None,
                 audit=None, telemetry=None):
        self.mesh = mesh
        self.config = config
        self.faults = faults
        # Optional repro.validate.NetworkAudit: strict validation attaches
        # one so route-shape and link-monotonicity invariants are checked
        # inline, where the per-message evidence still exists.
        self.audit = audit
        self.link_free: List[List[float]] = [
            [0.0] * mesh.num_links for _ in range(self.NUM_VNETS)]
        self._routes: Dict[Tuple[int, int], List[int]] = {}
        self.stats = NetworkStats()
        # Optional repro.obs telemetry (obs=full): per-link flit
        # occupancy totals plus a time-resolved traffic series.  The
        # per-link vector stays a plain list on the hot path and is
        # published into the registry by publish_telemetry().
        self._telemetry = telemetry
        self._link_flits: Optional[List[float]] = None
        self._ts_traffic = None
        if telemetry is not None:
            self._link_flits = [0.0] * mesh.num_links
            self._ts_traffic = telemetry.series("noc.flit_hops")

    def route(self, src: int, dst: int, now: float = 0.0) -> List[int]:
        """The link sequence a message takes from ``src`` to ``dst``.

        Fault-free routes are deterministic XY paths, so they are
        computed once per ``(src, dst)`` pair and memoized in
        :attr:`_routes` for the lifetime of the network; a simulation
        re-sends along the same few hundred pairs tens of thousands of
        times.  With a fault model attached routes are time-dependent
        (detours around dead links) and are never cached.
        """
        if self.faults is not None:
            links, extra = self.faults.route(src, dst, now)
            if extra:
                self.stats.detoured += 1
                self.stats.detour_extra_hops += extra
            return links
        key = (src, dst)
        cached = self._routes.get(key)
        if cached is None:
            cached = self.mesh.route(src, dst)
            self._routes[key] = cached
        return cached

    def send(self, src: int, dst: int, flits: int, depart: float,
             vnet: int = VNET_DATA) -> Tuple[float, int]:
        """Deliver a message; returns ``(arrival_time, hops)``.

        A local delivery (``src == dst``) takes no network time.
        """
        stats = self.stats
        stats.messages += 1
        if src == dst:
            return depart, 0
        t = depart
        hop_latency = self.config.hop_latency
        link_free = self.link_free[vnet]
        links = self.route(src, dst, depart)
        audit = self.audit
        if audit is not None:
            audit.check_message(src, dst, links)
        faults = self.faults
        degraded = faults is not None and faults.degrades
        for link in links:
            free_at = link_free[link]
            if free_at > t:
                stats.wait_cycles += free_at - t
                t = free_at
            hold = flits
            if degraded:
                hold = flits * faults.degradation(link, t)
            if audit is not None and t + hold < free_at:
                audit.link_regression(link, free_at, t + hold)
            link_free[link] = t + hold
            t += hop_latency
        # Critical-word-first: the receiver proceeds as soon as the
        # needed flits arrive; the tail only consumes link bandwidth.
        t += min(flits, self.config.critical_word_flits)
        hops = len(links)
        stats.total_hops += hops
        stats.flit_hops += hops * flits
        link_flits = self._link_flits
        if link_flits is not None:
            for link in links:
                link_flits[link] += flits
            self._ts_traffic.record(depart, hops * flits)
        return t, hops

    def link_occupancy(self, vnet: Optional[int] = None) -> "np.ndarray":
        """Busy-until times per directed link as a float64 array.

        ``vnet`` selects one virtual network; ``None`` returns a
        ``(NUM_VNETS, num_links)`` matrix.  This is an *export* helper
        for analyses and plots: internally :attr:`link_free` stays
        nested Python lists because the send loop touches one scalar
        slot per hop, and CPython list indexing beats NumPy scalar
        indexing 2-3x at that granularity (measured; see
        docs/performance.md).  The returned array is a copy -- mutating
        it does not perturb the simulation.
        """
        import numpy as np
        if vnet is not None:
            return np.asarray(self.link_free[vnet], dtype=np.float64)
        return np.asarray(self.link_free, dtype=np.float64)

    def link_flit_totals(self) -> "np.ndarray":
        """Per-link flit totals as a float64 array (zeros when telemetry
        is off and the per-link accumulator was never allocated)."""
        import numpy as np
        if self._link_flits is None:
            return np.zeros(self.mesh.num_links, dtype=np.float64)
        return np.asarray(self._link_flits, dtype=np.float64)

    def publish_telemetry(self) -> None:
        """Flush accumulated per-link occupancy and aggregate traffic
        stats into the attached registry (no-op without one)."""
        registry = self._telemetry
        if registry is None:
            return
        for link, flits in enumerate(self._link_flits):
            if flits:
                registry.counter(f"noc.link.{link}.flits").inc(flits)
        registry.counter("noc.messages").inc(self.stats.messages)
        registry.counter("noc.total_hops").inc(self.stats.total_hops)
        registry.counter("noc.wait_cycles").inc(self.stats.wait_cycles)
        registry.counter("noc.detours").inc(self.stats.detoured)

    def latency_estimate(self, src: int, dst: int, flits: int) -> float:
        """Zero-load latency (no contention), for analyses and tests."""
        hops = self.mesh.distance(src, dst)
        if hops == 0:
            return 0.0
        return hops * self.config.hop_latency \
            + min(flits, self.config.critical_word_flits)
