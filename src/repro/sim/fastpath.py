"""The hit-filtered fast event loop: bit-identical, miss-only heap.

The reference loop in :mod:`repro.sim.system` pushes *every* access of
every thread through the global heap, although L1 and L2 hits touch no
global state at all: with private L2s, one thread per node, no write
invalidations and no phase tracking, a hit's outcome (LRU movement,
counters, latency) depends only on the thread's own earlier accesses.
This module exploits that:

1. **Replay** each thread's stream once against its real L1/L2 cache
   objects (same LRU lists, same counters), classifying every access as
   L1 hit / L2 hit / L2 miss and recording, per miss, the L2 line and
   the line the fill evicted.
2. **Aggregate** the time each thread spends in the hits *between*
   consecutive misses.  When every latency in play is integer-valued
   (the common case -- ``effective_overlap == 0`` and no fractional
   fault factors), simulated times are integer-valued doubles, IEEE-754
   addition over them is exact and associative, and the per-access
   advance chain collapses into an int64 prefix sum that is
   bit-identical to the reference's sequential adds.  Otherwise a
   general mode replays the reference's exact per-access floating-point
   operation chain in a tight loop -- still far cheaper than a heap
   event per access.
3. **Simulate only the misses** on the global heap.  The miss
   subsequence pops in the same ``(time, tid)`` order as in the
   reference loop (events execute in global time order and hits of
   other threads mutate nothing shared), so links, banks, the directory
   and every float accumulator evolve through the identical sequence of
   operations -- the resulting :class:`~repro.sim.metrics.RunMetrics`
   is equal bit for bit, which ``tests/test_fastpath_equivalence.py``
   asserts across mappings, interleavings, fault plans, and validation/
   observability levels.

One L2 miss is one pass through a single loop body with no helper
calls in the common case.  Three layers are inlined at their sites,
each over the owning object's own state:

* the four NoC sends (a flat ``src * n + dst`` route table plus the
  :class:`~repro.noc.network.Network`'s busy-until links), unless a
  fault model, audit or telemetry is attached;
* the plain memory-controller service (busy-until bank and channel,
  the FR-FCFS row window), unless the run has controller faults, the
  optimal scheme or telemetry;
* the directory lookup and sharer updates, on the
  :class:`~repro.cache.directory.Directory`'s line -> sharer-bitmask
  dict (always).

Flags computed once per run choose, at each site, between the inlined
code and the regular ``Network.send`` / ``MemoryController.service`` /
``SystemSimulator._route_mc`` calls, so detours, failovers, audits,
telemetry and the optimal scheme stay bit-identical too.  Counters and
per-controller float sums accumulate in locals and are written back
once at the end; each float sum still sees its operands in the
reference loop's order.
"""

from __future__ import annotations

import heapq
import math
from operator import itemgetter
from typing import List, Optional, Sequence

import numpy as np

from repro.cache.cache import set_indices as _set_indices_bulk
from repro.obs.tracer import obs_span
from repro.sim.metrics import RunMetrics


def eligible(sim, streams: Sequence) -> bool:
    """Whether the fast loop is exact for this simulator + streams.

    The per-thread replay requires that hits are thread-local: private
    L2s (a shared L2 routes L1 misses over the NoC), no write
    invalidations (a remote write could invalidate lines mid-stream),
    no per-access phase accounting (charged per heap event in the
    reference loop), and at most one active thread per node (two
    threads sharing caches interleave in global time order).  Anything
    else -- fault plans, the optimal scheme, audits, telemetry, either
    interleaving -- is supported exactly.
    """
    config = sim.config
    if config.shared_l2 or config.model_writes:
        return False
    if sim.directory is None:
        return False
    nodes = [s.node for s in streams if s.length]
    if len(nodes) != len(set(nodes)):
        return False
    if any(s.phases is not None for s in streams):
        return False
    return True


def _integer_times(sim) -> bool:
    """Whether every simulated timestamp stays an integer-valued double,
    making float addition exact and the hit-advance chain collapsible
    into an int64 prefix sum (see the module docstring)."""
    config = sim.config
    if sim._keep != 1.0:
        return False
    latencies = (config.l1_latency, config.l2_latency,
                 config.hop_latency, config.thread_stagger,
                 config.row_hit_cycles, config.row_miss_cycles,
                 config.channel_cycles)
    if any(not float(x).is_integer() for x in latencies):
        return False
    plan = sim._fault_plan
    if plan is not None and not plan.empty:
        for deg in plan.link_degradations:
            if not float(deg.factor).is_integer():
                return False
        for fault in plan.mc_faults:
            if fault.kind == "slow" \
                    and not float(fault.factor).is_integer():
                return False
            for edge in (fault.start, fault.end):
                if not (math.isinf(edge) or float(edge).is_integer()):
                    return False
    return True


def _set_indices(lines: List[int], arr: Optional[np.ndarray],
                 num_sets: int) -> List[int]:
    """Hashed set index per line address, in bulk (the shared helper
    next to the scalar hash in :mod:`repro.cache.cache`)."""
    return _set_indices_bulk(lines, num_sets, arr=arr)




class _ThreadRecord:
    """One thread's replayed miss schedule.

    After :func:`_replay_thread`, ``pos``/``line2s``/``evicted`` hold
    each miss's stream index, L2 line and evicted line;
    :func:`_gather_misses` then copies the miss's ``gaps``/``mcs``/
    ``banks``/``rows`` out of the stream, so the miss loop indexes
    everything by the miss ordinal ``k``.
    """

    __slots__ = ("stream", "node", "bit", "pos", "line2s", "evicted",
                 "nmiss", "deltas", "tail", "cls", "gaps", "mcs", "banks",
                 "rows")

    def __init__(self, stream):
        self.stream = stream
        self.node = stream.node
        self.bit = 1 << stream.node  # the node's directory mask bit
        self.pos: List[int] = []
        self.line2s: List[int] = []
        self.evicted: List[Optional[int]] = []
        self.nmiss = 0
        self.deltas: Optional[List[int]] = None  # exact mode only
        self.tail = 0
        self.cls: Optional[bytearray] = None     # general mode only
        self.gaps: Sequence[int] = ()
        self.mcs: Sequence[int] = ()
        self.banks: Sequence[int] = ()
        self.rows: Sequence[int] = ()


def _replay_thread(sim, stream, m: RunMetrics) -> _ThreadRecord:
    """Classify one thread's accesses against its real caches.

    Runs the same LRU list operations ``SetAssociativeCache`` performs
    (inlined -- this loop visits every access), so final cache state and
    hit/miss counters match the reference exactly.  Directory updates
    are deliberately *not* applied here: they read/write global state
    and are replayed in heap order by :func:`run_events`.
    """
    rec = _ThreadRecord(stream)
    node = stream.node
    l1 = sim.l1[node]
    l2 = sim.l2[node]
    l1_lines = stream.l1_lines
    l2_lines = stream.l2_lines
    n = stream.length
    idx1 = _set_indices(l1_lines, stream.np_l1, l1.num_sets)
    idx2 = _set_indices(l2_lines, stream.np_l2, l2.num_sets)
    sets1, ways1 = l1.sets, l1.ways
    sets2, ways2 = l2.sets, l2.ways
    cls = bytearray(n)
    pos_append = rec.pos.append
    line_append = rec.line2s.append
    evict_append = rec.evicted.append
    h1 = h2 = 0
    for i in range(n):
        a1 = l1_lines[i]
        w1 = sets1[idx1[i]]
        if a1 in w1:
            if w1[0] != a1:
                w1.remove(a1)
                w1.insert(0, a1)
            h1 += 1
            continue
        a2 = l2_lines[i]
        w2 = sets2[idx2[i]]
        if a2 in w2:
            if w2[0] != a2:
                w2.remove(a2)
                w2.insert(0, a2)
            h2 += 1
            cls[i] = 1
        else:
            cls[i] = 2
            pos_append(i)
            line_append(a2)
            w2.insert(0, a2)
            evict_append(w2.pop() if len(w2) > ways2 else None)
        w1.insert(0, a1)
        if len(w1) > ways1:
            w1.pop()
    l1.hits += h1
    l1.misses += n - h1
    l2.hits += h2
    l2.misses += len(rec.pos)
    m.total_accesses += n
    m.l1_hits += h1
    m.l2_hits += h2
    rec.nmiss = len(rec.pos)
    rec.cls = cls
    return rec


def _gather_misses(rec: _ThreadRecord, mc_of_miss: Optional[int]) -> None:
    """Copy each miss's per-access fields out of the stream, in miss
    order (``mc_of_miss`` overrides every miss's controller: the
    optimal scheme's nearest MC)."""
    stream = rec.stream
    pos = rec.pos
    if rec.nmiss == 1:
        i = pos[0]
        rec.gaps = (stream.gaps[i],)
        rec.mcs = (stream.mcs[i],)
        rec.banks = (stream.banks[i],)
        rec.rows = (stream.rows[i],)
    else:
        pick = itemgetter(*pos)
        rec.gaps = pick(stream.gaps)
        rec.mcs = pick(stream.mcs)
        rec.banks = pick(stream.banks)
        rec.rows = pick(stream.rows)
    if mc_of_miss is not None:
        rec.mcs = (mc_of_miss,) * rec.nmiss


def _advance(t: float, gaps: List[int], cls: bytearray, lo: int, hi: int,
             l1_latency, l2_latency, keep: float) -> float:
    """General-mode timing: replicate the reference loop's per-access
    floating-point operation chain over hit accesses ``[lo, hi)``."""
    for i in range(lo, hi):
        ta = t + gaps[i]
        if cls[i] == 0:
            t = ta + l1_latency
        else:
            tb = ta + l1_latency
            issue = tb - l1_latency
            finish = tb + l2_latency
            t = issue + keep * (finish - issue)
    return t


def _replay_all(sim, streams: Sequence, m: RunMetrics, exact: bool,
                finish_times: List[float]):
    """Replay every thread and schedule its first miss.

    Returns ``(recs, heap)``: per-thread records (``None`` for empty
    streams) and the initial ``(time, tid, k)`` heap.  Threads with no
    miss get their finish time written into ``finish_times`` directly.
    """
    config = sim.config
    l1_latency = config.l1_latency
    l2_latency = config.l2_latency
    keep = sim._keep
    stagger = config.thread_stagger
    nearest = sim._nearest_mc if sim.optimal else None
    recs: List[Optional[_ThreadRecord]] = [None] * len(streams)
    heap = []
    for tid, stream in enumerate(streams):
        if not stream.length:
            continue
        rec = _replay_thread(sim, stream, m)
        recs[tid] = rec
        t0 = float(tid * stagger)
        cls = rec.cls
        n = stream.length
        if rec.nmiss:
            _gather_misses(rec, None if nearest is None
                           else nearest[stream.node])
        if exact:
            gaps_arr = stream.np_gaps
            if gaps_arr is None:
                gaps_arr = np.asarray(stream.gaps, dtype=np.int64)
            c = np.frombuffer(cls, dtype=np.uint8)
            adv = gaps_arr + l1_latency + (c == 1) * l2_latency
            adv[c == 2] = 0
            cum = np.cumsum(adv)
            if rec.nmiss:
                marks = cum[rec.pos]
                rec.deltas = np.diff(marks).tolist()
                rec.tail = int(cum[-1] - marks[-1])
                heap.append((t0 + int(marks[0]), tid, 0))
            else:
                finish_times[tid] = t0 + int(cum[-1])
            # timing fully folded into deltas; the stream indices are
            # only needed by the general mode's _advance
            rec.cls = None
            rec.pos = None
        else:
            gaps = stream.gaps
            if rec.nmiss:
                heap.append((_advance(t0, gaps, cls, 0, rec.pos[0],
                                      l1_latency, l2_latency, keep),
                             tid, 0))
            else:
                finish_times[tid] = _advance(t0, gaps, cls, 0, n,
                                             l1_latency, l2_latency, keep)
    heapq.heapify(heap)
    return recs, heap


def run_events(sim, streams: Sequence, m: RunMetrics) -> List[float]:
    """Replay all threads, then simulate only the misses on the heap.

    Mutates the simulator's caches, directory, network and controllers
    exactly as the reference loop would; returns per-thread finish
    times.  Callers must have checked :func:`eligible` first.
    """
    exact = _integer_times(sim)
    finish_times = [0.0] * len(streams)
    with obs_span("sim.replay", cat="sim", threads=len(streams)):
        recs, heap = _replay_all(sim, streams, m, exact, finish_times)
    if heap:
        with obs_span("sim.misses", cat="sim") as span:
            span.add(misses=_miss_loop(sim, recs, heap, m, finish_times))
    return finish_times


def _miss_loop(sim, recs: List[Optional[_ThreadRecord]], heap: list,
               m: RunMetrics, finish_times: List[float]) -> int:
    """Simulate the miss-only heap to completion; returns the number
    of misses processed.

    The loop body is the reference ``_step_private`` from the L2-miss
    branch on, operation for operation (the accumulator op order
    matters for float bit-identity), with the sends, the plain MC
    service and the directory inlined (see the module docstring).
    """
    config = sim.config
    l1_latency = config.l1_latency
    l2_latency = config.l2_latency
    keep = sim._keep
    control_flits = config.control_flits
    data_flits = config.data_flits
    # Imported here (not at module top) to avoid a circular import:
    # repro.sim.system pulls this module in lazily from run().
    from repro.sim.system import DIRECTORY_LATENCY

    mc_nodes = sim.mc_nodes
    mc_faults = sim._mc_faults
    route_mc = sim._route_mc
    controllers = sim.controllers
    num_mcs = len(controllers)
    num_nodes = config.num_cores
    sharers = sim.directory._sharers
    sharers_get = sharers.get

    # -- network: inlined sends, or Network.send ----------------------
    net = sim.network
    net_stats = net.stats
    inline_net = (net.faults is None and net.audit is None
                  and net._telemetry is None)
    net_send = net.send
    routes = net._routes
    mesh_route = net.mesh.route
    flat_routes: List[Optional[List[int]]] = [None] * (num_nodes
                                                       * num_nodes)

    def route(src, dst):
        # First use of a (src, dst) pair this run: fill the network's
        # route memo as Network.route would, and the flat table.
        links = routes.get((src, dst))
        if links is None:
            links = routes[(src, dst)] = mesh_route(src, dst)
        flat_routes[src * num_nodes + dst] = links
        return links

    lf_control = net.link_free[net.VNET_CONTROL]
    lf_data = net.link_free[net.VNET_DATA]
    hop_latency = config.hop_latency
    tail_control = min(control_flits, config.critical_word_flits)
    tail_data = min(data_flits, config.critical_word_flits)
    wait_cycles = net_stats.wait_cycles
    control_hops = data_hops = 0

    # -- controllers: inlined plain service, or MemoryController.service
    inline_mc = (mc_faults is None and not sim.optimal
                 and all(c._ts_wait is None for c in controllers))
    bank_busy = [c.bank_busy for c in controllers]
    recent_rows = [c._recent_rows for c in controllers]
    recent_times = [c._recent_times for c in controllers]
    channel_free = [c.channel_free for c in controllers]
    mc_first = [c.stats.first_arrival for c in controllers]
    mc_last = [c.stats.last_finish for c in controllers]
    mc_row_hits = [0] * num_mcs
    mc_wait = [c.stats.queue_wait_total for c in controllers]
    mc_busy = [c.stats.busy_total for c in controllers]
    # service() scales by a fault factor of 1.0: same float results
    row_hit_latency = config.row_hit_cycles * 1.0
    row_miss_latency = config.row_miss_cycles * 1.0
    channel_latency = config.channel_cycles * 1.0
    window_cycles = config.frfcfs_window_cycles
    window_rows = config.frfcfs_window_rows
    # mc_node_requests[mc, node], flattened; also each controller's
    # request count when the service is inlined
    node_requests = [0] * (num_mcs * num_nodes)

    onchip_hops = m.onchip_hops
    offchip_hops = m.offchip_hops
    onchip_net_sum = m.onchip_net_sum
    offchip_net_sum = m.offchip_net_sum
    offchip_mem_sum = m.offchip_mem_sum
    offchip_queue_sum = m.offchip_queue_sum
    onchip_remote = onchip_start = m.onchip_remote
    offchip = offchip_start = m.offchip
    heappop = heapq.heappop
    heappush = heapq.heappush

    while heap:
        t0, tid, k = heappop(heap)
        rec = recs[tid]
        node = rec.node
        t = t0 + rec.gaps[k]
        t += l1_latency
        issue = t - l1_latency
        t += l2_latency
        line2 = rec.line2s[k]

        mc = rec.mcs[k]
        if mc_faults is not None:
            mc = route_mc(mc, t, m)
        mc_node = mc_nodes[mc]
        # path 1: request to the directory at the MC
        if not inline_net:
            t1, h1 = net_send(node, mc_node, control_flits, t, vnet=0)
        elif node == mc_node:
            t1 = t
            h1 = 0
        else:
            links = flat_routes[node * num_nodes + mc_node]
            if links is None:
                links = route(node, mc_node)
            t1 = t
            for link in links:
                free_at = lf_control[link]
                if free_at > t1:
                    wait_cycles += free_at - t1
                    t1 = free_at
                lf_control[link] = t1 + control_flits
                t1 += hop_latency
            h1 = len(links)
            control_hops += h1
            t1 += tail_control
        t1 += DIRECTORY_LATENCY

        # directory: lowest-id sharer other than the requester
        mask = sharers_get(line2, 0)
        others = mask & ~rec.bit
        if others:
            owner = (others & -others).bit_length() - 1
            # path 2: forward to the owner
            if not inline_net:
                t2, h2 = net_send(mc_node, owner, control_flits, t1,
                                  vnet=0)
            elif mc_node == owner:
                t2 = t1
                h2 = 0
            else:
                links = flat_routes[mc_node * num_nodes + owner]
                if links is None:
                    links = route(mc_node, owner)
                t2 = t1
                for link in links:
                    free_at = lf_control[link]
                    if free_at > t2:
                        wait_cycles += free_at - t2
                        t2 = free_at
                    lf_control[link] = t2 + control_flits
                    t2 += hop_latency
                h2 = len(links)
                control_hops += h2
                t2 += tail_control
            t2 += l2_latency
            # path 3: cache-to-cache transfer (owner != node)
            if not inline_net:
                t3, h3 = net_send(owner, node, data_flits, t2)
            else:
                links = flat_routes[owner * num_nodes + node]
                if links is None:
                    links = route(owner, node)
                t3 = t2
                for link in links:
                    free_at = lf_data[link]
                    if free_at > t3:
                        wait_cycles += free_at - t3
                        t3 = free_at
                    lf_data[link] = t3 + data_flits
                    t3 += hop_latency
                h3 = len(links)
                data_hops += h3
                t3 += tail_data
            onchip_remote += 1
            net_cycles = (t1 - DIRECTORY_LATENCY - t) \
                + (t2 - l2_latency - t1) + (t3 - t2)
            onchip_net_sum += net_cycles
            onchip_hops[h1 + h2 + h3] += 1
            finish = t3
        else:
            # path 2: off-chip at the MC (MemoryController.service)
            if not inline_mc:
                finish_mc, wait, _ = controllers[mc].service(
                    rec.banks[k], rec.rows[k], t1)
            else:
                if t1 < mc_first[mc]:
                    mc_first[mc] = t1
                bank = rec.banks[k]
                busy = bank_busy[mc]
                start = t1
                if busy[bank] > start:
                    start = busy[bank]
                if channel_free[mc] > start:
                    start = channel_free[mc]
                row = rec.rows[k]
                rows = recent_rows[mc][bank]
                times = recent_times[mc][bank]
                try:
                    idx = rows.index(row)
                except ValueError:
                    latency = row_miss_latency
                else:
                    if times[idx] >= start - window_cycles \
                            or idx == len(rows) - 1:
                        latency = row_hit_latency
                        mc_row_hits[mc] += 1
                    else:
                        latency = row_miss_latency
                    del rows[idx]
                    del times[idx]
                finish_mc = start + latency
                busy[bank] = finish_mc
                channel_free[mc] = start + channel_latency
                rows.append(row)
                times.append(finish_mc)
                if len(rows) > window_rows:
                    del rows[0]
                    del times[0]
                wait = start - t1
                mc_wait[mc] += wait
                mc_busy[mc] += latency
                if finish_mc > mc_last[mc]:
                    mc_last[mc] = finish_mc
            # path 3: response to the requester
            if not inline_net:
                t3, h3 = net_send(mc_node, node, data_flits, finish_mc)
            elif mc_node == node:
                t3 = finish_mc
                h3 = 0
            else:
                links = flat_routes[mc_node * num_nodes + node]
                if links is None:
                    links = route(mc_node, node)
                t3 = finish_mc
                for link in links:
                    free_at = lf_data[link]
                    if free_at > t3:
                        wait_cycles += free_at - t3
                        t3 = free_at
                    lf_data[link] = t3 + data_flits
                    t3 += hop_latency
                h3 = len(links)
                data_hops += h3
                t3 += tail_data
            offchip += 1
            offchip_net_sum += (t1 - DIRECTORY_LATENCY - t) \
                + (t3 - finish_mc)
            offchip_mem_sum += finish_mc - t1
            offchip_queue_sum += wait
            offchip_hops[h1 + h3] += 1
            node_requests[mc * num_nodes + node] += 1
            finish = t3

        # directory: the fill's victim leaves, the requester joins
        evicted = rec.evicted[k]
        if evicted is not None:
            gone = sharers_get(evicted)
            if gone is not None:
                gone &= ~rec.bit
                if gone:
                    sharers[evicted] = gone
                else:
                    del sharers[evicted]
        sharers[line2] = mask | rec.bit
        ret = issue + keep * (finish - issue)

        k += 1
        deltas = rec.deltas
        if deltas is not None:
            if k < rec.nmiss:
                heappush(heap, (ret + deltas[k - 1], tid, k))
            else:
                finish_times[tid] = ret + rec.tail
            continue
        # General timing mode: _advance over the hits up to the next
        # miss (or the end of the stream), inlined.
        pos = rec.pos
        stream = rec.stream
        gaps = stream.gaps
        cls = rec.cls
        t = ret
        for i in range(pos[k - 1] + 1,
                       pos[k] if k < rec.nmiss else stream.length):
            t += gaps[i]
            if cls[i] == 0:
                t += l1_latency
            else:
                t += l1_latency
                issue = t - l1_latency
                t = issue + keep * (t + l2_latency - issue)
        if k < rec.nmiss:
            heappush(heap, (t, tid, k))
        else:
            finish_times[tid] = t

    # -- write back, once --------------------------------------------
    m.onchip_net_sum = onchip_net_sum
    m.offchip_net_sum = offchip_net_sum
    m.offchip_mem_sum = offchip_mem_sum
    m.offchip_queue_sum = offchip_queue_sum
    m.onchip_remote = onchip_remote
    m.offchip = offchip
    m.mc_node_requests += np.asarray(
        node_requests, dtype=np.int64).reshape(num_mcs, num_nodes)
    onchip_n = onchip_remote - onchip_start
    offchip_n = offchip - offchip_start
    if inline_net:
        # every on-chip miss sends three messages, every off-chip two
        net_stats.messages += 3 * onchip_n + 2 * offchip_n
        net_stats.total_hops += control_hops + data_hops
        net_stats.flit_hops += control_hops * control_flits \
            + data_hops * data_flits
        net_stats.wait_cycles = wait_cycles
    if inline_mc:
        for j, c in enumerate(controllers):
            stats = c.stats
            stats.requests += sum(
                node_requests[j * num_nodes:(j + 1) * num_nodes])
            stats.row_hits += mc_row_hits[j]
            stats.queue_wait_total = mc_wait[j]
            stats.busy_total = mc_busy[j]
            stats.first_arrival = mc_first[j]
            stats.last_finish = mc_last[j]
            c.channel_free = channel_free[j]
    return onchip_n + offchip_n
