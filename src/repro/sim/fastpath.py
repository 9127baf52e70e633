"""The hit-filtered fast event loop: bit-identical, miss-only heap.

The reference loop in :mod:`repro.sim.system` pushes *every* access of
every thread through the global heap, although most accesses touch no
state another thread can see.  This module puts only the *global*
events on the heap and handles everything else off it.  It covers
three machine shapes, all without write invalidations (a remote write
could invalidate lines mid-stream) and without phase accounting
(charged per heap event in the reference loop):

* **Private L2s, one thread per node.**  A hit's outcome (LRU
  movement, counters, latency) depends only on the thread's own
  earlier accesses, so each thread is *replayed* once against its real
  L1/L2, and only its L2 misses -- which consult the directory, the
  NoC and the memory controllers -- go on the heap.
* **Shared SNUCA L2, one thread per node.**  An L1 miss travels to the
  line's home bank, whose contents every thread shares, so every L1
  miss is a global event.  An L1 hit is not: it touches only the
  node's own L1, and every L1 miss fills that L1 whatever the home
  bank answers, so the L1's evolution is the thread's own.  The replay
  runs each thread's L1 alone, and the heap holds its L1 misses.
* **Several threads per node** (either L2 organization).  The node's
  threads share its caches, so their hits can only be classified in
  the node's own ``(time, thread)`` order, which depends on the global
  events' latencies.  Each node runs its threads in that order
  *online* until one of them reaches a global event (an L2 miss, or
  an L1 miss under a shared L2); only that event goes on the heap, and
  the node waits until it pops.  Other nodes' events never touch this
  node's L1 or private L2 (they read the directory, the home banks,
  the NoC and the controllers), so the node's hits may run ahead of
  them in host order without changing any outcome.

Timing between global events is aggregated.  When every latency in
play is integer-valued (the common case -- ``effective_overlap == 0``
and no fractional fault factors), simulated times are integer-valued
doubles, IEEE-754 addition over them is exact and associative, and a
replayed thread's per-access advance chain collapses into an int64
prefix sum that is bit-identical to the reference's sequential adds.
Otherwise a general mode replays the reference's exact per-access
floating-point operation chain in a tight loop -- still far cheaper
than a heap event per access.  The online mode always uses the
per-access chain.

Global events pop in the same ``(time, tid)`` order as in the
reference loop (events execute in global time order and the accesses
left off the heap mutate nothing another event reads), so links,
banks, the directory, the shared L2 banks and every float accumulator
evolve through the identical sequence of operations -- the resulting
:class:`~repro.sim.metrics.RunMetrics` is equal bit for bit, which
``tests/test_fastpath_equivalence.py`` asserts across machine shapes,
mappings, interleavings, fault plans, and validation/observability
levels.

One global event is one pass through a single loop body with no helper
calls in the common case.  Three layers are inlined at their sites,
each over the owning object's own state:

* the NoC sends (a flat ``src * n + dst`` route table plus the
  :class:`~repro.noc.network.Network`'s busy-until links), unless a
  fault model, audit or telemetry is attached;
* the plain memory-controller service (busy-until bank and channel,
  the FR-FCFS row window), unless the run has controller faults, the
  optimal scheme or telemetry;
* the directory lookup and sharer updates, on the
  :class:`~repro.cache.directory.Directory`'s line -> sharer-bitmask
  dict (private L2s), or the home bank's LRU lookup and fill (shared
  L2).

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

#: Why ``engine="fast"`` falls back to the reference loop: write
#: invalidation and per-access phase accounting.
FALLBACK_REASONS = ("model_writes", "track_phases")


def fallback_reason(sim, streams: Sequence) -> Optional[str]:
    """The reason the fast loop would not be exact for this simulator
    + streams (one of :data:`FALLBACK_REASONS`), or ``None``."""
    if sim.config.model_writes:
        return "model_writes"
    if any(s.phases is not None for s in streams):
        return "track_phases"
    return None


def eligible(sim, streams: Sequence) -> bool:
    """Whether the fast loop is exact for this simulator + streams.

    It is unless the run models write invalidations (a remote write
    could invalidate a line between two hits) or tracks phases (charged
    per heap event).  Private or shared L2, any number of threads per
    node, fault plans, the optimal scheme, audits, telemetry and either
    interleaving are all supported exactly.  Two facts make that sound
    (see the module docstring): with no writes, an L1 hit under SNUCA
    touches only its own node's L1, whose every miss fills it whatever
    the home bank answers; and a node whose threads share caches runs
    them in its own ``(time, tid)`` order and is blocked on its pending
    global event, so no hit can observe an event out of order.
    :func:`fallback_reason` names what failed.
    """
    return fallback_reason(sim, streams) is None


def _shares_nodes(streams: Sequence) -> bool:
    """Whether two non-empty streams run on the same node."""
    nodes = [s.node for s in streams if s.length]
    return len(nodes) != len(set(nodes))


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
    """One thread's global events and the fields they read.

    The miss loop indexes ``gaps``/``mcs``/``banks``/``rows``/
    ``line2s``/``evicted`` (and, under a shared L2, ``homes`` and
    ``bank_sets``) by the heap entry's ``k``.  For a replayed thread
    ``k`` is the event ordinal and :func:`_replay_all` gathers the
    fields per event; for an online thread ``k`` is the stream position
    and the fields are the stream's own per-access lists
    (:func:`_start_groups`).
    """

    __slots__ = ("stream", "node", "bit", "pos", "line2s", "evicted",
                 "nmiss", "deltas", "tail", "cls", "gaps", "mcs", "banks",
                 "rows", "homes", "bank_sets", "idx1", "next", "group")

    def __init__(self, stream):
        self.stream = stream
        self.node = stream.node
        self.bit = 1 << stream.node  # the node's directory mask bit
        self.pos: List[int] = []
        self.line2s: Sequence[int] = []
        self.evicted: List[Optional[int]] = []
        self.nmiss = 0
        self.deltas: Optional[List[int]] = None  # exact mode only
        self.tail = 0
        self.cls: Optional[bytearray] = None     # general mode only
        self.gaps: Sequence[int] = ()
        self.mcs: Sequence[int] = ()
        self.banks: Sequence[int] = ()
        self.rows: Sequence[int] = ()
        self.homes: Sequence[int] = ()           # shared L2 only
        # L2 (bank) set index: per event under a shared L2 (replay),
        # per access in the online mode
        self.bank_sets: Sequence[int] = ()
        self.idx1: Sequence[int] = ()            # online mode only
        self.next = 0                            # online mode only
        self.group: Optional[_NodeGroup] = None  # online mode only


def _replay_thread(sim, stream, m: RunMetrics) -> _ThreadRecord:
    """Classify one thread's accesses against its real private caches.

    Runs the same LRU list operations ``SetAssociativeCache`` performs
    (inlined -- this loop visits every access), so final cache state and
    hit/miss counters match the reference exactly.  Directory updates
    are deliberately *not* applied here: they read/write global state
    and are replayed in heap order by :func:`_miss_loop`.
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


def _replay_l1(sim, stream, m: RunMetrics) -> _ThreadRecord:
    """Shared-L2 replay: classify one thread's accesses against its L1
    alone, as L1 hits (``cls`` 0) or L1 misses (``cls`` 2, the global
    events).  Every L1 miss fills the L1 here; the home-bank lookups
    run in heap order in :func:`_miss_loop`."""
    rec = _ThreadRecord(stream)
    l1 = sim.l1[stream.node]
    l1_lines = stream.l1_lines
    n = stream.length
    idx1 = _set_indices(l1_lines, stream.np_l1, l1.num_sets)
    sets1, ways1 = l1.sets, l1.ways
    cls = bytearray(n)
    pos_append = rec.pos.append
    h1 = 0
    for i in range(n):
        a1 = l1_lines[i]
        w1 = sets1[idx1[i]]
        if a1 in w1:
            if w1[0] != a1:
                w1.remove(a1)
                w1.insert(0, a1)
            h1 += 1
            continue
        cls[i] = 2
        pos_append(i)
        w1.insert(0, a1)
        if len(w1) > ways1:
            w1.pop()
    l1.hits += h1
    l1.misses += n - h1
    m.total_accesses += n
    m.l1_hits += h1
    rec.nmiss = len(rec.pos)
    rec.cls = cls
    return rec


def _gather_misses(sim, rec: _ThreadRecord) -> None:
    """Copy each global event's per-access fields out of the stream, in
    event order.  Under the optimal scheme every event's controller is
    the one nearest its node (private L2) or its home bank (shared)."""
    stream = rec.stream
    pos = rec.pos
    if rec.nmiss == 1:
        i = pos[0]

        def pick(seq):
            return (seq[i],)
    else:
        pick = itemgetter(*pos)
    rec.gaps = pick(stream.gaps)
    rec.mcs = pick(stream.mcs)
    rec.banks = pick(stream.banks)
    rec.rows = pick(stream.rows)
    nearest = sim._nearest_mc
    if sim.config.shared_l2:
        rec.homes = pick(stream.homes)
        rec.line2s = pick(stream.l2_lines)
        rec.bank_sets = _set_indices(rec.line2s, None,
                                     sim.l2[0].num_sets)
        if sim.optimal:
            rec.mcs = tuple(nearest[home] for home in rec.homes)
    elif sim.optimal:
        rec.mcs = (nearest[rec.node],) * rec.nmiss


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
    """Replay every thread and schedule its first global event.

    Returns ``(recs, heap)``: per-thread records (``None`` for empty
    streams) and the initial ``(time, tid, k)`` heap.  Threads with no
    global event get their finish time written into ``finish_times``
    directly.
    """
    config = sim.config
    l1_latency = config.l1_latency
    l2_latency = config.l2_latency
    keep = sim._keep
    stagger = config.thread_stagger
    replay = _replay_l1 if config.shared_l2 else _replay_thread
    recs: List[Optional[_ThreadRecord]] = [None] * len(streams)
    heap = []
    for tid, stream in enumerate(streams):
        if not stream.length:
            continue
        rec = replay(sim, stream, m)
        recs[tid] = rec
        t0 = float(tid * stagger)
        cls = rec.cls
        n = stream.length
        if rec.nmiss:
            _gather_misses(sim, rec)
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
                # End sentinel: the hits after event k run up to
                # pos[k + 1], the next event or the end of the stream.
                rec.pos.append(n)
            else:
                finish_times[tid] = _advance(t0, gaps, cls, 0, n,
                                             l1_latency, l2_latency, keep)
    heapq.heapify(heap)
    return recs, heap


class _NodeGroup:
    """The threads of one node in the online mode (several threads per
    node): a ``(time, tid)`` heap of its runnable threads other than the
    one running, everything :func:`_run_node` reads, and the node's hit
    and event counts, written back once."""

    __slots__ = ("l1", "l2", "heap", "shared", "state", "accesses",
                 "l2_hits", "events")

    def __init__(self, sim, node: int, recs, finish_times):
        config = sim.config
        self.l1 = sim.l1[node]
        self.l2 = sim.l2[node]
        self.heap: list = []
        self.shared = config.shared_l2
        # unpacked once per _run_node call
        self.state = (recs, finish_times, self.heap, self.l1.sets,
                      self.l1.ways, self.l2.sets, self.l2.ways,
                      self.shared, config.l1_latency, config.l2_latency,
                      sim._keep)
        self.accesses = 0  # every access of every thread runs once
        self.l2_hits = 0  # private L2s only
        self.events = 0


def _start_groups(sim, streams: Sequence, finish_times: List[float]):
    """Online mode: group threads by node and run each node up to its
    first global event.  Returns ``(recs, heap, groups)``."""
    stagger = sim.config.thread_stagger
    nearest = sim._nearest_mc if sim.optimal else None
    recs: List[Optional[_ThreadRecord]] = [None] * len(streams)
    groups = {}
    for tid, stream in enumerate(streams):
        if not stream.length:
            continue
        node = stream.node
        group = groups.get(node)
        if group is None:
            group = groups[node] = _NodeGroup(sim, node, recs,
                                              finish_times)
        rec = _ThreadRecord(stream)
        n = stream.length
        rec.idx1 = _set_indices(stream.l1_lines, stream.np_l1,
                                group.l1.num_sets)
        # every L2 (each SNUCA bank included) has the same sets
        rec.bank_sets = _set_indices(stream.l2_lines, stream.np_l2,
                                     group.l2.num_sets)
        rec.line2s = stream.l2_lines
        rec.gaps = stream.gaps
        rec.mcs = stream.mcs
        rec.banks = stream.banks
        rec.rows = stream.rows
        if group.shared:
            rec.homes = stream.homes
            if nearest is not None:
                rec.mcs = [nearest[home] for home in stream.homes]
        else:
            rec.evicted = [None] * n  # an L2 miss's victim, by position
            if nearest is not None:
                rec.mcs = [nearest[node]] * n
        rec.group = group
        recs[tid] = rec
        group.accesses += n
        group.heap.append((float(tid * stagger), tid))
    heap = []
    for group in groups.values():
        heapq.heapify(group.heap)
        t0, tid = heapq.heappop(group.heap)
        entry = _run_node(group, t0, tid)
        if entry is not None:
            heap.append(entry)
    heapq.heapify(heap)
    return recs, heap, list(groups.values())


def _run_node(group: _NodeGroup, t0: float, tid: int):
    """Run one node's threads in ``(time, tid)`` order until one reaches
    a global event -- an L2 miss, or any L1 miss under a shared L2 --
    and return its heap entry ``(time, tid, position)``, or ``None``
    once every thread of the node has finished.

    Thread ``tid``'s next access (or, if its last access was the event
    that just ended, its finish) is at ``t0``.  Each access is the
    reference step up to the event, with the same LRU list operations
    and floating-point chain.  A thread keeps running while its next
    access precedes the node's other threads', so consecutive accesses
    of one thread cost no heap operation.  The event's fills of the
    node's own caches happen here, at discovery: the node runs nothing
    else until the entry pops, and no other node reads these caches.
    """
    (recs, finish_times, lh, sets1, ways1, sets2, ways2, shared,
     l1_latency, l2_latency, keep) = group.state
    rec = recs[tid]
    if rec.next == rec.stream.length:
        finish_times[tid] = t0
        if not lh:
            return None
        t0, tid = heapq.heappop(lh)
    elif lh and lh[0] < (t0, tid):
        t0, tid = heapq.heapreplace(lh, (t0, tid))
    h2 = 0
    while True:
        rec = recs[tid]
        stream = rec.stream
        gaps = stream.gaps
        l1_lines = stream.l1_lines
        l2_lines = stream.l2_lines
        idx1 = rec.idx1
        idx2 = rec.bank_sets
        n = stream.length
        # the node's next other access; this thread runs while ahead
        bound_t, bound_tid = lh[0] if lh else (math.inf, 0)
        i = rec.next
        while True:
            t = t0 + gaps[i]
            a1 = l1_lines[i]
            w1 = sets1[idx1[i]]
            if a1 in w1:
                if w1[0] != a1:
                    w1.remove(a1)
                    w1.insert(0, a1)
                t += l1_latency
            else:
                t += l1_latency
                a2 = l2_lines[i]
                w2 = sets2[idx2[i]]
                if shared or a2 not in w2:
                    # A global event: fill the node's own caches now
                    # (a shared L2's home bank fills in the miss loop)
                    # and block the node until the event pops.
                    if not shared:
                        w2.insert(0, a2)
                        if len(w2) > ways2:
                            rec.evicted[i] = w2.pop()
                    w1.insert(0, a1)
                    if len(w1) > ways1:
                        w1.pop()
                    rec.next = i + 1
                    group.l2_hits += h2
                    group.events += 1
                    return t0, tid, i
                issue = t - l1_latency
                if w2[0] != a2:
                    w2.remove(a2)
                    w2.insert(0, a2)
                h2 += 1
                t = issue + keep * (t + l2_latency - issue)
                w1.insert(0, a1)
                if len(w1) > ways1:
                    w1.pop()
            i += 1
            if i == n:
                finish_times[tid] = t
                break
            if t < bound_t or (t == bound_t and tid < bound_tid):
                t0 = t
                continue
            break
        rec.next = i
        if i < n:
            t0, tid = heapq.heapreplace(lh, (t, tid))
        elif lh:
            t0, tid = heapq.heappop(lh)
        else:
            group.l2_hits += h2
            return None


def run_events(sim, streams: Sequence, m: RunMetrics) -> List[float]:
    """Run all threads, with only their global events on the heap.

    Mutates the simulator's caches, directory, network and controllers
    exactly as the reference loop would; returns per-thread finish
    times.  Callers must have checked :func:`eligible` first.
    """
    finish_times = [0.0] * len(streams)
    groups = ()
    with obs_span("sim.replay", cat="sim", threads=len(streams)):
        if _shares_nodes(streams):
            recs, heap, groups = _start_groups(sim, streams, finish_times)
        else:
            recs, heap = _replay_all(sim, streams, m, _integer_times(sim),
                                     finish_times)
    if heap:
        with obs_span("sim.misses", cat="sim") as span:
            span.add(misses=_miss_loop(sim, recs, heap, m, finish_times))
    for group in groups:
        # Drop the group's hold on every record: records point back at
        # their group, and the cycle would keep the run's per-access
        # lists alive until the cyclic collector ran.
        group.state = None
        # events are L2 misses, or L1 misses under a shared L2
        l1_hits = group.accesses - group.l2_hits - group.events
        group.l1.hits += l1_hits
        group.l1.misses += group.accesses - l1_hits
        if not group.shared:
            group.l2.hits += group.l2_hits
            group.l2.misses += group.events
        m.total_accesses += group.accesses
        m.l1_hits += l1_hits
        m.l2_hits += group.l2_hits
    return finish_times


def _miss_loop(sim, recs: List[Optional[_ThreadRecord]], heap: list,
               m: RunMetrics, finish_times: List[float]) -> int:
    """Simulate the global-event heap to completion; returns the number
    of events processed.

    With private L2s the loop body is the reference ``_step_private``
    from the L2-miss branch on; with a shared L2 it is
    ``_step_shared`` from the L1-miss branch on.  Each is copied
    operation for operation (the accumulator op order matters for float
    bit-identity), with the sends, the plain MC service and the
    directory or home-bank lookup inlined (see the module docstring).
    """
    config = sim.config
    shared = config.shared_l2
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

    if shared:
        # -- shared SNUCA L2: the global events are the L1 misses -------
        bank_sets = [c.sets for c in sim.l2]
        bank_ways = config.l2_ways
        bank_hits = [0] * num_nodes
        bank_misses = [0] * num_nodes
        local_hits = 0  # home-bank hits at the requester's own node
        while heap:
            t0, tid, k = heappop(heap)
            rec = recs[tid]
            node = rec.node
            t = t0 + rec.gaps[k]
            t += l1_latency
            issue = t - l1_latency
            home = rec.homes[k]
            line2 = rec.line2s[k]
            # path 1: L1 -> home bank
            if not inline_net:
                t1, h1 = net_send(node, home, control_flits, t, vnet=0)
            elif node == home:
                t1 = t
                h1 = 0
            else:
                links = flat_routes[node * num_nodes + home]
                if links is None:
                    links = route(node, home)
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
            t1 += l2_latency

            # the home bank's L2 lookup (SetAssociativeCache.access)
            w2 = bank_sets[home][rec.bank_sets[k]]
            if line2 in w2:
                if w2[0] != line2:
                    w2.remove(line2)
                    w2.insert(0, line2)
                bank_hits[home] += 1
                # path 5: home bank -> L1, an on-chip access
                if not inline_net:
                    t5, h5 = net_send(home, node, data_flits, t1)
                elif home == node:
                    t5 = t1
                    h5 = 0
                else:
                    links = flat_routes[home * num_nodes + node]
                    if links is None:
                        links = route(home, node)
                    t5 = t1
                    for link in links:
                        free_at = lf_data[link]
                        if free_at > t5:
                            wait_cycles += free_at - t5
                            t5 = free_at
                        lf_data[link] = t5 + data_flits
                        t5 += hop_latency
                    h5 = len(links)
                    data_hops += h5
                    t5 += tail_data
                if home == node:
                    local_hits += 1
                else:
                    onchip_remote += 1
                    onchip_net_sum += (t1 - l2_latency - t) + (t5 - t1)
                    onchip_hops[h1 + h5] += 1
            else:
                bank_misses[home] += 1
                mc = rec.mcs[k]
                if mc_faults is not None:
                    mc = route_mc(mc, t1, m)
                mc_node = mc_nodes[mc]
                # path 2: home bank -> MC
                if not inline_net:
                    t2, h2 = net_send(home, mc_node, control_flits, t1,
                                      vnet=0)
                elif home == mc_node:
                    t2 = t1
                    h2 = 0
                else:
                    links = flat_routes[home * num_nodes + mc_node]
                    if links is None:
                        links = route(home, mc_node)
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
                t2 += DIRECTORY_LATENCY
                # path 3: the memory system (MemoryController.service)
                if not inline_mc:
                    finish_mc, wait, _ = controllers[mc].service(
                        rec.banks[k], rec.rows[k], t2)
                else:
                    if t2 < mc_first[mc]:
                        mc_first[mc] = t2
                    bank = rec.banks[k]
                    busy = bank_busy[mc]
                    start = t2
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
                    wait = start - t2
                    mc_wait[mc] += wait
                    mc_busy[mc] += latency
                    if finish_mc > mc_last[mc]:
                        mc_last[mc] = finish_mc
                # path 4: MC -> home bank
                if not inline_net:
                    t4, h4 = net_send(mc_node, home, data_flits, finish_mc)
                elif mc_node == home:
                    t4 = finish_mc
                    h4 = 0
                else:
                    links = flat_routes[mc_node * num_nodes + home]
                    if links is None:
                        links = route(mc_node, home)
                    t4 = finish_mc
                    for link in links:
                        free_at = lf_data[link]
                        if free_at > t4:
                            wait_cycles += free_at - t4
                            t4 = free_at
                        lf_data[link] = t4 + data_flits
                        t4 += hop_latency
                    h4 = len(links)
                    data_hops += h4
                    t4 += tail_data
                # the home bank fills; SNUCA keeps no directory, so the
                # victim just leaves
                w2.insert(0, line2)
                if len(w2) > bank_ways:
                    w2.pop()
                # path 5: home bank -> L1
                if not inline_net:
                    t5, h5 = net_send(home, node, data_flits, t4)
                elif home == node:
                    t5 = t4
                    h5 = 0
                else:
                    links = flat_routes[home * num_nodes + node]
                    if links is None:
                        links = route(home, node)
                    t5 = t4
                    for link in links:
                        free_at = lf_data[link]
                        if free_at > t5:
                            wait_cycles += free_at - t5
                            t5 = free_at
                        lf_data[link] = t5 + data_flits
                        t5 += hop_latency
                    h5 = len(links)
                    data_hops += h5
                    t5 += tail_data
                offchip += 1
                # the paper's off-chip network cost is paths 2 and 4
                offchip_net_sum += (t2 - DIRECTORY_LATENCY - t1) \
                    + (t4 - finish_mc)
                offchip_mem_sum += finish_mc - t2
                offchip_queue_sum += wait
                offchip_hops[h2 + h4] += 1
                node_requests[mc * num_nodes + home] += 1
            ret = issue + keep * (t5 - issue)

            k += 1
            deltas = rec.deltas
            if deltas is not None:
                if k < rec.nmiss:
                    heappush(heap, (ret + deltas[k - 1], tid, k))
                else:
                    finish_times[tid] = ret + rec.tail
                continue
            if rec.cls is None:
                # Online mode: the thread rejoins its node, which runs
                # until its next L1 miss.
                entry = _run_node(rec.group, ret, tid)
                if entry is not None:
                    heappush(heap, entry)
                continue
            # General timing mode: the L1 hits up to the next event
            gaps = rec.stream.gaps
            t = ret
            for i in range(rec.pos[k - 1] + 1, rec.pos[k]):
                t += gaps[i]
                t += l1_latency
            if k < rec.nmiss:
                heappush(heap, (t, tid, k))
            else:
                finish_times[tid] = t
    else:
        # -- private L2s: the global events are the L2 misses -----------
        sharers = sim.directory._sharers
        sharers_get = sharers.get
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
            cls = rec.cls
            if cls is None:
                # Online mode: the thread rejoins its node, which runs
                # until its next L2 miss.
                entry = _run_node(rec.group, ret, tid)
                if entry is not None:
                    heappush(heap, entry)
                continue
            # General timing mode: _advance over the hits up to the next
            # miss (or the end of the stream), inlined.
            gaps = rec.stream.gaps
            t = ret
            for i in range(rec.pos[k - 1] + 1, rec.pos[k]):
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
    if shared:
        for home, bank in enumerate(sim.l2):
            bank.hits += bank_hits[home]
            bank.misses += bank_misses[home]
        m.l2_hits += local_hits
        events = onchip_n + offchip_n + local_hits
        # every event sends two messages, every off-chip one two more
        messages = 2 * events + 2 * offchip_n
    else:
        events = onchip_n + offchip_n
        # every on-chip miss sends three messages, every off-chip two
        messages = 3 * onchip_n + 2 * offchip_n
    if inline_net:
        net_stats.messages += messages
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
    return events
