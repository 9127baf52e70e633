"""The ``engine="analytic"`` tier: cycles estimated without events.

Full simulation replays every access through a global event heap; this
module estimates the same :class:`~repro.sim.metrics.RunMetrics` from
three closed-form ingredients, in the spirit of analytic NoC placement
studies (Tootaghaj & Farhat; see PAPERS.md):

1. **Per-thread miss profiles.**  The trace/memo machinery
   (:mod:`repro.sim.memo`) supplies per-thread virtual/physical traces;
   a single LRU replay -- the same list operations
   :class:`~repro.cache.cache.SetAssociativeCache` performs -- counts
   L1 hits, L2 hits, and L2 misses, and records each miss's physical
   address.  Classification depends only on the trace and the cache
   geometry, *not* on MC placement or the L2-to-MC mapping, so one
   cached profile screens thousands of placement candidates
   (:data:`profile_cache`).
2. **Route hop distributions.**  Every miss's network legs are costed
   at the NoC's zero-load latency (``hops * hop_latency`` plus the
   critical-word tail -- exactly
   :meth:`repro.noc.network.Network.latency_estimate`), from Manhattan
   distances on the mesh.
3. **An M/M/1-style queue model per MC.**  Each controller is a shared
   data channel in front of banked DRAM; utilization is derived from
   the request count and the estimated execution time, giving the
   queue wait ``rho / (1 - rho) * service`` per server (channel, banks,
   and the MC's ingress links).  Execution time and utilization depend
   on each other, so the estimate iterates to a fixed point (damped;
   a handful of rounds suffice).

The estimate is *deliberately not bit-exact*: access classification and
per-thread hit cycles are exact (``total_accesses``/``l1_hits``/
``l2_hits`` match the reference engine to the integer), but contention
is modeled, not simulated.  ``tests/test_search_analytic.py`` enforces
the documented error bound -- median absolute ``exec_time`` error
across the workload suite <= 15% vs ``engine="reference"`` (see
docs/search.md).  Because estimates are not bit-identical,
``RunSpec.key()`` marks analytic runs distinctly and
:func:`repro.sim.run.run_simulation` never consults or fills the
persistent result store for them.

Scope: private-L2 organizations with one thread per core and no fault
plan (the same shape the fast engine's replay exploits); anything else
raises a precise ``ValueError`` instead of returning a silently wrong
estimate.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.arch.config import CACHE_LINE_INTERLEAVING
from repro.cache.cache import SetAssociativeCache, set_indices
from repro.memsys.address import AddressMap
from repro.obs.data import ObsData
from repro.obs.telemetry import TelemetryRegistry
from repro.obs.tracer import Tracer, current_tracer, obs_span
from repro.sim import memo
from repro.sim.metrics import RunMetrics

#: Directory decision latency -- kept equal to the simulator's constant
#: (imported lazily in code to avoid the run.py <-> search cycle).
_DIRECTORY_LATENCY = 2

#: Queue-model knobs.  Utilization is clamped below 1 (an open M/M/1
#: diverges there; the simulated system is closed -- a blocking core
#: has at most one miss outstanding -- so waits stay finite), and the
#: fixed point is damped for monotone convergence.
RHO_MAX = 0.85
FIXED_POINT_ROUNDS = 24
FIXED_POINT_TOL = 0.01
DAMPING = 0.5

#: Time windows the contention model bins misses into (by fractional
#: position in each thread's stream -- a lockstep time proxy).  More
#: bins resolve sharper miss phases; fewer smooth sparse traces.
TIME_BINS = 64

#: Calibration of the queue terms against ``engine="reference"`` on the
#: workload suite (tests/test_search_analytic.py enforces the resulting
#: error bound; docs/search.md records the calibration run).  1.0 =
#: the raw M/D/1 residual-wait formula; 0.5 compensates for waits the
#: formula double-counts across a wormhole route's pipelined links and
#: across the channel/bank stages of one controller.
LINK_WAIT_SCALE = 0.5
MC_WAIT_SCALE = 0.5

#: Process-global LRU of miss profiles: candidates that share traces and
#: cache geometry (every MC placement / mapping of one program, for
#: baseline runs) pay the replay once.
profile_cache = memo.ArtifactCache(capacity=8)


def supported(spec) -> Optional[str]:
    """Why ``spec`` cannot be estimated analytically (None = it can)."""
    config = spec.config
    if config.shared_l2:
        return "shared-L2 organizations are not modeled analytically"
    if config.model_writes:
        return ("write invalidations mutate remote caches mid-stream; "
                "the analytic replay is per-thread")
    if config.track_phases:
        return "per-nest phase accounting needs the event loop"
    if config.threads_per_core != 1:
        return ("threads sharing a node's caches interleave in global "
                "time order; the analytic replay is per-thread")
    if spec.fault_plan is not None and not spec.fault_plan.empty:
        return "fault plans degrade the fabric dynamically; simulate"
    if spec.validate != "off":
        return ("validation audits simulated artifacts; an estimate "
                "has none (use engine=\"fast\" or \"reference\")")
    return None


def _check_supported(spec) -> None:
    reason = supported(spec)
    if reason is not None:
        raise ValueError(f"engine=\"analytic\" cannot estimate this "
                         f"run: {reason}")


class MissProfile:
    """One trace set's classification, shared across candidates.

    Misses are stored flattened in (thread, program-order) order so
    per-candidate costing is pure NumPy indexing.
    """

    __slots__ = ("num_threads", "accesses", "l1_hits", "l2_hits",
                 "misses", "gap_sum", "miss_thread", "miss_paddr",
                 "miss_owner", "miss_pos", "page_fallbacks")

    def __init__(self, num_threads: int):
        self.num_threads = num_threads
        self.accesses = np.zeros(num_threads, dtype=np.int64)
        self.l1_hits = np.zeros(num_threads, dtype=np.int64)
        self.l2_hits = np.zeros(num_threads, dtype=np.int64)
        self.misses = np.zeros(num_threads, dtype=np.int64)
        self.gap_sum = np.zeros(num_threads, dtype=np.int64)
        self.miss_thread: Optional[np.ndarray] = None  # int64, per miss
        self.miss_paddr: Optional[np.ndarray] = None   # int64, per miss
        #: Thread id already caching the missed line (-1 = none): the
        #: replayed directory, for the cache-to-cache transfer path.
        self.miss_owner: Optional[np.ndarray] = None
        #: Access index of each miss within its thread's stream -- the
        #: time proxy the windowed contention model bins by.
        self.miss_pos: Optional[np.ndarray] = None
        self.page_fallbacks = 0


def _policy_fingerprint(spec) -> Tuple:
    """What of the page-allocation policy the physical miss addresses
    depend on.  Sequential/identity translation ignores the mapping;
    first-touch and MC-aware read it (and first-touch the seed too)."""
    config = spec.config
    if config.interleaving == CACHE_LINE_INTERLEAVING:
        return ("identity",)
    policy = spec.page_policy
    if policy == "auto":
        policy = "mc_aware" if spec.optimized else "default"
    if policy == "default":
        return ("sequential",)
    from repro.sim.run import _mapping_token
    token = json.dumps(_mapping_token(spec.resolved_mapping()),
                       sort_keys=True, default=str)
    if policy == "first_touch":
        return ("first_touch", spec.seed, token)
    return ("mc_aware", token)


def _profile_key(spec) -> str:
    config = spec.config
    payload = {
        "trace": memo.trace_key(spec),
        "caches": (config.l1_size, config.l1_line, config.l1_ways,
                   config.l2_size, config.l2_ways),
        "policy": _policy_fingerprint(spec),
        "pages_per_mc": spec.pages_per_mc,
    }
    return "analytic:" + hashlib.sha1(
        json.dumps(payload, sort_keys=True, default=str)
        .encode("utf-8")).hexdigest()


def _build_profile(spec) -> MissProfile:
    """Front half of :func:`repro.sim.run._execute` (memo-shared), then
    one per-thread LRU replay."""
    from repro.osmodel.allocation import IdentityPolicy, PhysicalMemory
    from repro.osmodel.page_table import PageTable, translate_traces
    from repro.sim.run import _make_policy

    config = spec.config
    mapping = spec.resolved_mapping()
    num_threads = config.num_cores * config.threads_per_core

    transformation, layouts, transformed = memo.compiled(spec)
    space, bases, traces = memo.placed_traces(spec, layouts)
    vtraces = [t.vaddrs for t in traces]
    gaps = [t.gaps for t in traces]

    hints = space.desired_mc_hints(layouts) if transformed else {}
    policy = _make_policy(spec, mapping, hints)
    pages_per_mc = spec.pages_per_mc
    if pages_per_mc is None:
        total_pages = -(-space.footprint_bytes // config.page_size)
        pages_per_mc = max(16, 4 * (total_pages // config.num_mcs + 1))
    memory = PhysicalMemory(config.num_mcs, pages_per_mc)
    table = PageTable(config.page_size, memory, policy)
    cores = mapping.num_threads
    thread_cores = [mapping.core_order[t % cores]
                    for t in range(num_threads)]
    if isinstance(policy, IdentityPolicy):
        ptraces = vtraces
    else:
        with obs_span("os.translate", cat="os"):
            ptraces = translate_traces(vtraces, table, thread_cores,
                                       seed=spec.seed)

    prof = MissProfile(num_threads)
    prof.page_fallbacks = getattr(policy, "fallbacks", 0)
    miss_thread: List[np.ndarray] = []
    miss_paddr: List[np.ndarray] = []
    miss_pos: List[np.ndarray] = []
    #: Per miss, in eventual flat (thread-major) order:
    #: (access index, tid, L2 line, evicted L2 line or -1).
    events: List[Tuple[int, int, int, int]] = []

    with obs_span("analytic.replay", cat="sim", threads=num_threads):
        for tid in range(num_threads):
            v = np.asarray(vtraces[tid], dtype=np.int64)
            n = int(v.size)
            prof.accesses[tid] = n
            prof.gap_sum[tid] = int(
                np.asarray(gaps[tid], dtype=np.int64).sum()) if n else 0
            if not n:
                continue
            np_l1 = v // config.l1_line
            np_l2 = v // config.l2_line
            l1_lines = np_l1.tolist()
            l2_lines = np_l2.tolist()
            l1 = SetAssociativeCache(config.l1_size, config.l1_line,
                                     config.l1_ways)
            l2 = SetAssociativeCache(config.l2_size, config.l2_line,
                                     config.l2_ways)
            idx1 = set_indices(l1_lines, l1.num_sets, arr=np_l1)
            idx2 = set_indices(l2_lines, l2.num_sets, arr=np_l2)
            sets1, ways1 = l1.sets, l1.ways
            sets2, ways2 = l2.sets, l2.ways
            pos: List[int] = []
            pos_append = pos.append
            event_append = events.append
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
                else:
                    pos_append(i)
                    w2.insert(0, a2)
                    evicted = w2.pop() if len(w2) > ways2 else -1
                    event_append((i, tid, a2, evicted))
                w1.insert(0, a1)
                if len(w1) > ways1:
                    w1.pop()
            prof.l1_hits[tid] = h1
            prof.l2_hits[tid] = h2
            prof.misses[tid] = len(pos)
            if pos:
                p = np.asarray(ptraces[tid], dtype=np.int64)
                idx = np.asarray(pos, dtype=np.int64)
                miss_paddr.append(p[idx])
                miss_pos.append(idx)
                miss_thread.append(np.full(len(pos), tid,
                                           dtype=np.int64))

    if miss_thread:
        prof.miss_thread = np.concatenate(miss_thread)
        prof.miss_paddr = np.concatenate(miss_paddr)
        prof.miss_pos = np.concatenate(miss_pos)
        prof.miss_owner = _replay_directory(prof, events)
    else:
        prof.miss_thread = np.zeros(0, dtype=np.int64)
        prof.miss_paddr = np.zeros(0, dtype=np.int64)
        prof.miss_pos = np.zeros(0, dtype=np.int64)
        prof.miss_owner = np.zeros(0, dtype=np.int64)
    for arr in (prof.miss_thread, prof.miss_paddr, prof.miss_owner,
                prof.miss_pos):
        arr.setflags(write=False)
    return prof


def _replay_directory(prof: MissProfile,
                      events: List[Tuple[int, int, int, int]]
                      ) -> np.ndarray:
    """Replay exact sharer tracking over the recorded L2 fills.

    ``events`` holds one ``(access index, tid, line, evicted line)``
    tuple per L2 miss, in flat (thread-major) order.  The event loops
    interleave threads in global time; since suite threads run the same
    kernel in near-lockstep (one access per ``gap``, staggered starts),
    the access index ordered by ``(i, tid)`` is a faithful time proxy.
    Each miss queries the sharer set before its own fill, the fill's
    eviction removes the evicting thread, then the filler is added --
    the exact sequence of ``SystemSimulator._step_private``.  The
    recorded owner is the lowest sharer *thread*; the simulator picks
    the lowest sharer *node*, so under mappings that permute nodes the
    transfer legs may differ by a few hops (the on-chip path is
    zero-load, so the error is bounded and small).
    """
    owner = np.full(len(events), -1, dtype=np.int64)
    order = sorted(range(len(events)), key=lambda k: events[k][:2])
    sharers: Dict[int, set] = {}
    for k in order:
        _, tid, line, evicted = events[k]
        holders = sharers.get(line)
        if holders:
            others = holders - {tid}
            if others:
                owner[k] = min(others)
        if evicted >= 0:
            held = sharers.get(evicted)
            if held is not None:
                held.discard(tid)
                if not held:
                    del sharers[evicted]
        sharers.setdefault(line, set()).add(tid)
    return owner


def miss_profile(spec) -> MissProfile:
    """The (cached) miss profile for ``spec``'s trace identity."""
    key = None
    if memo.enabled():
        key = _profile_key(spec)
        hit = profile_cache.get(key)
        if hit is not None:
            return hit
    prof = _build_profile(spec)
    if key is not None:
        profile_cache.put(key, prof)
    return prof


def _mesh_coords(mesh) -> Tuple[np.ndarray, np.ndarray]:
    nodes = np.arange(mesh.num_nodes, dtype=np.int64)
    return nodes % mesh.width, nodes // mesh.width


#: (width, height) -> (offsets, lens, flat_links): every XY route,
#: stored contiguously and indexed by pair id ``src * N + dst``.
_routes_cache: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray,
                                           np.ndarray]] = {}


def _flat_routes(mesh) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All deterministic XY routes (exactly what
    :meth:`repro.arch.topology.Mesh.route` produces), flattened: pair
    ``p = src * N + dst`` crosses directed links
    ``flat[offsets[p]:offsets[p] + lens[p]]``.  Candidate-independent,
    cached per mesh shape for the whole screen."""
    key = (mesh.width, mesh.height)
    cached = _routes_cache.get(key)
    if cached is None:
        n = mesh.num_nodes
        lens = np.zeros(n * n, dtype=np.int64)
        chunks: List[List[int]] = []
        for src in range(n):
            for dst in range(n):
                links = mesh.route(src, dst) if src != dst else []
                lens[src * n + dst] = len(links)
                chunks.append(links)
        offsets = np.concatenate(([0], np.cumsum(lens)[:-1]))
        flat = np.asarray([l for c in chunks for l in c],
                          dtype=np.int64)
        for arr in (offsets, lens, flat):
            arr.setflags(write=False)
        cached = (offsets, lens, flat)
        _routes_cache[key] = cached
    return cached


def _expand_legs(mesh, legs) -> Tuple[np.ndarray, np.ndarray,
                                      np.ndarray, np.ndarray,
                                      np.ndarray, int]:
    """Expand message groups into one row per (group, route link).

    ``legs`` is a list of ``(threads, bins, pairs, counts)`` message
    groups (see the grouping comment in :func:`analytic_metrics`),
    concatenated in leg order.  Returns ``(msg_idx, key, t_exp, b_exp,
    c_exp, num_groups)`` where ``key = bin * num_links + link`` --
    everything static per candidate, so each fixed-point round only
    reweights by ``inv_dur``.
    """
    offsets, lens, flat = _flat_routes(mesh)
    threads = np.concatenate([l[0] for l in legs])
    bins = np.concatenate([l[1] for l in legs])
    pairs = np.concatenate([l[2] for l in legs])
    count = np.concatenate([l[3] for l in legs])
    route_len = lens[pairs]
    total = int(route_len.sum())
    msg_idx = np.repeat(np.arange(pairs.size), route_len)
    ends = np.cumsum(route_len)
    within = np.arange(total) - (ends - route_len)[msg_idx]
    link_exp = flat[offsets[pairs][msg_idx] + within]
    b_exp = bins[msg_idx]
    key = b_exp * mesh.num_links + link_exp
    return (msg_idx, key, threads[msg_idx], b_exp, count[msg_idx],
            pairs.size)


def _row_hit_mask(thread: np.ndarray, mc: np.ndarray, bank: np.ndarray,
                  row: np.ndarray, window: int) -> np.ndarray:
    """Approximate FR-FCFS row batching: a miss is a row hit when the
    same (mc, bank, row) appears among the same thread's previous
    ``window`` misses -- the open row would still be inside the
    controller's scheduling window."""
    n = thread.size
    hit = np.zeros(n, dtype=bool)
    for k in range(1, min(window, n - 1) + 1 if n > 1 else 0):
        same = ((thread[k:] == thread[:-k]) & (mc[k:] == mc[:-k])
                & (bank[k:] == bank[:-k]) & (row[k:] == row[:-k]))
        hit[k:] |= same
    return hit


def analytic_metrics(spec) -> RunMetrics:
    """Estimate :class:`RunMetrics` for ``spec`` without event
    simulation.  See the module docstring for the model."""
    _check_supported(spec)
    config = spec.config
    mapping = spec.resolved_mapping()
    mesh = mapping.mesh
    prof = miss_profile(spec)
    num_threads = prof.num_threads
    num_mcs = config.num_mcs

    m = RunMetrics(name=spec.label())
    m.total_accesses = int(prof.accesses.sum())
    m.l1_hits = int(prof.l1_hits.sum())
    m.l2_hits = int(prof.l2_hits.sum())
    m.mc_node_requests = np.zeros((num_mcs, config.num_cores),
                                  dtype=np.int64)

    cores = mapping.num_threads
    thread_nodes = np.asarray(
        [mapping.core_order[t % cores] for t in range(num_threads)],
        dtype=np.int64)
    mc_nodes = np.asarray(mapping.mc_nodes, dtype=np.int64)
    xs, ys = _mesh_coords(mesh)
    # node x MC Manhattan distances (hops == links traversed)
    dist_nm = (np.abs(xs[:, None] - xs[mc_nodes][None, :])
               + np.abs(ys[:, None] - ys[mc_nodes][None, :]))

    nmiss = int(prof.miss_thread.size)
    _, layouts_unused, transformed = memo.compiled(spec)
    overhead = config.transform_overhead if transformed else 0.0

    l1_lat = float(config.l1_latency)
    l2_lat = float(config.l2_latency)
    keep = 1.0 - config.effective_overlap(spec.program.mlp_demand)
    stagger = float(config.thread_stagger)
    base_finish = (np.arange(num_threads, dtype=np.float64) * stagger
                   + prof.gap_sum.astype(np.float64)
                   + prof.l1_hits * l1_lat
                   + keep * (prof.l2_hits + prof.misses)
                   * (l1_lat + l2_lat))
    # An empty-stream thread never leaves the fork barrier (finish 0.0),
    # matching the event loops.
    base_finish[prof.accesses == 0] = 0.0

    if nmiss == 0:
        m.thread_finish = (base_finish * (1.0 + overhead)).tolist()
        m.exec_time = float(base_finish.max(initial=0.0)
                            * (1.0 + overhead))
        m.mc_requests = [0] * num_mcs
        m.mc_row_hits = [0] * num_mcs
        m.mc_queue_wait = [0.0] * num_mcs
        m.mc_busy_elapsed = [0.0] * num_mcs
        m.page_fallbacks = prof.page_fallbacks
        return m

    amap = AddressMap(config)
    mc = amap.mc_of(prof.miss_paddr)
    bank = amap.bank_of(prof.miss_paddr)
    row = amap.row_of(prof.miss_paddr)
    node = thread_nodes[prof.miss_thread]
    if spec.optimal:
        # Nearest controller per node, ties to the lower index -- the
        # simulator's _nearest_mc.
        mc = np.argmin(dist_nm + np.arange(num_mcs) * 1e-9, axis=1)[node]

    hop = float(config.hop_latency)
    ctrl_tail = float(min(config.control_flits,
                          config.critical_word_flits))
    data_tail = float(min(config.data_flits, config.critical_word_flits))

    def ctrl_lat(d: np.ndarray) -> np.ndarray:
        return np.where(d > 0, d * hop + ctrl_tail, 0.0)

    def data_lat(d: np.ndarray) -> np.ndarray:
        return np.where(d > 0, d * hop + data_tail, 0.0)

    remote = prof.miss_owner >= 0
    offchip = ~remote
    d_req = dist_nm[node, mc]

    # Time windows: each miss lands in the bin matching its fractional
    # position within its thread's stream.  Suite threads run the same
    # kernel in near-lockstep, so equal fractions ~= equal times; the
    # bins turn phase-clustered miss bursts (every thread sweeping
    # memory at once) into high *windowed* utilization, which is what
    # actually queues the wormhole links and the MC channels.
    frac = ((prof.miss_pos + 0.5)
            / prof.accesses[prof.miss_thread].astype(np.float64))
    tbin = np.minimum((frac * TIME_BINS).astype(np.int64),
                      TIME_BINS - 1)
    nnodes = mesh.num_nodes

    # -- on-chip remote (cache-to-cache) path --------------------------
    t_r = prof.miss_thread[remote]
    bin_r = tbin[remote]
    if t_r.size:
        owner_node = thread_nodes[prof.miss_owner[remote]]
        r_node = node[remote]
        mc_r = mc[remote]
        r_mcnode = mc_nodes[mc_r]
        d1 = dist_nm[r_node, mc_r]
        d2 = (np.abs(xs[r_mcnode] - xs[owner_node])
              + np.abs(ys[r_mcnode] - ys[owner_node]))
        d3 = (np.abs(xs[owner_node] - xs[r_node])
              + np.abs(ys[owner_node] - ys[r_node]))
        onchip_zero = ctrl_lat(d1) + ctrl_lat(d2) + data_lat(d3)
        m.onchip_remote = int(t_r.size)
        hops3 = d1 + d2 + d3
        for h, c in zip(*np.unique(hops3, return_counts=True)):
            m.onchip_hops[int(h)] += int(c)
    else:
        owner_node = r_node = r_mcnode = np.zeros(0, dtype=np.int64)
        onchip_zero = np.zeros(0)

    # -- off-chip path -------------------------------------------------
    t_o = prof.miss_thread[offchip]
    bin_o = tbin[offchip]
    mc_o = mc[offchip]
    node_o = node[offchip]
    mcnode_o = mc_nodes[mc_o]
    d_o = d_req[offchip]
    if spec.optimal:
        # The optimal scheme's controllers serve at row-hit latency
        # with no queueing; its NoC still contends like any other.
        service = np.full(t_o.size, float(config.row_hit_cycles))
        rowhit = np.ones(t_o.size, dtype=bool)
    else:
        rowhit = _row_hit_mask(t_o, mc_o, bank[offchip], row[offchip],
                               config.frfcfs_window_rows)
        service = np.where(rowhit, float(config.row_hit_cycles),
                           float(config.row_miss_cycles))

    requests = np.bincount(mc_o, minlength=num_mcs).astype(np.float64)
    mcbin = mc_o * TIME_BINS + bin_o
    req_mb = np.bincount(mcbin, minlength=num_mcs * TIME_BINS
                         ).astype(np.float64)
    svc_mb = np.bincount(mcbin, weights=service,
                         minlength=num_mcs * TIME_BINS)
    mean_svc_mb = np.divide(svc_mb, req_mb,
                            out=np.full(num_mcs * TIME_BINS,
                                        float(config.row_hit_cycles)),
                            where=req_mb > 0)

    fixed = (ctrl_lat(d_o) + _DIRECTORY_LATENCY + service
             + data_lat(d_o))
    channel = float(config.channel_cycles)
    banks = float(config.banks_per_mc)
    ctrl_flits = float(config.control_flits)
    data_flits = float(config.data_flits)

    # Message grouping: to the queueing model, all misses a thread
    # issues to the same MC (and, for cache-to-cache transfers, the
    # same owner) within the same time bin are indistinguishable --
    # same routes, same rates, same waits.  The fixed point therefore
    # iterates over unique (thread, bin, MC[, owner]) groups (a few
    # thousand rows at full scale) instead of per-miss arrays; ginv_*
    # map each miss back to its group for the final per-miss metrics.
    tb_off = t_o * TIME_BINS + bin_o
    tb_on = t_r * TIME_BINS + bin_r
    ntb = num_threads * TIME_BINS
    guniq_o, ginv_o, cnt_o = np.unique(tb_off * num_mcs + mc_o,
                                       return_inverse=True,
                                       return_counts=True)
    g_tb = guniq_o // num_mcs
    g_mc = guniq_o % num_mcs
    g_t = g_tb // TIME_BINS
    g_b = g_tb % TIME_BINS
    g_node = thread_nodes[g_t]
    g_mcnode = mc_nodes[g_mc]
    g_mcb = g_mc * TIME_BINS + g_b
    cnt_o = cnt_o.astype(np.float64)
    n_go = guniq_o.size
    # Message legs, per virtual network (vnet 0 = control requests and
    # directory forwards, vnet 1 = data responses -- the simulator's
    # split).  Each leg is (threads, bins, route pairs, counts).
    legs0 = [(g_t, g_b, g_node * nnodes + g_mcnode, cnt_o)]
    legs1 = [(g_t, g_b, g_mcnode * nnodes + g_node, cnt_o)]
    n_r = t_r.size
    n_gr = 0
    if n_r:
        owner_r = prof.miss_owner[remote]
        guniq_r, ginv_r, cnt_r = np.unique(
            (tb_on * num_mcs + mc_r) * num_threads + owner_r,
            return_inverse=True, return_counts=True)
        h_owner = guniq_r % num_threads
        h_rest = guniq_r // num_threads
        h_mc = h_rest % num_mcs
        h_tb = h_rest // num_mcs
        h_t = h_tb // TIME_BINS
        h_b = h_tb % TIME_BINS
        h_node = thread_nodes[h_t]
        h_mcnode = mc_nodes[h_mc]
        h_onode = thread_nodes[h_owner]
        cnt_r = cnt_r.astype(np.float64)
        n_gr = guniq_r.size
        legs0 += [(h_t, h_b, h_node * nnodes + h_mcnode, cnt_r),
                  (h_t, h_b, h_mcnode * nnodes + h_onode, cnt_r)]
        legs1.append((h_t, h_b, h_onode * nnodes + h_node, cnt_r))
    # Route expansion: one row per (group, crossed link).  Static per
    # candidate -- each fixed-point round only reweights by inv_dur.
    nlinks = mesh.num_links
    exp0 = _expand_legs(mesh, legs0)
    exp1 = _expand_legs(mesh, legs1)

    # Per-thread, per-bin wall time: the contention-free advance spread
    # evenly, plus that bin's share of charged miss-path cycles.  A
    # miss-heavy phase therefore *dilates* -- exactly the closed-loop
    # behavior that keeps the simulated system finite -- and each
    # thread's message rate in a bin is 1/its own dilated duration.
    base_rate = ((prof.gap_sum
                  + prof.l1_hits * l1_lat
                  + keep * (prof.l2_hits + prof.misses)
                  * (l1_lat + l2_lat)).astype(np.float64) / TIME_BINS)
    # Wait-independent miss-path cycles, pre-binned (static).
    fixed_t = np.bincount(t_o, weights=fixed, minlength=num_threads)
    fixed_tb = np.bincount(tb_off, weights=fixed, minlength=ntb)
    if n_r:
        on_fixed = onchip_zero + _DIRECTORY_LATENCY + l2_lat
        fixed_t += np.bincount(t_r, weights=on_fixed,
                               minlength=num_threads)
        fixed_tb += np.bincount(tb_on, weights=on_fixed,
                                minlength=ntb)

    w_g = np.zeros(n_go)       # MC queue wait, per off-chip group
    lwg_off = np.zeros(n_go)   # route wait, per off-chip group
    lwg_on = np.zeros(n_gr)    # route wait, per on-chip group
    rw0 = rw1 = None           # per-group route waits, each vnet
    exec_est = max(float(base_finish.max(initial=0.0)), 1.0)
    for _ in range(FIXED_POINT_ROUNDS):
        extra_off = cnt_o * (w_g + lwg_off)
        extra_t = np.bincount(g_t, weights=extra_off,
                              minlength=num_threads)
        extra_tb = np.bincount(g_tb, weights=extra_off, minlength=ntb)
        if n_gr:
            extra_on = cnt_r * lwg_on
            extra_t += np.bincount(h_t, weights=extra_on,
                                   minlength=num_threads)
            extra_tb += np.bincount(h_tb, weights=extra_on,
                                    minlength=ntb)
        finish = base_finish + keep * (fixed_t + extra_t)
        new_est = max(float(finish.max(initial=0.0)), 1.0)
        converged = abs(new_est - exec_est) < FIXED_POINT_TOL * exec_est
        exec_est = new_est
        if converged:
            break
        dur_tb = (base_rate[:, None]
                  + keep * (fixed_tb + extra_tb
                            ).reshape(num_threads, TIME_BINS))
        np.maximum(dur_tb, 1.0, out=dur_tb)
        inv_dur = 1.0 / dur_tb
        idf = inv_dur.reshape(-1)   # indexed by thread * TIME_BINS + bin

        # Per-link utilization per bin: every message holds each route
        # link for `flits` cycles, at its thread's windowed rate (the
        # group's count carries how many misses share the row).
        def link_waits(exp, flits):
            msg_idx, key, t_exp, b_exp, c_exp, nmsg = exp
            rho = np.clip(np.bincount(
                key, weights=flits * c_exp * inv_dur[t_exp, b_exp],
                minlength=TIME_BINS * nlinks), 0.0, RHO_MAX)
            # M/D/1 residual-service wait per link crossing (link
            # holds are deterministic: exactly `flits` cycles); each
            # group's route wait = the sum over its crossed links.
            wait = rho / (2.0 * (1.0 - rho)) * flits * LINK_WAIT_SCALE
            return np.bincount(msg_idx, weights=wait[key],
                               minlength=nmsg)

        new_rw0 = link_waits(exp0, ctrl_flits)
        new_rw1 = link_waits(exp1, data_flits)
        if rw0 is None:
            rw0, rw1 = new_rw0, new_rw1
        else:
            rw0 = DAMPING * rw0 + (1.0 - DAMPING) * new_rw0
            rw1 = DAMPING * rw1 + (1.0 - DAMPING) * new_rw1
        # Groups were concatenated leg-first: vnet 0 = [off-chip
        # request, on-chip request, directory forward], vnet 1 =
        # [off-chip response, cache-to-cache data].
        lwg_off = rw0[:n_go] + rw1[:n_go]
        if n_gr:
            lwg_on = (rw0[n_go:n_go + n_gr] + rw0[n_go + n_gr:]
                      + rw1[n_go:])

        if not spec.optimal:
            lam_mb = np.bincount(g_mcb, weights=cnt_o * idf[g_tb],
                                 minlength=num_mcs * TIME_BINS)
            # Arrival-theorem-style self-exclusion: a thread's own
            # requests are spaced by its (charged) execution and only
            # queue behind *other* traffic -- except the overlapped
            # fraction (1 - keep), which genuinely piles up behind
            # itself.  keep == 1 excludes self fully; keep -> 0 keeps
            # the whole burst.
            lam = np.maximum(lam_mb[g_mcb] - keep * idf[g_tb], 0.0)
            rho_ch = np.clip(lam * channel, 0.0, RHO_MAX)
            rho_bk = np.clip(lam * mean_svc_mb[g_mcb] / banks,
                             0.0, RHO_MAX)
            new_wg = (rho_ch / (2.0 * (1.0 - rho_ch)) * channel
                      + rho_bk / (2.0 * (1.0 - rho_bk))
                      * mean_svc_mb[g_mcb]) * MC_WAIT_SCALE
            w_g = DAMPING * w_g + (1.0 - DAMPING) * new_wg
    # Back to per-miss waits for the metric fills.
    wait_off = w_g[ginv_o]
    lw_off = lwg_off[ginv_o]
    lw_on = lwg_on[ginv_r] if n_r else np.zeros(0)
    m.offchip = int(t_o.size)
    m.offchip_net_sum = float((ctrl_lat(d_o) + data_lat(d_o)
                               + lw_off).sum())
    m.offchip_mem_sum = float((service + wait_off).sum())
    m.offchip_queue_sum = float(wait_off.sum())
    m.net_wait_cycles = float(lw_off.sum() + lw_on.sum())
    if t_r.size:
        m.onchip_net_sum = float((onchip_zero + lw_on).sum())
    for h, c in zip(*np.unique(2 * d_o, return_counts=True)):
        m.offchip_hops[int(h)] += int(c)
    np.add.at(m.mc_node_requests, (mc_o, node_o), 1)
    m.mc_requests = requests.astype(np.int64).tolist()
    m.mc_row_hits = np.bincount(mc_o, weights=rowhit.astype(np.float64),
                                minlength=num_mcs
                                ).astype(np.int64).tolist()
    m.mc_queue_wait = np.bincount(mc_o, weights=wait_off,
                                  minlength=num_mcs).tolist()
    m.mc_busy_elapsed = np.where(requests > 0, exec_est, 0.0).tolist()

    m.thread_finish = (finish * (1.0 + overhead)).tolist()
    m.exec_time = exec_est * (1.0 + overhead)
    m.page_fallbacks = prof.page_fallbacks
    return m


def analytic_run(spec):
    """Execute ``spec`` analytically, returning a
    :class:`~repro.sim.run.RunResult` shaped like a simulated one
    (``run_simulation`` dispatches here for ``engine="analytic"``).

    The persistent result store is deliberately bypassed: estimates
    must never be replayed where a bit-exact simulation is expected.
    """
    from repro.sim.run import RunResult
    _check_supported(spec)
    if spec.obs == "off":
        metrics = analytic_metrics(spec)
        return RunResult(spec=spec, metrics=metrics,
                         page_fallbacks=metrics.page_fallbacks,
                         engine_used="analytic")
    obs = ObsData(level=spec.obs, label=spec.label(),
                  telemetry=(TelemetryRegistry()
                             if spec.obs == "full" else None))
    tracer = Tracer(label=spec.label())
    outer = current_tracer()
    with tracer.activate():
        with tracer.span("run", cat="run", key=spec.key()):
            with tracer.span("analytic.estimate", cat="sim",
                             engine="analytic") as span:
                metrics = analytic_metrics(spec)
                span.add(accesses=metrics.total_accesses)
    obs.spans = tracer.spans()
    obs.meta["mesh"] = (spec.config.mesh_width, spec.config.mesh_height)
    obs.meta["exec_time"] = metrics.exec_time
    if obs.telemetry is not None:
        obs.telemetry.counter("sim.accesses").inc(metrics.total_accesses)
        obs.telemetry.counter("sim.offchip").inc(metrics.offchip)
        obs.telemetry.gauge("sim.exec_time").set(metrics.exec_time)
    if outer is not None:
        outer.absorb(obs.spans)
    return RunResult(spec=spec, metrics=metrics,
                     page_fallbacks=metrics.page_fallbacks, obs=obs,
                     engine_used="analytic")
