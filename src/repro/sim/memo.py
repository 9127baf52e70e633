"""Compile/trace memoization across runs and sweep points.

A sweep grid re-derives identical front-half artifacts over and over:
every ``optimal`` pair and every (seed, fault-plan, page-policy) axis
shares its program transformation and generated traces, and baseline
runs share them across the whole mapping axis (original layouts never
depend on the mapping).  This module caches the two front-half stages
behind content-hash keys built with the same token machinery as
:meth:`repro.sim.run.RunSpec.key`:

* **compile** -- the layout transformation (or the original layouts).
  Keyed by the program token alone for baseline runs; optimized runs
  add the mapping token, the full machine configuration and the
  ``localize_offchip`` flag.
* **trace** -- address-space placement plus per-thread trace
  generation.  Keyed by the compile key and the config fields the
  placement/traces actually depend on (:data:`TRACE_CONFIG_FIELDS`);
  sweep points that differ only in, say, ``hop_latency`` or
  ``banks_per_mc`` share one trace set.

Per-run state (page tables, physical memory, the simulator itself) is
never cached, and OS translation is not either -- it depends on the
seed and policy.  Cached trace arrays are marked read-only so an
accidental downstream mutation raises instead of corrupting a future
run.  Entries live in a small process-global LRU
(:class:`ArtifactCache`); worker processes each hold their own.

Results are bit-identical with the cache on or off (the cached values
*are* the values the stages would recompute), which
``tests/test_memo.py`` asserts alongside the invalidation semantics.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import asdict
from typing import Dict, Optional, Tuple

from repro.obs.tracer import obs_span

#: Configuration fields that address-space placement and trace
#: generation read; anything else may differ between two runs sharing
#: one cached trace set.  (Alignment: page_size, num_mcs, the
#: interleave unit derived from interleaving/l2_line/page_size, plus
#: shared-L2 home-bank striding; thread count: mesh dims x
#: threads_per_core.)
TRACE_CONFIG_FIELDS = ("mesh_width", "mesh_height", "threads_per_core",
                      "shared_l2", "page_size", "num_mcs",
                      "interleaving", "l2_line")


class ArtifactCache:
    """A small LRU of pipeline artifacts with hit/miss counters.

    Thread-safe: the hardened harness drives timed runs through worker
    threads (and the parallel executor's serial fallback shares one
    process), so lookups, insertions, and the LRU reordering all happen
    under one lock.  The cached *values* are shared across threads too
    -- that is safe because every artifact is treated as read-only
    (trace arrays are literally write-protected).
    """

    def __init__(self, capacity: int = 8):
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: str):
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: str, value) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries


#: The process-global cache `run_simulation` uses.
cache = ArtifactCache()

_enabled = True
_configure_lock = threading.Lock()


def enabled() -> bool:
    return _enabled


def configure(enabled: Optional[bool] = None,
              capacity: Optional[int] = None) -> None:
    """Adjust the global memo: ``configure(enabled=False)`` bypasses it
    (benches measuring cold-start costs), ``capacity=N`` resizes the
    LRU.  The cache is cleared whenever either knob changes.

    Serialized under a lock so two threads reconfiguring concurrently
    cannot interleave the flag flip, the resize, and the clear into an
    inconsistent state (e.g. a stale oversized cache with the new
    capacity)."""
    global _enabled
    with _configure_lock:
        if enabled is not None:
            _enabled = enabled
        if capacity is not None:
            cache.capacity = capacity
        cache.clear()


def _digest(payload: Dict[str, object]) -> str:
    return hashlib.sha1(
        json.dumps(payload, sort_keys=True, default=str)
        .encode("utf-8")).hexdigest()


def compile_key(spec) -> str:
    """Content identity of the compile stage for ``spec``.

    Baseline layouts depend on the program alone; the transformation
    additionally reads the mapping and (conservatively) the whole
    machine configuration.
    """
    from repro.sim.run import _mapping_token, _program_token
    if spec.optimized:
        payload: Dict[str, object] = {
            "kind": "optimized",
            "program": _program_token(spec.program),
            "mapping": _mapping_token(spec.resolved_mapping()),
            "config": asdict(spec.config),
            "localize_offchip": spec.localize_offchip,
        }
    else:
        payload = {"kind": "original",
                   "program": _program_token(spec.program)}
    return _digest(payload)


def trace_key(spec) -> str:
    """Content identity of placement + trace generation for ``spec``."""
    config = spec.config
    return _digest({
        "compile": compile_key(spec),
        "config": {name: getattr(config, name)
                   for name in TRACE_CONFIG_FIELDS},
    })


def compiled(spec) -> Tuple[Optional[object], Dict[str, object], bool]:
    """The compile stage, memoized.

    Returns ``(transformation, layouts, any_transformed)``; the
    transformation is ``None`` for baseline runs.  A cached
    :class:`~repro.core.pipeline.TransformationResult` is shared across
    results -- treat it as read-only.
    """
    from repro.core.pipeline import LayoutTransformer, original_layouts
    if not spec.optimized:
        return None, original_layouts(spec.program), False
    key = None
    if _enabled:
        key = "compile:" + compile_key(spec)
        hit = cache.get(key)
        if hit is not None:
            with obs_span("compile.transform", cat="compile",
                          memo="hit"):
                return hit
    with obs_span("compile.transform", cat="compile"):
        transformer = LayoutTransformer(
            spec.config, spec.resolved_mapping(),
            localize_offchip=spec.localize_offchip)
        transformation = transformer.run(spec.program)
    value = (transformation, transformation.layouts,
             transformation.any_transformed)
    if key is not None:
        cache.put(key, value)
    return value


def placed_traces(spec, layouts):
    """Address-space placement + trace generation, memoized.

    Returns ``(space, bases, traces)``.  Cached trace arrays are marked
    read-only; every downstream consumer derives fresh arrays from
    them.
    """
    from repro.program.address_space import AddressSpace
    from repro.program.trace import generate_traces
    config = spec.config
    num_threads = config.num_cores * config.threads_per_core
    key = None
    if _enabled:
        key = "trace:" + trace_key(spec)
        hit = cache.get(key)
        if hit is not None:
            space, bases, traces = hit
            with obs_span("os.place", cat="os", arrays=len(layouts),
                          memo="hit"):
                pass
            with obs_span("trace.generate", cat="trace",
                          threads=num_threads, memo="hit") as span:
                span.add(accesses=sum(len(t.vaddrs) for t in traces))
            return space, bases, traces
    with obs_span("os.place", cat="os", arrays=len(layouts)):
        space = AddressSpace(config)
        bases = space.place_all(layouts)
    with obs_span("trace.generate", cat="trace",
                  threads=num_threads) as span:
        traces = generate_traces(spec.program, layouts, bases,
                                 num_threads)
        span.add(accesses=sum(len(t.vaddrs) for t in traces))
    if key is not None:
        for trace in traces:
            trace.vaddrs.setflags(write=False)
            trace.gaps.setflags(write=False)
            trace.writes.setflags(write=False)
        cache.put(key, (space, bases, traces))
    return space, bases, traces
