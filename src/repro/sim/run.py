"""High-level experiment runner: program + configuration -> metrics.

This is the public entry point the examples and benchmarks use.  A
:class:`RunSpec` names everything one simulated execution needs -- the
application model, the machine, the L2-to-MC mapping, whether the layout
pass runs, which page-allocation policy the OS uses, and whether the
idealized *optimal scheme* is simulated instead.  :func:`run_simulation`
performs the whole flow:

1. run (or skip) the layout transformation pass,
2. place arrays in the virtual address space,
3. generate per-thread traces,
4. translate to physical addresses under the chosen OS policy,
5. simulate, and return :class:`~repro.sim.metrics.RunMetrics`.

Page-allocation policies are resolved from the configuration: cache-line
interleaving keeps the MC-select bits below the page offset, so
translation is identity; page interleaving uses the default sequential
allocator for baselines, the MC-aware allocator (with the layout pass's
hints) for optimized runs, and the first-touch policy for the Section
6.3 comparison.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.arch.clustering import L2ToMCMapping
from repro.arch.config import CACHE_LINE_INTERLEAVING, MachineConfig
from repro.core.pipeline import TransformationResult
from repro.faults.plan import FaultPlan
from repro.obs.data import OBS_LEVELS, ObsData
from repro.obs.telemetry import TelemetryRegistry
from repro.obs.tracer import Tracer, current_tracer, obs_instant, obs_span
from repro.osmodel.allocation import (FirstTouchPolicy, IdentityPolicy,
                                      MCAwarePolicy, PhysicalMemory,
                                      SequentialPolicy)
from repro.osmodel.page_table import PageTable, translate_traces
from repro.program.ir import Program
from repro.sim import memo
from repro.sim.metrics import Comparison, RunMetrics
from repro.store import base as store_backends
from repro.store import records as store_records
from repro.sim.system import SystemSimulator, build_streams
from repro.validate import (NetworkAudit, RunAudit, VALIDATE_LEVELS,
                            validate_run)

PAGE_POLICIES = ("auto", "default", "mc_aware", "first_touch")
#: The two bit-identical event-loop engines; everything in
#: tests/test_fastpath_equivalence.py quantifies over exactly these.
EXACT_ENGINES = ("fast", "reference")
#: Full ``engine=`` vocabulary.  ``analytic`` is the closed-form
#: estimator (repro.search.analytic): deliberately NOT bit-exact,
#: distinct key, store bypassed -- see docs/search.md.
ENGINES = EXACT_ENGINES + ("analytic",)


def _program_token(program: Program) -> Dict[str, object]:
    """Structural identity of a program model: everything that changes
    the generated traces, without hashing raw index data element-wise
    (a cheap checksum stands in for indexed streams)."""
    nests = []
    for nest in program.nests:
        refs = []
        for ref in nest.refs:
            if hasattr(ref, "access"):
                refs.append(("affine", ref.array.name, ref.access,
                             ref.offset, ref.is_write))
            else:
                checksum = int(sum(int(np.asarray(d, dtype=np.int64).sum())
                                   for d in ref.index_data))
                refs.append(("indexed", ref.array.name, ref.num_points,
                             checksum, ref.is_write))
        nests.append((nest.name, nest.bounds, nest.parallel_dim,
                      nest.repeat, nest.work_per_iteration, refs))
    return {
        "name": program.name,
        "arrays": [(a.name, a.dims, a.element_size)
                   for a in program.arrays],
        "nests": nests,
        "mlp_demand": program.mlp_demand,
    }


def _mapping_token(mapping: L2ToMCMapping) -> Dict[str, object]:
    """Structural identity of an L2-to-MC mapping (the name alone is
    not enough: custom mappings all default to ``"custom"``)."""
    return {
        "name": mapping.name,
        "mc_nodes": list(mapping.mc_nodes),
        "clusters": [(list(c.cores), list(c.mc_indices))
                     for c in mapping.clusters],
    }


@dataclass
class RunSpec:
    """One simulated execution, fully specified."""

    program: Program
    config: MachineConfig
    mapping: Optional[L2ToMCMapping] = None
    optimized: bool = False
    page_policy: str = "auto"
    optimal: bool = False
    localize_offchip: bool = True
    pages_per_mc: Optional[int] = None
    name: str = ""
    # Robustness knobs: an optional fault plan degrades the simulated
    # fabric, and the seed drives every stochastic tie-break (first-touch
    # races) so any run -- healthy or faulted -- is bit-reproducible.
    fault_plan: Optional[FaultPlan] = None
    seed: int = 0
    # Invariant-sanitizer level (repro.validate): "off" costs nothing,
    # "metrics" checks the RunMetrics accounting identities, "strict"
    # audits every layer (compiler/OS/NoC/memsys/metrics).  An audit
    # knob, not a simulation input: it is deliberately excluded from
    # key(), so validated and unvalidated runs share cache identity.
    validate: str = "off"
    # Observability level (repro.obs): "off" costs nothing, "spans"
    # traces wall-clock phases, "full" additionally collects hardware
    # telemetry (per-link flit occupancy, per-MC queue series).  Like
    # ``validate``, an observation knob excluded from key().
    obs: str = "off"
    # Event-loop engine: "fast" (default) runs the hit-filtered loop of
    # repro.sim.fastpath whenever the run is eligible (falling back to
    # the reference loop otherwise, as RunResult.engine_used and the
    # sim.engine.fallback.<reason> counters record), "reference" always runs
    # the original per-access loop.  The two are bit-identical -- the
    # equivalence suite proves it -- so like ``validate``/``obs`` the
    # engine is excluded from key(): both engines share cache identity.
    # "analytic" (repro.search.analytic) *estimates* the metrics from
    # miss profiles + a queue model instead of simulating; estimates
    # are not bit-identical, so analytic runs get a distinct key()
    # marker and never touch the persistent result store.
    engine: str = "fast"
    # Persistent result store (repro.store): a directory path makes the
    # run consult the crash-safe content-addressed store before
    # simulating and persist its metrics after -- a warm hit replays
    # bit-identical RunMetrics with zero simulation work.  Where the
    # results live, not what they are: excluded from key(), and results
    # are bit-identical with the store on or off.
    store: Optional[str] = None

    def __post_init__(self) -> None:
        if self.page_policy not in PAGE_POLICIES:
            raise ValueError(f"unknown page policy {self.page_policy!r}")
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}; "
                             f"engines: {', '.join(ENGINES)}")
        if self.validate not in VALIDATE_LEVELS:
            raise ValueError(f"unknown validation level "
                             f"{self.validate!r}; levels: "
                             f"{', '.join(VALIDATE_LEVELS)}")
        if self.obs not in OBS_LEVELS:
            raise ValueError(f"unknown observability level "
                             f"{self.obs!r}; levels: "
                             f"{', '.join(OBS_LEVELS)}")

    def resolved_mapping(self) -> L2ToMCMapping:
        return self.mapping or self.config.default_mapping()

    def label(self) -> str:
        if self.name:
            return self.name
        kind = "optimal" if self.optimal else (
            "optimized" if self.optimized else "original")
        return f"{self.program.name}/{kind}"

    def key(self) -> str:
        """Canonical cache identity of this run.

        Covers every input that changes the simulation: the program's
        structure, the full machine configuration, the resolved mapping,
        the run flags, the fault plan and the seed.  The one identity
        used for sweep memoization, harness checkpoint entries, and
        result-row identity -- so a memoized sweep, a resumed
        checkpoint, and a parallel worker all agree on what "the same
        run" means.  Short and filename-safe.
        """
        payload = {
            "program": _program_token(self.program),
            "config": asdict(self.config),
            "mapping": _mapping_token(self.resolved_mapping()),
            "optimized": self.optimized,
            "optimal": self.optimal,
            "page_policy": self.page_policy,
            "localize_offchip": self.localize_offchip,
            "pages_per_mc": self.pages_per_mc,
            "fault_plan": (self.fault_plan.to_dict()
                           if self.fault_plan is not None else None),
            "seed": self.seed,
        }
        if self.engine == "analytic":
            # Estimates are not interchangeable with simulated results:
            # give them a distinct identity so an analytic screen can
            # never be replayed where a bit-exact run is expected.
            # fast/reference keys stay byte-identical to each other.
            payload["engine"] = "analytic"
        digest = hashlib.sha1(
            json.dumps(payload, sort_keys=True, default=str)
            .encode("utf-8")).hexdigest()
        kind = "optimal" if self.optimal else (
            "optimized" if self.optimized else "original")
        safe_name = "".join(c if c.isalnum() or c in "._" else "_"
                            for c in self.program.name)
        return f"{safe_name}-{kind}-{digest[:16]}"


@dataclass
class RunResult:
    """Metrics plus the artifacts a bench may want to inspect."""

    spec: RunSpec
    metrics: RunMetrics
    transformation: Optional[TransformationResult] = None
    page_fallbacks: int = 0
    # The RunAudit assembled when spec.validate != "off" (None otherwise);
    # kept on the result so tests and the doctor can re-check artifacts.
    audit: Optional[RunAudit] = None
    # The observability bundle when spec.obs != "off" (None otherwise):
    # phase spans, telemetry registry (full level), and exporter metadata.
    obs: Optional[ObsData] = None
    # True when the result store answered (a replay: no simulation ran).
    store_hit: bool = False
    # The event loop that actually ran: "fast", "reference" (requested,
    # or a fallback from "fast" -- then ``fallback_reason`` says why),
    # "analytic", or None for a store replay.  Kept off RunMetrics: the
    # engines are bit-identical, so this is not part of the result.
    engine_used: Optional[str] = None
    fallback_reason: Optional[str] = None


def _make_policy(spec: RunSpec, mapping: L2ToMCMapping,
                 hints: Dict[int, int]):
    config = spec.config
    if config.interleaving == CACHE_LINE_INTERLEAVING:
        return IdentityPolicy()
    policy = spec.page_policy
    if policy == "auto":
        policy = "mc_aware" if spec.optimized else "default"
    if policy == "default":
        return SequentialPolicy()
    if policy == "first_touch":
        return FirstTouchPolicy(mapping, seed=spec.seed)
    return MCAwarePolicy(hints, mapping)


def _fault_windows(plan: FaultPlan) -> List[Dict[str, object]]:
    """The plan's activation windows as plain dicts, for trace export
    (Chrome fault-lane events) and the per-run ``ObsData.meta``."""
    windows: List[Dict[str, object]] = []
    for fault in plan.link_faults:
        windows.append({"kind": "link_dead",
                        "what": f"link {fault.a}-{fault.b}",
                        "start": fault.start, "end": fault.end})
    for deg in plan.link_degradations:
        windows.append({"kind": "link_degraded",
                        "what": f"link {deg.a}-{deg.b} x{deg.factor:g}",
                        "start": deg.start, "end": deg.end})
    for fault in plan.mc_faults:
        what = f"mc {fault.mc} {fault.kind}"
        if fault.kind == "slow":
            what += f" x{fault.factor:g}"
        windows.append({"kind": f"mc_{fault.kind}", "what": what,
                        "start": fault.start, "end": fault.end})
    for fault in plan.bank_faults:
        windows.append({"kind": "bank_dead",
                        "what": f"mc {fault.mc} bank {fault.bank}",
                        "start": 0.0, "end": None})
    return windows


def _store_fetch(spec: RunSpec, store, obs: Optional[ObsData]
                 ) -> Optional[RunResult]:
    """Replay ``spec`` from the result store, or ``None`` on a miss.

    Validated runs never read the store: a replayed record carries only
    metrics, and ``validate != "off"`` needs the run's artifacts to
    audit.  Corruption inside the store is already a quarantined miss
    by the time it gets here; stats deltas (hits, misses, quarantines,
    degradations) land in the run's telemetry as ``store.*`` counters.
    """
    if store is None or spec.validate != "off":
        return None
    before = store.stats.snapshot()
    with obs_span("store.get", cat="store", backend=store.description) \
            as span:
        result = store_records.load_result(store, spec)
        span.add(hit=result is not None)
    if obs is not None and obs.telemetry is not None:
        store_backends.publish_stats(obs.telemetry, before,
                                     store.stats.snapshot())
    if result is not None:
        result.obs = obs
        result.store_hit = True
    return result


def _store_save(spec: RunSpec, store, result: RunResult,
                obs: Optional[ObsData]) -> None:
    """Persist a freshly simulated run; never raises (the degradation
    ladder inside the store absorbs environmental failure)."""
    if store is None:
        return
    before = store.stats.snapshot()
    with obs_span("store.put", cat="store", backend=store.description):
        store_records.store_result(store, spec, result)
    if obs is not None and obs.telemetry is not None:
        store_backends.publish_stats(obs.telemetry, before,
                                     store.stats.snapshot())


def run_simulation(spec: RunSpec) -> RunResult:
    """Execute one :class:`RunSpec` end to end.

    With ``spec.store`` set, the persistent result store is consulted
    first: a warm hit replays bit-identical metrics without touching
    the simulator (zero simulation spans), a miss simulates and then
    persists.  With ``spec.obs != "off"`` the run is observed: a fresh
    per-run :class:`~repro.obs.tracer.Tracer` is activated for the
    duration (so concurrently observed runs never interleave spans),
    the bundle is attached as ``result.obs``, and -- when a tracer was
    already active in this context (e.g. the CLI profiling a whole
    sweep) -- the finished spans are also absorbed into it.

    ``engine="analytic"`` short-circuits to the estimator
    (:func:`repro.search.analytic.analytic_run`) before the store is
    even resolved: estimates are never persisted or replayed.
    """
    if spec.engine == "analytic":
        from repro.search.analytic import analytic_run
        return analytic_run(spec)
    store = store_backends.resolve(spec.store)
    if spec.obs == "off":
        result = _store_fetch(spec, store, None)
        if result is not None:
            return result
        result = _execute(spec, None)
        _store_save(spec, store, result, None)
        return result
    obs = ObsData(level=spec.obs, label=spec.label(),
                  telemetry=(TelemetryRegistry()
                             if spec.obs == "full" else None))
    tracer = Tracer(label=spec.label())
    outer = current_tracer()
    with tracer.activate():
        with tracer.span("run", cat="run", key=spec.key()):
            result = _store_fetch(spec, store, obs)
            if result is None:
                result = _execute(spec, obs)
                _store_save(spec, store, result, obs)
    obs.spans = tracer.spans()
    result.obs = obs
    if outer is not None:
        outer.absorb(obs.spans)
    return result


def _execute(spec: RunSpec, obs: Optional[ObsData]) -> RunResult:
    """The simulation flow proper, instrumented with phase spans."""
    config = spec.config
    mapping = spec.resolved_mapping()
    num_threads = config.num_cores * config.threads_per_core
    telemetry = obs.telemetry if obs is not None else None

    # Compile and trace artifacts are memoized across runs sharing the
    # same content identity (repro.sim.memo): an optimal pair, a seed or
    # fault-plan axis, and every baseline across a mapping axis reuse
    # the transformation/placement/traces instead of recomputing them.
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
    capacities = None
    if spec.fault_plan is not None and spec.fault_plan.page_pressure:
        capacities = [pages_per_mc] * config.num_mcs
        for pressure in spec.fault_plan.page_pressure:
            if not 0 <= pressure.mc < config.num_mcs:
                raise ValueError(f"page pressure on unknown MC "
                                 f"{pressure.mc}")
            capacities[pressure.mc] = int(
                round(pages_per_mc * (1.0 - pressure.fraction)))
    memory = PhysicalMemory(config.num_mcs, pages_per_mc,
                            capacities=capacities)
    table = PageTable(config.page_size, memory, policy)

    cores = mapping.num_threads
    thread_cores = [mapping.core_order[t % cores]
                    for t in range(num_threads)]
    if isinstance(policy, IdentityPolicy):
        ptraces = vtraces  # ppn == vpn: skip the table walk entirely
    else:
        with obs_span("os.translate", cat="os"):
            ptraces = translate_traces(vtraces, table, thread_cores,
                                       seed=spec.seed)

    with obs_span("sim.build_streams", cat="sim"):
        streams = build_streams(config, thread_cores, vtraces, ptraces,
                                gaps,
                                writes=[t.writes for t in traces],
                                segments=[t.segments for t in traces])
    network_audit = (NetworkAudit(mapping.mesh)
                     if spec.validate == "strict" else None)
    simulator = SystemSimulator(
        config, mapping, optimal=spec.optimal,
        miss_overlap=config.effective_overlap(spec.program.mlp_demand),
        fault_plan=spec.fault_plan, network_audit=network_audit,
        telemetry=telemetry)
    if obs is not None and spec.fault_plan is not None \
            and not spec.fault_plan.empty:
        windows = _fault_windows(spec.fault_plan)
        obs.meta["fault_windows"] = windows
        for window in windows:
            obs_instant("fault.activate", cat="fault", **window)
    overhead = config.transform_overhead if transformed else 0.0
    with obs_span("sim.system", cat="sim", requested=spec.engine) as span:
        metrics = simulator.run(streams, transform_overhead=overhead,
                                name=spec.label(), engine=spec.engine)
        span.add(engine=simulator.engine_used)
    metrics.page_fallbacks = getattr(policy, "fallbacks", 0)
    if obs is not None:
        obs.meta["mesh"] = (mapping.mesh.width, mapping.mesh.height)
        obs.meta["exec_time"] = metrics.exec_time
        if telemetry is not None:
            telemetry.counter("os.page_fallbacks").inc(
                metrics.page_fallbacks)

    audit: Optional[RunAudit] = None
    if spec.validate != "off":
        with obs_span("validate", cat="validate", level=spec.validate):
            audit = RunAudit(
                spec=spec, config=config, mapping=mapping,
                transformation=transformation, layouts=dict(layouts),
                page_table=table, memory=memory, policy=policy,
                metrics=metrics, network_audit=network_audit, obs=obs)
            report = validate_run(audit, spec.validate)
            metrics.validation_checks = report.checks_run
            metrics.validation_violations = len(report.violations)
            report.raise_if_failed(label=spec.label())

    return RunResult(spec=spec, metrics=metrics,
                     transformation=transformation,
                     page_fallbacks=metrics.page_fallbacks,
                     audit=audit, obs=obs,
                     engine_used=simulator.engine_used,
                     fallback_reason=simulator.fallback_reason)


def run_pair(program: Program, config: MachineConfig,
             mapping: Optional[L2ToMCMapping] = None,
             page_policy: str = "auto",
             localize_offchip: bool = True) -> Tuple[RunResult, RunResult,
                                                     Comparison]:
    """Baseline vs. optimized under one configuration -- the comparison
    every per-application bar of Figures 14/16/17/19-22 reports."""
    base = run_simulation(RunSpec(program=program, config=config,
                                  mapping=mapping, optimized=False,
                                  page_policy=page_policy))
    opt = run_simulation(RunSpec(program=program, config=config,
                                 mapping=mapping, optimized=True,
                                 page_policy=page_policy,
                                 localize_offchip=localize_offchip))
    return base, opt, Comparison(base.metrics, opt.metrics)


def run_optimal_pair(program: Program, config: MachineConfig,
                     mapping: Optional[L2ToMCMapping] = None
                     ) -> Tuple[RunResult, RunResult, Comparison]:
    """Baseline vs. the idealized optimal scheme (Figure 4)."""
    base = run_simulation(RunSpec(program=program, config=config,
                                  mapping=mapping, optimized=False))
    opt = run_simulation(RunSpec(program=program, config=config,
                                 mapping=mapping, optimized=False,
                                 optimal=True))
    return base, opt, Comparison(base.metrics, opt.metrics)
