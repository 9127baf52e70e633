"""The unified experiment facade: ``repro.run`` / ``repro.sweep`` /
``repro.compare``.

Historically the public entry points were scattered --
:func:`repro.sim.run.run_simulation`, :class:`repro.sim.sweep.Sweep`,
:class:`repro.sim.harness.HardenedSweep`, and the CLI each with their
own conventions.  This module is the stable, documented surface over
all of them; the old import paths keep working as thin aliases.

Since the service PR, every entry point is a thin shim over the typed
request objects in :mod:`repro.api.requests`: the keyword call
``repro.run(program=p, optimized=True)``, the CLI verbs, and the wire
protocol of :mod:`repro.serve` all build the same
:class:`~repro.api.requests.RunRequest` /
:class:`~repro.api.requests.SweepRequest` /
:class:`~repro.api.requests.CompareRequest` dataclasses, so one
request means the same experiment -- with the same memo/store key --
no matter which door it came through.

Naming scheme
-------------
* :class:`Experiment` (= :class:`repro.sim.run.RunSpec`) -- everything
  one simulated execution needs, fully specified and picklable.
* :class:`Result` (= :class:`repro.sim.run.RunResult`) -- one
  experiment's metrics plus inspectable artifacts.
* :class:`SweepResult` (= :class:`repro.sim.harness.SweepReport`) --
  the rows, failures and resume statistics of a sweep; ``to_csv()``
  emits the one canonical schema regardless of which engine ran it.

Quick start::

    import repro
    from repro.workloads import build_workload

    program = build_workload("swim")
    result = repro.run(program=program, optimized=True)

    report = repro.sweep(program, workers=4,
                         mapping=["M1", "M2"], num_mcs=[4, 8])
    print(report.to_csv())

    comparison = repro.compare(program)
    print(f"{comparison.exec_time_reduction:.1%}")

Every sweep accepts ``workers=N`` to fan grid points out to a process
pool (see :mod:`repro.sim.executor`); results are bit-identical to a
serial run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Optional

from repro.api.requests import (CompareRequest, RunRequest,
                                SearchRequest, SweepRequest,
                                request_from_wire)
from repro.arch.clustering import L2ToMCMapping
from repro.arch.config import MachineConfig
from repro.faults.plan import FaultPlan
from repro.program.ir import Program
from repro.sim.metrics import Comparison
from repro.sim.run import RunResult, RunSpec, run_simulation

if TYPE_CHECKING:
    from repro.sim.harness import HarnessConfig, SweepReport

__all__ = ["CompareRequest", "Experiment", "Result", "RunRequest",
           "SearchRequest", "SweepRequest", "SweepResult", "compare",
           "request_from_wire", "run", "search", "sweep"]

#: The documented names for the spec/result pair.
Experiment = RunSpec
Result = RunResult


def __getattr__(name: str):
    # ``SweepResult`` (= :class:`repro.sim.harness.SweepReport`) resolves
    # on first use: importing the facade must not load the sweep harness.
    if name == "SweepResult":
        from repro.sim.harness import SweepReport
        globals()[name] = SweepReport
        return SweepReport
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _default_config() -> MachineConfig:
    return MachineConfig.scaled_default().with_(interleaving="cache_line")


def run(experiment: Optional[Experiment] = None, *,
        program: Optional[Program] = None,
        config: Optional[MachineConfig] = None,
        **spec_kw) -> Result:
    """Execute one experiment end to end.

    Either pass a fully built :class:`Experiment`, or pass ``program=``
    (plus any :class:`Experiment` field as a keyword) and the facade
    assembles a :class:`~repro.api.requests.RunRequest` -- the same
    typed request the CLI and the experiment service build -- with the
    default scaled machine::

        repro.run(repro.Experiment(program=p, config=c, optimized=True))
        repro.run(program=p, optimized=True, seed=3)

    ``validate="metrics"`` / ``validate="strict"`` runs the
    :mod:`repro.validate` invariant sanitizer over the finished run and
    raises :class:`~repro.errors.ValidationError` on any breach.
    ``obs="spans"`` / ``obs="full"`` observes the run (:mod:`repro.obs`)
    and attaches the resulting bundle as ``result.obs``.
    ``engine="reference"`` selects the original every-access event loop
    instead of the default hit-filtered fast loop; the two are
    bit-identical (see docs/performance.md).
    ``store="dir"`` consults the persistent result store
    (:mod:`repro.store`) before simulating and persists the result
    after; a warm hit replays bit-identical metrics with zero
    simulation work (see docs/robustness.md).
    """
    if experiment is not None:
        if program is not None or config is not None or spec_kw:
            raise ValueError(
                "pass either a built Experiment or keyword fields, "
                "not both")
        return run_simulation(experiment)
    if program is None:
        raise ValueError("run() needs an Experiment or a program=")
    return RunRequest.from_objects(program=program, config=config,
                                   **spec_kw).execute()


def compare(program: Program,
            config: Optional[MachineConfig] = None, *,
            mapping: Optional[L2ToMCMapping] = None,
            page_policy: str = "auto",
            localize_offchip: bool = True) -> Comparison:
    """Baseline vs. optimized under one configuration -- the comparison
    every per-application bar of the paper's figures reports.  The two
    underlying :class:`Result`\\ s stay reachable through the returned
    comparison's ``base``/``opt`` metrics."""
    return CompareRequest.from_objects(
        program=program, config=config, mapping=mapping,
        page_policy=page_policy,
        localize_offchip=localize_offchip).execute()


def sweep(program: Program, *,
          config: Optional[MachineConfig] = None,
          workers: int = 1,
          hardened: bool = False,
          checkpoint: Optional[str] = None,
          harness: Optional[HarnessConfig] = None,
          fault_plan: Optional[FaultPlan] = None,
          seed: int = 0,
          validate: str = "off",
          obs: str = "off",
          engine: str = "fast",
          store: Optional[str] = None,
          progress: Optional[Callable] = None,
          max_points: Optional[int] = None,
          **axes: Iterable) -> SweepResult:
    """Run a cartesian configuration sweep and return its
    :class:`SweepResult`.

    Axes are keyword lists (``mapping=["M1", "M2"], num_mcs=[4, 8]``;
    see :data:`repro.sim.executor.CONFIG_AXES`).  ``workers=N`` runs
    grid points on a process pool, bit-identical to serial.

    The plain engine memoizes and raises on failure; requesting
    ``hardened=True`` -- implied by ``checkpoint``, ``harness`` or
    ``max_points`` -- runs every point under the timeout/retry/
    checkpoint harness instead, collecting failures as rows in
    ``result.failures``.

    ``validate`` applies the :mod:`repro.validate` level to every run in
    the sweep; under the hardened engine a validation breach becomes a
    failure row (kind ``validation``) instead of aborting the sweep.

    ``obs`` applies the :mod:`repro.obs` level to every run; everything
    observed comes back merged as ``result.obs``, ready for the
    exporters (one Chrome trace with per-run lanes).  ``progress`` is
    the periodic reporting hook: under the hardened engine it receives
    ``(wave_index, done, failed, total)`` after every checkpoint wave,
    under the plain engine each completed
    :class:`~repro.sim.executor.PointOutcome`.

    ``engine`` selects the event-loop implementation for every run
    (``"fast"``, the default, or ``"reference"``); results are
    bit-identical either way.

    ``store`` names a persistent result-store directory
    (:mod:`repro.store`): every run in the sweep replays from it when
    a record exists and persists its result otherwise, and hardened
    sweeps additionally resume completed rows from it across
    processes.  Results are bit-identical with the store on or off;
    ``result.store_hits`` / ``result.store_misses`` report the
    traffic.
    """
    request = SweepRequest.from_objects(
        program=program, config=config, axes=axes, workers=workers,
        hardened=hardened, fault_plan=fault_plan, seed=seed,
        validate=validate, obs=obs, engine=engine, store=store)
    return request.execute(progress=progress, checkpoint=checkpoint,
                           harness=harness, max_points=max_points)


def search(program: Program,
           config: Optional[MachineConfig] = None,
           **search_kw):
    """Search the MC-placement / mapping / interleaving space for
    ``program`` and return a :class:`repro.search.SearchResult`.

    A thin shim over :class:`~repro.api.requests.SearchRequest` (the
    same typed request the CLI ``search`` verb and the experiment
    service build): candidates are screened with the analytic cost
    engine (``engine="analytic"``, see docs/search.md), the best
    ``top_k`` survive, and the frontier is re-simulated bit-exactly
    with ``engine="fast"``.  Keywords mirror
    :func:`repro.search.run_search` (``mode``, ``placements``,
    ``mappings``, ``interleavings``, ``top_k``, ``steps``, ``seed``,
    ``resimulate``, ``obs``)::

        result = repro.search(program, top_k=4, placements="perimeter",
                              mode="anneal", seed=7)
        print(result.to_csv())

    Fully seeded: equal arguments yield byte-identical frontier CSV.
    ``workers=N`` fans the frontier re-simulation out to a process
    pool (an operational knob, not part of the request identity); the
    CSV stays byte-identical.
    """
    workers = search_kw.pop("workers", 1)
    return SearchRequest.from_objects(program=program, config=config,
                                      **search_kw).execute(
                                          workers=workers)
