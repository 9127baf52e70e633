"""Parallel sweep execution engine: fan grid points out to workers.

The paper's evaluation is a large family of sweeps (interleaving x
mapping x placement x MC-count x mesh x threads); serially, every grid
point pays the full baseline+optimized simulation cost in one process.
This module is the shared engine underneath :class:`repro.sim.sweep.Sweep`,
:class:`repro.sim.harness.HardenedSweep`, and the ``repro-cli sweep
--workers N`` flag: it turns a list of grid points into
:class:`PointTask` work items and executes them on a fork-started
:class:`~concurrent.futures.ProcessPoolExecutor` with work-stealing
scheduling.

Determinism is free by construction: a grid point is a pure function of
``(program, base configuration, settings, fault plan, seed)`` -- every
stochastic component (trace jitter, first-touch races, fault drawing)
is seeded from the task itself, never from process-global state -- and
results are collected in submission order.  A parallel sweep is
therefore bit-identical to a serial one, which the test suite asserts
down to CSV bytes.  With ``workers=1`` (or a single task) no pool is
created at all: everything runs in-process, so debuggers, monkeypatched
test doubles, and coverage tools keep working.

This module also owns the one canonical translation from sweep
*settings* to :class:`~repro.sim.run.RunSpec` pairs
(:func:`point_specs`) and the axis vocabulary (:data:`CONFIG_AXES`),
which the sweep front-ends re-export.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import random
import signal
import time
from collections import deque
from concurrent.futures import (FIRST_COMPLETED, ProcessPoolExecutor,
                                wait)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

# The mapping presets live beside the mapping builders; re-exported
# here for the sweep front-ends.
from repro.arch.clustering import (MAPPING_PRESETS,  # noqa: F401
                                   resolve_mapping)
from repro.arch.config import MachineConfig
from repro.errors import WorkerLostError
from repro.faults.plan import FaultPlan
from repro.obs.tracer import obs_instant
from repro.program.ir import Program
from repro.sim.metrics import Comparison
from repro.sim.run import RunSpec, run_simulation
from repro.sim.serialize import comparison_row, point_key
from repro.store import base as store_backends

#: Sweep axes that map onto :class:`MachineConfig` fields.  ``mapping``
#: rides alongside as the one non-config axis.
CONFIG_AXES = ("interleaving", "shared_l2", "mc_placement",
               "num_mcs", "mesh_width", "mesh_height",
               "threads_per_core", "banks_per_mc", "model_writes")

def validate_axes(axes: Mapping[str, Iterable]) -> None:
    """Reject unknown axis names with a diagnostic listing the known
    ones -- shared by every sweep front-end."""
    for name in axes:
        if name not in CONFIG_AXES and name != "mapping":
            raise ValueError(
                f"unknown sweep axis {name!r}; known axes: "
                f"{', '.join(CONFIG_AXES)}, mapping")


def grid_settings(axes: Mapping[str, Iterable]) -> List[Dict[str, object]]:
    """The cartesian product of the axes as per-point settings dicts,
    in the canonical (sorted-axis, row-major) order every sweep uses."""
    names = sorted(axes)
    return [dict(zip(names, combo))
            for combo in itertools.product(*(list(axes[n])
                                             for n in names))]


def point_specs(program: Program, base_config: MachineConfig,
                settings: Mapping[str, object],
                fault_plan: Optional[FaultPlan] = None,
                seed: int = 0,
                validate: str = "off",
                obs: str = "off",
                engine: str = "fast",
                store: Optional[str] = None) -> Tuple[RunSpec, RunSpec]:
    """The baseline/optimized :class:`RunSpec` pair for one grid point.

    This is the single source of truth for what a sweep point *means*;
    :class:`~repro.sim.sweep.Sweep` and
    :class:`~repro.sim.harness.HardenedSweep` both build their runs --
    and their cache/checkpoint keys -- from it.
    """
    config_kw = {k: v for k, v in settings.items() if k in CONFIG_AXES}
    config = base_config.with_(**config_kw)
    mapping = resolve_mapping(config, str(settings.get("mapping", "M1")))
    specs = tuple(
        RunSpec(program=program, config=config, mapping=mapping,
                optimized=optimized, fault_plan=fault_plan, seed=seed,
                validate=validate, obs=obs, engine=engine, store=store)
        for optimized in (False, True))
    return specs[0], specs[1]


@dataclass(frozen=True)
class PointTask:
    """One grid point, fully specified and picklable.

    ``hardened`` routes the runs through
    :func:`repro.sim.harness.run_hardened` (timeout/retry policy from
    ``harness``); otherwise failures propagate as exceptions.
    """

    program: Program
    base_config: MachineConfig
    settings: Tuple[Tuple[str, object], ...]
    fault_plan: Optional[FaultPlan] = None
    seed: int = 0
    validate: str = "off"
    obs: str = "off"
    # Event-loop engine for both runs ("fast" or "reference"); not part
    # of the point key -- the engines are bit-identical by contract.
    engine: str = "fast"
    # Persistent result store directory (repro.store); like the engine
    # it names where results live, not what they are, so it is not part
    # of the point key.  Each worker process opens its own handle on
    # the shared directory.
    store: Optional[str] = None
    hardened: bool = False
    harness: Optional[object] = None  # HarnessConfig; typed loosely to
    # keep this module import-cycle-free with repro.sim.harness


@dataclass
class PointOutcome:
    """What one grid point produced: a result row or a diagnostic."""

    settings: Dict[str, object]
    key: str
    row: Optional[Dict[str, object]] = None
    comparison: Optional[Comparison] = None
    error: Optional[str] = None
    # Per-run ObsData bundles (baseline then optimized) when the task
    # requested obs != "off"; picklable, so they survive the pool.
    obs: List[object] = field(default_factory=list)
    # Result-store traffic this point generated (0/0 without a store);
    # summed by the sweeps so a parent process can report hits that
    # happened inside pool workers.
    store_hits: int = 0
    store_misses: int = 0

    @property
    def ok(self) -> bool:
        return self.row is not None


def _chaos_maybe_die() -> None:
    """Fault-injection seam for the chaos harness (tests/test_chaos.py).

    When ``REPRO_CHAOS_DIR`` names a directory containing a
    ``kill-worker`` token, the first pool worker to claim the token
    (an atomic rename, so exactly one claimant wins) SIGKILLs itself --
    a *real* dead worker, not a mock, which the supervision layer must
    then recover from.  Never fires in the parent process, and costs
    one ``os.environ`` lookup when the variable is unset.
    """
    root = os.environ.get("REPRO_CHAOS_DIR")
    if not root or multiprocessing.parent_process() is None:
        return
    token = os.path.join(root, "kill-worker")
    try:
        os.rename(token, token + ".consumed")
    except OSError:
        return
    os.kill(os.getpid(), signal.SIGKILL)


def run_point(task: PointTask) -> PointOutcome:
    """Execute one grid point (baseline + optimized) in this process.

    This is the worker function the process pool invokes; it is also
    the in-process fallback, so serial and parallel sweeps share every
    line of per-point logic.
    """
    _chaos_maybe_die()
    settings = dict(task.settings)
    base_spec, opt_spec = point_specs(task.program, task.base_config,
                                      settings, task.fault_plan,
                                      task.seed, task.validate, task.obs,
                                      task.engine, task.store)
    key = point_key((base_spec, opt_spec))
    store = store_backends.resolve(task.store)
    stats_before = store.stats.snapshot() if store is not None else None
    obs_parts: List[object] = []
    if task.hardened:
        from repro.sim.harness import run_hardened
        metrics = []
        for spec in (base_spec, opt_spec):
            outcome = run_hardened(spec, task.harness)
            if not outcome.ok:
                return PointOutcome(
                    settings=settings, key=key,
                    error=(f"{outcome.label}: [{outcome.error_kind}] "
                           f"{outcome.error} "
                           f"(after {outcome.attempts} attempts)"))
            metrics.append(outcome.result.metrics)
            if outcome.result.obs is not None:
                obs_parts.append(outcome.result.obs)
        comparison = Comparison(metrics[0], metrics[1])
    else:
        base = run_simulation(base_spec)
        opt = run_simulation(opt_spec)
        comparison = Comparison(base.metrics, opt.metrics)
        obs_parts = [r.obs for r in (base, opt) if r.obs is not None]
    outcome = PointOutcome(settings=settings, key=key,
                           row=comparison_row(settings, comparison),
                           comparison=comparison, obs=obs_parts)
    if stats_before is not None:
        after = store.stats.snapshot()
        outcome.store_hits = after["hits"] - stats_before["hits"]
        # A point re-simulated because its record was absent *or*
        # quarantined as corrupt: either way the store did not serve
        # it.  The store's own books keep the two distinct.
        outcome.store_misses = (
            (after["misses"] - stats_before["misses"])
            + (after["corrupt"] - stats_before["corrupt"]))
    return outcome


#: The pool's start method, pinned rather than left to the platform
#: default (forkserver on Linux from Python 3.14): workers must inherit
#: the parent's warm memo and any stand-in patched over ``run_point``,
#: and only fork hands them either.
MP_CONTEXT = multiprocessing.get_context("fork")


def default_workers() -> int:
    """The CLI default: one worker per available CPU."""
    return os.cpu_count() or 1


def default_batch_size(num_tasks: int, workers: int) -> int:
    """Points per :class:`PointBatch`: 1 while the grid is small
    relative to the pool (maximum steal granularity -- a long-tail
    point never drags neighbours along), growing on large grids to
    amortize pickle/IPC overhead.  Capped at 8 so a lost batch keeps a
    small blast radius and the tail stays balanced."""
    if num_tasks <= 0 or workers <= 1 or num_tasks <= workers * 4:
        return 1
    return min(8, max(1, num_tasks // (workers * 8)))


@dataclass(frozen=True)
class SupervisionPolicy:
    """How the parent reacts when pool workers die or hang.

    A worker that disappears (OOM-killed, segfaulted, ``kill -9``)
    breaks the pool; the supervisor rebuilds it and re-enqueues every
    point the crash took down, up to ``retry_budget`` re-enqueues per
    point, sleeping a jittered exponential backoff between rebuilds
    (the jitter keeps several supervising processes sharing a machine
    from herding their restarts).  ``task_timeout`` arms the hang
    detector: if no point completes for that many seconds, the pool is
    presumed wedged, its workers are killed, and the in-flight points
    are re-enqueued on the same budget.  Only when a point's budget is
    exhausted does the sweep fail, loudly, with
    :class:`~repro.errors.WorkerLostError` -- silent partial loss is
    the one outcome the supervisor exists to prevent.
    """

    retry_budget: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.5
    task_timeout: Optional[float] = None
    sleep: Callable[[float], None] = time.sleep

    def backoff(self, restart: int, rng: random.Random) -> float:
        span = self.backoff_base * (self.backoff_factor ** restart)
        return span * (1.0 + self.backoff_jitter * rng.random())


#: Process-wide supervision counters (tests and the CLI summary read
#: them; reset with :func:`reset_supervision_stats`).
_SUPERVISION = {"worker_restarts": 0, "points_reenqueued": 0,
                "hangs_detected": 0}


def supervision_stats() -> Dict[str, int]:
    return dict(_SUPERVISION)


def reset_supervision_stats() -> None:
    for key in _SUPERVISION:
        _SUPERVISION[key] = 0


def _kill_pool_workers(pool) -> None:
    """Forcibly stop a wedged pool's workers (terminate, then kill) so
    shutdown cannot block on a hung task."""
    for proc in list(getattr(pool, "_processes", {}).values()):
        try:
            proc.terminate()
        except OSError:
            pass
    for proc in list(getattr(pool, "_processes", {}).values()):
        try:
            proc.kill()
        except OSError:
            pass


#: Process-wide work-stealing counters: batches/points handed to pool
#: workers and points re-enqueued after a worker loss (reset with
#: :func:`reset_steal_stats`).
_STEAL = {"batches": 0, "tasks": 0, "requeued": 0}


def steal_stats() -> Dict[str, int]:
    return dict(_STEAL)


def reset_steal_stats() -> None:
    for key in _STEAL:
        _STEAL[key] = 0


@dataclass(frozen=True)
class PointBatch:
    """A stolen unit of work: a few submission-order-indexed items.

    Batching amortizes pickle/IPC overhead on large grids of tiny
    points; ``indices`` let the parent slot results (and charge retry
    budgets) back to the right submission positions.
    """

    indices: Tuple[int, ...]
    items: Tuple[object, ...]


def _run_point_batch(batch: PointBatch) -> List[PointOutcome]:
    """Execute one batch of :class:`PointTask` in a pool worker.

    ``run_point`` is resolved through the module global at call time so
    test doubles that monkeypatch ``executor.run_point`` (inherited via
    fork) stay effective under batching.
    """
    return [run_point(task) for task in batch.items]


def _run_spec_batch(batch: PointBatch) -> List[object]:
    """Execute one batch of bare :class:`RunSpec` (the search frontier
    re-simulation path); returns each run's metrics."""
    return [run_simulation(spec).metrics for spec in batch.items]


def _execute_scheduled(items: Sequence[object],
                       runner: Callable[[PointBatch], List[object]],
                       workers: int,
                       policy: SupervisionPolicy,
                       on_result: Optional[Callable] = None,
                       describe: Callable[[object], str] = repr
                       ) -> List[object]:
    """The supervised work-stealing scheduler.

    Items are cut into :class:`PointBatch` units and fed to a
    :class:`ProcessPoolExecutor` with *bounded* in-flight submission
    (two batches per worker): workers steal the next batch as they
    finish, so a long-tail item never idles the rest of the pool, and a
    crash's blast radius is capped at the in-flight window.  Results
    land by submission index, so the output order -- and therefore CSV
    bytes -- is identical to the serial loop.

    Supervision semantics match the former wave loop: a dead or hung
    worker re-enqueues the in-flight items on a fresh pool (each
    charged one attempt), batches still queued re-enqueue for free, and
    only an item exceeding ``policy.retry_budget`` attempts raises
    :class:`WorkerLostError`.
    """
    results: List[Optional[object]] = [None] * len(items)
    batch_size = default_batch_size(len(items), workers)
    attempts = [0] * len(items)
    pending = list(range(len(items)))
    reported = 0
    restarts = 0
    rng = random.Random()  # jitter shapes wall-clock only, never results

    def flush() -> None:
        nonlocal reported
        if on_result is None:
            return
        while reported < len(results) and results[reported] is not None:
            on_result(results[reported])
            reported += 1

    while pending:
        queue = deque(
            PointBatch(indices=tuple(pending[lo:lo + batch_size]),
                       items=tuple(items[j]
                                   for j in pending[lo:lo + batch_size]))
            for lo in range(0, len(pending), batch_size))
        round_workers = max(1, min(workers, len(pending)))
        cap = round_workers * 2  # bounded steal window
        pool = ProcessPoolExecutor(max_workers=round_workers,
                                   mp_context=MP_CONTEXT)
        in_flight: Dict[object, Tuple[int, ...]] = {}
        lost: List[int] = []
        hung = False
        broken = False
        try:
            def submit_ready() -> None:
                nonlocal broken
                while queue and len(in_flight) < cap and not broken:
                    batch = queue.popleft()
                    for j in batch.indices:
                        attempts[j] += 1
                    try:
                        future = pool.submit(runner, batch)
                    except (BrokenProcessPool, RuntimeError):
                        # The pool died while we were submitting; this
                        # batch was charged and is lost, the rest of
                        # the queue re-enqueues for free.
                        lost.extend(batch.indices)
                        broken = True
                        return
                    in_flight[future] = batch.indices
                    _STEAL["batches"] += 1
                    _STEAL["tasks"] += len(batch.indices)

            submit_ready()
            while in_flight:
                done, _ = wait(set(in_flight),
                               timeout=policy.task_timeout,
                               return_when=FIRST_COMPLETED)
                if not done:
                    hung = True  # nothing finished within the window
                    break
                for future in done:
                    indices = in_flight.pop(future)
                    try:
                        batch_results = future.result()
                    except BrokenProcessPool:
                        lost.extend(indices)
                        broken = True
                        continue
                    for j, value in zip(indices, batch_results):
                        results[j] = value
                flush()
                submit_ready()
            if hung:
                lost.extend(j for indices in in_flight.values()
                            for j in indices)
        finally:
            if hung:
                _kill_pool_workers(pool)
            pool.shutdown(wait=not hung, cancel_futures=True)

        leftover = [j for batch in queue for j in batch.indices]
        pending = []
        if not lost and not leftover:
            break
        if lost:
            exhausted = [j for j in lost
                         if attempts[j] > policy.retry_budget]
            if exhausted:
                raise WorkerLostError(
                    f"{len(exhausted)} grid point(s) lost to "
                    f"{'hung' if hung else 'dead'} workers after "
                    f"{policy.retry_budget} re-enqueue(s) each; first "
                    f"lost {describe(items[exhausted[0]])}")
            restarts += 1
            _SUPERVISION["worker_restarts"] += 1
            _SUPERVISION["points_reenqueued"] += len(lost)
            _STEAL["requeued"] += len(lost)
            if hung:
                _SUPERVISION["hangs_detected"] += 1
            obs_instant("executor.worker_lost", cat="executor",
                        points=len(lost), restart=restarts, hung=hung)
            policy.sleep(policy.backoff(restarts - 1, rng))
        pending = sorted(set(lost) | set(leftover))

    flush()
    return results  # type: ignore[return-value]


def execute_points(tasks: Sequence[PointTask],
                   workers: Optional[int] = None,
                   progress: Optional[Callable[[PointOutcome], None]]
                   = None,
                   supervision: Optional[SupervisionPolicy] = None
                   ) -> List[PointOutcome]:
    """Run grid points, preserving submission order.

    ``workers`` defaults to :func:`default_workers` (one per CPU) --
    omitting it fans out.  With ``workers=1`` (or one task) everything
    runs in-process -- no pool, no pickling, no subprocesses -- which
    is both the graceful fallback and the debuggable path, and the
    results are bit-identical either way.  Worker processes inherit
    nothing stochastic: all seeding travels inside each task, so the
    fan-out is bit-identical to the serial loop.

    The parallel path schedules :class:`PointBatch` units onto the pool
    with work stealing (:func:`_execute_scheduled`), supervised per
    :class:`SupervisionPolicy`: a worker death or hang re-enqueues the
    lost points on a fresh pool instead of aborting the sweep, and only
    an exhausted retry budget raises.  Each worker compiles and traces
    what its points need through its own memo.

    ``progress`` (optional) is called in the *parent* process with each
    outcome as it is collected, in submission order -- the hook behind
    ``repro-cli sweep --progress``.  It never rides into workers, so it
    need not be picklable.
    """
    tasks = list(tasks)
    if workers is None:
        workers = default_workers()
    workers = max(1, min(int(workers), len(tasks) or 1))
    if workers == 1:
        outcomes_serial: List[PointOutcome] = []
        for task in tasks:
            outcome = run_point(task)
            outcomes_serial.append(outcome)
            if progress is not None:
                progress(outcome)
        return outcomes_serial
    return _execute_scheduled(
        tasks, _run_point_batch, workers,
        supervision or SupervisionPolicy(), on_result=progress,
        describe=lambda t: f"settings: {dict(t.settings)}")


def execute_runs(specs: Sequence[RunSpec],
                 workers: Optional[int] = None) -> List[object]:
    """Run bare :class:`RunSpec` items, returning each run's metrics in
    submission order -- the engine under the search frontier
    re-simulation.  ``workers=None``/1 runs serially in-process;
    otherwise the same work stealing and supervision as
    :func:`execute_points` apply, and results are bit-identical either
    way."""
    specs = list(specs)
    workers = max(1, min(int(workers or 1), len(specs) or 1))
    if workers == 1:
        return [run_simulation(spec).metrics for spec in specs]
    return _execute_scheduled(specs, _run_spec_batch, workers,
                              SupervisionPolicy(),
                              describe=lambda s: f"spec: {s.key()}")
