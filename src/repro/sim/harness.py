"""Hardened experiment harness: timeouts, retries, checkpoints, partial
results.

A long sweep must survive single-run failures: a pathological
configuration that never converges (timeout), a transiently overloaded
machine (retry with exponential backoff), or the process being killed
halfway (JSON checkpoint + resume).  This module wraps
:func:`repro.sim.run.run_simulation` and the sweep machinery with
exactly those guards and aggregates whatever completed, so one bad
grid point costs one row, not the night's sweep.

* :func:`run_hardened` -- one spec under a per-run timeout and a
  bounded retry policy (only errors flagged ``transient`` in the
  :mod:`repro.errors` taxonomy are retried).
* :class:`HardenedSweep` -- a cartesian sweep whose completed points
  stream into a JSON checkpoint after every run; re-running with the
  same checkpoint path skips them, so a killed sweep resumes where it
  died and reproduces the uninterrupted sweep's rows bit-for-bit.
"""

from __future__ import annotations

import json
import random
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.arch.config import MachineConfig
from repro.errors import ReproError, SimulationTimeout
from repro.faults.plan import FaultPlan
from repro.obs.data import ObsData
from repro.obs.tracer import obs_instant, obs_span
from repro.program.ir import Program
from repro.sim.executor import (PointTask, execute_points, grid_settings,
                                point_key, point_specs, validate_axes)
from repro.sim.run import RunResult, RunSpec, run_simulation
from repro.sim.serialize import comparison_row, rows_to_csv
from repro.store import ROW_KIND, atomic_write_json
from repro.store import base as store_backends

#: Checkpoint schema version.  Version 2 keys entries by the canonical
#: :meth:`RunSpec.key`-derived point key (shared with sweep
#: memoization); version-1 checkpoints used an ad-hoc settings JSON and
#: are not resumed (their points simply re-run).
CHECKPOINT_VERSION = 2

#: Schema version for sweep rows persisted in the result store (kind
#: ``"row"``); drifted payloads read as misses, so the point re-runs.
ROW_FORMAT = 1


@dataclass(frozen=True)
class HarnessConfig:
    """Retry/timeout policy for one hardened run.

    ``timeout`` is wall-clock seconds per attempt (``None`` disables
    it).  Transient failures -- anything raising a
    :class:`~repro.errors.ReproError` with ``transient=True``, which
    includes timeouts -- are retried up to ``max_retries`` times with
    exponential backoff (``backoff_base * backoff_factor**attempt``
    seconds).  Deterministic failures are never retried: the same
    inputs would fail the same way.
    """

    timeout: Optional[float] = None
    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    #: Fractional jitter on every backoff: the wait is scaled by a
    #: uniform draw from ``[1, 1 + backoff_jitter]``.  Parallel workers
    #: that fail together (one overloaded machine, one fault window)
    #: would otherwise retry in lockstep and re-overload the machine in
    #: synchronized waves.  Kept below the backoff factor's growth so
    #: successive waits still lengthen strictly.
    backoff_jitter: float = 0.25
    sleep: Callable[[float], None] = time.sleep

    def backoff(self, attempt: int) -> float:
        span = self.backoff_base * (self.backoff_factor ** attempt)
        if self.backoff_jitter <= 0:
            return span
        return span * (1.0 + self.backoff_jitter * random.random())


@dataclass
class RunOutcome:
    """What happened to one hardened run: a result or a diagnostic."""

    label: str
    result: Optional[RunResult] = None
    error: Optional[str] = None
    error_kind: Optional[str] = None
    attempts: int = 0
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return self.result is not None


class AbandonedThreadWarning(UserWarning):
    """Too many timed-out runs have left their worker threads alive;
    the process is leaking capacity."""


#: Live abandoned threads past this count trip one
#: :class:`AbandonedThreadWarning` (re-armed once the count drops back
#: below by finished stragglers).
ABANDONED_THREAD_WARN_THRESHOLD = 8

_abandoned_lock = threading.Lock()
_abandoned_threads: List[threading.Thread] = []
_abandoned_total = 0
_abandoned_warned = False


def _note_abandoned(executor: ThreadPoolExecutor) -> None:
    """Account for the worker thread a timed-out run left behind.

    The thread cannot be killed, but it can be *counted*: a gauge of
    still-alive strays and a monotonic total, so a sweep quietly
    drowning in stuck runs shows up in ``/metrics`` and (past the
    threshold) as a warning instead of as unexplained memory growth.
    """
    global _abandoned_total, _abandoned_warned
    strays = [t for t in getattr(executor, "_threads", ()) or ()
              if t.is_alive()]
    with _abandoned_lock:
        _abandoned_total += 1
        _abandoned_threads.extend(strays)
        _abandoned_threads[:] = [t for t in _abandoned_threads
                                 if t.is_alive()]
        live = len(_abandoned_threads)
        should_warn = (live >= ABANDONED_THREAD_WARN_THRESHOLD
                       and not _abandoned_warned)
        if should_warn:
            _abandoned_warned = True
        elif live < ABANDONED_THREAD_WARN_THRESHOLD:
            _abandoned_warned = False
    obs_instant("harness.thread_abandoned", cat="harness",
                live=live, total=_abandoned_total)
    if should_warn:
        warnings.warn(
            f"{live} timed-out simulation threads are still running "
            f"(threshold {ABANDONED_THREAD_WARN_THRESHOLD}); each holds "
            f"its run's memory until it finishes -- consider a longer "
            f"timeout or a smaller workload scale",
            AbandonedThreadWarning, stacklevel=3)


def abandoned_threads() -> Dict[str, int]:
    """``{"live": ..., "total": ...}`` abandoned-thread accounting for
    this process (the observability export reads this)."""
    with _abandoned_lock:
        _abandoned_threads[:] = [t for t in _abandoned_threads
                                 if t.is_alive()]
        return {"live": len(_abandoned_threads),
                "total": _abandoned_total}


def reset_abandoned_threads() -> None:
    """Forget accounting (tests)."""
    global _abandoned_total, _abandoned_warned
    with _abandoned_lock:
        _abandoned_threads.clear()
        _abandoned_total = 0
        _abandoned_warned = False


def _attempt(spec: RunSpec, timeout: Optional[float]) -> RunResult:
    if timeout is None:
        return run_simulation(spec)
    # The worker thread cannot be killed; on timeout it is abandoned
    # (daemonic executor threads die with the process).  That trades a
    # little memory for never blocking the sweep on one stuck run.
    executor = ThreadPoolExecutor(max_workers=1)
    try:
        future = executor.submit(run_simulation, spec)
        try:
            return future.result(timeout=timeout)
        except FutureTimeout:
            future.cancel()
            _note_abandoned(executor)
            raise SimulationTimeout(
                f"run {spec.label()!r} exceeded {timeout:g}s")
    finally:
        executor.shutdown(wait=False)


def run_hardened(spec: RunSpec,
                 harness: Optional[HarnessConfig] = None) -> RunOutcome:
    """Execute one spec under the harness's timeout/retry policy.

    Never raises for run failures: the outcome carries either the
    result or the final error (kind + message), plus attempt count.
    """
    harness = harness or HarnessConfig()
    outcome = RunOutcome(label=spec.label())
    started = time.monotonic()
    attempt = 0
    while True:
        outcome.attempts = attempt + 1
        try:
            with obs_span("harness.attempt", cat="harness",
                          label=outcome.label, attempt=attempt + 1):
                outcome.result = _attempt(spec, harness.timeout)
            break
        except ReproError as err:
            outcome.error = str(err)
            outcome.error_kind = err.kind
            if not (err.transient and attempt < harness.max_retries):
                break
            obs_instant("harness.retry", cat="harness",
                        label=outcome.label, attempt=attempt + 1,
                        kind=err.kind)
            harness.sleep(harness.backoff(attempt))
        except Exception as exc:  # deterministic failure: no retry
            outcome.error = f"{type(exc).__name__}: {exc}"
            outcome.error_kind = "unexpected"
            break
        attempt += 1
    outcome.elapsed = time.monotonic() - started
    if outcome.ok:
        outcome.error = None
        outcome.error_kind = None
    return outcome


# ---------------------------------------------------------------------------
# Checkpointed sweeps


def _atomic_write(path: Path, payload: Dict[str, object]) -> None:
    # One tested write-then-rename implementation for the whole repo:
    # the store's atomic writer, which also fsyncs the file and its
    # directory so a checkpoint survives power loss, not just SIGKILL.
    # (No sort_keys: row dicts must round-trip in insertion order so a
    # resumed sweep's CSV has the same columns as a fresh one.)
    atomic_write_json(path, payload)


class CheckpointCorruptWarning(UserWarning):
    """A sweep checkpoint failed to parse and was quarantined; the
    affected points simply re-run (or resume from the result store)."""


@dataclass
class SweepReport:
    """Aggregated outcome of a hardened sweep: every completed row,
    every failure, and how much came from the checkpoint."""

    rows: List[Dict[str, object]] = field(default_factory=list)
    failures: List[Dict[str, object]] = field(default_factory=list)
    resumed: int = 0
    #: Populated by the plain-sweep path of :func:`repro.api.sweep`.
    points: List[object] = field(default_factory=list)
    #: Merged :class:`~repro.obs.data.ObsData` over every freshly
    #: simulated run, when the sweep requested ``obs != "off"``.
    obs: Optional[ObsData] = None
    #: Persistent-store traffic (zero without a store): run-level
    #: record hits/misses summed across every point, including hits
    #: that happened inside pool workers.
    store_hits: int = 0
    store_misses: int = 0

    @property
    def completed(self) -> int:
        return len(self.rows)

    def to_csv(self) -> str:
        return rows_to_csv(self.rows)


class HardenedSweep:
    """A cartesian sweep that checkpoints, retries, and never aborts.

    The axes are those of :class:`repro.sim.sweep.Sweep` (plus
    ``mapping``); every grid point runs a baseline/optimized pair under
    :func:`run_hardened`.  Completed rows stream into the JSON
    checkpoint (atomic rename); constructing a sweep with an existing
    checkpoint resumes it.  Checkpoint entries are keyed by the
    canonical :meth:`RunSpec.key`-derived point key -- the same
    identity :class:`~repro.sim.sweep.Sweep` memoizes under -- so a
    resumed point is exactly one whose simulation inputs are
    unchanged.  A failed point is recorded under ``failures`` and the
    sweep moves on -- partial results beat no results.

    ``workers`` > 1 fans grid points out to a work-stealing process
    pool (see :mod:`repro.sim.executor`): workers pull points as they
    finish, and the checkpoint is rewritten every few completions (two
    per worker -- the same cadence the former wave loop had), so a kill
    loses at most that many in-flight points (serially: at most the one
    in-flight point, exactly as before).  Results are bit-identical to
    a serial run.  In parallel mode the harness's ``sleep`` callback
    must be picklable (the default, :func:`time.sleep`, is).
    """

    def __init__(self, program: Program,
                 base_config: Optional[MachineConfig] = None,
                 harness: Optional[HarnessConfig] = None,
                 checkpoint: Optional[str] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 seed: int = 0,
                 workers: int = 1,
                 validate: str = "off",
                 obs: str = "off",
                 engine: str = "fast",
                 store: Optional[str] = None):
        self.program = program
        self.base_config = base_config or \
            MachineConfig.scaled_default().with_(interleaving="cache_line")
        self.harness = harness or HarnessConfig()
        self.checkpoint = Path(checkpoint) if checkpoint else None
        self.fault_plan = fault_plan
        self.seed = seed
        self.workers = workers
        self.validate = validate
        self.obs = obs
        # Not part of the point key or the checkpoint: engines are
        # bit-identical, so resumed rows are engine-agnostic.
        self.engine = engine
        # Like ``engine``, the store is operational context, not
        # identity: rows resume from it by the same canonical point key
        # the checkpoint uses, and results are bit-identical either way.
        self.store = store
        self._store = store_backends.resolve(store)
        self._done: Dict[str, Dict[str, object]] = {}
        if self.checkpoint is not None and self.checkpoint.exists():
            payload = self._load_checkpoint()
            if payload is None:
                return
            if payload.get("program") not in ("", self.program.name):
                raise ValueError(
                    f"checkpoint {self.checkpoint} belongs to program "
                    f"{payload.get('program')!r}, not "
                    f"{self.program.name!r}")
            if payload.get("version") == CHECKPOINT_VERSION:
                try:
                    for entry in payload.get("points", []):
                        self._done[entry["key"]] = entry["row"]
                except (KeyError, TypeError) as err:
                    self._done = {}
                    self._quarantine_checkpoint(err)

    def _load_checkpoint(self) -> Optional[Dict[str, object]]:
        """Parse the checkpoint, quarantining it on corruption.

        A checkpoint that fails to parse -- truncated by a crash that
        beat the atomic writer (e.g. a pre-rename temp file restored by
        hand), flipped bits, or plain garbage -- is renamed aside with a
        :class:`CheckpointCorruptWarning` and the sweep starts fresh;
        the points re-run (or resume from the result store).  A
        checkpoint that parses but belongs to a *different program* is
        still a hard :class:`ValueError`: that is a caller mistake, not
        damage.
        """
        try:
            payload = json.loads(self.checkpoint.read_text())
            if not isinstance(payload, dict):
                raise ValueError("checkpoint root is not a JSON object")
        except (OSError, ValueError) as err:
            self._quarantine_checkpoint(err)
            return None
        return payload

    def _quarantine_checkpoint(self, err: BaseException) -> None:
        aside = self.checkpoint.with_name(self.checkpoint.name
                                          + ".corrupt")
        try:
            self.checkpoint.replace(aside)
            moved = str(aside)
        except OSError:
            try:
                self.checkpoint.unlink()
            except OSError:
                pass
            moved = "<removed>"
        obs_instant("harness.checkpoint_corrupt", cat="harness",
                    checkpoint=str(self.checkpoint), error=str(err))
        warnings.warn(
            f"checkpoint {self.checkpoint} is corrupt ({err}); "
            f"quarantined to {moved} and starting fresh",
            CheckpointCorruptWarning, stacklevel=3)

    def _save(self) -> None:
        if self.checkpoint is None:
            return
        payload = {
            "version": CHECKPOINT_VERSION,
            "program": self.program.name,
            "seed": self.seed,
            "fault_plan": (self.fault_plan.to_dict()
                           if self.fault_plan else None),
            "points": [{"key": key, "row": row}
                       for key, row in sorted(self._done.items())],
        }
        _atomic_write(self.checkpoint, payload)

    def _key(self, settings: Dict[str, object]) -> str:
        return point_key(point_specs(self.program, self.base_config,
                                     settings, self.fault_plan,
                                     self.seed))

    def _store_row(self, key: str,
                   report: "SweepReport") -> Optional[Dict[str, object]]:
        """A completed row for ``key`` from the result store, if any --
        the cross-process resume channel beside the checkpoint.
        Validated sweeps skip it: their points must actually audit a
        simulation, not replay a row."""
        if self._store is None or self.validate != "off":
            return None
        payload = self._store.get(key, ROW_KIND)
        # Rows travel as [key, value] pairs: the store canonicalizes
        # record bytes with sorted JSON keys, but CSV column order is
        # the row dict's insertion order, which must survive the round
        # trip.
        try:
            if payload is None or payload["format"] != ROW_FORMAT:
                raise KeyError("format")
            row = {str(k): v for k, v in payload["row"]}
        except (KeyError, TypeError, ValueError):
            report.store_misses += 1
            return None
        report.store_hits += 1
        return row

    def _store_put_row(self, key: str, row: Dict[str, object]) -> None:
        if self._store is not None:
            self._store.put(key,
                            {"format": ROW_FORMAT,
                             "row": [[k, v] for k, v in row.items()]},
                            ROW_KIND)

    def run(self, max_points: Optional[int] = None,
            progress: Optional[Callable[[int, int, int, int], None]]
            = None,
            **axes: Iterable) -> SweepReport:
        """Run the cartesian product of the axes, resuming from the
        checkpoint.  ``max_points`` bounds the number of *newly
        simulated* points (smoke runs; also how the resume tests model
        a killed sweep) -- remaining points are simply left for the
        next invocation.

        ``progress`` (optional) is called at every checkpoint flush
        with ``(flush_index, points_done, points_failed, total_fresh)``
        -- the hook behind ``repro-cli sweep --progress``.
        """
        validate_axes(axes)
        report = SweepReport()
        pending: List[Tuple[str, Dict[str, object]]] = []
        slots: Dict[str, List[int]] = {}
        fresh = 0
        for settings in grid_settings(axes):
            key = self._key(settings)
            if key not in self._done:
                row = self._store_row(key, report)
                if row is not None:
                    self._done[key] = row
            if key in self._done:
                report.rows.append(dict(self._done[key]))
                report.resumed += 1
                continue
            if key in slots:       # equivalent grid point: simulate once
                slots[key].append(len(report.rows))
                report.rows.append(settings)
                continue
            if max_points is not None and fresh >= max_points:
                continue
            fresh += 1
            slots[key] = [len(report.rows)]
            report.rows.append(settings)
            pending.append((key, settings))

        # Work-stealing execution with streaming checkpoints: one
        # execute_points call covers the whole grid (so the pool is
        # built once), and the parent records each outcome as it
        # arrives, rewriting the checkpoint every ``checkpoint_every``
        # completions (the former wave size), which bounds both
        # checkpoint-write frequency and the work a kill can lose.
        obs_parts: List[object] = []
        completed = 0
        processed = 0
        flushes = 0
        checkpoint_every = max(1, self.workers) * 2

        def record(outcome) -> None:
            nonlocal completed, processed, flushes
            key, settings = pending[processed]
            processed += 1
            obs_parts.extend(outcome.obs)
            report.store_hits += outcome.store_hits
            report.store_misses += outcome.store_misses
            if not outcome.ok:
                report.failures.append(
                    {**settings, "error": outcome.error})
            else:
                completed += 1
                self._done[key] = outcome.row
                self._store_put_row(key, outcome.row)
                for slot in slots[key]:
                    # Each slot keeps its own axis values; the metrics
                    # come from the one shared simulation.
                    report.rows[slot] = comparison_row(
                        report.rows[slot], outcome.comparison)
            if processed % checkpoint_every == 0:
                self._save()
                if progress is not None:
                    progress(flushes, completed,
                             len(report.failures), len(pending))
                flushes += 1

        if pending:
            try:
                execute_points(
                    [PointTask(program=self.program,
                               base_config=self.base_config,
                               settings=tuple(sorted(settings.items())),
                               fault_plan=self.fault_plan,
                               seed=self.seed,
                               validate=self.validate, obs=self.obs,
                               engine=self.engine, store=self.store,
                               hardened=True, harness=self.harness)
                     for _, settings in pending],
                    workers=self.workers, progress=record)
            finally:
                # Even a sweep aborted by an exhausted retry budget
                # keeps every point that streamed in before the loss.
                if processed % checkpoint_every != 0:
                    self._save()
            if processed % checkpoint_every != 0 and progress is not None:
                progress(flushes, completed,
                         len(report.failures), len(pending))
        if obs_parts:
            report.obs = ObsData.merged(
                obs_parts, label=f"{self.program.name}/sweep")
        # Drop placeholders for failed (or max_points-skipped) points.
        report.rows = [row for row in report.rows
                       if not (isinstance(row, dict)
                               and "exec_time" not in row)]
        return report
