"""The job registry: single-flight execution behind the service.

Every POST becomes a :class:`Job`.  Identity is the request's
canonical key (== the memo/store key, :mod:`repro.api.requests`), and
the registry enforces the service's two core guarantees around it:

* **Single-flight coalescing** -- while a job for a key is queued or
  running, further submissions for the same key join it instead of
  spawning duplicate work.  Combined with the persistent store (which
  serves everything already *finished*), the simulator executes each
  distinct experiment at most once no matter how many clients ask.
* **Backpressure** -- the queue of not-yet-running jobs is bounded;
  past the bound, :meth:`JobRegistry.submit` raises
  :class:`QueueFullError` and the wire layer answers 429 instead of
  accepting unbounded work.

Jobs run on a thread pool.  The simulation itself fans out to the
process pool via :func:`repro.sim.executor.execute_points` under the
existing supervision policy, so job threads spend their time waiting,
not computing -- a small pool goes a long way.

Never-crash contract: a job's failure is captured as a structured
error document (taxonomy kind + message) on the job, never propagated
into the server loop.
"""

from __future__ import annotations

import dataclasses
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

from repro.errors import DeadlineError, ReproError, SimulationTimeout
from repro.obs.telemetry import TelemetryRegistry
from repro.sim.harness import HarnessConfig, _attempt
from repro.sim.run import run_simulation
from repro.sim.metrics import Comparison
from repro.store.records import metrics_to_doc

__all__ = ["DeadlineRejectedError", "Job", "JobRegistry",
           "QueueFullError"]

#: Job lifecycle states.  ``expired`` is terminal like ``failed``, but
#: structured: the job's ``deadline_ms`` ran out before (or while) it
#: executed, and the wire layer answers 504, not 422.
QUEUED, RUNNING, DONE, FAILED, EXPIRED = (
    "queued", "running", "done", "failed", "expired")

#: Conservative per-job cost floor (seconds) for admission control
#: before any job has completed in this process -- even a fully warm
#: store replay pays this much.  With history, an EWMA of observed job
#: durations replaces it.
MIN_JOB_ESTIMATE = 0.05
#: EWMA weight for the newest completed job's duration.
JOB_ESTIMATE_ALPHA = 0.2
#: EWMA weight for the newest observed seconds-per-analytic-cycle
#: calibration sample (``analytic_admission=True`` registries).
CYCLE_RATE_ALPHA = 0.3


class QueueFullError(Exception):
    """The bounded job queue is at capacity -- backpressure, not a
    bug.  The wire layer maps this to HTTP 429."""


class DeadlineRejectedError(QueueFullError):
    """Admission control: the estimated queue wait already exceeds the
    request's ``deadline_ms``, so queueing it would only burn a thread
    slot on work destined to expire.  Maps to 429 with a
    ``Retry-After`` hint (seconds)."""

    def __init__(self, message: str, retry_after: int):
        super().__init__(message)
        self.retry_after = retry_after


class Job:
    """One submitted request and everything observable about it."""

    _COUNTER = [0]
    _COUNTER_LOCK = threading.Lock()

    def __init__(self, kind: str, key: str, request):
        with self._COUNTER_LOCK:
            self._COUNTER[0] += 1
            self.id = f"j{self._COUNTER[0]:06d}"
        self.kind = kind
        self.key = key
        self.request = request
        self.state = QUEUED
        self.created = time.time()
        #: End-to-end deadline from the request envelope (absolute
        #: wall-clock seconds; None = unbounded, the default).
        self.deadline_ms: Optional[int] = getattr(request,
                                                  "deadline_ms", None)
        self.deadline: Optional[float] = (
            None if self.deadline_ms is None
            else self.created + self.deadline_ms / 1000.0)
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        #: How many extra submissions joined this computation.
        self.coalesced = 0
        self.progress_done = 0
        self.progress_total: Optional[int] = None
        #: Completed result rows so far (sweeps stream these while
        #: running; the final list is the report's canonical order).
        self.rows: List[Dict[str, object]] = []
        self.result: Optional[Dict[str, object]] = None
        self.error: Optional[BaseException] = None
        self.future = None  # concurrent.futures.Future, set on submit
        #: Analytic cycle estimate of this job's work (admission
        #: control predictor; None = not estimated).
        self.est_cycles: Optional[float] = None

    def snapshot(self, include_rows: bool = True) -> Dict[str, object]:
        """The job as a JSON-ready document."""
        doc: Dict[str, object] = {
            "id": self.id, "kind": self.kind, "key": self.key,
            "state": self.state, "coalesced": self.coalesced,
            "progress": {"done": self.progress_done,
                         "total": self.progress_total},
        }
        if self.deadline_ms is not None:
            doc["deadline_ms"] = self.deadline_ms
        if include_rows and self.kind in ("sweep", "search"):
            doc["rows"] = list(self.rows)
        if self.result is not None:
            doc["result"] = self.result
        if self.error is not None:
            kind = (self.error.kind if isinstance(self.error, ReproError)
                    else "internal")
            doc["error"] = {"kind": kind, "message": str(self.error)}
        return doc


class JobRegistry:
    """Submits, coalesces, runs and remembers jobs."""

    def __init__(self, store: Optional[str] = None,
                 job_threads: int = 2, max_queued: int = 32,
                 analytic_admission: bool = False):
        self.store = store
        self.max_queued = max_queued
        self.job_threads = max(1, job_threads)
        #: When True, run/compare submissions are costed with the
        #: analytic engine (:mod:`repro.search.analytic`) and the
        #: admission-control wait estimate becomes cycle-proportional
        #: (calibrated by completed jobs) instead of one flat EWMA for
        #: every job regardless of size.  See docs/search.md.
        self.analytic_admission = analytic_admission
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        #: (kind, key) -> the queued/running job for that identity.
        self._inflight: Dict[Tuple[str, str], Job] = {}
        self._queued = 0
        #: EWMA of completed-job durations, for admission control.
        self._avg_job_seconds = 0.0
        #: Calibration: EWMA of observed wall seconds per analytic
        #: cycle, from completed jobs that carried an estimate.
        self._seconds_per_cycle: Optional[float] = None
        #: Analytic cycles queued (jobs with estimates) and the count
        #: of queued jobs without one (fall back to the EWMA).
        self._queued_cycles = 0.0
        self._queued_unknown = 0
        self._pool = ThreadPoolExecutor(
            max_workers=job_threads, thread_name_prefix="repro-serve")
        #: Service counters (``serve.*``), merged into ``GET /metrics``.
        self.telemetry = TelemetryRegistry()
        self._closed = False

    # -- counters (TelemetryRegistry.inc is not thread-safe) ----------------

    def inc(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.telemetry.inc(name, amount)

    # -- admission control ---------------------------------------------------

    def _estimated_wait_locked(self) -> float:
        """Estimated seconds a newly queued job waits before starting.
        Caller holds the lock.

        Default predictor: queue depth times the duration EWMA -- every
        job assumed equally expensive.  With ``analytic_admission`` on
        and at least one calibrated completion, jobs that carried an
        analytic cycle estimate are costed proportionally
        (``cycles * seconds_per_cycle``); only estimate-less jobs
        (sweeps, unsupported configs) still pay the flat EWMA."""
        if self._queued <= 0:
            return 0.0
        per_job = max(self._avg_job_seconds, MIN_JOB_ESTIMATE)
        if not self.analytic_admission or self._seconds_per_cycle is None:
            return self._queued * per_job / self.job_threads
        known = self._queued_cycles * self._seconds_per_cycle
        unknown = self._queued_unknown * per_job
        floor = self._queued * MIN_JOB_ESTIMATE
        return max(known + unknown, floor) / self.job_threads

    def estimated_wait(self) -> float:
        with self._lock:
            return self._estimated_wait_locked()

    def _analytic_cycles(self, request) -> Optional[float]:
        """Analytic cycle estimate for a run/compare request, or None
        when the request kind or its configuration is out of the
        analytic engine's envelope.  Costs milliseconds, paid outside
        the lock; never raises (admission control must not)."""
        try:
            if request.KIND == "run":
                specs = [request.to_spec()]
            elif request.KIND == "compare":
                specs = list(request.specs())
            else:
                return None
            from repro.search.analytic import analytic_run, supported
            total = 0.0
            for spec in specs:
                probe = dataclasses.replace(
                    spec, engine="analytic", obs="off", validate="off",
                    store=None)
                if supported(probe) is not None:
                    return None
                total += analytic_run(probe).metrics.exec_time
            return total
        except Exception:
            return None

    # -- submission ---------------------------------------------------------

    def submit(self, request) -> Tuple[Job, bool]:
        """Submit a request; returns ``(job, fresh)``.

        ``fresh`` is ``False`` when the request coalesced onto an
        in-flight job for the same canonical key.  The key is computed
        before the lock -- it compiles the program, which is the
        expensive part -- so two racing submissions both pay it, but
        only one simulates.
        """
        if self.store is not None:
            # The server's store is authoritative: clients do not get
            # to point the service at arbitrary filesystem paths.
            request.store = self.store
        key = request.key()
        kind = request.KIND
        est_cycles = (self._analytic_cycles(request)
                      if self.analytic_admission else None)
        self.inc("serve.requests")
        with self._lock:
            if self._closed:
                raise QueueFullError("service is shutting down")
            existing = self._inflight.get((kind, key))
            if existing is not None:
                existing.coalesced += 1
                self.telemetry.inc("serve.coalesced")
                return existing, False
            if self._queued >= self.max_queued:
                self.telemetry.inc("serve.rejected")
                raise QueueFullError(
                    f"job queue full ({self.max_queued} queued)")
            deadline_ms = getattr(request, "deadline_ms", None)
            if deadline_ms is not None:
                wait_s = self._estimated_wait_locked()
                if wait_s * 1000.0 >= deadline_ms:
                    self.telemetry.inc("serve.deadline.rejected")
                    retry_after = max(1, math.ceil(wait_s))
                    raise DeadlineRejectedError(
                        f"estimated queue wait {wait_s * 1000.0:.0f}ms "
                        f"exceeds deadline_ms={deadline_ms}; retry in "
                        f"{retry_after}s or raise the deadline",
                        retry_after=retry_after)
            job = Job(kind, key, request)
            job.est_cycles = est_cycles
            self._jobs[job.id] = job
            self._inflight[(kind, key)] = job
            self._queued += 1
            if est_cycles is not None:
                self._queued_cycles += est_cycles
            else:
                self._queued_unknown += 1
            self.telemetry.inc("serve.jobs")
            job.future = self._pool.submit(self._run_job, job)
        return job, True

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        with self._lock:
            return list(self._jobs.values())

    def shutdown(self) -> None:
        with self._lock:
            self._closed = True
        self._pool.shutdown(wait=True)

    # -- execution (job threads) --------------------------------------------

    def _run_job(self, job: Job) -> None:
        with self._lock:
            self._queued -= 1
            if job.est_cycles is not None:
                self._queued_cycles = max(
                    0.0, self._queued_cycles - job.est_cycles)
            else:
                self._queued_unknown = max(0, self._queued_unknown - 1)
            job.state = RUNNING
            job.started = time.time()
        try:
            if job.deadline is not None and time.time() >= job.deadline:
                waited_ms = (time.time() - job.created) * 1000.0
                raise DeadlineError(
                    f"deadline_ms={job.deadline_ms} expired after "
                    f"{waited_ms:.0f}ms in the queue; the job never "
                    f"started")
            job.result = self._execute(job)
            job.state = DONE
        except DeadlineError as err:
            job.error = err
            job.state = EXPIRED
            self.inc("serve.deadline.expired")
        except BaseException as err:  # never-crash: capture, classify
            job.error = err
            job.state = FAILED
            self.inc("serve.errors")
        finally:
            job.finished = time.time()
            duration = job.finished - job.started
            with self._lock:
                self._inflight.pop((job.kind, job.key), None)
                if self._avg_job_seconds <= 0.0:
                    self._avg_job_seconds = duration
                else:
                    self._avg_job_seconds += JOB_ESTIMATE_ALPHA * (
                        duration - self._avg_job_seconds)
                if job.est_cycles is not None and job.est_cycles > 0 \
                        and job.state == DONE:
                    rate = duration / job.est_cycles
                    if self._seconds_per_cycle is None:
                        self._seconds_per_cycle = rate
                    else:
                        self._seconds_per_cycle += CYCLE_RATE_ALPHA * (
                            rate - self._seconds_per_cycle)

    @staticmethod
    def _remaining(job: Job) -> Optional[float]:
        """Seconds left on the job's deadline (None = unbounded).
        Raises :class:`DeadlineError` when already expired."""
        if job.deadline is None:
            return None
        remaining = job.deadline - time.time()
        if remaining <= 0:
            raise DeadlineError(
                f"deadline_ms={job.deadline_ms} expired mid-job")
        return max(0.001, remaining)

    def _bounded_run(self, spec, job: Job):
        """One simulation under the job's remaining deadline budget.
        The harness's ``_attempt`` enforces the wall-clock bound; its
        :class:`SimulationTimeout` is reclassified as the structured
        deadline expiry it actually is."""
        remaining = self._remaining(job)
        if remaining is None:
            return run_simulation(spec)
        try:
            return _attempt(spec, remaining)
        except SimulationTimeout as err:
            raise DeadlineError(
                f"deadline_ms={job.deadline_ms} expired while the "
                f"simulation ran ({err.message})") from err

    def _execute(self, job: Job) -> Dict[str, object]:
        request = job.request
        if job.kind == "run":
            job.progress_total = 1
            result = self._bounded_run(request.to_spec(), job)
            job.progress_done = 1
            hit = result.store_hit
            self.inc("serve.store_hits" if hit else "serve.store_misses")
            return {"kind": "run", "key": job.key,
                    "metrics": metrics_to_doc(result.metrics),
                    "page_fallbacks": result.page_fallbacks,
                    "store_hit": hit}
        if job.kind == "compare":
            base_spec, opt_spec = request.specs()
            job.progress_total = 2
            hits = 0
            sides = []
            for spec in (base_spec, opt_spec):
                result = self._bounded_run(spec, job)
                hits += int(result.store_hit)
                sides.append(result)
                job.progress_done += 1
            comparison = Comparison(sides[0].metrics, sides[1].metrics)
            self.inc("serve.store_hits", hits)
            self.inc("serve.store_misses", 2 - hits)
            return {"kind": "compare", "key": job.key,
                    "row": comparison.as_row(),
                    "base": metrics_to_doc(sides[0].metrics),
                    "opt": metrics_to_doc(sides[1].metrics),
                    "store_hits": hits}
        if job.kind == "search":
            # The deadline cannot bound individual analytic
            # evaluations (they are not simulations), so it is checked
            # once up front; the search itself is CPU-bounded by
            # construction (screen is analytic, re-sim is top_k runs).
            self._remaining(job)
            job.progress_total = 1
            result = request.execute()
            job.progress_done = 1
            job.rows = list(result.rows)
            return {"kind": "search", "key": job.key,
                    "mode": result.mode,
                    "space_size": result.space_size,
                    "candidates_evaluated": result.candidates_evaluated,
                    "acceptance_rate": result.acceptance_rate,
                    "rows": list(result.rows),
                    "csv": result.to_csv()}
        # sweep
        job.progress_total = len(request.grid())

        def progress(*args) -> None:
            if len(args) == 1:  # plain engine: one PointOutcome
                outcome = args[0]
                job.progress_done += 1
                row = getattr(outcome, "row", None)
                if row:
                    job.rows.append(dict(row))
            else:  # hardened engine: (wave, done, failed, total)
                _, done, failed, total = args
                job.progress_done = done + failed
                job.progress_total = total

        remaining = self._remaining(job)
        if remaining is None:
            report = request.execute(progress=progress)
        else:
            # The deadline flows into the hardened harness as the
            # per-point attempt bound: no single point may outlive the
            # job's remaining budget.
            report = request.execute(
                progress=progress,
                harness=HarnessConfig(timeout=remaining))
        # The streamed rows arrive in completion order; the report's
        # rows are the canonical grid order every CSV uses.  Replace.
        job.rows = list(report.rows)
        job.progress_done = len(report.rows)
        self.inc("serve.store_hits", report.store_hits)
        self.inc("serve.store_misses", report.store_misses)
        return {"kind": "sweep", "key": job.key, "rows": report.rows,
                "failures": report.failures, "csv": report.to_csv(),
                "store_hits": report.store_hits,
                "store_misses": report.store_misses}
