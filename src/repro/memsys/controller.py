"""Memory controllers with banked DRAM and FR-FCFS-style service.

Each controller owns ``banks_per_mc`` DRAM banks with open-row (open-page)
policy and a shared data channel.  Timing follows Table 1's DDR3-1600
derivation: a row-buffer hit costs ``row_hit_cycles`` (CAS + burst), a row
miss ``row_miss_cycles`` (precharge + activate + CAS + burst), and every
request occupies the channel for ``channel_cycles``.

Scheduling: the paper uses FR-FCFS [16] -- row hits first, then oldest
first.  Our simulator resolves requests atomically in global arrival
order, so literal reordering is impossible; the scheduler's row-batching
is approximated instead: each bank remembers the rows it touched within
the recent scheduling window (``frfcfs_window_rows`` rows /
``frfcfs_window_cycles`` cycles).  A request to such a row is charged
row-hit latency, because a real FR-FCFS queue holding both requests
would have serviced them back to back off the open row.  This preserves
the effect the optimization changes: a localized layout puts ~16
consecutive lines of a thread's sweep in one local row (vs. ~4 under the
default interleaving), so activations per line drop even when several
threads' streams interleave at the controller.  Queueing is modeled with
busy-until banks and a shared data channel; the wait is charged to the
request's memory latency (the paper's "time spent in the queue"), and
bank-queue occupancy (Figure 18) is its time-integral.

The *optimal scheme* of Section 2 is a flag: every request is served at
row-hit latency with no queueing, modeling "always the nearest MC and no
additional latency due to bank contention".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.arch.config import MachineConfig
from repro.faults.models import ControllerFaultModel


@dataclass
class ControllerStats:
    """Aggregated per-controller statistics."""

    requests: int = 0
    row_hits: int = 0
    queue_wait_total: float = 0.0
    busy_total: float = 0.0
    first_arrival: float = math.inf
    last_finish: float = 0.0
    bank_remaps: int = 0        # requests redirected off a dead bank
    offline_waits: int = 0      # requests that stalled for an offline MC
    offline_wait_total: float = 0.0

    @property
    def row_hit_rate(self) -> float:
        return self.row_hits / self.requests if self.requests else 0.0

    @property
    def busy_elapsed(self) -> float:
        """The window this controller actually had work: first request
        arrival to last request finish (0 with no requests)."""
        if not self.requests or math.isinf(self.first_arrival):
            return 0.0
        return max(0.0, self.last_finish - self.first_arrival)

    def queue_occupancy(self, elapsed: float) -> float:
        """Mean number of requests waiting in the bank queues (Little's
        law on the accumulated waiting time), over the *whole* run.

        This dilutes the occupancy of a controller that sat idle for
        most of the run; :meth:`queue_occupancy_busy` normalizes by the
        controller's own active window instead.  Figure 18 wants the
        run-wide average (system-level pressure); diagnosing a single
        hot controller wants the busy-window one.  Report both.
        """
        return self.queue_wait_total / elapsed if elapsed > 0 else 0.0

    def queue_occupancy_busy(self) -> float:
        """Mean waiting requests over this controller's busy window
        (first arrival to last finish) -- undiluted by idle time."""
        busy = self.busy_elapsed
        return self.queue_wait_total / busy if busy > 0 else 0.0


class MemoryController:
    """One MC: open-row banks + shared channel, busy-until semantics."""

    def __init__(self, config: MachineConfig, node: int,
                 optimal: bool = False,
                 faults: Optional[ControllerFaultModel] = None,
                 mc_index: int = 0,
                 telemetry=None):
        self.config = config
        self.node = node
        self.optimal = optimal
        self.faults = faults
        self.mc_index = mc_index
        banks = config.banks_per_mc
        self.bank_busy: List[float] = [0.0] * banks
        self.channel_free: float = 0.0
        # FR-FCFS window per bank: recently serviced rows and their last
        # service times, most recent last.
        self._recent_rows: List[List[int]] = [[] for _ in range(banks)]
        self._recent_times: List[List[float]] = [[] for _ in range(banks)]
        self.stats = ControllerStats()
        # Optional repro.obs telemetry (obs=full): per-MC queue-wait and
        # row-hit streams over simulated time, plus a run-wide queue-wait
        # histogram.  None keeps the hot path free of any publishing.
        self._ts_wait = self._ts_hit = self._hist_wait = None
        if telemetry is not None:
            self._ts_wait = telemetry.series(
                f"mc.{mc_index}.queue_wait")
            self._ts_hit = telemetry.series(f"mc.{mc_index}.row_hit")
            self._hist_wait = telemetry.histogram("mc.queue_wait_cycles")
            self._tel_requests = telemetry.counter(
                f"mc.{mc_index}.requests")
            self._tel_row_hits = telemetry.counter(
                f"mc.{mc_index}.row_hits")

    def service(self, bank: int, row: int, arrival: float
                ) -> Tuple[float, float, bool]:
        """Serve one request; returns ``(finish, queue_wait, row_hit)``.

        ``queue_wait`` is the time between arrival and the start of bank
        service -- the queueing component of the paper's memory latency.
        """
        stats = self.stats
        stats.requests += 1
        if arrival < stats.first_arrival:
            stats.first_arrival = arrival
        if self.optimal:
            finish = arrival + self.config.row_hit_cycles
            stats.row_hits += 1
            stats.busy_total += self.config.row_hit_cycles
            stats.last_finish = max(stats.last_finish, finish)
            if self._ts_wait is not None:
                self._publish(arrival, 0.0, True)
            return finish, 0.0, True

        faults = self.faults
        factor = 1.0
        if faults is not None:
            remapped = faults.remap_bank(self.mc_index, bank)
            if remapped != bank:
                stats.bank_remaps += 1
                bank = remapped
            online = faults.next_online(self.mc_index, arrival)
            if online > arrival and not math.isinf(online):
                # The request arrived during an offline window: it
                # waits at the controller until service resumes (the
                # failover path in the simulator normally diverts it
                # first; this covers windows with no live alternate).
                stats.offline_waits += 1
                stats.offline_wait_total += online - arrival
                arrival = online
            # A request that was already in flight when a *permanent*
            # outage began (dispatched while the MC was healthy,
            # arriving after it died) completes normally: waiting for an
            # infinite window would poison every downstream timestamp.
            factor = faults.slowdown(self.mc_index, arrival)

        config = self.config
        start = max(arrival, self.bank_busy[bank], self.channel_free)
        # FR-FCFS (see the module docstring): a hit is the open row or a
        # row still inside the batching window.  One scan of the bank's
        # recent-row list serves both the hit test and the row touch.
        rows = self._recent_rows[bank]
        times = self._recent_times[bank]
        try:
            idx = rows.index(row)
        except ValueError:
            hit = False
        else:
            hit = (times[idx] >= start - config.frfcfs_window_cycles
                   or idx == len(rows) - 1)
            del rows[idx]
            del times[idx]
        latency = (config.row_hit_cycles if hit
                   else config.row_miss_cycles) * factor
        finish = start + latency
        self.bank_busy[bank] = finish
        # The channel carries one burst per request; banks overlap their
        # internal latencies but transfers serialize.
        self.channel_free = start + config.channel_cycles * factor
        rows.append(row)
        times.append(finish)
        if len(rows) > config.frfcfs_window_rows:
            del rows[0]
            del times[0]

        wait = start - arrival
        stats.row_hits += int(hit)
        stats.queue_wait_total += wait
        stats.busy_total += latency
        stats.last_finish = max(stats.last_finish, finish)
        if self._ts_wait is not None:
            self._publish(start, wait, hit)
        return finish, wait, hit

    def _publish(self, when: float, wait: float, hit: bool) -> None:
        """Fold one serviced request into the run's telemetry (only
        wired when the run observes at ``obs=full``)."""
        self._ts_wait.record(when, wait)
        self._ts_hit.record(when, 1.0 if hit else 0.0)
        self._hist_wait.observe(wait)
        self._tel_requests.inc()
        if hit:
            self._tel_row_hits.inc()
