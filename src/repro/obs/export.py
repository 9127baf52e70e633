"""Exporters: spans and telemetry out, in formats tools already read.

* :func:`chrome_trace` / :func:`write_chrome_trace` -- the Chrome
  ``trace_event`` JSON that ``chrome://tracing`` and Perfetto load.
  Wall-clock spans become one process lane per run; simulated-time
  telemetry (per-MC queue depth, row-hit rate) becomes counter tracks
  in a separate ``simulated time`` process, and fault windows render as
  spans there, so "MC 2 went offline" lines up with the queue-depth
  spike it caused.
* :func:`jsonl_events` -- one JSON object per line (spans, then
  telemetry samples): the format log pipelines ingest.
* :func:`prometheus_text` -- the Prometheus exposition format, for
  scraping sweep fleets.
* :func:`link_heatmap` / :func:`link_heatmap_csv` -- the NoC link
  occupancy map (the paper's Figure 13 intuition, per link instead of
  per controller) as ASCII art or CSV.
* :func:`mc_timeline` / :func:`mc_timeline_csv` -- per-MC bank-queue
  occupancy over simulated time (Figure 18, time-resolved).
* :func:`profile_table` -- the ``repro-cli profile`` top-N span table.

All functions take :class:`~repro.obs.data.ObsData` (or a list -- runs
become lanes) and return strings/dicts; nothing here touches the
simulator, so exporting costs nothing unless called.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.data import ObsData

#: Intensity ramp for ASCII heatmaps/timelines, low to high.
RAMP = " .:-=+*#%@"


def _as_parts(obs) -> List[ObsData]:
    if isinstance(obs, ObsData):
        return [obs]
    return [part for part in obs if part is not None]


def _scaled(value: float, peak: float) -> str:
    if peak <= 0 or value <= 0:
        return RAMP[0]
    index = int(round((len(RAMP) - 1) * min(1.0, value / peak)))
    return RAMP[max(1, index)] if value > 0 else RAMP[0]


# ---------------------------------------------------------------------------
# Chrome trace_event JSON

#: pid of the synthetic "simulated time" process in a Chrome trace.
SIM_PID = 1000


def chrome_trace(obs) -> Dict[str, object]:
    """Build the ``trace_event`` dict for one or more observed runs."""
    parts = _as_parts(obs)
    events: List[Dict[str, object]] = []
    for pid, part in enumerate(parts):
        label = part.label or f"run{pid}"
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": label}})
        if not part.spans:
            continue
        base = min(record.start for record in part.spans)
        tids: Dict[int, int] = {}
        for record in part.spans:
            tid = tids.setdefault(record.tid, len(tids))
            event = {"name": record.name,
                     "cat": record.cat or "repro",
                     "ph": "X",
                     "ts": round((record.start - base) * 1e6, 3),
                     "dur": round(record.duration * 1e6, 3),
                     "pid": pid, "tid": tid}
            if record.args:
                event["args"] = dict(record.args)
            events.append(event)
        for ident, tid in tids.items():
            events.append({"name": "thread_name", "ph": "M", "pid": pid,
                           "tid": tid,
                           "args": {"name": f"thread-{tid}"}})
    events.extend(_sim_time_events(parts))
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"producer": "repro.obs",
                          "runs": [part.label for part in parts]}}


def _sim_time_events(parts: Sequence[ObsData]) -> List[Dict[str, object]]:
    """Counter tracks + fault-window spans in simulated cycles, one
    ``simulated time`` process per run (pid ``SIM_PID + run``)."""
    events: List[Dict[str, object]] = []
    for run, part in enumerate(parts):
        pid = SIM_PID + run
        named = False
        registry = part.telemetry
        if registry is not None:
            for name in registry.names():
                metric = registry.get(name)
                if metric.kind != "series":
                    continue
                for t, mean, _count, _vmax in metric.points():
                    events.append({"name": name, "ph": "C", "ts": t,
                                   "pid": pid,
                                   "args": {"mean": round(mean, 4)}})
                named = named or bool(metric.buckets)
        for window in part.meta.get("fault_windows", ()):  # type: ignore
            end = window.get("end")
            start = float(window.get("start", 0.0))
            duration = (float(end) - start if end is not None
                        else float(part.meta.get("exec_time", start)
                                   or start) - start)
            events.append({"name": window.get("name", "fault"),
                           "cat": "fault", "ph": "X", "ts": start,
                           "dur": max(duration, 0.0), "pid": pid,
                           "tid": 0, "args": dict(window)})
            named = True
        if named:
            label = part.label or f"run{run}"
            events.append({"name": "process_name", "ph": "M", "pid": pid,
                           "args": {"name": f"simulated time: {label}"}})
    return events


def write_chrome_trace(path: str, obs) -> int:
    """Write the Chrome trace to ``path``; returns the event count."""
    trace = chrome_trace(obs)
    with open(path, "w") as handle:
        json.dump(trace, handle, indent=1)
        handle.write("\n")
    return len(trace["traceEvents"])


# ---------------------------------------------------------------------------
# JSONL event stream

def jsonl_events(obs) -> str:
    """One JSON object per line: spans, then telemetry snapshots."""
    lines = []
    for part in _as_parts(obs):
        for record in part.spans:
            event = {"event": "span", "run": record.run or part.label,
                     "name": record.name, "cat": record.cat,
                     "start": record.start, "duration": record.duration,
                     "tid": record.tid}
            if record.args:
                event["args"] = record.args
            lines.append(json.dumps(event, default=str))
        if part.telemetry is not None:
            for name, snapshot in part.telemetry.as_dict().items():
                lines.append(json.dumps(
                    {"event": "metric", "run": part.label, "name": name,
                     **snapshot}, default=str))
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Prometheus exposition format

def _prom_name(name: str) -> str:
    safe = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    return f"repro_{safe}"


def process_registry() -> "TelemetryRegistry":
    """Process-wide operational counters as a fresh registry.

    Gathers the state that lives outside any single run's
    :class:`~repro.obs.data.ObsData`:

    * ``store.*`` -- every live result store's shared
      :class:`~repro.store.base.StoreStats` (gets/hits/misses/puts,
      corruption, quarantine, degradations), summed across paths.
      Every field is published, zeros included, so the exposition set
      is stable from the first scrape.
    * ``store.remote.*`` -- the network store client's counters
      (:class:`~repro.store.remote.RemoteStats`: retries, timeouts,
      breaker transitions), summed across remote stores, plus a
      ``store.remote.breaker_state`` gauge (0=closed, 1=half-open,
      2=open; the worst state across clients).
    * ``supervision.*`` -- the pool supervisor's recovery counters
      (:func:`repro.sim.executor.supervision_stats`: worker restarts,
      re-enqueued points, hang detections).
    * ``steal.*`` -- the work-stealing scheduler's counters
      (:func:`repro.sim.executor.steal_stats`: batches and tasks
      handed to workers, points re-enqueued after a loss).
    * ``sim.engine.fallback.<reason>`` -- ``engine="fast"`` runs that
      fell back to the reference loop, by reason
      (:func:`repro.sim.system.engine_fallbacks`; every reason in
      :data:`repro.sim.fastpath.FALLBACK_REASONS` is published, zeros
      included).
    * ``harness.abandoned_threads`` (gauge) /
      ``harness.abandoned_threads_total`` (counter) -- worker threads
      the hardened harness abandoned on timeout
      (:func:`repro.sim.harness.abandoned_threads`).

    Before this existed these counters only surfaced in the CLI's
    stderr summary and ``obs=full`` run telemetry; the service's
    ``GET /metrics`` endpoint merges this registry into its own so a
    scraper sees them continuously.
    """
    from repro.obs.telemetry import TelemetryRegistry
    from repro.sim.executor import steal_stats, supervision_stats
    from repro.sim.fastpath import FALLBACK_REASONS
    from repro.sim.system import engine_fallbacks
    from repro.sim.harness import abandoned_threads
    from repro.store import base as store_base
    from repro.store.remote import RemoteStats

    registry = TelemetryRegistry()
    from repro.store.base import StoreStats
    totals = {name: 0 for name in StoreStats.FIELDS}
    remote_totals = {name: 0 for name in RemoteStats.FIELDS}
    breaker_state = 0
    for store in store_base.instances().values():
        for name, value in store.stats.snapshot().items():
            totals[name] = totals.get(name, 0) + value
        primary = getattr(store, "primary", store)
        remote = getattr(primary, "remote_stats", None)
        if remote is not None:
            for name, value in remote.snapshot().items():
                remote_totals[name] = remote_totals.get(name, 0) + value
            breaker_state = max(breaker_state,
                                primary.breaker.state_value())
    for name in StoreStats.FIELDS:
        registry.counter(f"store.{name}").inc(totals[name])
    for name in RemoteStats.FIELDS:
        registry.counter(f"store.remote.{name}").inc(remote_totals[name])
    registry.gauge("store.remote.breaker_state").set(breaker_state)
    for name, value in supervision_stats().items():
        registry.counter(f"supervision.{name}").inc(value)
    for name, value in steal_stats().items():
        registry.counter(f"steal.{name}").inc(value)
    fallbacks = engine_fallbacks()
    for reason in FALLBACK_REASONS:
        registry.counter(f"sim.engine.fallback.{reason}").inc(
            fallbacks.get(reason, 0))
    strays = abandoned_threads()
    registry.gauge("harness.abandoned_threads").set(strays["live"])
    registry.counter("harness.abandoned_threads_total").inc(
        strays["total"])
    return registry


def process_obs(label: str = "process") -> ObsData:
    """:func:`process_registry` wrapped as an :class:`ObsData` part,
    ready for :func:`prometheus_text` (labelled so process-wide
    counters stay distinguishable from per-run telemetry)."""
    return ObsData(level="full", label=label,
                   telemetry=process_registry())


def prometheus_text(obs) -> str:
    """Render telemetry in the Prometheus text exposition format.
    Series flatten to ``_sum``/``_count`` pairs (their time axis is
    simulated cycles, which a scraper cannot replay)."""
    lines: List[str] = []
    for part in _as_parts(obs):
        registry = part.telemetry
        if registry is None:
            continue
        label = f'{{run="{part.label}"}}' if part.label else ""
        for name in registry.names():
            metric = registry.get(name)
            prom = _prom_name(name)
            if metric.kind == "counter":
                lines.append(f"# TYPE {prom} counter")
                lines.append(f"{prom}{label} {metric.value:g}")
            elif metric.kind == "gauge":
                lines.append(f"# TYPE {prom} gauge")
                lines.append(f"{prom}{label} {metric.value:g}")
            elif metric.kind == "histogram":
                lines.append(f"# TYPE {prom} histogram")
                run_label = (f'run="{part.label}",' if part.label else "")
                for bound, cumulative in metric.cumulative():
                    lines.append(f'{prom}_bucket{{{run_label}le="{bound:g}"'
                                 f'}} {cumulative}')
                lines.append(f'{prom}_bucket{{{run_label}le="+Inf"}} '
                             f'{metric.count}')
                lines.append(f"{prom}_sum{label} {metric.sum:g}")
                lines.append(f"{prom}_count{label} {metric.count}")
            else:  # series
                lines.append(f"# TYPE {prom}_sum counter")
                lines.append(f"{prom}_sum{label} {metric.sum:g}")
                lines.append(f"{prom}_count{label} {metric.count}")
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# NoC link heatmap

def _link_loads(part: ObsData) -> Optional[Tuple[int, int, Dict[Tuple[int,
                                                                      int],
                                                                float]]]:
    """``(width, height, {(src, dst): flits})`` from one run, or None
    when the run carries no mesh telemetry."""
    registry = part.telemetry
    mesh_dims = part.meta.get("mesh")
    if registry is None or not mesh_dims:
        return None
    from repro.arch.topology import Mesh
    width, height = int(mesh_dims[0]), int(mesh_dims[1])
    mesh = Mesh(width, height)
    loads: Dict[Tuple[int, int], float] = {}
    for link, (src, dst) in enumerate(mesh.links()):
        flits = registry.value(f"noc.link.{link}.flits")
        if flits:
            loads[(src, dst)] = flits
    return width, height, loads


def link_heatmap(obs, char_width: int = 3) -> str:
    """ASCII heatmap of per-link flit occupancy over the mesh.

    Nodes are ``[..]`` cells; the characters between adjacent cells
    encode the busier direction of that link pair on the ``RAMP``
    scale, normalized to the busiest link in the run.
    """
    blocks = []
    for part in _as_parts(obs):
        resolved = _link_loads(part)
        if resolved is None:
            continue
        width, height, loads = resolved
        peak = max(loads.values(), default=0.0)
        pair = {}
        for (src, dst), flits in loads.items():
            key = (min(src, dst), max(src, dst))
            pair[key] = max(pair.get(key, 0.0), flits)

        def cell(x: int, y: int) -> int:
            return y * width + x

        lines = [f"NoC link occupancy (flit-hops), peak={peak:g}"
                 + (f" [{part.label}]" if part.label else "")]
        for y in range(height):
            row = []
            for x in range(width):
                row.append(f"[{cell(x, y):>2d}]")
                if x + 1 < width:
                    load = pair.get((cell(x, y), cell(x + 1, y)), 0.0)
                    row.append(_scaled(load, peak) * char_width)
            lines.append("".join(row))
            if y + 1 < height:
                row = []
                for x in range(width):
                    load = pair.get((cell(x, y), cell(x, y + 1)), 0.0)
                    row.append(f" {_scaled(load, peak)}{_scaled(load, peak)} ")
                    if x + 1 < width:
                        row.append(" " * char_width)
                lines.append("".join(row))
        lines.append(f"scale: '{RAMP}' (idle -> saturated)")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + ("\n" if blocks else "")


def link_heatmap_csv(obs) -> str:
    """Per-link occupancy as CSV: run,link,src,dst,flit_hops."""
    lines = ["run,link,src,dst,flit_hops"]
    for part in _as_parts(obs):
        resolved = _link_loads(part)
        if resolved is None:
            continue
        width, height, loads = resolved
        from repro.arch.topology import Mesh
        mesh = Mesh(width, height)
        for link, (src, dst) in enumerate(mesh.links()):
            flits = loads.get((src, dst), 0.0)
            lines.append(f"{part.label},{link},{src},{dst},{flits:g}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# MC occupancy timeline

def _mc_series(part: ObsData) -> List[Tuple[int, object]]:
    registry = part.telemetry
    if registry is None:
        return []
    out = []
    for name in registry.names("mc."):
        if name.endswith(".queue_wait"):
            mc = int(name.split(".")[1])
            out.append((mc, registry.get(name)))
    return sorted(out)


def mc_timeline(obs, width: int = 60) -> str:
    """ASCII per-MC queue-occupancy timeline over simulated cycles.

    Each cell is the mean number of waiting requests at that controller
    during the cell's time slice (Little's law: accumulated wait in the
    slice / slice length), on the ``RAMP`` scale normalized to the
    busiest slice of any controller.
    """
    blocks = []
    for part in _as_parts(obs):
        series = _mc_series(part)
        if not series:
            continue
        horizon = max((s.span[1] for _, s in series), default=0.0)
        horizon = max(horizon,
                      float(part.meta.get("exec_time", 0.0) or 0.0))
        if horizon <= 0:
            continue
        slice_cycles = horizon / width
        rows = {}
        peak = 0.0
        for mc, metric in series:
            cells = [0.0] * width
            for index, (vsum, _count, _vmax) in metric.buckets.items():
                t = index * metric.bucket_cycles
                cells[min(width - 1, int(t / slice_cycles))] += vsum
            cells = [c / slice_cycles for c in cells]
            rows[mc] = cells
            peak = max(peak, max(cells))
        lines = [f"MC bank-queue occupancy over {horizon:g} cycles "
                 f"(peak {peak:.2f} waiting)"
                 + (f" [{part.label}]" if part.label else "")]
        for mc, cells in sorted(rows.items()):
            body = "".join(_scaled(c, peak) for c in cells)
            lines.append(f"  MC{mc:<2d} |{body}|")
        lines.append(f"scale: '{RAMP}' (idle -> peak)")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + ("\n" if blocks else "")


def mc_timeline_csv(obs) -> str:
    """Per-MC queue-wait series as CSV:
    run,mc,bucket_start_cycle,mean_wait,samples,max_wait."""
    lines = ["run,mc,bucket_start_cycle,mean_wait,samples,max_wait"]
    for part in _as_parts(obs):
        for mc, metric in _mc_series(part):
            for t, mean, count, vmax in metric.points():
                lines.append(f"{part.label},{mc},{t:g},{mean:g},"
                             f"{count},{vmax:g}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Span profile

def profile_table(obs, top: int = 15) -> str:
    """The ``repro-cli profile`` table: top spans by total time."""
    merged = ObsData.merged(_as_parts(obs)) if not isinstance(obs, ObsData) \
        else obs
    totals = merged.span_totals()
    if not totals:
        return "no spans recorded (is obs enabled?)\n"
    whole = sum(slot["total"] for name, slot in totals.items()
                if name == "run") or \
        sum(slot["total"] for slot in totals.values())
    order = sorted(totals.items(), key=lambda kv: -kv[1]["total"])[:top]
    name_width = max(len("span"), max(len(name) for name, _ in order))
    lines = [f"{'span':<{name_width}}  {'calls':>6} {'total ms':>10} "
             f"{'mean us':>10} {'max us':>10} {'share':>7}"]
    for name, slot in order:
        share = slot["total"] / whole if whole > 0 else 0.0
        lines.append(
            f"{name:<{name_width}}  {slot['calls']:>6d} "
            f"{slot['total'] * 1e3:>10.3f} {slot['mean'] * 1e6:>10.1f} "
            f"{slot['max'] * 1e6:>10.1f} {share:>6.1%}")
    return "\n".join(lines) + "\n"
