"""repro.obs: span tracing, telemetry, and trace/heatmap export.

The observability subsystem behind ``RunSpec.obs``:

* :mod:`repro.obs.tracer` -- nested wall-clock spans with counters,
  context-manager and decorator APIs, thread- and process-safe.
* :mod:`repro.obs.telemetry` -- counters, gauges, exponential-bucket
  histograms and simulated-time series the NoC, memory controllers,
  page table and caches publish into.
* :mod:`repro.obs.export` -- Chrome ``trace_event`` JSON, JSONL,
  Prometheus text, ASCII/CSV NoC link heatmaps and per-MC occupancy
  timelines.

Levels (:data:`OBS_LEVELS`): ``off`` (default -- measurably free, see
``benchmarks/bench_obs_overhead.py``), ``spans`` (wall-clock phase
tracing), ``full`` (spans + hardware telemetry).  Like
``RunSpec.validate``, the level is an observation knob, not a
simulation input: it is excluded from :meth:`RunSpec.key`, so observed
and unobserved runs share cache identity.

A lazy facade (:mod:`repro._lazy`): unobserved runs import only the
tracer, never the telemetry registry or the exporters.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Counter", "Gauge", "Histogram", "OBS_LEVELS", "ObsData",
    "SpanRecord", "TelemetryRegistry", "TimeSeries", "Tracer",
    "activate", "chrome_trace", "current_tracer", "jsonl_events",
    "link_heatmap", "link_heatmap_csv", "mc_timeline",
    "mc_timeline_csv", "obs_instant", "obs_span", "process_obs",
    "process_registry", "profile_table", "prometheus_text", "traced",
    "write_chrome_trace",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.obs.data": ("OBS_LEVELS", "ObsData"),
    "repro.obs.export": ("chrome_trace", "jsonl_events", "link_heatmap",
                         "link_heatmap_csv", "mc_timeline",
                         "mc_timeline_csv", "process_obs",
                         "process_registry", "profile_table",
                         "prometheus_text", "write_chrome_trace"),
    "repro.obs.telemetry": ("Counter", "Gauge", "Histogram",
                            "TelemetryRegistry", "TimeSeries"),
    "repro.obs.tracer": ("SpanRecord", "Tracer", "activate",
                         "current_tracer", "obs_instant", "obs_span",
                         "traced"),
})
