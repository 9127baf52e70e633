"""``repro.store``: the crash-safe, content-addressed result store.

The durable layer underneath checkpoint/resume, cross-process result
reuse, and the experiment-service direction: results keyed by the
canonical :meth:`repro.sim.run.RunSpec.key`, stored as checksummed
single-record files with atomic commits, corruption quarantined into a
miss (never a crash), and environmental failure (full disk, read-only
path, wedged lock) degrading to the in-memory backend with one warning.
See ``docs/robustness.md``.

A lazy facade (:mod:`repro._lazy`): the network client
(:mod:`repro.store.remote`, with ``http.client`` and ``ssl`` behind it)
loads only when a remote name is used or a store URL is opened.
"""

from repro._lazy import lazy_exports

__all__ = [
    "RESULT_KIND", "ROW_KIND", "RECORD_FORMAT", "STORE_VERSION",
    "CircuitBreaker", "DiskStore", "FallbackStore", "MemoryStore",
    "RemoteStats", "RemoteStore", "ResultStore",
    "StoreDegradedWarning", "StoreStats", "atomic_write_bytes",
    "atomic_write_json", "fsync_dir", "load_result", "metrics_from_doc",
    "metrics_to_doc", "open_store", "publish_stats", "reset_instances",
    "resolve", "result_payload", "store_result",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.store.atomic": ("atomic_write_bytes", "atomic_write_json",
                           "fsync_dir"),
    "repro.store.base": ("RESULT_KIND", "ROW_KIND", "FallbackStore",
                         "MemoryStore", "ResultStore",
                         "StoreDegradedWarning", "StoreStats",
                         "open_store", "publish_stats", "reset_instances",
                         "resolve"),
    "repro.store.disk": ("STORE_VERSION", "DiskStore"),
    "repro.store.records": ("RECORD_FORMAT", "load_result",
                            "metrics_from_doc", "metrics_to_doc",
                            "result_payload", "store_result"),
    "repro.store.remote": ("CircuitBreaker", "RemoteStats", "RemoteStore"),
})
