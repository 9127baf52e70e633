"""The result-store interface, its in-memory backend, and the
degradation ladder.

A :class:`ResultStore` maps a canonical content key (a
:meth:`repro.sim.run.RunSpec.key` or the executor's point key) to a
JSON-serializable payload under a *kind* namespace (``"result"`` for
full run metrics, ``"row"`` for sweep checkpoint rows).  The contract
every backend honours:

* **Reads never raise for data problems.**  A missing, truncated, or
  corrupted record is a miss (:meth:`get` returns ``None``); corruption
  is additionally quarantined and counted, never propagated.
* **Writes are atomic.**  A reader sees the old record or the new one,
  never a torn hybrid.
* **Environmental failure degrades, it does not crash.**  ENOSPC, a
  read-only directory, or a wedged lock downgrades the process to the
  in-memory backend with a single warning
  (:class:`StoreDegradedWarning`); results are always produced.

:func:`open_store` builds the right backend for a path (or the memory
backend for ``None``); :func:`resolve` caches one instance per path per
process so every run in a sweep shares hit counters and the degraded
state.
"""

from __future__ import annotations

import hashlib
import json
import threading
import warnings
from typing import Dict, Iterable, List, Optional

from repro.errors import StoreError
from repro.obs.tracer import obs_instant

#: Record namespaces: full run results and sweep checkpoint rows.
RESULT_KIND = "result"
ROW_KIND = "row"


class StoreDegradedWarning(UserWarning):
    """The persistent store failed and the run fell back to memory."""


class StoreStats:
    """Thread-safe operation counters shared across one store's
    backends (the disk primary and its memory fallback)."""

    FIELDS = ("gets", "hits", "misses", "puts", "put_skipped",
              "put_errors", "corrupt", "quarantined", "degraded")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        for name in self.FIELDS:
            setattr(self, name, 0)

    def inc(self, name: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + amount)

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return {name: getattr(self, name) for name in self.FIELDS}


class ResultStore:
    """Abstract key/payload store; see the module docstring for the
    contract subclasses implement."""

    #: Human-readable backend description (CLI ``store stats``).
    description = "abstract"

    def __init__(self, stats: Optional[StoreStats] = None):
        self.stats = stats or StoreStats()

    # -- required --
    def get(self, key: str, kind: str = RESULT_KIND) -> Optional[dict]:
        raise NotImplementedError

    def put(self, key: str, payload: dict,
            kind: str = RESULT_KIND) -> bool:
        raise NotImplementedError

    def keys(self, kind: str = RESULT_KIND) -> List[str]:
        raise NotImplementedError

    # -- optional --
    def contains(self, key: str, kind: str = RESULT_KIND) -> bool:
        return self.get(key, kind) is not None

    def verify(self) -> Dict[str, int]:
        """Re-check every record's integrity; returns counts
        (``checked``/``bad``).  Backends without durable records have
        nothing to verify."""
        checked = sum(len(self.keys(kind))
                      for kind in (RESULT_KIND, ROW_KIND))
        return {"checked": checked, "bad": 0, "quarantined": 0}

    def gc(self) -> Dict[str, int]:
        """Drop quarantined/leftover debris; returns removal counts."""
        return {"removed": 0, "bytes": 0}

    def close(self) -> None:
        pass


class MemoryStore(ResultStore):
    """Process-local dict backend: the zero-dependency default and the
    degradation target.  Thread-safe; contents die with the process."""

    description = "memory"

    def __init__(self, stats: Optional[StoreStats] = None):
        super().__init__(stats)
        self._lock = threading.Lock()
        self._records: Dict[str, dict] = {}

    @staticmethod
    def _slot(key: str, kind: str) -> str:
        return f"{kind}:{key}"

    def get(self, key: str, kind: str = RESULT_KIND) -> Optional[dict]:
        self.stats.inc("gets")
        with self._lock:
            payload = self._records.get(self._slot(key, kind))
        if payload is None:
            self.stats.inc("misses")
            return None
        self.stats.inc("hits")
        return payload

    def put(self, key: str, payload: dict,
            kind: str = RESULT_KIND) -> bool:
        slot = self._slot(key, kind)
        with self._lock:
            if slot in self._records:
                self.stats.inc("put_skipped")
                return False
            self._records[slot] = payload
        self.stats.inc("puts")
        return True

    def keys(self, kind: str = RESULT_KIND) -> List[str]:
        prefix = f"{kind}:"
        with self._lock:
            return sorted(slot[len(prefix):] for slot in self._records
                          if slot.startswith(prefix))


class FallbackStore(ResultStore):
    """The degradation ladder: a durable primary backend with an
    in-memory understudy.

    Data corruption is the primary's own problem (quarantine + miss);
    this wrapper handles *environmental* failure -- an :class:`OSError`
    (ENOSPC, EACCES) or a :class:`~repro.errors.StoreError` (wedged
    advisory lock) escaping the primary flips the process to the memory
    backend for the rest of its lifetime, with exactly one
    :class:`StoreDegradedWarning`.  Both backends share one
    :class:`StoreStats`, so hit counters survive the downgrade.
    """

    def __init__(self, primary: ResultStore):
        super().__init__(primary.stats)
        self.primary = primary
        self.memory = MemoryStore(stats=primary.stats)
        self.degraded_reason: Optional[str] = None

    @property
    def description(self) -> str:  # type: ignore[override]
        if self.degraded_reason is not None:
            return (f"memory (degraded from {self.primary.description}: "
                    f"{self.degraded_reason})")
        return self.primary.description

    @property
    def active(self) -> ResultStore:
        return self.memory if self.degraded_reason is not None \
            else self.primary

    def _degrade(self, op: str, err: BaseException) -> None:
        if self.degraded_reason is not None:
            return
        self.degraded_reason = f"{op}: {err}"
        self.stats.inc("degraded")
        obs_instant("store.degrade", cat="store", op=op, error=str(err))
        warnings.warn(
            f"result store degraded to memory for the rest of this "
            f"process ({self.degraded_reason}); results will still be "
            f"produced but not persisted", StoreDegradedWarning,
            stacklevel=3)

    def get(self, key: str, kind: str = RESULT_KIND) -> Optional[dict]:
        try:
            return self.active.get(key, kind)
        except (OSError, StoreError) as err:
            self._degrade("get", err)
            return self.memory.get(key, kind)

    def put(self, key: str, payload: dict,
            kind: str = RESULT_KIND) -> bool:
        try:
            return self.active.put(key, payload, kind)
        except (OSError, StoreError) as err:
            self.stats.inc("put_errors")
            self._degrade("put", err)
            return self.memory.put(key, payload, kind)

    def keys(self, kind: str = RESULT_KIND) -> List[str]:
        try:
            return self.active.keys(kind)
        except (OSError, StoreError) as err:
            self._degrade("keys", err)
            return self.memory.keys(kind)

    def verify(self) -> Dict[str, int]:
        return self.active.verify()

    def gc(self) -> Dict[str, int]:
        return self.active.gc()

    def close(self) -> None:
        self.primary.close()
        self.memory.close()


def open_store(path: Optional[str] = None,
               lock_timeout: float = 5.0) -> ResultStore:
    """Build a store for ``path``: ``None``/empty means the in-memory
    backend, an ``http://host:port`` URL the network client
    (:class:`~repro.store.remote.RemoteStore`), anything else a
    :class:`~repro.store.disk.DiskStore` rooted there -- each wrapped
    in the degradation ladder.  A directory that cannot even be
    created (or an unusable URL) degrades immediately (with the
    warning) instead of failing the run."""
    if not path:
        return MemoryStore()
    if path.startswith(("http://", "https://")):
        from repro.store.remote import RemoteStore
        try:
            primary: ResultStore = RemoteStore.from_url(path)
        except StoreError as err:
            store = FallbackStore(_BrokenStore(str(path)))
            store._degrade("open", err)
            return store
        return FallbackStore(primary)
    from repro.store.disk import DiskStore
    try:
        primary = DiskStore(path, lock_timeout=lock_timeout)
    except (OSError, StoreError) as err:
        store = FallbackStore(_BrokenStore(str(path)))
        store._degrade("open", err)
        return store
    return FallbackStore(primary)


class _BrokenStore(ResultStore):
    """Placeholder primary for a store whose root never opened."""

    def __init__(self, path: str):
        super().__init__()
        self.description = f"disk:{path} (unopenable)"

    def get(self, key, kind=RESULT_KIND):
        raise StoreError("store root unavailable")

    def put(self, key, payload, kind=RESULT_KIND):
        raise StoreError("store root unavailable")

    def keys(self, kind=RESULT_KIND):
        raise StoreError("store root unavailable")


_resolve_lock = threading.Lock()
_instances: Dict[str, ResultStore] = {}


def resolve(path: Optional[str]) -> Optional[ResultStore]:
    """The process-wide store for ``path`` (one instance per path, so
    sweep points share counters and degraded state); ``None`` for a
    falsy path -- a :class:`~repro.sim.run.RunSpec` without a store
    configured costs nothing."""
    if not path:
        return None
    with _resolve_lock:
        store = _instances.get(path)
        if store is None:
            store = open_store(path)
            _instances[path] = store
        return store


def instances() -> Dict[str, ResultStore]:
    """A snapshot of the per-process store cache, path -> store.  The
    process-wide observability surface (``repro.obs.export
    .process_registry``) walks this to expose every live store's
    counters without knowing which paths the session opened."""
    with _resolve_lock:
        return dict(_instances)


def reset_instances() -> None:
    """Drop the per-process store cache (tests; also lets a long
    process re-probe a previously degraded path)."""
    with _resolve_lock:
        for store in _instances.values():
            store.close()
        _instances.clear()


def publish_stats(telemetry, before: Dict[str, int],
                  after: Dict[str, int]) -> None:
    """Fold a store-stats delta into a run's telemetry registry as
    ``store.*`` counters -- how corruption/recovery events become
    visible in :mod:`repro.obs` exports."""
    for name, value in after.items():
        delta = value - before.get(name, 0)
        if delta:
            telemetry.counter(f"store.{name}").inc(delta)


def canonical_payload(payload: dict) -> str:
    """The one JSON rendering of a record payload both ends of the wire
    agree on byte for byte."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def payload_sha256(payload: dict) -> str:
    """The checksum both sides agree on: SHA-256 over the canonical
    JSON rendering of the payload."""
    return hashlib.sha256(canonical_payload(payload).encode("utf-8")) \
        .hexdigest()
