"""A network-shared result store: the stdlib HTTP client side.

:class:`RemoteStore` implements the :class:`~repro.store.base
.ResultStore` contract against the experiment server's
``GET/PUT /v1/store/<kind>/<key>`` endpoints (:mod:`repro.serve`), so a
fleet of workers can share one store over the wire exactly as they
share a directory today -- ``open_store("http://host:port")`` slots it
into the same :class:`~repro.store.base.FallbackStore` degradation
ladder, and the CSV-identity contract holds unchanged: a flapping or
dead store server costs durability, never correctness.

The network is allowed to misbehave; three guards keep one bad server
from stalling a sweep:

* **Per-operation timeouts** -- every socket operation is bounded
  (``timeout`` seconds, default :data:`DEFAULT_TIMEOUT`).
* **Bounded jittered-exponential retry** -- transient failures
  (connection errors, timeouts, truncated responses, 5xx, 408) are
  retried up to ``retries`` times with the same jittered backoff shape
  the harness and the pool supervisor use
  (``backoff_base * backoff_factor**attempt``, jitter on top).
* **A circuit breaker** -- after ``breaker_threshold`` *consecutive*
  failures the breaker opens and every operation fails fast (no
  socket) until ``cooldown`` seconds pass; then one half-open probe is
  allowed through, and its outcome re-closes or re-opens the breaker.

A failure that survives the retry budget (or hits an open breaker)
raises :class:`~repro.errors.StoreError`; the
:class:`~repro.store.base.FallbackStore` wrapper catches it, emits one
:class:`~repro.store.base.StoreDegradedWarning`, and degrades the
process to the in-memory backend.  Data problems stay data problems: a
response that fails its SHA-256 check or does not parse is counted
``corrupt`` and read as a miss, never raised.

Client-side behaviour is observable through ``remote_stats``
(:class:`RemoteStats`: retries, timeouts, fail-fasts, breaker
transitions), exported process-wide as ``store.remote.*`` by
:func:`repro.obs.export.process_registry` -- i.e. on any served
``/metrics`` endpoint.

Tuning travels in the URL query so the CLI and pool workers need no
extra plumbing::

    http://host:8080?timeout=2&retries=1&breaker_threshold=3
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

from repro.errors import StoreError
from repro.obs.tracer import obs_instant
from repro.store.base import (RESULT_KIND, ResultStore, StoreStats,
                              canonical_payload, payload_sha256)

__all__ = ["CircuitBreaker", "DEFAULT_TIMEOUT", "RemoteStats",
           "RemoteStore"]

#: Per-operation socket timeout (seconds).
DEFAULT_TIMEOUT = 5.0
#: Retries after the first attempt of one store operation.
DEFAULT_RETRIES = 2
#: Consecutive failures that open the circuit breaker.
DEFAULT_BREAKER_THRESHOLD = 5
#: Seconds the breaker stays open before allowing a half-open probe.
DEFAULT_COOLDOWN = 30.0

#: Breaker states, and their numeric order for the exported gauge
#: (``store.remote.breaker_state``: 0 closed, 1 half-open, 2 open).
CLOSED, HALF_OPEN, OPEN = "closed", "half_open", "open"
_STATE_VALUES = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}


class RemoteStats:
    """Thread-safe client-side counters, shaped like
    :class:`~repro.store.base.StoreStats` so the process-wide exporter
    can sum them across instances."""

    FIELDS = ("requests", "retries", "timeouts", "server_errors",
              "fail_fast", "corrupt_responses", "breaker_opened",
              "breaker_half_opened", "breaker_closed")

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


class CircuitBreaker:
    """Closed -> open after ``threshold`` consecutive failures; after
    ``cooldown`` seconds one half-open probe is allowed, and its
    outcome re-closes or re-opens the breaker.  Thread-safe; the clock
    is injectable for tests."""

    def __init__(self, threshold: int = DEFAULT_BREAKER_THRESHOLD,
                 cooldown: float = DEFAULT_COOLDOWN,
                 clock: Callable[[], float] = time.monotonic,
                 stats: Optional[RemoteStats] = None):
        self.threshold = max(1, int(threshold))
        self.cooldown = cooldown
        self._clock = clock
        self._stats = stats or RemoteStats()
        self._lock = threading.Lock()
        self._state = CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probing = False

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def state_value(self) -> int:
        """The state as the exported gauge value (0/1/2)."""
        return _STATE_VALUES[self.state]

    def allow(self) -> bool:
        """May a request go out right now?  An open breaker past its
        cooldown transitions to half-open and admits exactly one
        probe; concurrent callers fail fast until it resolves."""
        with self._lock:
            if self._state == CLOSED:
                return True
            if self._state == OPEN:
                if self._clock() - self._opened_at < self.cooldown:
                    return False
                self._state = HALF_OPEN
                self._probing = False
                self._stats.inc("breaker_half_opened")
            # half-open: one probe at a time
            if self._probing:
                return False
            self._probing = True
            return True

    def record_success(self) -> None:
        with self._lock:
            if self._state != CLOSED:
                self._stats.inc("breaker_closed")
            self._state = CLOSED
            self._failures = 0
            self._probing = False

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            self._probing = False
            if self._state == HALF_OPEN or (
                    self._state == CLOSED
                    and self._failures >= self.threshold):
                self._state = OPEN
                self._opened_at = self._clock()
                self._stats.inc("breaker_opened")


class RemoteStore(ResultStore):
    """Store client for one ``http://host:port`` experiment server."""

    def __init__(self, host: str, port: int,
                 stats: Optional[StoreStats] = None,
                 timeout: float = DEFAULT_TIMEOUT,
                 retries: int = DEFAULT_RETRIES,
                 backoff_base: float = 0.05,
                 backoff_factor: float = 2.0,
                 backoff_jitter: float = 0.25,
                 breaker_threshold: int = DEFAULT_BREAKER_THRESHOLD,
                 cooldown: float = DEFAULT_COOLDOWN,
                 sleep: Callable[[float], None] = time.sleep):
        super().__init__(stats)
        self.host = host
        self.port = int(port)
        self.url = f"http://{host}:{port}"
        self.description = f"remote:{self.url}"
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff_base = backoff_base
        self.backoff_factor = backoff_factor
        self.backoff_jitter = backoff_jitter
        self.sleep = sleep
        self.remote_stats = RemoteStats()
        self.breaker = CircuitBreaker(threshold=breaker_threshold,
                                      cooldown=cooldown,
                                      stats=self.remote_stats)
        self._last_failure: Optional[str] = None

    #: URL query parameters accepted by :meth:`from_url`.
    URL_OPTIONS = {
        "timeout": float, "retries": int, "backoff_base": float,
        "backoff_factor": float, "backoff_jitter": float,
        "breaker_threshold": int, "cooldown": float,
    }

    @classmethod
    def from_url(cls, url: str, **overrides) -> "RemoteStore":
        """Build a client from ``http://host:port[?option=value...]``.
        Unknown options and unparseable URLs raise
        :class:`~repro.errors.StoreError` (the caller's configuration
        is wrong; there is nothing to degrade to yet)."""
        split = urlsplit(url)
        if split.scheme != "http":
            raise StoreError(f"unsupported store URL scheme "
                             f"{split.scheme!r} in {url!r} (only http)")
        if split.path not in ("", "/"):
            raise StoreError(f"store URL must not carry a path, got "
                             f"{url!r}")
        try:
            host = split.hostname
            port = split.port
        except ValueError as err:
            raise StoreError(f"bad store URL {url!r}: {err}") from err
        if not host or not port:
            raise StoreError(f"store URL {url!r} must name host:port")
        options: Dict[str, object] = {}
        for name, value in parse_qsl(split.query,
                                     keep_blank_values=True):
            caster = cls.URL_OPTIONS.get(name)
            if caster is None:
                raise StoreError(
                    f"unknown store URL option {name!r}; options: "
                    f"{', '.join(sorted(cls.URL_OPTIONS))}")
            try:
                options[name] = caster(value)
            except ValueError as err:
                raise StoreError(f"bad store URL option "
                                 f"{name}={value!r}: {err}") from err
        options.update(overrides)
        return cls(host, port, **options)

    # -- transport -----------------------------------------------------------

    def _backoff(self, attempt: int) -> float:
        span = self.backoff_base * (self.backoff_factor ** attempt)
        if self.backoff_jitter <= 0:
            return span
        return span * (1.0 + self.backoff_jitter * random.random())

    def _http(self, method: str, path: str,
              body: Optional[bytes]) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            headers = {"Connection": "close"}
            if body is not None:
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def _op(self, op: str, method: str, path: str,
            body: Optional[bytes] = None) -> Tuple[int, bytes]:
        """One store operation under timeout + retry + breaker.
        Returns ``(status, body)`` for any non-retryable status;
        raises :class:`StoreError` once the budget (or the breaker)
        says stop."""
        self.remote_stats.inc("requests")
        for attempt in range(self.retries + 1):
            if not self.breaker.allow():
                self.remote_stats.inc("fail_fast")
                raise StoreError(
                    f"remote store {self.url} circuit breaker "
                    f"{self.breaker.state}; last failure: "
                    f"{self._last_failure}", transient=True)
            failure: Optional[str] = None
            try:
                status, data = self._http(method, path, body)
            except socket.timeout:
                self.remote_stats.inc("timeouts")
                failure = f"timed out after {self.timeout:g}s"
            except (OSError, http.client.HTTPException) as err:
                failure = f"{type(err).__name__}: {err}"
            else:
                # 5xx and 408 are the server (or the path to it)
                # misbehaving -- retryable; everything else is an
                # answer.
                if status >= 500 or status == 408:
                    self.remote_stats.inc("server_errors")
                    failure = f"HTTP {status}"
                else:
                    self.breaker.record_success()
                    return status, data
            self.breaker.record_failure()
            self._last_failure = failure
            if attempt < self.retries:
                self.remote_stats.inc("retries")
                obs_instant("store.remote.retry", cat="store", op=op,
                            attempt=attempt + 1, error=failure)
                self.sleep(self._backoff(attempt))
        raise StoreError(
            f"remote store {self.url} unavailable after "
            f"{self.retries + 1} attempt(s) ({op} {path}): "
            f"{self._last_failure}; circuit breaker "
            f"{self.breaker.state}", transient=True)

    @staticmethod
    def _path(kind: str, key: str = "") -> str:
        return f"/v1/store/{kind}/{key}" if key else f"/v1/store/{kind}"

    # -- ResultStore contract ------------------------------------------------

    def get(self, key: str, kind: str = RESULT_KIND) -> Optional[dict]:
        self.stats.inc("gets")
        status, data = self._op("get", "GET", self._path(kind, key))
        if status == 404:
            self.stats.inc("misses")
            return None
        if status != 200:
            raise StoreError(f"remote store GET {kind}/{key} answered "
                             f"HTTP {status}")
        payload = self._decode(data)
        if payload is None:  # corruption is a miss, never an error
            self.stats.inc("corrupt")
            self.stats.inc("misses")
            self.remote_stats.inc("corrupt_responses")
            obs_instant("store.remote.corrupt", cat="store", key=key,
                        kind=kind)
            return None
        self.stats.inc("hits")
        return payload

    def _decode(self, data: bytes) -> Optional[dict]:
        try:
            doc = json.loads(data.decode("utf-8"))
            payload = doc["payload"]
            want = doc.get("sha256")
        except (ValueError, KeyError, TypeError, UnicodeDecodeError):
            return None
        if not isinstance(payload, dict):
            return None
        if want is not None and payload_sha256(payload) != want:
            return None
        return payload

    def put(self, key: str, payload: dict,
            kind: str = RESULT_KIND) -> bool:
        body = canonical_payload(payload).encode("utf-8")
        try:
            status, _ = self._op("put", "PUT", self._path(kind, key),
                                 body)
        except StoreError:
            self.stats.inc("put_errors")
            raise
        if status == 201:
            self.stats.inc("puts")
            return True
        if status == 200:
            self.stats.inc("put_skipped")
            return False
        self.stats.inc("put_errors")
        raise StoreError(f"remote store PUT {kind}/{key} answered "
                         f"HTTP {status}")

    def keys(self, kind: str = RESULT_KIND) -> List[str]:
        status, data = self._op("keys", "GET", self._path(kind))
        if status != 200:
            raise StoreError(f"remote store keys({kind!r}) answered "
                             f"HTTP {status}")
        try:
            doc = json.loads(data.decode("utf-8"))
            return sorted(str(k) for k in doc["keys"])
        except (ValueError, KeyError, TypeError,
                UnicodeDecodeError) as err:
            raise StoreError(f"remote store keys({kind!r}) sent an "
                             f"unreadable document: {err}") from err

    # -- health --------------------------------------------------------------

    def ping(self) -> Dict[str, object]:
        """One health round trip: reachability, latency, breaker
        state, and what the server says about its own store.  Never
        raises -- the report carries the failure instead (the CLI
        prints it either way)."""
        report: Dict[str, object] = {"url": self.url, "ok": False,
                                     "latency_ms": None,
                                     "breaker": self.breaker.state}
        started = time.monotonic()
        try:
            status, data = self._op("ping", "GET", "/healthz")
        except StoreError as err:
            report["error"] = str(err)
            report["breaker"] = self.breaker.state
            return report
        report["latency_ms"] = (time.monotonic() - started) * 1000.0
        report["breaker"] = self.breaker.state
        if status != 200:
            report["error"] = f"healthz answered HTTP {status}"
            return report
        try:
            doc = json.loads(data.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            doc = {}
        report["ok"] = doc.get("status") == "ok"
        if "store" in doc:
            report["server_store"] = doc["store"]
        return report
