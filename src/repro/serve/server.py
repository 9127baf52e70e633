"""The asyncio experiment server.

Endpoints (all JSON unless noted):

* ``POST /v1/run`` / ``POST /v1/sweep`` / ``POST /v1/compare`` /
  ``POST /v1/search`` -- submit a typed request
  (:mod:`repro.api.requests`, schema v1).  The transport envelope
  accepts one extra key, ``wait``: ``true`` blocks until the job
  finishes and returns its result (the default for run and compare);
  ``false`` returns ``202`` with the job id immediately (the default
  for sweep and search).
* ``GET /v1/jobs/<id>`` -- job state, progress, streamed sweep rows,
  and the result once finished (``?rows=0`` omits the row stream).
* ``GET /v1/store/<kind>/<key>`` / ``PUT /v1/store/<kind>/<key>`` --
  the shared-store API: read or publish one record in the server's
  configured store (404 = miss, 201 = stored, 200 = already present).
  ``GET /v1/store/<kind>`` lists the keys.  Remote workers point
  :class:`repro.store.remote.RemoteStore` here
  (``--store http://host:port``) to share one result store.
* ``GET /metrics`` -- Prometheus text: service counters (``serve.*``),
  process-wide store and supervision counters
  (:func:`repro.obs.export.process_registry`).
* ``GET /healthz`` -- liveness plus a one-line job census.

Error contract: malformed HTTP or JSON -> structured 400; a request
the schema rejects -> 400 (``RequestError``); a well-formed request
the system could not honour -> 422 carrying the
:mod:`repro.errors` taxonomy kind; an expired ``deadline_ms`` -> 504;
admission control or queue overflow -> 429 (with ``Retry-After`` when
the estimate is known); anything else -> 500.  The connection handler
catches everything -- a client can not crash the server.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
from typing import Dict, Optional

from repro.api.requests import REQUEST_KINDS
from repro.errors import RequestError, StoreError, http_status
from repro.obs.data import ObsData
from repro.obs.export import process_obs, prometheus_text
from repro.serve.jobs import (DONE, EXPIRED, FAILED, JobRegistry,
                              QueueFullError)
from repro.serve.wire import (DEFAULT_READ_TIMEOUT, HttpRequest,
                              WireError, error_response, json_response,
                              read_request, text_response)
from repro.store import base as store_backends
from repro.store.base import RESULT_KIND, ROW_KIND, payload_sha256

__all__ = ["ExperimentServer", "serve_forever"]

#: Endpoint path -> request kind.
POST_ROUTES = {"/v1/run": "run", "/v1/sweep": "sweep",
               "/v1/compare": "compare", "/v1/search": "search"}
#: Blocking default per kind: runs and compares are interactive-fast
#: (seconds, O(1) on a warm store); sweeps and searches are jobs you
#: poll.
WAIT_DEFAULTS = {"run": True, "compare": True, "sweep": False,
                 "search": False}
#: Record namespaces the store API serves.
STORE_KINDS = (RESULT_KIND, ROW_KIND)


class ExperimentServer:
    """One listening socket over one :class:`JobRegistry`."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 store: Optional[str] = None, job_threads: int = 2,
                 max_queued: int = 32,
                 read_timeout: Optional[float] = DEFAULT_READ_TIMEOUT,
                 analytic_admission: bool = False):
        self.host = host
        self.port = port
        self.read_timeout = read_timeout
        self.jobs = JobRegistry(store=store, job_threads=job_threads,
                                max_queued=max_queued,
                                analytic_admission=analytic_admission)
        self._server: Optional[asyncio.AbstractServer] = None

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await asyncio.get_running_loop().run_in_executor(
            None, self.jobs.shutdown)

    # -- connection handling ------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            try:
                request = await read_request(reader,
                                             timeout=self.read_timeout)
                if request is None:
                    return
                payload = await self._dispatch(request)
            except WireError as err:
                if err.status == 408:
                    self.jobs.inc("serve.read_timeouts")
                payload = error_response(err)
            except Exception as err:  # noqa: BLE001 -- never-crash edge
                payload = error_response(err)
            writer.write(payload)
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass  # client went away; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, request: HttpRequest) -> bytes:
        if request.method == "GET":
            if request.path == "/healthz":
                return self._healthz()
            if request.path == "/metrics":
                return self._metrics()
            if request.path.startswith("/v1/jobs/"):
                return self._job_status(request)
            if request.path.startswith("/v1/store/"):
                return await self._store_get(request)
            return json_response(404, {"error": {
                "kind": "wire", "message": f"no such resource "
                                           f"{request.path!r}"}})
        if request.method == "POST":
            kind = POST_ROUTES.get(request.path)
            if kind is None:
                return json_response(404, {"error": {
                    "kind": "wire", "message": f"no such resource "
                                               f"{request.path!r}"}})
            return await self._submit(kind, request)
        if request.method == "PUT":
            if request.path.startswith("/v1/store/"):
                return await self._store_put(request)
            return json_response(404, {"error": {
                "kind": "wire", "message": f"no such resource "
                                           f"{request.path!r}"}})
        return json_response(405, {"error": {
            "kind": "wire",
            "message": f"method {request.method} not allowed"}})

    # -- GET endpoints ------------------------------------------------------

    def _healthz(self) -> bytes:
        jobs = self.jobs.jobs()
        by_state: Dict[str, int] = {}
        for job in jobs:
            by_state[job.state] = by_state.get(job.state, 0) + 1
        return json_response(200, {"status": "ok", "jobs": by_state,
                                   "store": self.jobs.store})

    def _metrics(self) -> bytes:
        serve_part = ObsData(level="full", label="serve",
                             telemetry=self.jobs.telemetry)
        return text_response(
            200, prometheus_text([serve_part, process_obs()]))

    def _job_status(self, request: HttpRequest) -> bytes:
        job_id = request.path[len("/v1/jobs/"):]
        job = self.jobs.get(job_id)
        if job is None:
            return json_response(404, {"error": {
                "kind": "wire",
                "message": f"no such job {job_id!r}"}})
        include_rows = request.query.get("rows", "1") != "0"
        return json_response(200, job.snapshot(include_rows))

    # -- store API ----------------------------------------------------------

    def _store_target(self, request: HttpRequest):
        """``(store, kind, key, error_payload)`` for a store-API path.
        ``key`` is ``None`` for the list-keys form.  On any problem the
        first three are ``None`` and the payload is the response."""
        if self.jobs.store is None:
            return None, None, None, json_response(503, {"error": {
                "kind": "store",
                "message": "this server has no store configured "
                           "(start it with --store)"}})
        parts = request.path[len("/v1/store/"):].split("/")
        kind = parts[0] if parts else ""
        key = parts[1] if len(parts) > 1 else None
        if kind not in STORE_KINDS or len(parts) > 2 or key == "":
            return None, None, None, json_response(404, {"error": {
                "kind": "wire",
                "message": f"no such store resource {request.path!r}; "
                           f"kinds: {', '.join(STORE_KINDS)}"}})
        store = store_backends.resolve(self.jobs.store)
        return store, kind, key, None

    async def _store_get(self, request: HttpRequest) -> bytes:
        store, kind, key, problem = self._store_target(request)
        if problem is not None:
            return problem
        loop = asyncio.get_running_loop()
        if key is None:
            keys = await loop.run_in_executor(None, store.keys, kind)
            self.jobs.inc("serve.store_api.lists")
            return json_response(200, {"kind": kind,
                                       "keys": sorted(keys)})
        payload = await loop.run_in_executor(None, store.get, key, kind)
        if payload is None:
            self.jobs.inc("serve.store_api.get_misses")
            return json_response(404, {"error": {
                "kind": "wire",
                "message": f"no {kind} record for key {key!r}"}})
        self.jobs.inc("serve.store_api.get_hits")
        return json_response(200, {"kind": kind, "key": key,
                                   "payload": payload,
                                   "sha256": payload_sha256(payload)})

    async def _store_put(self, request: HttpRequest) -> bytes:
        store, kind, key, problem = self._store_target(request)
        if problem is not None:
            return problem
        if key is None:
            return json_response(405, {"error": {
                "kind": "wire",
                "message": "PUT needs /v1/store/<kind>/<key>"}})
        try:
            payload = json.loads(request.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as err:
            return error_response(
                RequestError(f"malformed JSON body: {err}"))
        if not isinstance(payload, dict):
            return error_response(RequestError(
                f"store payload must be a JSON object, got "
                f"{type(payload).__name__}"))
        loop = asyncio.get_running_loop()
        try:
            stored = await loop.run_in_executor(
                None, store.put, key, payload, kind)
        except (OSError, StoreError) as err:
            return error_response(StoreError(
                f"store write failed: {err}", transient=True))
        self.jobs.inc("serve.store_api.puts" if stored
                      else "serve.store_api.put_skipped")
        return json_response(201 if stored else 200,
                             {"kind": kind, "key": key,
                              "stored": stored})

    # -- POST endpoints -----------------------------------------------------

    async def _submit(self, kind: str, request: HttpRequest) -> bytes:
        try:
            doc = json.loads(request.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as err:
            return error_response(
                RequestError(f"malformed JSON body: {err}"))
        if not isinstance(doc, dict):
            return error_response(RequestError(
                f"request body must be a JSON object, got "
                f"{type(doc).__name__}"))
        # ``wait`` is transport, not experiment identity: strip it
        # before the codec sees the document.
        wait = doc.pop("wait", WAIT_DEFAULTS[kind])
        if not isinstance(wait, bool):
            return error_response(RequestError(
                f"field 'wait' must be bool, got "
                f"{type(wait).__name__}"))
        doc.setdefault("kind", kind)
        try:
            typed = REQUEST_KINDS[kind].from_wire(doc)
        except RequestError as err:
            return error_response(err)

        loop = asyncio.get_running_loop()
        try:
            # submit() compiles the program to compute the canonical
            # key -- keep that off the event loop.
            job, fresh = await loop.run_in_executor(
                None, self.jobs.submit, typed)
        except QueueFullError as err:
            headers = None
            retry_after = getattr(err, "retry_after", None)
            if retry_after is not None:
                headers = {"Retry-After": str(retry_after)}
            return json_response(429, {"error": {
                "kind": "backpressure", "message": str(err)}}, headers)
        except Exception as err:  # noqa: BLE001 -- e.g. workload typos
            return error_response(err)

        if not wait:
            return json_response(202, {"id": job.id, "key": job.key,
                                       "state": job.state,
                                       "coalesced": not fresh})
        # Shield the shared computation: this client timing out must
        # not cancel a job other clients coalesced onto.
        await asyncio.shield(asyncio.wrap_future(job.future))
        doc = job.snapshot()
        doc["coalesced_onto"] = not fresh
        if job.state in (FAILED, EXPIRED) and job.error is not None:
            return json_response(http_status(job.error), doc)
        return json_response(200 if job.state == DONE else 500, doc)


async def serve_forever(host: str = "127.0.0.1", port: int = 0,
                        store: Optional[str] = None,
                        job_threads: int = 2, max_queued: int = 32,
                        read_timeout: Optional[float] =
                        DEFAULT_READ_TIMEOUT,
                        analytic_admission: bool = False,
                        out=None, ready=None) -> int:
    """Run the server until SIGTERM/SIGINT; returns 0 on clean exit.

    ``out`` receives the one listening line (default stdout) --
    scripts parse the bound port from it when ``port=0``.  ``ready``
    is an optional callback receiving the started server (tests).
    """
    out = out or sys.stdout
    server = ExperimentServer(host=host, port=port, store=store,
                              job_threads=job_threads,
                              max_queued=max_queued,
                              read_timeout=read_timeout,
                              analytic_admission=analytic_admission)
    await server.start()
    print(f"repro-serve listening on http://{server.host}:"
          f"{server.port}", file=out, flush=True)
    if ready is not None:
        ready(server)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):
            pass  # non-Unix event loop; rely on KeyboardInterrupt
    try:
        await stop.wait()
    finally:
        await server.stop()
    print("repro-serve: clean shutdown", file=out, flush=True)
    return 0
