"""Integration tests for the experiment service (repro.serve).

Each test spins a real :class:`ExperimentServer` on an ephemeral
loopback port with its event loop on a background thread, then talks
to it over actual HTTP -- the same path curl takes.  Under test:

* the typed wire protocol and its error contract (structured 400/404/
  405/422/429, never a crashed connection),
* store-backed dedupe (a repeated run is a warm hit with zero
  simulation spans),
* single-flight coalescing (N concurrent clients submitting the same
  sweep get byte-identical CSVs while each grid point simulates at
  most once),
* backpressure and the Prometheus metrics endpoint,
* fuzzing the endpoints with the seeded mutators of
  :mod:`repro.validate.fuzz` (never-crash).
"""

import asyncio
import json
import random
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.serve import ExperimentServer
from repro.store.base import reset_instances

SCALE = 0.25

RUN_BODY = {"schema_version": 1, "workload": "swim", "scale": SCALE,
            "optimized": True}
SWEEP_BODY = {"schema_version": 1, "workload": "swim", "scale": SCALE,
              "axes": {"mapping": ["M1", "M2"]}, "wait": True}


class LiveServer:
    """A running server on a background event-loop thread."""

    def __init__(self, **kwargs):
        self.kwargs = kwargs
        self.port = None
        self.server = None

    def __enter__(self) -> "LiveServer":
        self._loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._thread = threading.Thread(
            target=self._loop.run_until_complete, args=(self._main(),),
            daemon=True)
        self._thread.start()
        assert self._started.wait(30), "server did not start"
        return self

    async def _main(self):
        self.server = ExperimentServer(port=0, **self.kwargs)
        await self.server.start()
        self.port = self.server.port
        self._stop = asyncio.Event()
        self._started.set()
        await self._stop.wait()
        await self.server.stop()

    def __exit__(self, *exc):
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(60)
        self._loop.close()

    # -- client helpers ------------------------------------------------------

    def request(self, path, body=None, method=None, timeout=300):
        """``(status, parsed-or-text)`` for one HTTP exchange."""
        status, doc, _headers = self.request_full(path, body, method,
                                                  timeout)
        return status, doc

    def request_full(self, path, body=None, method=None, timeout=300):
        """``(status, parsed-or-text, headers)``."""
        url = f"http://127.0.0.1:{self.port}{path}"
        data = None
        if body is not None:
            data = body if isinstance(body, bytes) else \
                json.dumps(body).encode("utf-8")
        req = urllib.request.Request(url, data=data, method=method)
        try:
            with urllib.request.urlopen(req, timeout=timeout) as resp:
                raw = resp.read().decode("utf-8")
                status = resp.status
                headers = dict(resp.headers)
        except urllib.error.HTTPError as err:
            raw = err.read().decode("utf-8")
            status = err.code
            headers = dict(err.headers)
        try:
            return status, json.loads(raw), headers
        except ValueError:
            return status, raw, headers

    def wait_for(self, job_id, predicate, timeout=300):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status, doc = self.request(f"/v1/jobs/{job_id}")
            assert status == 200
            if predicate(doc):
                return doc
            time.sleep(0.05)
        raise AssertionError(f"job {job_id} never satisfied predicate")


@pytest.fixture(autouse=True)
def fresh_stores():
    reset_instances()
    yield
    reset_instances()


def metric_value(metrics_text, name):
    """The value of one (possibly labelled) Prometheus sample."""
    for line in metrics_text.splitlines():
        sample = line.split("{")[0].split(" ")[0]
        if sample == name and not line.startswith("#"):
            return float(line.rpartition(" ")[2])
    return None


class TestEndpoints:
    def test_healthz(self):
        with LiveServer() as live:
            status, doc = self.request_healthz(live)
            assert status == 200 and doc["status"] == "ok"

    @staticmethod
    def request_healthz(live):
        return live.request("/healthz")

    def test_run_roundtrip_matches_inprocess(self):
        import repro
        from repro.workloads import build_workload
        with LiveServer() as live:
            status, doc = live.request("/v1/run", RUN_BODY)
        assert status == 200 and doc["state"] == "done"
        program = build_workload("swim", SCALE)
        local = repro.run(program=program, optimized=True)
        assert doc["result"]["metrics"]["exec_time"] == \
            pytest.approx(local.metrics.exec_time)

    def test_compare_roundtrip(self):
        with LiveServer() as live:
            status, doc = live.request(
                "/v1/compare", {"schema_version": 1, "workload": "swim",
                                "scale": SCALE})
        assert status == 200
        assert set(doc["result"]["row"]) == {"onchip_net",
                                             "offchip_net",
                                             "offchip_mem",
                                             "exec_time"}

    def test_sweep_nonblocking_then_poll(self):
        body = dict(SWEEP_BODY, wait=False)
        with LiveServer() as live:
            status, doc = live.request("/v1/sweep", body)
            assert status == 202 and doc["state"] in ("queued",
                                                      "running")
            done = live.wait_for(doc["id"],
                                 lambda d: d["state"] == "done")
        assert len(done["result"]["rows"]) == 2
        assert done["result"]["csv"].startswith("mapping,")

    def test_unknown_path_and_method(self):
        with LiveServer() as live:
            status, doc = live.request("/v1/nope")
            assert status == 404 and doc["error"]["kind"] == "wire"
            status, doc = live.request("/healthz", method="DELETE")
            assert status == 405
            status, doc = live.request("/v1/jobs/zzz")
            assert status == 404

    def test_malformed_json_is_structured_400(self):
        with LiveServer() as live:
            status, doc = live.request("/v1/run", b"{nope",
                                       method="POST")
        assert status == 400
        assert doc["error"]["kind"] == "request"

    def test_schema_violations_are_400_with_taxonomy(self):
        bad = dict(RUN_BODY, warp_drive=9)
        with LiveServer() as live:
            status, doc = live.request("/v1/run", bad)
            assert status == 400
            assert doc["error"]["kind"] == "request"
            assert "warp_drive" in doc["error"]["message"]
            status, doc = live.request(
                "/v1/run", dict(RUN_BODY, schema_version=99))
            assert status == 400
            status, doc = live.request(
                "/v1/run", {"schema_version": 1, "workload": "nope"})
            assert status == 400
            assert "nope" in doc["error"]["message"]


class TestDedupe:
    def test_repeat_run_is_store_hit(self, tmp_path):
        with LiveServer(store=str(tmp_path / "store")) as live:
            status, first = live.request("/v1/run", RUN_BODY)
            assert status == 200
            assert first["result"]["store_hit"] is False
            status, second = live.request("/v1/run", RUN_BODY)
            assert status == 200
            assert second["result"]["store_hit"] is True
            assert second["result"]["metrics"] == \
                first["result"]["metrics"]
            status, metrics = live.request("/metrics")
        assert status == 200
        assert "repro_serve_store_hits" in metrics

    def test_first_baseline_run_is_store_miss(self, tmp_path):
        # A baseline run never carries a transformation, so a fresh
        # simulation must not be mistaken for a store replay.
        body = dict(RUN_BODY, optimized=False)
        with LiveServer(store=str(tmp_path / "store")) as live:
            status, first = live.request("/v1/run", body)
            assert status == 200
            assert first["result"]["store_hit"] is False
            status, metrics = live.request("/metrics")
            assert metric_value(metrics, "repro_serve_store_misses") == 1
            assert not metric_value(metrics, "repro_serve_store_hits")
            status, second = live.request("/v1/run", body)
            assert second["result"]["store_hit"] is True

    def test_repeat_run_has_zero_simulation_spans(self, tmp_path):
        # The acceptance criterion, checked where spans are visible:
        # the same store-backed spec the service would run, replayed
        # with obs on -- the warm path must never enter the simulator.
        import repro
        from repro.workloads import build_workload
        program = build_workload("swim", SCALE)
        store = str(tmp_path / "store")
        cold = repro.run(program=program, store=store, obs="spans")
        warm = repro.run(program=program, store=store, obs="spans")
        cold_names = {s.name for s in cold.obs.spans}
        warm_names = {s.name for s in warm.obs.spans}
        assert any(n.startswith("sim.") for n in cold_names)
        assert not any(n.startswith("sim.") for n in warm_names)
        assert warm.metrics.exec_time == cold.metrics.exec_time

    def test_concurrent_identical_sweeps_coalesce(self, tmp_path):
        clients = 4
        results = [None] * clients
        with LiveServer(store=str(tmp_path / "store"),
                        job_threads=2) as live:
            barrier = threading.Barrier(clients)

            def submit(slot):
                barrier.wait()
                results[slot] = live.request("/v1/sweep", SWEEP_BODY)

            threads = [threading.Thread(target=submit, args=(i,))
                       for i in range(clients)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(600)
            status, metrics = live.request("/metrics")

        csvs = set()
        for code, doc in results:
            assert code == 200 and doc["state"] == "done"
            csvs.add(doc["result"]["csv"])
        # byte-identical CSVs across every client
        assert len(csvs) == 1

        values = {}
        for line in metrics.splitlines():
            if line.startswith("repro_serve_"):
                name, _, value = line.rpartition(" ")
                values[name.split("{")[0]] = float(value)
        # each grid point simulated at most once: 2 points x
        # (baseline + optimized) = 4 run-level store misses total,
        # no matter how the clients raced
        assert values.get("repro_serve_store_misses", 0) == 4
        # and the dedupe actually engaged: the other three clients
        # either coalesced onto the in-flight job or replayed warm
        dedupes = (values.get("repro_serve_coalesced", 0)
                   + values.get("repro_serve_store_hits", 0))
        assert dedupes > 0

    def test_sequential_repeat_sweep_is_all_hits(self, tmp_path):
        with LiveServer(store=str(tmp_path / "store")) as live:
            status, first = live.request("/v1/sweep", SWEEP_BODY)
            assert status == 200
            assert first["result"]["store_misses"] == 4
            status, second = live.request("/v1/sweep", SWEEP_BODY)
            assert status == 200
            assert second["result"]["store_hits"] == 4
            assert second["result"]["store_misses"] == 0
            assert second["result"]["csv"] == first["result"]["csv"]


class TestBackpressure:
    def test_queue_overflow_answers_429(self, tmp_path):
        with LiveServer(job_threads=1, max_queued=1) as live:
            # occupy the single job thread
            status, running = live.request(
                "/v1/sweep", dict(SWEEP_BODY, wait=False))
            assert status == 202
            live.wait_for(running["id"],
                          lambda d: d["state"] != "queued")
            # fill the queue with a second, distinct experiment
            status, queued = live.request(
                "/v1/sweep",
                {"schema_version": 1, "workload": "swim",
                 "scale": SCALE, "axes": {"num_mcs": [4]},
                 "wait": False})
            assert status == 202
            # a third distinct key must bounce
            status, doc = live.request(
                "/v1/sweep",
                {"schema_version": 1, "workload": "swim",
                 "scale": SCALE, "axes": {"num_mcs": [8]},
                 "wait": False})
            assert status == 429
            assert doc["error"]["kind"] == "backpressure"
            # coalescing is exempt from backpressure: the same key
            # joins the in-flight job instead of queueing
            status, doc = live.request(
                "/v1/sweep", dict(SWEEP_BODY, wait=False))
            assert status == 202
            assert doc["coalesced"] is True
            live.wait_for(running["id"],
                          lambda d: d["state"] == "done")
            live.wait_for(queued["id"],
                          lambda d: d["state"] == "done")


class TestDeadlines:
    """End-to-end deadline_ms: queued jobs expire into the structured
    504 state, and admission control bounces requests whose estimated
    queue wait already exceeds their budget (429 + Retry-After)."""

    def test_queued_job_expires_to_504(self):
        with LiveServer(job_threads=1) as live:
            # occupy the single job thread with a multi-second sweep
            status, running = live.request(
                "/v1/sweep", dict(SWEEP_BODY, wait=False))
            assert status == 202
            live.wait_for(running["id"],
                          lambda d: d["state"] != "queued")
            # the queue is empty (the sweep is *running*), so this run
            # is admitted -- and then expires waiting for the thread
            status, doc = live.request(
                "/v1/run", dict(RUN_BODY, deadline_ms=50, wait=True))
            assert status == 504
            assert doc["state"] == "expired"
            assert doc["error"]["kind"] == "deadline"
            assert "deadline_ms=50" in doc["error"]["message"]
            assert doc["deadline_ms"] == 50
            # the expired job stays inspectable
            status, again = live.request(f"/v1/jobs/{doc['id']}")
            assert status == 200 and again["state"] == "expired"
            status, metrics = live.request("/metrics")
        assert metric_value(metrics, "repro_serve_deadline_expired") == 1

    def test_admission_control_rejects_429_with_retry_after(self):
        with LiveServer(job_threads=1) as live:
            status, running = live.request(
                "/v1/sweep", dict(SWEEP_BODY, wait=False))
            assert status == 202
            live.wait_for(running["id"],
                          lambda d: d["state"] != "queued")
            # a second distinct sweep actually *queues* (depth 1)
            status, _ = live.request(
                "/v1/sweep",
                {"schema_version": 1, "workload": "swim",
                 "scale": SCALE, "axes": {"num_mcs": [4]},
                 "wait": False})
            assert status == 202
            # 1 queued job x >=50ms estimate >= 1ms budget: rejected
            # deterministically, with a Retry-After hint
            status, doc, headers = live.request_full(
                "/v1/run", dict(RUN_BODY, deadline_ms=1, wait=False))
            assert status == 429
            assert doc["error"]["kind"] == "backpressure"
            assert "deadline_ms=1" in doc["error"]["message"]
            assert int(headers["Retry-After"]) >= 1
            status, metrics = live.request("/metrics")
        assert metric_value(metrics,
                            "repro_serve_deadline_rejected") == 1

    def test_generous_deadline_completes_normally(self):
        with LiveServer() as live:
            status, doc = live.request(
                "/v1/run", dict(RUN_BODY, deadline_ms=600_000))
        assert status == 200 and doc["state"] == "done"


class TestReadTimeout:
    def test_slow_loris_answers_408(self):
        import socket
        with LiveServer(read_timeout=0.3) as live:
            with socket.create_connection(("127.0.0.1", live.port),
                                          timeout=10) as sock:
                # a stalled client: request line never finishes
                sock.sendall(b"POST /v1/run HT")
                sock.settimeout(10)
                chunks = []
                while True:
                    data = sock.recv(4096)
                    if not data:
                        break
                    chunks.append(data)
            response = b"".join(chunks).decode("latin-1")
            assert response.startswith("HTTP/1.1 408")
            assert "not received within" in response
            # the server survived and says so
            status, doc = live.request("/healthz")
            assert status == 200 and doc["status"] == "ok"
            status, metrics = live.request("/metrics")
        assert metric_value(metrics, "repro_serve_read_timeouts") == 1


class TestStoreApi:
    """The server-side shared-store endpoints RemoteStore talks to."""

    def test_put_get_list_roundtrip(self, tmp_path):
        payload = {"format": 1, "metrics": {"exec_time": 12.5}}
        with LiveServer(store=str(tmp_path / "store")) as live:
            status, doc = live.request("/v1/store/result/k1", payload,
                                       method="PUT")
            assert status == 201 and doc["stored"] is True
            # second put of the same key: already present
            status, doc = live.request("/v1/store/result/k1", payload,
                                       method="PUT")
            assert status == 200 and doc["stored"] is False
            status, doc = live.request("/v1/store/result/k1")
            assert status == 200
            assert doc["payload"] == payload
            from repro.store.remote import payload_sha256
            assert doc["sha256"] == payload_sha256(payload)
            status, doc = live.request("/v1/store/result/missing")
            assert status == 404
            status, doc = live.request("/v1/store/result")
            assert status == 200 and doc["keys"] == ["k1"]

    def test_unknown_kind_is_404(self, tmp_path):
        with LiveServer(store=str(tmp_path / "store")) as live:
            status, doc = live.request("/v1/store/warp/k1")
            assert status == 404

    def test_no_store_configured_is_503(self):
        with LiveServer() as live:
            status, doc = live.request("/v1/store/result/k1")
            assert status == 503
            assert doc["error"]["kind"] == "store"

    def test_put_rejects_non_object(self, tmp_path):
        with LiveServer(store=str(tmp_path / "store")) as live:
            status, doc = live.request("/v1/store/result/k1",
                                       b"[1,2,3]", method="PUT")
            assert status == 400


class TestMetricsEndpoint:
    def test_exposes_serve_store_and_supervision(self, tmp_path):
        with LiveServer(store=str(tmp_path / "store")) as live:
            live.request("/v1/run", RUN_BODY)
            status, text = live.request("/metrics")
        assert status == 200
        for needle in ("repro_serve_jobs", "repro_serve_requests",
                       "repro_store_hits", "repro_store_misses",
                       "repro_store_puts",
                       "repro_supervision_worker_restarts",
                       "repro_supervision_points_reenqueued"):
            assert needle in text, needle


class TestFuzzWire:
    """Seeded mutation fuzzing of the POST endpoints: whatever lands
    on the wire, the answer is a structured HTTP response -- never a
    dropped connection, never a crashed server."""

    CASES = 60

    def test_mutated_bodies_never_crash(self):
        from repro.validate.fuzz import mutate
        # wait=false keeps accidentally-valid mutants from blocking
        # the fuzz loop on a real simulation.
        seed_body = json.dumps({"schema_version": 1,
                                "workload": "swim", "scale": SCALE,
                                "wait": False})
        rng = random.Random(20150613)
        endpoints = ("/v1/run", "/v1/sweep", "/v1/compare")
        with LiveServer(max_queued=4, job_threads=1) as live:
            for index in range(self.CASES):
                mutated, _ = mutate(seed_body, rng)
                endpoint = endpoints[index % len(endpoints)]
                status, doc = live.request(
                    endpoint, mutated.encode("utf-8", "replace"),
                    method="POST", timeout=120)
                assert status in (200, 202, 400, 404, 405, 408, 413,
                                  422, 429, 500), (endpoint, mutated)
                if isinstance(doc, dict) and "error" in doc:
                    assert "kind" in doc["error"]
            # the server is still alive and coherent afterwards
            status, doc = live.request("/healthz")
            assert status == 200 and doc["status"] == "ok"

    def test_deadline_ms_mutations_strictly_rejected(self):
        """Hostile deadline_ms values: strict 400s naming the field,
        never a crash, and huge-but-valid budgets accepted."""
        cases = [(-5, 400), (0, 400), (True, 400), ("5s", 400),
                 (1.5, 400), (10 ** 15, 202)]
        with LiveServer(job_threads=1) as live:
            for value, expected in cases:
                body = dict(RUN_BODY, deadline_ms=value, wait=False)
                status, doc = live.request("/v1/run", body)
                assert status == expected, (value, status, doc)
                if expected == 400:
                    assert doc["error"]["kind"] == "request"
                    assert "deadline_ms" in doc["error"]["message"]
            status, doc = live.request("/healthz")
            assert status == 200 and doc["status"] == "ok"
