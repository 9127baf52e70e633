"""The ``serve`` workload: a closed-loop client against ``repro-cli
serve``.

Each pass starts a fresh server on a fresh store (its time to listen
is one set-up sample), sends one untimed warm-up request, has the
server sample the host speed (see serve_launcher.py), then drives
``POST /v1/run`` from two connections as a closed loop over a fixed
request sequence.  The sequence holds every (suite app, baseline or
optimized) key once, each followed by three repeats of earlier keys,
so a pass makes 26 simulations (store misses) and 78 repeats (store
hits, or single-flight joins while the first two keys are still
running): a 75% hit share.  The seed picks each key's ``RunSpec.seed``,
the key order and which keys repeat.
After timing, every response is checked against an in-process
``repro.run`` of the same request.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Tuple

import calibrate
from layers import delta, per_worker
from workloads import OpResult, PassResult, Workload, metrics_row

CONNECTIONS = 2
REPEATS = 4
#: Job threads of ``repro-cli serve`` (its default).
JOB_THREADS = 2
WARMUP = {"workload": "swim", "scale": 0.1, "optimized": True}
LAUNCHER = Path(__file__).with_name("serve_launcher.py")


def _metric_value(text: str, name: str) -> float:
    for line in text.splitlines():
        if line.startswith(name + "{"):
            return float(line.rsplit(" ", 1)[1])
    return 0.0


class Serve(Workload):
    name = "serve"

    def build(self) -> None:
        from repro.workloads import SUITE_ORDER
        self.keys: Dict[str, Dict[str, object]] = {}
        for app in SUITE_ORDER:
            for optimized in (False, True):
                op = f"{app}/{'opt' if optimized else 'base'}"
                self.keys[op] = {"workload": app, "scale": self.scale,
                                 "optimized": optimized,
                                 "seed": self.rng.randrange(1, 2 ** 31)}
        # One block per key: the new key (a simulation) followed by
        # repeats of keys from blocks before the previous one (store
        # hits), so every seed gives the same mix and overlap pattern.
        order = list(self.keys)
        self.rng.shuffle(order)
        self.sequence = []
        for i, op in enumerate(order):
            done = order[:max(1, i - 1)]
            self.sequence += [op] + [self.rng.choice(done)
                                     for _ in range(REPEATS - 1)]
        self.tmp = Path(tempfile.mkdtemp(prefix="perfbench-serve-"))
        self.setup_samples: List[float] = []
        self._count = 0

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    # -- server lifecycle ---------------------------------------------------

    def _start(self, traced: bool = False):
        """Start a server; returns it, its port and its signal output
        path (see serve_launcher.py)."""
        self._count += 1
        store = self.tmp / f"store-{self._count}"
        out = str(self.tmp / f"server-{self._count}.json")
        cmd = [sys.executable, str(LAUNCHER), "--store", str(store),
               "--out", out]
        if traced:
            cmd.append("--trace")
        # The client only waits here, so it samples the host speed.
        with calibrate.Sampler() as sampler:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
            line = proc.stdout.readline()
            listen_s = time.perf_counter() - start
        if "listening on" not in line:
            self._stop(proc)
            raise RuntimeError(f"server did not start: {line!r}")
        self.setup_samples.append(calibrate.normalised(listen_s,
                                                       sampler.record()))
        return proc, int(line.strip().rsplit(":", 1)[1]), out

    @staticmethod
    def _stop(proc) -> None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()

    def extra_setup_samples(self, wanted: int) -> None:
        """Start and stop servers until ``wanted`` listen times exist."""
        while len(self.setup_samples) < wanted:
            self._stop(self._start()[0])

    # -- requests -----------------------------------------------------------

    @staticmethod
    def _signal(proc, signum: int, path: str) -> dict:
        """Send ``signum`` to the server and read the file it answers
        with."""
        proc.send_signal(signum)
        deadline = time.monotonic() + 30
        while not os.path.exists(path):
            if time.monotonic() > deadline or proc.poll() is not None:
                raise RuntimeError(f"server wrote no {path}")
            time.sleep(0.002)
        with open(path) as fh:
            return json.load(fh)

    @staticmethod
    def _post(conn, doc) -> Tuple[int, dict]:
        body = json.dumps(dict(doc, schema_version=1, wait=True))
        conn.request("POST", "/v1/run", body,
                     {"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json.loads(response.read())

    def run_pass(self, traced: bool = False) -> PassResult:
        from repro.store.records import metrics_from_doc
        proc, port, out = self._start(traced)
        try:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
            self._post(conn, WARMUP)
            conn.request("GET", "/metrics")
            before_text = conn.getresponse().read().decode()
            ops: List[OpResult] = [None] * len(self.sequence)
            cursor = iter(range(len(self.sequence)))
            lock = threading.Lock()

            def client() -> None:
                own = http.client.HTTPConnection("127.0.0.1", port,
                                                  timeout=120)
                try:
                    while True:
                        with lock:
                            index = next(cursor, None)
                        if index is None:
                            return
                        op = self.sequence[index]
                        t0 = time.perf_counter()
                        try:
                            status, doc = self._post(own, self.keys[op])
                            rows, error = {}, ""
                            if status == 200 and doc.get("state") == "done":
                                rows = {"run": metrics_row(metrics_from_doc(
                                    doc["result"]["metrics"]))}
                            else:
                                error = f"HTTP {status}: {doc.get('error')}"
                        except Exception as err:  # noqa: BLE001
                            rows, error = {}, f"{type(err).__name__}: {err}"
                        ops[index] = OpResult(op, time.perf_counter() - t0,
                                              rows, error)
                finally:
                    own.close()

            threads = [threading.Thread(target=client)
                       for _ in range(CONNECTIONS)]
            begin = self._signal(proc, signal.SIGUSR1, out + ".start")
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - start
            end = self._signal(proc, signal.SIGUSR2, out + ".end")
            conn.request("GET", "/metrics")
            text = conn.getresponse().read().decode()
            conn.close()
        finally:
            self._stop(proc)

        def counted(name: str) -> float:
            return _metric_value(text, name) - _metric_value(before_text,
                                                             name)

        hits = counted("repro_store_hits")
        misses = counted("repro_store_misses")
        extra = {"store.hit_ratio": hits / (hits + misses)
                 if hits + misses else 0.0,
                 "serve.coalesced": counted("repro_serve_coalesced")}
        layers: Dict[str, float] = {}
        if traced:
            layers = per_worker(delta(end["layers"], begin["layers"]),
                                JOB_THREADS)
            mean_latency = sum(op.latency_s for op in ops) / len(ops)
            in_run = layers.get("serve.sim_s", 0.0) / len(ops)
            extra["serve.overhead_ms"] = 1e3 * (mean_latency - in_run)
        sampled = end["sampler"]
        return PassResult(wall_s=wall, kernel_s=sampled["kernel_s"],
                          ref_s=calibrate.normalised(wall, sampled),
                          ops=ops, layers=layers, extra=extra)

    # -- checks -------------------------------------------------------------

    def pairs(self, ops: List[OpResult]):
        first = {}
        for op in ops:
            if "run" in op.rows:
                first.setdefault(op.op, op.rows["run"])
        return [(first[op], first[op[:-4] + "opt"]) for op in first
                if op.endswith("/base") and op[:-4] + "opt" in first]

    def verify(self, ops: List[OpResult]) -> Dict[int, str]:
        """Compare every response with an in-process ``repro.run`` of
        the same request; maps the index of each mismatching op to a
        message."""
        import repro
        from repro.workloads import build_workload
        expected = {}
        for op, key in self.keys.items():
            program = build_workload(str(key["workload"]), self.scale)
            result = repro.run(program=program,
                               optimized=bool(key["optimized"]),
                               seed=int(key["seed"]))
            expected[op] = metrics_row(result.metrics)
        return {i: f"{op.op}: response differs from in-process repro.run"
                for i, op in enumerate(ops)
                if "run" in op.rows and op.rows["run"] != expected[op.op]}
