"""Tests of the benchmark itself (run: python3 -m pytest perfbench/tests).

Each test runs ``perfbench/run.py`` as a subprocess on shrunken
workloads (``--scale-factor``), so the whole file takes well under a
minute.
"""

import json
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))
import calibrate  # noqa: E402
NAME = re.compile(r"[A-Za-z0-9_.-]+")
#: Per-layer seconds measured during set-up, not in the timed passes.
SETUP_LAYERS = {"repro.import_s", "core.first_compile_s",
                "arch.first_mapping_s", "workloads.build_s"}


def bench(*args, cwd=ROOT, timeout=170):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc, result


def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_and_counts():
    doc = declared()
    e2e, layers = doc["end_to_end"], doc["per_layer"]
    assert 1 <= len(e2e) <= 16 and 1 <= len(layers) <= 128
    names = [m["name"] for m in e2e + layers]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    bounds = {m["name"]: m["bound"] for m in e2e}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 2 <= len(doc["workloads"]) <= 8


@pytest.mark.parametrize("workload", ["suite", "serve"])
def test_injected_wrong_result_is_counted(workload):
    proc, result = bench("--workload", workload, "--scale-factor", "0.1",
                         "--seconds", "0", "--inject-fault", "0")
    assert proc.returncode == 1, proc.stderr
    assert result["correct"] is False
    assert result["failed"] >= 1 and result["attempted"] > result["failed"]
    assert "fail_ratio" in proc.stdout


@pytest.mark.parametrize("workload", ["suite", "sweep"])
def test_traced_layer_times_within_wall(workload):
    proc, result = bench("--workload", workload, "--scale-factor", "0.1",
                         "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in declared()["per_layer"]}
    wall = metrics["trace.wall_s"]["value"]
    assert wall > 0
    for name, metric in metrics.items():
        if metric["unit"] == "s" and name not in SETUP_LAYERS:
            assert metric["value"] <= wall, (name, metric["value"], wall)


def test_untraced_run_reports_every_end_to_end_metric():
    proc, result = bench("--workload", "paper-configs",
                         "--scale-factor", "0.1", "--seconds", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] and result["failed"] == 0
    for metric in declared()["end_to_end"]:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert value["value"] != 0, metric["name"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = bench("--workload", "suite", "--seconds", "1",
                         cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert result is None


def test_sampler_takes_its_kernel_out():
    with calibrate.Sampler() as sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.5:
            pass
        wall = time.perf_counter() - start
    record = sampler.record()
    assert record["samples"] >= 10
    assert 0 < record["kernel_s"] < 0.5 * wall
    speed = record["speed_sum"] / record["samples"]
    assert calibrate.normalised(wall, record) == pytest.approx(
        (wall - record["kernel_s"]) * speed)
    # Off the main thread no handler can be set: one sample at exit
    # stands for the interval and adds no kernel time to it.
    records = []

    def off_main():
        with calibrate.Sampler() as other:
            pass
        records.append(other.record())

    thread = threading.Thread(target=off_main)
    thread.start()
    thread.join()
    assert records[0]["samples"] == 1 and records[0]["kernel_s"] == 0
