"""Tests for the repro.obs observability subsystem.

Covers the span tracer (nesting, isolation, zero-cost off path), the
telemetry registry (metric kinds, merging, pickling), the RunSpec
``obs`` knob (cache-identity exclusion, bit-identical results), the
exporters (Chrome trace, JSONL, Prometheus, heatmap/timeline ASCII and
CSV), the MC queue-occupancy idle-dilution fix, multiprogram per-co-run
isolation, and the CLI verbs (``trace``/``profile``/``sweep
--progress``).
"""

import io
import json
import math
import pickle
import threading

import pytest

from repro.arch.config import MachineConfig
from repro.cli import main
from repro.memsys.controller import ControllerStats
from repro.obs import (ObsData, TelemetryRegistry, Tracer, chrome_trace,
                       jsonl_events, link_heatmap, link_heatmap_csv,
                       mc_timeline, mc_timeline_csv, profile_table,
                       prometheus_text, write_chrome_trace)
from repro.obs.tracer import (NULL_SPAN, activate, current_tracer,
                              obs_span, traced)
from repro.sim.metrics import RunMetrics
from repro.sim.run import RunSpec, run_simulation
from repro.sim.sweep import Sweep
from repro.workloads import DEMO_KERNELS, build_demo_kernel, build_workload


@pytest.fixture(scope="module")
def config():
    return MachineConfig.scaled_default()


@pytest.fixture(scope="module")
def program():
    return build_workload("swim", 0.1)


def _spec(program, config, **kw):
    return RunSpec(program=program, config=config, **kw)


# ---------------------------------------------------------------------------
# tracer

class TestTracer:
    def test_nested_spans_and_counters(self):
        tracer = Tracer(label="t")
        with tracer.activate():
            with obs_span("outer", cat="a"):
                with obs_span("inner", cat="b") as span:
                    span.add(items=3)
        spans = tracer.spans()
        names = [s.name for s in spans]
        assert names == ["outer", "inner"]  # sorted by start time
        outer, inner = spans
        assert inner.args == {"items": 3}
        assert inner.start >= outer.start
        assert inner.end <= outer.end
        assert all(s.run == "t" for s in spans)

    def test_no_active_tracer_is_null_span(self):
        assert current_tracer() is None
        span = obs_span("anything", x=1)
        assert span is NULL_SPAN
        with span as handle:  # all no-ops
            assert handle.add(y=2) is handle

    def test_activation_is_scoped(self):
        tracer = Tracer()
        with tracer.activate():
            assert current_tracer() is tracer
            with activate(None):
                assert current_tracer() is None
            assert current_tracer() is tracer
        assert current_tracer() is None

    def test_traced_decorator(self):
        tracer = Tracer(label="d")

        @traced("work.unit", cat="test")
        def work(n):
            return n * 2

        with tracer.activate():
            assert work(21) == 42
        (span,) = tracer.spans()
        assert span.name == "work.unit"
        assert span.cat == "test"

    def test_thread_isolation_and_merge(self):
        tracer = Tracer(label="mt")

        def worker(i):
            with obs_span("thread.work", idx=i):
                pass

        threads = []
        with tracer.activate():
            ctx = __import__("contextvars").copy_context()
            for i in range(4):
                t = threading.Thread(
                    target=lambda i=i: ctx.run(worker, i))
                threads.append(t)
                t.start()
            for t in threads:
                t.join()
        spans = tracer.spans()
        assert len(spans) == 4
        # every worker's span arrived (tids may be reused across
        # short-lived threads, so assert on the payload instead)
        assert {s.args["idx"] for s in spans} == {0, 1, 2, 3}

    def test_absorb(self):
        inner = Tracer(label="inner")
        with inner.activate():
            with obs_span("leaf"):
                pass
        outer = Tracer(label="outer")
        outer.absorb(inner.spans())
        assert [s.name for s in outer.spans()] == ["leaf"]
        assert outer.spans()[0].run == "inner"  # attribution kept


# ---------------------------------------------------------------------------
# telemetry registry

class TestTelemetry:
    def test_metric_kinds(self):
        reg = TelemetryRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(2)
        assert reg.value("c") == 3
        reg.gauge("g").set(5.0)
        reg.gauge("g").set(2.0)
        gauge = reg.get("g")
        assert (gauge.value, gauge.min, gauge.max) == (2.0, 2.0, 5.0)
        hist = reg.histogram("h")
        for v in (0.5, 1.5, 100.0):
            hist.observe(v)
        assert hist.count == 3
        assert hist.sum == pytest.approx(102.0)
        series = reg.series("s")
        series.record(10.0, 1.0)
        series.record(20.0, 3.0)
        points = list(series.points())
        assert points  # bucketed means are queryable
        assert series.sum == pytest.approx(4.0)

    def test_kind_collision_rejected(self):
        reg = TelemetryRegistry()
        reg.counter("x")
        with pytest.raises((TypeError, ValueError)):
            reg.gauge("x")

    def test_merge_folds_counters_and_series(self):
        a, b = TelemetryRegistry(), TelemetryRegistry()
        a.counter("n").inc(2)
        b.counter("n").inc(3)
        b.counter("only_b").inc(1)
        a.series("s").record(0.0, 1.0)
        b.series("s").record(0.0, 2.0)
        a.merge(b)
        assert a.value("n") == 5
        assert a.value("only_b") == 1
        assert a.get("s").sum == pytest.approx(3.0)

    def test_picklable(self):
        reg = TelemetryRegistry()
        reg.counter("c").inc(7)
        reg.gauge("g").set(1.5)
        reg.histogram("h").observe(4.0)
        reg.series("s").record(100.0, 2.0)
        clone = pickle.loads(pickle.dumps(reg))
        assert clone.value("c") == 7
        assert clone.get("h").count == 1
        assert clone.get("s").sum == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# RunSpec.obs semantics

class TestRunSpecObs:
    def test_invalid_level_rejected(self, program, config):
        with pytest.raises(ValueError):
            _spec(program, config, obs="verbose")

    def test_obs_excluded_from_key(self, program, config):
        base = _spec(program, config)
        for level in ("spans", "full"):
            assert _spec(program, config, obs=level).key() == base.key()
        # but real knobs still change the key
        assert _spec(program, config, optimized=True).key() != base.key()

    def test_off_attaches_nothing(self, program, config):
        result = run_simulation(_spec(program, config))
        assert result.obs is None

    def test_spans_level(self, program, config):
        result = run_simulation(_spec(program, config, obs="spans"))
        obs = result.obs
        assert obs is not None and obs.level == "spans"
        assert obs.telemetry is None  # full-only
        names = {s.name for s in obs.spans}
        assert {"run", "trace.generate", "sim.system",
                "sim.events"} <= names

    def test_fast_run_splits_events(self, program, config):
        # A fast run nests one sim.replay and one sim.misses span in
        # sim.events; the reference loop has neither.
        result = run_simulation(_spec(program, config, obs="spans"))
        by_name = {}
        for span in result.obs.spans:
            by_name.setdefault(span.name, []).append(span)
        (events,) = by_name["sim.events"]
        (replay,) = by_name["sim.replay"]
        (misses,) = by_name["sim.misses"]
        assert events.start <= replay.start <= replay.end \
            <= misses.start <= misses.end <= events.end
        m = result.metrics
        assert misses.args["misses"] == m.onchip_remote + m.offchip
        reference = run_simulation(_spec(program, config, obs="spans",
                                         engine="reference"))
        names = {s.name for s in reference.obs.spans}
        assert "sim.events" in names
        assert not names & {"sim.replay", "sim.misses"}

    def test_spans_name_the_engine_that_ran(self, program, config):
        # sim.system records the requested engine and the one that ran;
        # sim.events records the one that ran (and why, on a fallback).
        shared = config.with_(shared_l2=True)
        result = run_simulation(_spec(program, shared, obs="spans"))
        assert result.engine_used == "fast"
        assert result.fallback_reason is None
        by_name = {s.name: s for s in result.obs.spans}
        assert by_name["sim.system"].args["requested"] == "fast"
        assert by_name["sim.system"].args["engine"] == "fast"
        assert by_name["sim.events"].args["engine"] == "fast"
        assert "fallback" not in by_name["sim.events"].args

    def test_fallback_is_labelled_and_counted(self, program, config):
        from repro.obs.export import process_registry
        from repro.sim.system import engine_fallbacks
        name = "sim.engine.fallback.model_writes"
        before = engine_fallbacks().get("model_writes", 0)
        writes = config.with_(model_writes=True)
        result = run_simulation(_spec(program, writes, obs="full"))
        assert result.engine_used == "reference"
        assert result.fallback_reason == "model_writes"
        by_name = {s.name: s for s in result.obs.spans}
        assert by_name["sim.system"].args["requested"] == "fast"
        assert by_name["sim.system"].args["engine"] == "reference"
        assert by_name["sim.events"].args["fallback"] == "model_writes"
        assert result.obs.telemetry.get(name).value == 1
        assert engine_fallbacks()["model_writes"] == before + 1
        assert process_registry().get(name).value == before + 1
        # a requested reference run is not a fallback
        reference = run_simulation(_spec(program, writes,
                                         engine="reference"))
        assert reference.engine_used == "reference"
        assert reference.fallback_reason is None
        assert engine_fallbacks()["model_writes"] == before + 1
        # the label stays off the result itself
        assert not {"engine", "engine_used", "fallback_reason"} \
            & set(vars(result.metrics))

    def test_full_level_results_bit_identical(self, program, config):
        plain = run_simulation(_spec(program, config))
        observed = run_simulation(_spec(program, config, obs="full"))
        assert observed.metrics.exec_time == plain.metrics.exec_time
        assert observed.metrics.offchip == plain.metrics.offchip
        assert observed.metrics.mc_queue_wait == \
            plain.metrics.mc_queue_wait

    def test_full_telemetry_matches_metrics(self, program, config):
        result = run_simulation(_spec(program, config, obs="full"))
        m = result.metrics
        tel = result.obs.telemetry
        assert tel is not None
        assert tel.value("sim.accesses") == m.total_accesses
        assert tel.value("sim.offchip") == m.offchip
        for mc, requests in enumerate(m.mc_requests):
            assert tel.value(f"mc.{mc}.requests") == requests
            series = tel.get(f"mc.{mc}.queue_wait")
            assert series.sum == pytest.approx(m.mc_queue_wait[mc])

    def test_tracer_does_not_leak_after_run(self, program, config):
        run_simulation(_spec(program, config, obs="full"))
        assert current_tracer() is None

    def test_outer_tracer_absorbs_run_spans(self, program, config):
        collector = Tracer(label="collector")
        with collector.activate():
            run_simulation(_spec(program, config, obs="spans"))
        names = {s.name for s in collector.spans()}
        assert "run" in names

    def test_strict_validation_with_obs_telemetry_checker(
            self, program, config):
        # the obs_telemetry checker cross-checks the two ledgers
        result = run_simulation(_spec(program, config, obs="full",
                                      validate="strict"))
        assert result.obs.telemetry is not None


# ---------------------------------------------------------------------------
# MC queue occupancy: idle-dilution fix

class TestQueueOccupancy:
    def test_busy_window_undiluted(self):
        stats = ControllerStats(requests=10, queue_wait_total=100.0,
                                first_arrival=0.0, last_finish=50.0)
        # run-wide: diluted by the 950-cycle idle tail
        assert stats.queue_occupancy(1000.0) == pytest.approx(0.1)
        # busy-window: wait integrated only over cycles with work
        assert stats.busy_elapsed == pytest.approx(50.0)
        assert stats.queue_occupancy_busy() == pytest.approx(2.0)

    def test_no_requests_is_zero(self):
        stats = ControllerStats()
        assert stats.busy_elapsed == 0.0
        assert stats.queue_occupancy_busy() == 0.0

    def test_run_metrics_reports_both(self):
        m = RunMetrics(exec_time=1000.0, mc_queue_wait=[100.0, 0.0],
                       mc_busy_elapsed=[50.0, 0.0])
        assert m.bank_queue_occupancy() == pytest.approx(0.1)
        assert m.bank_queue_occupancy_busy() == pytest.approx(2.0)

    def test_busy_falls_back_without_windows(self):
        m = RunMetrics(exec_time=1000.0, mc_queue_wait=[100.0])
        assert m.bank_queue_occupancy_busy() == \
            m.bank_queue_occupancy()

    def test_simulation_populates_busy_elapsed(self, program, config):
        result = run_simulation(_spec(program, config))
        m = result.metrics
        assert len(m.mc_busy_elapsed) == config.num_mcs
        assert any(b > 0 for b in m.mc_busy_elapsed)
        for busy in m.mc_busy_elapsed:
            assert 0.0 <= busy <= m.exec_time + 1e-6


# ---------------------------------------------------------------------------
# exporters

@pytest.fixture(scope="module")
def observed(program, config):
    return run_simulation(RunSpec(program=program, config=config,
                                  obs="full"))


class TestExporters:
    def test_chrome_trace_structure(self, observed):
        trace = chrome_trace(observed.obs)
        events = trace["traceEvents"]
        assert trace["displayTimeUnit"] == "ms"
        durations = [e for e in events if e["ph"] == "X"]
        assert durations
        for e in durations:
            assert e["ts"] >= 0 and e["dur"] >= 0
        assert any(e["ph"] == "M" and e["name"] == "process_name"
                   for e in events)
        assert any(e["ph"] == "C" for e in events)  # sim-time counters
        json.dumps(trace)  # fully serializable

    def test_write_chrome_trace(self, observed, tmp_path):
        path = tmp_path / "trace.json"
        count = write_chrome_trace(str(path), observed.obs)
        loaded = json.loads(path.read_text())
        assert len(loaded["traceEvents"]) == count > 0

    def test_multi_run_lanes(self, observed):
        trace = chrome_trace([observed.obs, observed.obs])
        pids = {e["pid"] for e in trace["traceEvents"]
                if e["ph"] == "X" and e.get("cat") != "fault"}
        assert {0, 1} <= pids

    def test_jsonl(self, observed):
        lines = jsonl_events(observed.obs).strip().splitlines()
        parsed = [json.loads(line) for line in lines]
        assert any(p["event"] == "span" for p in parsed)

    def test_prometheus(self, observed):
        text = prometheus_text(observed.obs)
        assert "# TYPE" in text
        assert "sim_accesses" in text.replace(".", "_") or \
            "sim.accesses" in text

    def test_heatmap_and_timeline(self, observed):
        heat = link_heatmap(observed.obs)
        assert "NoC link occupancy" in heat
        assert RAMP_SCALE_LINE in heat
        timeline = mc_timeline(observed.obs)
        assert "MC" in timeline and "occupancy" in timeline

    def test_csv_exports(self, observed, config):
        heat_csv = link_heatmap_csv(observed.obs)
        header, *rows = heat_csv.strip().splitlines()
        assert header == "run,link,src,dst,flit_hops"
        assert rows
        tl_csv = mc_timeline_csv(observed.obs)
        header, *rows = tl_csv.strip().splitlines()
        assert header.startswith("run,mc,bucket_start_cycle")
        mcs = {int(r.split(",")[1]) for r in rows}
        assert mcs <= set(range(config.num_mcs))

    def test_profile_table(self, observed):
        table = profile_table(observed.obs, top=5)
        assert "run" in table
        assert "100.0%" in table

    def test_obsdata_merged(self, observed):
        merged = ObsData.merged([observed.obs, observed.obs],
                                label="pair")
        assert merged.label == "pair"
        assert len(merged.spans) == 2 * len(observed.obs.spans)
        assert merged.telemetry.value("sim.accesses") == \
            2 * observed.obs.telemetry.value("sim.accesses")

    def test_obsdata_picklable(self, observed):
        clone = pickle.loads(pickle.dumps(observed.obs))
        assert len(clone.spans) == len(observed.obs.spans)
        assert clone.telemetry.value("sim.accesses") == \
            observed.obs.telemetry.value("sim.accesses")


RAMP_SCALE_LINE = "scale: ' .:-=+*#%@'"


# ---------------------------------------------------------------------------
# sweep + multiprogram isolation

class TestSweepObs:
    def test_sweep_collects_merged_obs(self, program, config):
        sweep = Sweep(program, config, obs="full")
        sweep.run(num_mcs=[2, 4])
        obs = sweep.collected_obs()
        assert obs is not None
        # 2 points x (base, opt) = 4 runs, each its own lane
        assert len(obs.meta["runs"]) == 4
        labels = {r["label"] for r in obs.meta["runs"]}
        assert labels == {"swim/original", "swim/optimized"}
        # telemetry folded across all four runs
        assert obs.telemetry is not None
        assert obs.telemetry.value("sim.accesses") > 0

    def test_sweep_off_collects_nothing(self, program, config):
        sweep = Sweep(program, config)
        sweep.run(num_mcs=[2])
        assert sweep.collected_obs() is None


class TestMultiprogramObs:
    @pytest.fixture(scope="class")
    def result(self):
        programs = [build_workload("swim", 0.1),
                    build_workload("mgrid", 0.1)]
        from repro.sim.multiprogram import run_multiprogram
        return run_multiprogram(
            programs, MachineConfig.scaled_default(), obs="full")

    def test_each_corun_isolated(self, result):
        obs = result.obs
        assert obs is not None
        assert {"shared/original", "shared/optimized"} <= set(obs)
        alone = [k for k in obs if k.startswith("alone/")]
        assert len(alone) == 4  # 2 apps x original/optimized
        registries = [part.telemetry for part in obs.values()]
        assert all(r is not None for r in registries)
        assert len({id(r) for r in registries}) == len(registries)

    def test_span_attribution(self, result):
        for label, part in result.obs.items():
            assert part.label == label
            assert part.spans, f"no spans for {label}"
            assert all(s.run == label for s in part.spans)

    def test_shared_sees_all_apps(self, result):
        shared = result.obs["shared/original"]
        assert shared.meta["apps"] == ["swim", "mgrid"]
        total = shared.telemetry.value("sim.accesses")
        alone_total = sum(
            part.telemetry.value("sim.accesses")
            for label, part in result.obs.items()
            if label.startswith("alone/") and label.endswith("/original"))
        assert total == alone_total  # same work, co-scheduled

    def test_off_is_none(self):
        programs = [build_workload("swim", 0.1),
                    build_workload("mgrid", 0.1)]
        from repro.sim.multiprogram import run_multiprogram
        result = run_multiprogram(
            programs, MachineConfig.scaled_default())
        assert result.obs is None


# ---------------------------------------------------------------------------
# CLI verbs

def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestCliObs:
    def test_trace_demo_kernel_chrome(self, tmp_path):
        path = tmp_path / "trace.json"
        code, text = run_cli(["trace", "matmul", "--scale", "0.5",
                              "--out", str(path)])
        assert code == 0
        assert "Chrome trace" in text
        trace = json.loads(path.read_text())
        assert any(e["ph"] == "X" for e in trace["traceEvents"])

    def test_trace_requires_some_output(self):
        with pytest.raises(SystemExit):
            run_cli(["trace", "matmul"])

    def test_trace_rejects_both_sources(self, tmp_path):
        with pytest.raises(SystemExit):
            run_cli(["trace", "matmul", "--app", "swim",
                     "--out", str(tmp_path / "t.json")])

    def test_trace_unknown_workload(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli(["trace", "nope", "--out",
                     str(tmp_path / "t.json")])
        assert "unknown workload" in str(err.value)

    def test_trace_heatmap_timeline(self, tmp_path):
        code, text = run_cli(["trace", "matmul", "--scale", "0.5",
                              "--out", str(tmp_path / "t.json"),
                              "--heatmap", "--timeline"])
        assert code == 0
        assert "NoC link occupancy" in text
        assert "occupancy over" in text

    def test_profile_defaults_to_matmul(self):
        code, text = run_cli(["profile", "--scale", "0.5", "--top", "5"])
        assert code == 0
        assert "span" in text and "share" in text
        assert "run" in text
        assert text.splitlines()[0] == "engine: fast"

    def test_run_summary_names_the_engine(self):
        code, text = run_cli(["run", "--app", "swim", "--scale", "0.1",
                              "--shared-l2"])
        assert code == 0
        assert text.splitlines()[-1].split() == ["engine:", "fast"]

    def test_demo_kernel_registry(self):
        assert "matmul" in DEMO_KERNELS
        program = build_demo_kernel("matmul", 0.5)
        assert program.name == "matmul"
        assert {a.name for a in program.arrays} == {"A", "B", "C"}

    def test_sweep_progress_lines(self, capsys):
        code, _ = run_cli(["sweep", "--app", "swim", "--scale", "0.1",
                           "--axis", "num_mcs=2,4", "--progress"])
        assert code == 0
        err = capsys.readouterr().err
        assert "[sweep] wave 0" in err
        assert "2/2 points done, 0 failed" in err

    def test_sweep_quiet(self, capsys):
        code, _ = run_cli(["sweep", "--app", "swim", "--scale", "0.1",
                           "--axis", "num_mcs=2", "--quiet"])
        assert code == 0
        assert "[sweep]" not in capsys.readouterr().err
