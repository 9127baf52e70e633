"""The parallel sweep engine: process-pool execution must be
bit-identical to serial, under healthy and faulted fabrics alike."""

import dataclasses

import numpy as np
import pytest

import repro.sim.executor as executor_mod
from repro import MachineConfig
from repro.faults import FaultPlan, LinkFault, MCFault
from repro.sim import memo
from repro.sim.executor import (PointTask, default_batch_size,
                                default_workers, execute_runs,
                                grid_settings, point_specs, run_point)
from repro.sim.metrics import RunMetrics
from repro.sim.harness import HardenedSweep
from repro.sim.run import RunSpec
from repro.sim.serialize import point_key, rows_to_csv
from repro.sim.sweep import Sweep, to_csv
from repro.workloads import build_workload

SCALE = 0.12
AXES = dict(mapping=["M1", "M2"], num_mcs=[4, 8])


@pytest.fixture(scope="module")
def program():
    return build_workload("swim", SCALE)


@pytest.fixture(scope="module")
def config():
    return MachineConfig.scaled_default().with_(interleaving="cache_line")


@pytest.fixture(scope="module")
def fault_plan():
    return FaultPlan(name="smoke",
                     link_faults=(LinkFault(a=0, b=1),),
                     mc_faults=(MCFault(mc=1, kind="offline"),))


class TestParallelSweep:
    def test_workers4_csv_byte_identical(self, program, config):
        serial = Sweep(program, config, workers=1).run(**AXES)
        parallel = Sweep(program, config, workers=4).run(**AXES)
        assert to_csv(parallel) == to_csv(serial)

    def test_workers4_metrics_identical(self, program, config):
        serial = Sweep(program, config, workers=1).run(**AXES)
        parallel = Sweep(program, config, workers=4).run(**AXES)
        for a, b in zip(serial, parallel):
            assert a.settings == b.settings
            assert a.comparison.base.exec_time == \
                b.comparison.base.exec_time
            assert a.comparison.opt.exec_time == b.comparison.opt.exec_time
            assert a.comparison.as_row() == b.comparison.as_row()

    def test_identical_under_fault_plan(self, program, config, fault_plan):
        serial = Sweep(program, config, workers=1,
                       fault_plan=fault_plan, seed=7).run(**AXES)
        parallel = Sweep(program, config, workers=4,
                         fault_plan=fault_plan, seed=7).run(**AXES)
        assert to_csv(parallel) == to_csv(serial)
        # the plan really degraded the fabric in the workers, too
        assert any(p.comparison.base.fault_events > 0 for p in parallel)

    def test_parallel_fills_memo_cache(self, program, config,
                                       monkeypatch):
        sweep = Sweep(program, config, workers=4)
        points = sweep.run(**AXES)
        assert len(sweep._cache) == len(points) == 4

        def no_more_execution(tasks, workers=1):
            assert not list(tasks), "cached sweep re-simulated points"
            return []

        monkeypatch.setattr(executor_mod, "execute_points",
                            no_more_execution)
        import repro.sim.sweep as sweep_mod
        monkeypatch.setattr(sweep_mod, "execute_points",
                            no_more_execution)
        again = sweep.run(**AXES)
        assert to_csv(again) == to_csv(points)

    def test_workers_one_never_spawns_a_pool(self, program, config,
                                             monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("workers=1 must stay in-process")

        monkeypatch.setattr(executor_mod, "ProcessPoolExecutor", boom)
        points = Sweep(program, config, workers=1).run(mapping=["M1"])
        assert len(points) == 1

    def test_single_task_never_spawns_a_pool(self, program, config,
                                             monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("one task must stay in-process")

        monkeypatch.setattr(executor_mod, "ProcessPoolExecutor", boom)
        points = Sweep(program, config, workers=8).run(mapping=["M1"])
        assert len(points) == 1

    def test_pool_is_fork_started(self, program, config, monkeypatch):
        """Workers get the warm memo and any patched ``run_point`` only
        by fork inheritance, so the pool must not take the platform's
        default start method."""
        contexts = []
        real_pool = executor_mod.ProcessPoolExecutor

        def recording_pool(*args, **kwargs):
            contexts.append(kwargs.get("mp_context"))
            return real_pool(*args, **kwargs)

        monkeypatch.setattr(executor_mod, "ProcessPoolExecutor",
                            recording_pool)
        Sweep(program, config, workers=2).run(mapping=["M1", "M2"])
        assert [c.get_start_method() for c in contexts] == ["fork"]


class TestExecuteRuns:
    def test_parallel_metrics_identical_to_serial(self, program, config):
        specs = []
        for settings in grid_settings(AXES):
            specs.extend(point_specs(program, config, settings))
        serial = execute_runs(specs, workers=1)
        memo.cache.clear()  # workers must recompute, not inherit
        parallel = execute_runs(specs, workers=2)
        assert len(parallel) == len(serial) == len(specs)
        for spec, a, b in zip(specs, serial, parallel):
            for f in dataclasses.fields(RunMetrics):
                x, y = getattr(a, f.name), getattr(b, f.name)
                if isinstance(x, np.ndarray):
                    assert x.dtype == y.dtype, (spec.key(), f.name)
                    assert np.array_equal(x, y), (spec.key(), f.name)
                else:
                    assert x == y, (spec.key(), f.name)


class TestHardenedParallel:
    def test_hardened_workers_match_serial(self, program, config):
        serial = HardenedSweep(program, config, workers=1).run(**AXES)
        parallel = HardenedSweep(program, config, workers=4).run(**AXES)
        assert parallel.rows == serial.rows
        assert parallel.to_csv() == serial.to_csv()
        assert not parallel.failures

    def test_hardened_parallel_under_fault_plan(self, program, config,
                                                fault_plan):
        serial = HardenedSweep(program, config, fault_plan=fault_plan,
                               seed=5, workers=1).run(**AXES)
        parallel = HardenedSweep(program, config, fault_plan=fault_plan,
                                 seed=5, workers=4).run(**AXES)
        assert parallel.rows == serial.rows
        assert parallel.to_csv() == serial.to_csv()

    def test_parallel_checkpoint_resumes_serially(self, program, config,
                                                  tmp_path):
        """A checkpoint written by a parallel sweep resumes under a
        serial one (and vice versa): the canonical key is engine-
        independent."""
        ckpt = str(tmp_path / "sweep.json")
        full = HardenedSweep(program, config, workers=4).run(**AXES)
        partial = HardenedSweep(program, config, checkpoint=ckpt,
                                workers=4).run(max_points=2, **AXES)
        assert partial.completed == 2
        resumed = HardenedSweep(program, config, checkpoint=ckpt,
                                workers=1).run(**AXES)
        assert resumed.resumed == 2
        assert resumed.rows == full.rows


class TestCanonicalKeys:
    def test_key_is_stable_and_filename_safe(self, program, config):
        spec = RunSpec(program=program, config=config, optimized=True)
        key = spec.key()
        assert key == RunSpec(program=program, config=config,
                              optimized=True).key()
        assert "/" not in key and " " not in key
        assert key.startswith("swim-optimized-")

    @pytest.mark.parametrize("change", [
        dict(optimized=True), dict(optimal=True), dict(seed=1),
        dict(page_policy="first_touch"), dict(pages_per_mc=64),
        dict(localize_offchip=False),
    ])
    def test_key_tracks_every_simulation_input(self, program, config,
                                               change):
        base = RunSpec(program=program, config=config)
        assert RunSpec(program=program, config=config,
                       **change).key() != base.key()

    def test_key_tracks_config_and_faults(self, program, config):
        base = RunSpec(program=program, config=config)
        other_cfg = RunSpec(program=program,
                            config=config.with_(num_mcs=8))
        faulted = RunSpec(program=program, config=config,
                          fault_plan=FaultPlan(
                              mc_faults=(MCFault(mc=0, kind="offline"),)))
        assert len({base.key(), other_cfg.key(), faulted.key()}) == 3

    def test_sweep_and_harness_share_point_keys(self, program, config):
        """The memo key of Sweep and the checkpoint key of
        HardenedSweep are the same canonical identity."""
        settings = {"mapping": "M2", "num_mcs": 8}
        key = point_key(point_specs(program, config, settings))
        sweep = Sweep(program, config)
        hardened = HardenedSweep(program, config)
        assert sweep._key(settings) == key
        assert hardened._key(settings) == key


class TestExecutorPrimitives:
    def test_grid_settings_order(self):
        grid = grid_settings(dict(b=[1, 2], a=["x"]))
        assert grid == [{"a": "x", "b": 1}, {"a": "x", "b": 2}]

    def test_default_batch_size(self):
        assert default_batch_size(0, 4) == 1
        assert default_batch_size(100, 1) == 1
        # small grids stay at maximum steal granularity
        assert default_batch_size(16, 4) == 1
        # large grids batch, bounded so the tail stays balanced
        assert default_batch_size(100, 4) == 3
        assert default_batch_size(10_000, 4) == 8

    def test_default_workers_positive(self):
        assert default_workers() >= 1

    def test_run_point_row_matches_comparison(self, program, config):
        task = PointTask(program=program, base_config=config,
                         settings=(("mapping", "M1"),))
        outcome = run_point(task)
        assert outcome.ok
        assert outcome.error is None
        assert outcome.row["mapping"] == "M1"
        assert outcome.row["exec_time"] == round(
            outcome.comparison.exec_time_reduction, 4)

    def test_rows_to_csv_empty(self):
        assert rows_to_csv([]) == ""
