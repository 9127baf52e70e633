"""Chaos harness: real injected faults, end-to-end recovery.

Every scenario injects an actual failure -- a SIGKILLed pool worker, a
truncated or bit-flipped store record, a disk that reports ENOSPC, a
wedged worker -- and asserts the same outcome: the sweep completes and
its CSV is bit-identical to an undisturbed run, with the recovery
visible in counters (supervision and steal stats, store quarantine
counts) rather than in the results.
"""

import errno
import os
import time
import warnings

import pytest

import repro
import repro.sim.executor as executor_mod
from repro import MachineConfig
from repro.errors import WorkerLostError
from repro.sim.executor import (PointTask, SupervisionPolicy,
                                execute_points, reset_steal_stats,
                                reset_supervision_stats, run_point,
                                steal_stats, supervision_stats)
from repro.store import StoreDegradedWarning, reset_instances, resolve
from repro.store import disk as disk_mod
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
def reference_csv(program, config):
    """The undisturbed sweep every chaos scenario must reproduce."""
    return repro.sweep(program, config=config, hardened=True,
                       **AXES).to_csv()


@pytest.fixture(autouse=True)
def _fresh(monkeypatch):
    monkeypatch.delenv("REPRO_CHAOS_DIR", raising=False)
    reset_instances()
    reset_supervision_stats()
    reset_steal_stats()
    yield
    reset_instances()


def _tasks(program, config, **kw):
    from repro.sim.executor import grid_settings
    return [PointTask(program=program, base_config=config,
                      settings=tuple(sorted(s.items())), **kw)
            for s in grid_settings(AXES)]


class TestWorkerDeath:
    def test_sigkilled_worker_is_recovered_bit_identically(
            self, program, config, reference_csv, tmp_path,
            monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_DIR", str(tmp_path))
        (tmp_path / "kill-worker").write_text("die")
        report = repro.sweep(program, config=config, hardened=True,
                             workers=2, **AXES)
        assert (tmp_path / "kill-worker.consumed").exists()
        assert not report.failures
        assert report.to_csv() == reference_csv
        stats = supervision_stats()
        assert stats["worker_restarts"] >= 1
        assert stats["points_reenqueued"] >= 1

    def test_plain_sweep_also_survives_worker_death(
            self, program, config, reference_csv, tmp_path,
            monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_DIR", str(tmp_path))
        (tmp_path / "kill-worker").write_text("die")
        report = repro.sweep(program, config=config, workers=2, **AXES)
        assert report.to_csv() == reference_csv
        assert supervision_stats()["worker_restarts"] >= 1

    def test_sigkill_mid_steal_requeues_bit_identically(
            self, program, config, reference_csv, tmp_path,
            monkeypatch):
        """A worker SIGKILLed while holding stolen batches: the pool is
        rebuilt, the steal queue re-enqueues the lost points, and the
        CSV stays bit-identical."""
        monkeypatch.setenv("REPRO_CHAOS_DIR", str(tmp_path))
        (tmp_path / "kill-worker").write_text("die")
        outcomes = execute_points(
            _tasks(program, config, hardened=True), workers=2,
            supervision=SupervisionPolicy(sleep=lambda s: None))
        assert (tmp_path / "kill-worker.consumed").exists()
        assert all(outcome.ok for outcome in outcomes)
        from repro.sim.serialize import rows_to_csv
        assert rows_to_csv([o.row for o in outcomes]) == reference_csv
        assert supervision_stats()["worker_restarts"] >= 1
        assert steal_stats()["requeued"] >= 1

    def test_exhausted_retry_budget_fails_loudly(self, program, config,
                                                 tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_DIR", str(tmp_path))
        (tmp_path / "kill-worker").write_text("die")
        with pytest.raises(WorkerLostError, match="lost to dead"):
            execute_points(_tasks(program, config), workers=2,
                           supervision=SupervisionPolicy(
                               retry_budget=0, sleep=lambda s: None))

    def test_serial_path_never_consumes_kill_token(self, program,
                                                   config, tmp_path,
                                                   monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_DIR", str(tmp_path))
        (tmp_path / "kill-worker").write_text("die")
        outcomes = execute_points(_tasks(program, config)[:1], workers=1)
        assert outcomes[0].ok
        assert (tmp_path / "kill-worker").exists()  # parent never dies


def _hang_once_then_run(task):
    """Pool-side stand-in for ``run_point``: exactly one worker claims
    the hang token and wedges forever; everyone else works normally.
    Module-level so the pool can pickle it by reference."""
    token = os.environ["REPRO_CHAOS_HANG_TOKEN"]
    try:
        os.rename(token, token + ".consumed")
    except OSError:
        return run_point(task)
    time.sleep(600)


class TestHungWorker:
    def test_hang_detector_kills_and_reenqueues(self, program, config,
                                                reference_csv,
                                                tmp_path, monkeypatch):
        token = str(tmp_path / "hang-once")
        with open(token, "w") as handle:
            handle.write("hang")
        monkeypatch.setenv("REPRO_CHAOS_HANG_TOKEN", token)
        # fork-started pool workers inherit the patched module.
        monkeypatch.setattr(executor_mod, "run_point",
                            _hang_once_then_run)
        outcomes = execute_points(
            _tasks(program, config, hardened=True), workers=2,
            supervision=SupervisionPolicy(task_timeout=5.0,
                                          sleep=lambda s: None))
        assert all(outcome.ok for outcome in outcomes)
        from repro.sim.serialize import rows_to_csv
        assert rows_to_csv([o.row for o in outcomes]) == reference_csv
        stats = supervision_stats()
        assert stats["hangs_detected"] >= 1
        assert stats["points_reenqueued"] >= 1


class TestStoreRecordDamage:
    def _damage_and_resweep(self, program, config, reference_csv,
                            tmp_path, damage):
        root = str(tmp_path / "results")
        first = repro.sweep(program, config=config, hardened=True,
                            store=root, **AXES)
        assert first.to_csv() == reference_csv
        store = resolve(root)
        disk = store.primary
        victims = 0
        for kind in ("result", "row"):
            for key in disk.keys(kind):
                damage(disk.record_path(key, kind))
                victims += 1
        assert victims > 0
        reset_instances()
        again = repro.sweep(program, config=config, hardened=True,
                            store=root, **AXES)
        assert not again.failures
        assert again.to_csv() == reference_csv
        snap = resolve(root).stats.snapshot()
        assert snap["corrupt"] >= victims
        assert snap["quarantined"] >= victims
        return again

    def test_truncated_records_requarantine_and_rerun(
            self, program, config, reference_csv, tmp_path):
        def truncate(path):
            path.write_bytes(path.read_bytes()[:max(1, path.stat()
                                                    .st_size // 3)])

        report = self._damage_and_resweep(program, config,
                                          reference_csv, tmp_path,
                                          truncate)
        assert report.store_hits == 0  # nothing replayable survived

    def test_flipped_bits_requarantine_and_rerun(
            self, program, config, reference_csv, tmp_path):
        def flip(path):
            data = bytearray(path.read_bytes())
            data[len(data) // 2] ^= 0x40
            data[-2] ^= 0x01
            path.write_bytes(bytes(data))

        self._damage_and_resweep(program, config, reference_csv,
                                 tmp_path, flip)


class TestDiskFull:
    def test_enospc_degrades_and_sweep_still_completes(
            self, program, config, reference_csv, tmp_path,
            monkeypatch):
        root = str(tmp_path / "results")
        writes = {"n": 0}
        real = disk_mod.atomic_write_bytes

        def fill_up(path, data, durable=True):
            writes["n"] += 1
            if writes["n"] > 2:  # store opens, then the disk "fills"
                raise OSError(errno.ENOSPC, "no space left on device")
            return real(path, data, durable=durable)

        monkeypatch.setattr(disk_mod, "atomic_write_bytes", fill_up)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = repro.sweep(program, config=config, hardened=True,
                                 store=root, **AXES)
        degraded = [w for w in caught
                    if issubclass(w.category, StoreDegradedWarning)]
        assert len(degraded) == 1    # one warning, not one per point
        assert not report.failures
        assert report.to_csv() == reference_csv
        assert resolve(root).stats.snapshot()["degraded"] == 1
