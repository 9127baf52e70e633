"""The optional write-invalidation coherence model."""

import numpy as np
import pytest

from repro.arch.config import CACHE_LINE_INTERLEAVING, MachineConfig
from repro.sim.metrics import RunMetrics
from repro.sim.run import RunSpec, run_simulation
from repro.sim.system import SystemSimulator, build_streams
from repro.workloads import build_workload


def run_two_threads(model_writes, writes0, writes1, addrs0, addrs1,
                    gaps0=None, gaps1=None):
    cfg = MachineConfig.scaled_default().with_(
        interleaving=CACHE_LINE_INTERLEAVING, model_writes=model_writes,
        thread_stagger=0)
    mapping = cfg.default_mapping()
    v0 = np.asarray(addrs0, dtype=np.int64)
    v1 = np.asarray(addrs1, dtype=np.int64)
    g0 = np.asarray(gaps0 if gaps0 is not None else [0] * len(v0),
                    dtype=np.int64)
    g1 = np.asarray(gaps1 if gaps1 is not None else [0] * len(v1),
                    dtype=np.int64)
    streams = build_streams(
        cfg, [0, 9], [v0, v1], [v0, v1], [g0, g1],
        writes=[np.asarray(writes0, dtype=bool),
                np.asarray(writes1, dtype=bool)])
    sim = SystemSimulator(cfg, mapping)
    return sim.run(streams), sim


class TestInvalidation:
    def test_write_invalidates_sharer(self):
        """Node 9 reads line 0 (cache-to-cache); later node 0 writes it:
        node 9's copy must be dropped from the directory and caches."""
        # thread 0 reads, thread 1 reads (cache-to-cache), then a big
        # compute gap makes thread 0's write happen last: upgrade.
        m, sim = run_two_threads(
            True,
            writes0=[False, True], writes1=[False],
            addrs0=[0, 0], addrs1=[0],
            gaps0=[0, 5000])
        assert m.invalidations == 1
        assert sim.directory.sharers_of(0) == {0}
        assert not sim.l2[9].contains(0)

    def test_disabled_by_default(self):
        m, _ = run_two_threads(
            False,
            writes0=[False, True], writes1=[False],
            addrs0=[0, 0], addrs1=[0])
        assert m.invalidations == 0

    def test_reads_never_invalidate(self):
        m, _ = run_two_threads(
            True,
            writes0=[False, False], writes1=[False],
            addrs0=[0, 0], addrs1=[0])
        assert m.invalidations == 0

    def test_sharer_reloads_after_invalidation(self):
        """After an invalidation the victim's next access misses again
        (goes back through the directory)."""
        m, sim = run_two_threads(
            True,
            writes0=[False, True, False],
            writes1=[False, False],
            addrs0=[0, 0, 4096], addrs1=[0, 64],
            gaps0=[0, 5000, 0], gaps1=[0, 12000])
        assert m.invalidations >= 1
        # all accesses still complete and partition into the categories
        assert m.l1_hits + m.l2_hits + m.onchip_remote + m.offchip == \
            m.total_accesses


    def test_invalidations_go_in_ascending_node_order(self):
        """The invalidation fan-out is ordered by node id, whatever
        order the sharers joined in (the directory keeps a bitmask)."""
        cfg = MachineConfig.scaled_default().with_(
            interleaving=CACHE_LINE_INTERLEAVING, model_writes=True)
        sim = SystemSimulator(cfg, cfg.default_mapping())
        for node in (11, 4, 40, 0, 19):
            sim.directory.add_sharer(7, node)
        sent = []
        send = sim.network.send

        def record(src, dst, flits, depart, vnet=1):
            if src == 2:
                sent.append(dst)
            return send(src, dst, flits, depart, vnet=vnet)

        sim.network.send = record
        m = RunMetrics()
        sim._invalidate_sharers(7, requester=0, mc_node=2, t=0.0, m=m)
        assert sent == [4, 11, 19, 40]
        assert m.invalidations == 4
        assert sim.directory.sharers_of(7) == {0}


class TestEndToEnd:
    def test_workload_with_coherence(self):
        """A full workload run with the model on: completes, counts
        invalidations for the halo-sharing stencil, and the categories
        stay consistent.  (At test scale the halo lines ping-pong
        heavily, so no performance ordering is asserted here; the
        benchmark harness runs the comparison at full scale.)"""
        cfg = MachineConfig.scaled_default().with_(
            interleaving=CACHE_LINE_INTERLEAVING, model_writes=True)
        prog = build_workload("swim", 0.35)
        base = run_simulation(RunSpec(program=prog, config=cfg)).metrics
        opt = run_simulation(RunSpec(program=prog, config=cfg,
                                     optimized=True)).metrics
        assert base.invalidations > 0
        assert opt.invalidations > 0
        for m in (base, opt):
            assert m.l1_hits + m.l2_hits + m.onchip_remote + m.offchip \
                == m.total_accesses
