"""Machine configuration: Table 1 of the paper, plus simulation scaling.

``MachineConfig`` carries the architectural parameters of the simulated
manycore.  The *paper defaults* (:func:`MachineConfig.paper_default`)
reproduce Table 1 exactly: an 8x8 mesh, 4 corner MCs, 16 KB L1s with 64 B
lines, 256 KB L2s with 256 B lines, L1/L2/hop latencies of 2/10/4 cycles,
16 B links, FR-FCFS scheduling, 4 KB row buffers (= page size).

Because the paper's inputs are 124 MB - 1.9 GB and ours must run on a
laptop, :func:`MachineConfig.scaled_default` shrinks the caches while the
workload models shrink the arrays by the same proportion, preserving the
ratio of working-set size to cache capacity -- and therefore the off-chip
access fraction the evaluation hinges on (Figure 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional

from repro.arch.clustering import L2ToMCMapping, machine_mapping
from repro.arch.placement import place_mcs
from repro.arch.topology import Mesh

PAGE_INTERLEAVING = "page"
CACHE_LINE_INTERLEAVING = "cache_line"


@dataclass(frozen=True)
class MachineConfig:
    """All architectural knobs of the simulated system (Table 1)."""

    # Mesh / NoC
    mesh_width: int = 8
    mesh_height: int = 8
    link_bytes: int = 16          # 16 B links
    hop_latency: int = 4          # per-hop latency (cycles)
    router_pipeline: int = 2      # router pipeline depth (cycles)

    # Caches
    l1_size: int = 16 * 1024
    l1_line: int = 64
    l1_ways: int = 2
    l1_latency: int = 2
    l2_size: int = 256 * 1024
    l2_line: int = 256
    l2_ways: int = 16
    l2_latency: int = 10
    shared_l2: bool = False       # False = per-core private L2s

    # Memory system.  Table 1 lists 4 banks/device with multiple devices
    # per DIMM; we expose the controller-visible bank parallelism.
    num_mcs: int = 4
    mc_placement: str = "P1"      # P1 corners / P2 edge midpoints / P3 diag
    banks_per_mc: int = 16
    row_buffer_bytes: int = 4096  # = page size (Table 1)
    row_hit_cycles: int = 24      # CAS + transfer, DDR3-1600-derived
    row_miss_cycles: int = 72     # RP + RCD + CAS + transfer
    channel_cycles: int = 4       # data-bus occupancy per line transfer
    page_size: int = 4096
    # FR-FCFS approximation: a row revisited while still inside the
    # scheduling window would have been batched with its predecessors, so
    # it is charged row-hit latency (see repro.memsys.controller).
    frfcfs_window_rows: int = 8
    frfcfs_window_cycles: int = 1200

    # Address interleaving across MCs (Section 3 / Figure 5)
    interleaving: str = PAGE_INTERLEAVING

    # Control-message size in bytes (request w/o data)
    control_bytes: int = 16
    # Critical-word-first delivery: the consumer restarts once this many
    # flits have arrived; the remaining flits still occupy link bandwidth
    # but are off the critical path.
    critical_word_flits: int = 2

    # Coherence: when True, writes that find remote sharers trigger
    # invalidations (directory -> sharers, with acks) and drop the stale
    # copies.  Off by default: the evaluated kernels are data-parallel
    # with disjoint write sets, and the paper's comparison holds the
    # protocol fixed between baseline and optimized runs either way.
    model_writes: bool = False

    # Per-nest phase accounting (adds bookkeeping to the hot loop;
    # off by default).
    track_phases: bool = False

    # Execution model
    threads_per_core: int = 1
    # Fraction of a non-L1-hit access's latency the core hides behind
    # independent work (the two-issue SPARC pipeline plus write buffering
    # and limited memory-level parallelism).  The thread's clock advances
    # by (1 - miss_overlap) of the measured latency; the reported
    # network/memory latencies themselves are unaffected.
    miss_overlap: float = 0.0
    # Per-application memory-level parallelism: applications whose bursts
    # keep several misses in flight (fma3d, minighost -- Figure 18)
    # effectively hide part of each miss behind the others.  The runner
    # adds ``mlp_overlap_step`` of overlap per unit of the program's
    # profiled ``mlp_demand`` above ``mlp_overlap_floor``, capped at
    # ``mlp_overlap_cap``.  This is what lets mapping M2's extra banks
    # absorb those applications' bursts (Figure 17).
    mlp_overlap_step: float = 0.06
    mlp_overlap_floor: float = 2.0
    mlp_overlap_cap: float = 0.35
    # Per-thread start offset (cycles): threads never leave the fork
    # barrier in the same cycle; staggered starts prevent artificial
    # lockstep convoys of misses that no real system exhibits.
    thread_stagger: int = 137
    # Layout-transformation runtime overhead (div/mod, strip-mining,
    # padding): the paper measured ~4% of execution time (Section 6.1).
    transform_overhead: float = 0.04

    def __post_init__(self) -> None:
        if self.interleaving not in (PAGE_INTERLEAVING,
                                     CACHE_LINE_INTERLEAVING):
            raise ValueError(f"unknown interleaving {self.interleaving!r}")
        if self.l2_line % self.l1_line:
            raise ValueError("L2 line must be a multiple of the L1 line")
        if self.page_size % self.l2_line:
            raise ValueError("page must be a multiple of the L2 line")

    # -- derived ----------------------------------------------------------
    @property
    def num_cores(self) -> int:
        return self.mesh_width * self.mesh_height

    @property
    def interleave_unit(self) -> int:
        """Bytes per MC-interleave unit: L2 line or page (Table 1)."""
        if self.interleaving == CACHE_LINE_INTERLEAVING:
            return self.l2_line
        return self.page_size

    @property
    def data_flits(self) -> int:
        """Flits of an L2-line data message on the 16 B links."""
        return max(1, self.l2_line // self.link_bytes)

    @property
    def control_flits(self) -> int:
        return max(1, self.control_bytes // self.link_bytes)

    def mesh(self) -> Mesh:
        return Mesh(self.mesh_width, self.mesh_height)

    def mc_nodes(self, mesh: Optional[Mesh] = None) -> List[int]:
        mesh = mesh or self.mesh()
        return place_mcs(mesh, self.mc_placement, self.num_mcs)

    def default_mapping(self, mesh: Optional[Mesh] = None) -> L2ToMCMapping:
        """The default L2-to-MC mapping (M1, Figure 8a), shared by every
        caller on the same machine shape."""
        width, height = ((mesh.width, mesh.height) if mesh is not None
                         else (self.mesh_width, self.mesh_height))
        return machine_mapping(width, height, self.mc_placement,
                               self.num_mcs, "M1")

    def effective_overlap(self, mlp_demand: float) -> float:
        """Miss overlap for an application with the given MLP demand."""
        extra = max(0.0, mlp_demand - self.mlp_overlap_floor) \
            * self.mlp_overlap_step
        return min(self.mlp_overlap_cap, self.miss_overlap + extra)

    def with_(self, **kwargs) -> "MachineConfig":
        """Copy with replacements (convenience over dataclasses.replace)."""
        return replace(self, **kwargs)

    # -- factories ---------------------------------------------------------
    @classmethod
    def paper_default(cls) -> "MachineConfig":
        """Table 1 verbatim: full-size caches, page interleaving, M1."""
        return cls()

    @classmethod
    def scaled_default(cls, scale: int = 16) -> "MachineConfig":
        """Table 1 shrunk by ``scale`` in cache capacity.

        Line sizes, latencies, topology and MC organization are kept; only
        capacities shrink, so miss *ratios* are preserved when workloads
        shrink their footprints by the same factor.
        """
        return cls(
            l1_size=max(cls.l1_line * cls.l1_ways,
                        (16 * 1024) // scale),
            l2_size=max(cls.l2_line * cls.l2_ways,
                        (256 * 1024) // scale),
        )
