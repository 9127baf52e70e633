"""L2-to-MC mappings: clusters of cores bound to sets of controllers.

Section 4 of the paper introduces the *L2-to-MC mapping*, a user-provided
input: the cores are partitioned into clusters, each assigned a set of
memory controllers, and all off-chip requests from a cluster's L2s should
be served by that cluster's MCs.  A valid mapping must have (1) equally
sized clusters and (2) equally many MCs per cluster -- both are enforced
here, because the strip-mining/permutation formulas of Section 5.3 rely on
them.

Presets:

* :func:`mapping_m1` -- the default (Figure 8a): one cluster per MC, each
  cluster a contiguous block of the mesh, matched to the nearest MC
  (maximum locality, minimum memory-level parallelism per cluster).
* :func:`mapping_m2` -- the alternative (Figure 8b): half as many
  clusters, each twice as large and served by two MCs (trades locality
  for memory-level parallelism).

:func:`resolve_mapping` names the presets (:data:`MAPPING_PRESETS`) for
a whole machine configuration and memoizes them per machine shape, so
every run, sweep point and search candidate on one machine shares one
mapping object (mappings are never mutated after construction).

The mapping also fixes the *thread binding order*: thread ``t`` runs on
``core_order[t]``, cluster by cluster (footnote 5 of the paper -- threads
are pinned so that the order of cores is consistent with the order of
memory controllers).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.arch.assignment import linear_sum_assignment
from repro.arch.placement import place_mcs
from repro.arch.topology import Mesh

MAPPING_PRESETS = ("M1", "M2", "voronoi")


@dataclass(frozen=True)
class Cluster:
    """A set of core nodes served by a set of MCs (by hardware MC index)."""

    cores: Tuple[int, ...]
    mc_indices: Tuple[int, ...]


class L2ToMCMapping:
    """A validated L2-to-MC mapping over a mesh with placed MCs.

    ``mc_nodes[j]`` is the mesh node hosting the MC with hardware index
    ``j`` -- the same index the address-interleaving hardware produces for
    lines/pages with ``(addr / unit) % num_mcs == j``.
    """

    def __init__(self, mesh: Mesh, mc_nodes: Sequence[int],
                 clusters: Sequence[Cluster], name: str = "custom",
                 partial: bool = False):
        self.mesh = mesh
        self.mc_nodes = list(mc_nodes)
        self.clusters = list(clusters)
        self.name = name
        self.partial = partial
        self._validate()
        self._core_to_cluster: Dict[int, int] = {}
        for ci, cluster in enumerate(self.clusters):
            for core in cluster.cores:
                self._core_to_cluster[core] = ci
        # Thread binding: cluster-major, cores within a cluster in the
        # order the cluster lists them.
        self.core_order: List[int] = [
            core for cluster in self.clusters for core in cluster.cores]

    def _validate(self) -> None:
        if not self.clusters:
            raise ValueError("mapping needs at least one cluster")
        sizes = {len(c.cores) for c in self.clusters}
        if len(sizes) != 1:
            raise ValueError(
                f"clusters must have equal core counts, got {sorted(sizes)}")
        mc_counts = {len(c.mc_indices) for c in self.clusters}
        if len(mc_counts) != 1:
            raise ValueError(
                f"clusters must have equal MC counts, got "
                f"{sorted(mc_counts)}")
        all_cores = [core for c in self.clusters for core in c.cores]
        if len(set(all_cores)) != len(all_cores):
            raise ValueError("a core appears in more than one cluster")
        all_mcs = [m for c in self.clusters for m in c.mc_indices]
        if len(set(all_mcs)) != len(all_mcs):
            raise ValueError("an MC is assigned to more than one cluster")
        if any(not 0 <= m < len(self.mc_nodes) for m in all_mcs):
            raise ValueError("MC index out of range")
        if not self.partial:
            if set(all_cores) != set(range(self.mesh.num_nodes)):
                raise ValueError(
                    "clusters must cover every mesh node exactly")
            if set(all_mcs) != set(range(len(self.mc_nodes))):
                raise ValueError("clusters must cover every MC exactly")
        elif not set(all_cores) <= set(range(self.mesh.num_nodes)):
            raise ValueError("cluster cores outside the mesh")

    # -- shape ------------------------------------------------------------
    @property
    def num_clusters(self) -> int:
        return len(self.clusters)

    @property
    def cores_per_cluster(self) -> int:
        return len(self.clusters[0].cores)

    @property
    def mcs_per_cluster(self) -> int:
        """``k`` in the customization formulas of Section 5.3."""
        return len(self.clusters[0].mc_indices)

    @property
    def num_mcs(self) -> int:
        return len(self.mc_nodes)

    @property
    def num_threads(self) -> int:
        return len(self.core_order)

    # -- lookups ----------------------------------------------------------
    def cluster_of_core(self, core: int) -> int:
        return self._core_to_cluster[core]

    def cluster_of_thread(self, thread: int) -> int:
        return self.cluster_of_core(self.core_order[thread])

    def core_of_thread(self, thread: int) -> int:
        return self.core_order[thread]

    def mcs_of_cluster(self, cluster: int) -> Tuple[int, ...]:
        return self.clusters[cluster].mc_indices

    def mc_nodes_of_cluster(self, cluster: int) -> List[int]:
        return [self.mc_nodes[j] for j in self.clusters[cluster].mc_indices]

    def desired_mc_index(self, core: int) -> int:
        """The cluster MC nearest to ``core`` (hardware index)."""
        cluster = self.cluster_of_core(core)
        indices = self.clusters[cluster].mc_indices
        return min(indices,
                   key=lambda j: (self.mesh.distance(core,
                                                     self.mc_nodes[j]), j))

    def avg_distance_to_mc(self) -> float:
        """Mean core-to-assigned-MC distance: the locality half of the
        locality-vs-MLP tradeoff the mapping-selection analysis weighs."""
        total = 0.0
        count = 0
        for cluster in self.clusters:
            nodes = [self.mc_nodes[j] for j in cluster.mc_indices]
            for core in cluster.cores:
                total += sum(self.mesh.distance(core, n)
                             for n in nodes) / len(nodes)
                count += 1
        return total / count

    def __repr__(self) -> str:
        return (f"L2ToMCMapping({self.name}: {self.num_clusters} clusters x "
                f"{self.cores_per_cluster} cores, k={self.mcs_per_cluster})")


def _cluster_core_list(mesh: Mesh, x0: int, y0: int, w: int, h: int
                       ) -> Tuple[int, ...]:
    """Cores of a rectangular cluster, column-major (y fastest).

    Column-major inside the cluster matches the paper's ``n_y``-fastest
    convention in the ``R(r_v)`` formula; any fixed order would do as long
    as thread binding follows the same one.
    """
    return tuple(mesh.node_at(x, y)
                 for x in range(x0, x0 + w)
                 for y in range(y0, y0 + h))


def grid_shape_for(mesh: Mesh, num_clusters: int) -> Tuple[int, int]:
    """Choose a ``(cx, cy)`` grid of clusters that tiles the mesh evenly.

    Picks the factorization of ``num_clusters`` with cluster tiles as
    close to square as possible among those that divide the mesh.
    """
    best = None
    for cx in range(1, num_clusters + 1):
        if num_clusters % cx:
            continue
        cy = num_clusters // cx
        if mesh.width % cx or mesh.height % cy:
            continue
        w, h = mesh.width // cx, mesh.height // cy
        score = abs(w - h)
        if best is None or score < best[0]:
            best = (score, cx, cy)
    if best is None:
        raise ValueError(
            f"cannot tile {mesh} with {num_clusters} equal clusters")
    return best[1], best[2]


def _match_clusters_to_mcs(mesh: Mesh, centroids: List[Tuple[float, float]],
                           mc_nodes: Sequence[int], k: int
                           ) -> List[Tuple[int, ...]]:
    """Assign each cluster ``k`` MCs minimizing total centroid distance.

    Exact assignment (:func:`repro.arch.assignment.linear_sum_assignment`)
    on a cost matrix with one column per MC and one row per cluster --
    for k > 1 each cluster row is replicated k times.
    """
    num_clusters = len(centroids)
    slots = [ci for ci in range(num_clusters) for _ in range(k)]
    mc_coords = [mesh.coords(node) for node in mc_nodes]
    cost = [[abs(cx - mx) + abs(cy - my) for mx, my in mc_coords]
            for cx, cy in (centroids[ci] for ci in slots)]
    rows, cols = linear_sum_assignment(cost)
    assigned: List[List[int]] = [[] for _ in range(num_clusters)]
    for row, col in zip(rows, cols):
        assigned[slots[row]].append(col)
    return [tuple(sorted(a)) for a in assigned]


def grid_mapping(mesh: Mesh, mc_nodes: Sequence[int], num_clusters: int,
                 name: str = "grid") -> L2ToMCMapping:
    """A rectangular-grid clustering with nearest-MC matching.

    Each cluster receives ``num_mcs / num_clusters`` controllers; raises
    if the division is not exact (the paper's validity constraint).
    """
    if len(mc_nodes) % num_clusters:
        raise ValueError(
            f"{len(mc_nodes)} MCs cannot be split evenly over "
            f"{num_clusters} clusters")
    k = len(mc_nodes) // num_clusters
    cx, cy = grid_shape_for(mesh, num_clusters)
    w, h = mesh.width // cx, mesh.height // cy
    cores: List[Tuple[int, ...]] = []
    centroids: List[Tuple[float, float]] = []
    for gy in range(cy):
        for gx in range(cx):
            cores.append(_cluster_core_list(mesh, gx * w, gy * h, w, h))
            centroids.append((gx * w + (w - 1) / 2, gy * h + (h - 1) / 2))
    mc_sets = _match_clusters_to_mcs(mesh, centroids, mc_nodes, k)
    clusters = [Cluster(c, m) for c, m in zip(cores, mc_sets)]
    return L2ToMCMapping(mesh, mc_nodes, clusters, name=name)


def mapping_m1(mesh: Mesh, mc_nodes: Sequence[int]) -> L2ToMCMapping:
    """M1 (Figure 8a): one cluster per MC, nearest-MC matched."""
    return grid_mapping(mesh, mc_nodes, len(mc_nodes), name="M1")


def mapping_m2(mesh: Mesh, mc_nodes: Sequence[int]) -> L2ToMCMapping:
    """M2 (Figure 8b): half as many clusters, two MCs per cluster."""
    if len(mc_nodes) % 2:
        raise ValueError("M2 needs an even MC count")
    return grid_mapping(mesh, mc_nodes, len(mc_nodes) // 2, name="M2")


def balanced_mapping(mesh: Mesh, mc_nodes: Sequence[int],
                     name: str = "voronoi") -> L2ToMCMapping:
    """Balanced-Voronoi clustering: one equal-size cluster per MC.

    Rectangular grid clusters fit corner controllers, but placements
    like P2 (edge midpoints) put each controller on the *border* of a
    grid quadrant, inflating every core's distance.  This mapping
    instead assigns each core to a controller by a minimum-total-
    distance balanced assignment (Hungarian over cores x cluster
    slots), yielding the capacity-constrained Voronoi cells of the
    controllers -- diamonds for P2, bands for P3.
    """
    num_mcs = len(mc_nodes)
    num_nodes = mesh.num_nodes
    if num_nodes % num_mcs:
        raise ValueError(
            f"{num_nodes} cores cannot split evenly over {num_mcs} MCs")
    per_cluster = num_nodes // num_mcs
    slots = [mc for mc in range(num_mcs) for _ in range(per_cluster)]
    mc_coords = [mesh.coords(node) for node in mc_nodes]
    cost = []
    for node in range(num_nodes):
        x, y = mesh.coords(node)
        to_mc = [abs(x - mx) + abs(y - my) for mx, my in mc_coords]
        cost.append([to_mc[mc] for mc in slots])
    rows, cols = linear_sum_assignment(cost)
    members: List[List[int]] = [[] for _ in range(num_mcs)]
    for node, col in zip(rows, cols):
        members[slots[col]].append(node)
    clusters = [Cluster(tuple(sorted(m)), (mc,))
                for mc, m in enumerate(members)]
    return L2ToMCMapping(mesh, mc_nodes, clusters, name=name)


def partial_grid_mapping(mesh: Mesh, mc_nodes: Sequence[int],
                         x0: int, y0: int, width: int, height: int,
                         num_clusters: int,
                         name: str = "region") -> L2ToMCMapping:
    """An L2-to-MC mapping for one application's rectangular sub-region.

    Used for multiprogrammed workloads (Figure 25): each co-running
    application owns a rectangle of the mesh and its layout pass targets
    the ``num_clusters`` controllers nearest to it, one per cluster.  The
    mapping is *partial* -- it covers only the region's cores and a
    subset of the MCs -- which the layouts handle by leaving address
    holes at the other controllers' line slots.
    """
    if num_clusters < 1:
        raise ValueError("need at least one cluster")
    # Tile the region into num_clusters rectangles: split the longer side.
    tiles: List[Tuple[int, int, int, int]] = []
    if width >= height and width % num_clusters == 0:
        w = width // num_clusters
        tiles = [(x0 + i * w, y0, w, height) for i in range(num_clusters)]
    elif height % num_clusters == 0:
        h = height // num_clusters
        tiles = [(x0, y0 + i * h, width, h) for i in range(num_clusters)]
    elif width % num_clusters == 0:
        w = width // num_clusters
        tiles = [(x0 + i * w, y0, w, height) for i in range(num_clusters)]
    else:
        raise ValueError(
            f"cannot tile a {width}x{height} region into "
            f"{num_clusters} equal clusters")
    centroids = [(tx + (tw - 1) / 2, ty + (th - 1) / 2)
                 for tx, ty, tw, th in tiles]
    # Pick the num_clusters distinct MCs nearest the region, then match.
    region_cx = x0 + (width - 1) / 2
    region_cy = y0 + (height - 1) / 2
    by_distance = sorted(
        range(len(mc_nodes)),
        key=lambda j: (abs(mesh.coords(mc_nodes[j])[0] - region_cx)
                       + abs(mesh.coords(mc_nodes[j])[1] - region_cy), j))
    chosen = by_distance[:num_clusters]
    assignment = _match_clusters_to_mcs(
        mesh, centroids, [mc_nodes[j] for j in chosen], 1)
    clusters = []
    for (tx, ty, tw, th), local in zip(tiles, assignment):
        mc_index = chosen[local[0]]
        clusters.append(Cluster(_cluster_core_list(mesh, tx, ty, tw, th),
                                (mc_index,)))
    return L2ToMCMapping(mesh, mc_nodes, clusters, name=name, partial=True)


def resolve_mapping(config, name: str = "M1") -> L2ToMCMapping:
    """Mapping presets by name for a
    :class:`~repro.arch.config.MachineConfig`, handling non-corner
    placements (shared by the sweeps, the CLI, the search and the
    benches).

    Raises ``ValueError`` for unknown preset names -- a typo like
    ``m3`` must not silently run the M1 experiment.
    """
    if name not in MAPPING_PRESETS:
        raise ValueError(
            f"unknown mapping preset {name!r}; valid presets: "
            f"{', '.join(MAPPING_PRESETS)}")
    if name == "M1" and config.mc_placement != "P1":
        # Grid clusters only fit corner controllers: M1 elsewhere is
        # the balanced (voronoi) clustering.
        name = "voronoi"
    return machine_mapping(config.mesh_width, config.mesh_height,
                           config.mc_placement, config.num_mcs, name)


@functools.lru_cache(maxsize=256)
def machine_mapping(width: int, height: int, placement: str,
                    num_mcs: int, name: str) -> L2ToMCMapping:
    """The ``name`` mapping -- ``"M1"``/``"M2"`` grid clusters or the
    ``"voronoi"`` balanced clustering (named M1) -- on a ``width x
    height`` mesh with ``num_mcs`` controllers at ``placement``, built
    once per process and shared by every caller on that machine.

    A 16x16 voronoi mapping solves a 256x256 assignment (~0.1 s), so
    the reuse matters across runs, sweep points and search candidates.
    """
    mesh = Mesh(width, height)
    nodes = place_mcs(mesh, placement, num_mcs)
    if name == "M2":
        return mapping_m2(mesh, nodes)
    if name == "voronoi":
        return balanced_mapping(mesh, nodes, name="M1")
    return mapping_m1(mesh, nodes)
