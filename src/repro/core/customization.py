"""Layout customization (Section 5.3): matching the desired Data-to-MC map.

The Data-to-Core step isolates each thread's data; customization then
rearranges the isolated slabs so that the hardware's fixed Data-to-MC
interleaving sends each element's off-chip requests to the controller(s)
the user's L2-to-MC mapping assigned to the thread's cluster.

* :func:`private_l2_layout` builds the :class:`ClusteredLayout` for
  per-core private L2s (local L2 issues the off-chip request, so the
  desired Data-to-MC mapping follows directly from Data-to-Core +
  L2-to-MC).
* :func:`shared_l2_layout` builds the :class:`SharedL2Layout` for SNUCA
  shared L2s, where the *home bank* issues off-chip requests and
  Eqs. (4)/(5) make simultaneous on-chip and off-chip localization
  impossible in general; on-chip wins and the delta-skip relaxation gets
  the MC as close as possible (desired or adjacent).
* :func:`assign_shared_slots` is that delta-skip, lifted from per-element
  address arithmetic to the slot level: phase 1 keeps every core whose
  own slot already maps to an acceptable MC (no displacement cascades);
  phase 2 matches the leftover cores to the leftover slots by minimum
  distance (the paper's delta counter, made global so one skip cannot
  shift every subsequent element).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set

from repro.arch.assignment import linear_sum_assignment
from repro.arch.clustering import L2ToMCMapping
from repro.core import linalg
from repro.core.layout import ClusteredLayout, SharedL2Layout
from repro.program.ir import ArrayDecl


def thread_clusters(mapping: L2ToMCMapping, num_threads: int) -> List[int]:
    """Cluster of each thread; threads beyond the core count wrap around
    (``threads_per_core > 1`` pins thread ``t`` to core ``t % cores``)."""
    cores = mapping.num_threads
    return [mapping.cluster_of_core(mapping.core_order[t % cores])
            for t in range(num_threads)]


def private_l2_layout(array: ArrayDecl, u: Optional[linalg.Matrix],
                      mapping: L2ToMCMapping, unit_bytes: int,
                      num_threads: Optional[int] = None,
                      partition_anchor: int = 0) -> ClusteredLayout:
    """The customized layout for private L2s (Algorithm 1 lines 38-42).

    ``unit_bytes`` is the hardware interleave unit -- the L2 line for
    cache-line interleaving or the page for page interleaving (Table 1's
    "Interleaving Unit").  The unit must be a multiple of the element
    size so lines hold whole elements.
    """
    if unit_bytes % array.element_size:
        raise ValueError(
            f"interleave unit {unit_bytes} not a multiple of element size "
            f"{array.element_size}")
    threads = num_threads if num_threads is not None else mapping.num_threads
    return ClusteredLayout(
        array=array,
        u=u,
        num_threads=threads,
        unit_elems=unit_bytes // array.element_size,
        thread_cluster=thread_clusters(mapping, threads),
        cluster_mcs=[c.mc_indices for c in mapping.clusters],
        num_mcs=mapping.num_mcs,
        partition_anchor=partition_anchor)


def allowed_mcs(mapping: L2ToMCMapping, core: int,
                adjacency: Optional[int] = None) -> Set[int]:
    """MCs acceptable for a core's data: the desired MC plus adjacent ones.

    ``adjacency`` is the mesh-distance threshold between controller nodes
    under which two MCs count as adjacent; the default (one mesh edge
    length) makes corner MCs on a shared edge adjacent but diagonally
    opposite ones not -- the complement is the set ``C`` the paper's
    delta counter skips over.
    """
    mesh = mapping.mesh
    if adjacency is None:
        adjacency = max(mesh.width, mesh.height) - 1
    desired = mapping.desired_mc_index(core)
    desired_node = mapping.mc_nodes[desired]
    return {j for j, node in enumerate(mapping.mc_nodes)
            if j == desired or mesh.distance(node, desired_node) <= adjacency}


def assign_shared_slots(mapping: L2ToMCMapping, num_threads: int,
                        adjacency: Optional[int] = None) -> List[int]:
    """Home-bank slots per thread for the shared-L2 layout.

    Thread ``t`` wants slot = its own core (perfect on-chip locality).
    If the MC induced by that slot (``slot % N'``) is not in the allowed
    set for the core, walk forward to the next free slot whose MC is --
    the delta-skip of Section 5.3, lifted from per-element address
    arithmetic to the slot level (every element of the thread shifts by
    the same delta, preserving injectivity).  When more threads than
    cores exist, co-located threads share their core's slot (the layout
    interleaves their line groups).
    """
    cores = mapping.num_threads
    num_banks = mapping.mesh.num_nodes
    num_mcs = mapping.num_mcs
    mesh = mapping.mesh
    allowed_of = {core: allowed_mcs(mapping, core, adjacency)
                  for core in mapping.core_order}

    # Phase 1: a core whose own slot already maps to an acceptable MC
    # keeps it -- perfect on-chip locality for those cores, and no
    # displacement cascades.
    slot_of_core: dict = {}
    stuck: List[int] = []
    for core in sorted(mapping.core_order):
        if (core % num_mcs) in allowed_of[core]:
            slot_of_core[core] = core
        else:
            stuck.append(core)

    # Phase 2: the stuck cores split the leftover slots (each other's own
    # slots) by minimum-distance matching, never taking a slot whose MC
    # is disallowed for them.  This bounds the home-bank displacement to
    # a few hops for a small minority of cores instead of shifting every
    # core on the chip.
    if stuck:
        free = sorted(set(range(num_banks)) - set(slot_of_core.values()))
        big = 10 ** 6
        cost = [[mesh.distance(core, slot)
                 if (slot % num_mcs) in allowed_of[core] else big
                 for slot in free] for core in stuck]
        rows, cols = linear_sum_assignment(cost)
        assigned_cols: Set[int] = set()
        for i, j in zip(rows, cols):
            if cost[i][j] >= big:
                j = min((c for c in range(len(free))
                         if c not in assigned_cols),
                        key=lambda c: cost[i][c])
            slot_of_core[stuck[i]] = free[j]
            assigned_cols.add(j)
    return [slot_of_core[mapping.core_order[t % cores]]
            for t in range(num_threads)]


def shared_l2_layout(array: ArrayDecl, u: Optional[linalg.Matrix],
                     mapping: L2ToMCMapping, unit_bytes: int,
                     num_threads: Optional[int] = None,
                     adjacency: Optional[int] = None,
                     localize_offchip: bool = True,
                     partition_anchor: int = 0) -> SharedL2Layout:
    """The customized layout for a shared SNUCA L2 (lines 43-56).

    ``unit_bytes`` is the L2 line size (home banks interleave at line
    granularity, Eq. 4).  ``localize_offchip=False`` disables the
    delta-skip and keeps pure on-chip localization (slot = own core) --
    the ablation called out in DESIGN.md.
    """
    if unit_bytes % array.element_size:
        raise ValueError(
            f"interleave unit {unit_bytes} not a multiple of element size "
            f"{array.element_size}")
    threads = num_threads if num_threads is not None else mapping.num_threads
    if localize_offchip:
        slots = assign_shared_slots(mapping, threads, adjacency)
    else:
        cores = mapping.num_threads
        slots = [mapping.core_order[t % cores] for t in range(threads)]
    return SharedL2Layout(
        array=array,
        u=u,
        num_threads=threads,
        unit_elems=unit_bytes // array.element_size,
        thread_slot=slots,
        num_banks=mapping.mesh.num_nodes,
        num_mcs=mapping.num_mcs,
        partition_anchor=partition_anchor)
