"""The centralized L2 tag directory of the private-L2 protocol.

With per-core private L2s (Figure 2a), an L2 miss consults a directory
cached at the memory controller that owns the requested address.  The
directory knows which private L2s hold each line; it either forwards the
request to a sharer (an *on-chip* access: cache-to-cache transfer) or
issues the off-chip request.  We track sharers exactly; coherence
invalidation traffic for writes is not modeled (the evaluated kernels
are read-dominated data-parallel loops, and both the baseline and the
optimized runs omit it identically).

Each tracked line maps to an int bitmask of its sharers (bit ``n`` set
= node ``n`` holds the line), so an update is one dict store and no set
is ever allocated on the miss path.  The fast event loop
(:mod:`repro.sim.fastpath`) updates :attr:`Directory._sharers` inline
with exactly the operations of :meth:`add_sharer` /
:meth:`remove_sharer` / :meth:`find_sharer`.
"""

from __future__ import annotations

from typing import Dict, Optional, Set


class Directory:
    """Exact sharer tracking: line address -> bitmask of L2 node ids."""

    def __init__(self) -> None:
        self._sharers: Dict[int, int] = {}

    def find_sharer(self, line_addr: int, requester: int) -> Optional[int]:
        """Some node other than the requester holding the line, if any.

        Returns the lowest node id (deterministic); the simulator then
        charges the forward + cache-to-cache transfer over the NoC.
        """
        others = self._sharers.get(line_addr, 0) & ~(1 << requester)
        if not others:
            return None
        return (others & -others).bit_length() - 1

    def add_sharer(self, line_addr: int, node: int) -> None:
        sharers = self._sharers
        sharers[line_addr] = sharers.get(line_addr, 0) | (1 << node)

    def remove_sharer(self, line_addr: int, node: int) -> None:
        sharers = self._sharers
        mask = sharers.get(line_addr)
        if mask is not None:
            mask &= ~(1 << node)
            if mask:
                sharers[line_addr] = mask
            else:
                del sharers[line_addr]

    def sharers_of(self, line_addr: int) -> Set[int]:
        mask = self._sharers.get(line_addr, 0)
        nodes = set()
        while mask:
            low = mask & -mask
            nodes.add(low.bit_length() - 1)
            mask ^= low
        return nodes

    @property
    def tracked_lines(self) -> int:
        return len(self._sharers)
