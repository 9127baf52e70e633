"""The design-space candidates: what the placement search explores.

A :class:`Candidate` is one hardware configuration choice along the
three axes the paper studies (and :mod:`repro.arch.placement` /
:mod:`repro.arch.clustering` / the interleaving modes implement):

* **MC placement** -- a named preset (``P1``/``P2``/``P3``) or an
  explicit ``"custom:n0,n1,..."`` node list,
* **L2-to-MC mapping** -- a preset from
  :data:`repro.sim.executor.MAPPING_PRESETS` (``M1``/``M2``/
  ``voronoi``), resolved against the candidate's placement, and
* **interleaving** -- ``cache_line`` or ``page``.

A :class:`CandidateSpace` enumerates, sizes, samples, and perturbs
candidates over a configurable placement pool:

* ``"named"`` -- just the paper's P1/P2/P3,
* ``"perimeter"`` -- every combination of ``num_mcs`` perimeter nodes
  (where real designs put controllers: pins route outward),
* ``"all"`` -- every combination of ``num_mcs`` mesh nodes,

or an explicit list of placement strings.  Enumeration order is
deterministic (placement pools in lexicographic combination order,
then mapping, then interleaving), so exhaustive searches are
reproducible by construction; ``random``/``neighbor`` draw only from a
caller-provided :class:`random.Random`, so annealed searches are
reproducible by seed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.arch import placement as placements_mod
from repro.arch.clustering import (L2ToMCMapping, MAPPING_PRESETS,
                                   resolve_mapping)
from repro.arch.config import MachineConfig
from repro.arch.placement import CUSTOM_PREFIX, custom_placement

__all__ = ["Candidate", "CandidateSpace", "INTERLEAVINGS",
           "PLACEMENT_POOLS"]

#: Interleaving modes a candidate may choose between.
INTERLEAVINGS = ("cache_line", "page")

#: Named placement-pool selectors understood by :class:`CandidateSpace`.
PLACEMENT_POOLS = ("named", "perimeter", "all")


@dataclass(frozen=True, order=True)
class Candidate:
    """One point of the design space (hashable, totally ordered --
    the deterministic tie-break key everywhere)."""

    placement: str
    mapping: str
    interleaving: str

    def label(self) -> str:
        return f"{self.placement}/{self.mapping}/{self.interleaving}"

    def config(self, base: MachineConfig) -> MachineConfig:
        """The machine this candidate describes, on top of ``base``."""
        return base.with_(mc_placement=self.placement,
                          interleaving=self.interleaving)

    def resolve_mapping(self, base: MachineConfig) -> L2ToMCMapping:
        """The candidate's L2-to-MC mapping preset, resolved against
        its placement (custom placements resolve through the same
        preset machinery the sweeps use)."""
        return resolve_mapping(self.config(base), self.mapping)


def _perimeter_nodes(mesh) -> List[int]:
    """Perimeter nodes in node-id order."""
    return sorted(node for node in range(mesh.num_nodes)
                  if mesh.coords(node)[0] in (0, mesh.width - 1)
                  or mesh.coords(node)[1] in (0, mesh.height - 1))


class CandidateSpace:
    """Deterministic enumeration + seeded sampling over candidates.

    ``placements`` is a pool selector from :data:`PLACEMENT_POOLS` or
    an explicit sequence of placement strings.  ``mappings`` defaults
    to every preset valid for the machine (M2 needs an even MC
    count).  The space is never materialized: ``enumerate`` streams,
    ``size`` counts arithmetically, and ``random``/``neighbor`` sample
    without listing the pool.
    """

    def __init__(self, config: MachineConfig,
                 placements: object = "named",
                 mappings: Optional[Sequence[str]] = None,
                 interleavings: Sequence[str] = INTERLEAVINGS):
        self.config = config
        self.mesh = config.mesh()
        if mappings is None:
            mappings = [m for m in MAPPING_PRESETS
                        if m != "M2" or config.num_mcs % 2 == 0]
        for name in mappings:
            if name not in MAPPING_PRESETS:
                raise ValueError(
                    f"unknown mapping preset {name!r}; valid presets: "
                    f"{', '.join(MAPPING_PRESETS)}")
        for mode in interleavings:
            if mode not in INTERLEAVINGS:
                raise ValueError(
                    f"unknown interleaving {mode!r}; valid modes: "
                    f"{', '.join(INTERLEAVINGS)}")
        self.mappings: Tuple[str, ...] = tuple(mappings)
        self.interleavings: Tuple[str, ...] = tuple(interleavings)
        if isinstance(placements, str):
            if placements not in PLACEMENT_POOLS:
                raise ValueError(
                    f"unknown placement pool {placements!r}; pools: "
                    f"{', '.join(PLACEMENT_POOLS)} (or pass an "
                    f"explicit list of placement strings)")
            self.pool = placements
            self._explicit: Optional[Tuple[str, ...]] = None
            if placements == "named":
                self._explicit = tuple(sorted(placements_mod.PLACEMENTS))
            elif placements == "perimeter":
                self._nodes = _perimeter_nodes(self.mesh)
            else:
                self._nodes = list(range(self.mesh.num_nodes))
        else:
            self.pool = "explicit"
            self._explicit = tuple(placements)
            if not self._explicit:
                raise ValueError("explicit placement list is empty")
        if self._explicit is None and \
                config.num_mcs > len(self._nodes):
            raise ValueError(
                f"cannot place {config.num_mcs} MCs over a pool of "
                f"{len(self._nodes)} nodes")

    # -- enumeration -----------------------------------------------------

    def placements(self) -> Iterator[str]:
        """Placement strings in deterministic order."""
        if self._explicit is not None:
            yield from self._explicit
        else:
            for combo in itertools.combinations(self._nodes,
                                                self.config.num_mcs):
                yield custom_placement(list(combo))

    def enumerate(self) -> Iterator[Candidate]:
        """All candidates: placement-major, then mapping, then
        interleaving -- the canonical exhaustive order."""
        for placement in self.placements():
            for mapping in self.mappings:
                for interleaving in self.interleavings:
                    yield Candidate(placement, mapping, interleaving)

    def num_placements(self) -> int:
        if self._explicit is not None:
            return len(self._explicit)
        return math.comb(len(self._nodes), self.config.num_mcs)

    def size(self) -> int:
        return (self.num_placements() * len(self.mappings)
                * len(self.interleavings))

    def __contains__(self, candidate: Candidate) -> bool:
        if candidate.mapping not in self.mappings or \
                candidate.interleaving not in self.interleavings:
            return False
        if self._explicit is not None:
            return candidate.placement in self._explicit
        if not candidate.placement.startswith(CUSTOM_PREFIX):
            return False
        nodes = placements_mod.parse_custom(
            self.mesh, candidate.placement, self.config.num_mcs)
        allowed = set(self._nodes)
        return (all(n in allowed for n in nodes)
                and nodes == sorted(nodes))

    # -- seeded sampling -------------------------------------------------

    def _random_placement(self, rng) -> str:
        if self._explicit is not None:
            return rng.choice(self._explicit)
        picks = sorted(rng.sample(self._nodes, self.config.num_mcs))
        return custom_placement(picks)

    def random(self, rng) -> Candidate:
        """A uniform draw from the space (``rng`` drives everything,
        so equal seeds give equal walks)."""
        return Candidate(self._random_placement(rng),
                         rng.choice(self.mappings),
                         rng.choice(self.interleavings))

    def neighbor(self, candidate: Candidate, rng) -> Candidate:
        """A single-axis perturbation: move one MC (or re-draw a named
        placement), or flip the mapping, or flip the interleaving --
        whichever mutable axis the rng picks."""
        axes = ["placement"]
        if len(self.mappings) > 1:
            axes.append("mapping")
        if len(self.interleavings) > 1:
            axes.append("interleaving")
        axis = rng.choice(axes)
        placement = candidate.placement
        mapping = candidate.mapping
        interleaving = candidate.interleaving
        if axis == "placement":
            if self._explicit is not None:
                options = [p for p in self._explicit if p != placement]
                if options:
                    placement = rng.choice(options)
            else:
                nodes = placements_mod.parse_custom(
                    self.mesh, placement, self.config.num_mcs)
                free = [n for n in self._nodes if n not in nodes]
                if free:
                    nodes[rng.randrange(len(nodes))] = rng.choice(free)
                    placement = custom_placement(sorted(nodes))
        elif axis == "mapping":
            mapping = rng.choice([m for m in self.mappings
                                  if m != mapping])
        else:
            interleaving = rng.choice(
                [i for i in self.interleavings if i != interleaving])
        return Candidate(placement, mapping, interleaving)
