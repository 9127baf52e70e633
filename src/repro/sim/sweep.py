"""Parameter sweeps: grids of configurations with cached runs.

The paper's evaluation is a family of sweeps (interleavings, mappings,
placements, controller counts, mesh sizes, thread counts).  This module
provides the reusable machinery the benchmark harness is built on, as a
public API: declare axes, get every combination simulated (with
memoization across overlapping sweeps), and export the results as rows
or CSV.

Execution is delegated to the parallel engine in
:mod:`repro.sim.executor`: construct the sweep with ``workers=N`` to
fan grid points out to a process pool (``workers=1``, the default,
runs everything in-process).  Results are bit-identical either way;
memoization and the hardened harness's checkpoints share one canonical
key (:meth:`repro.sim.run.RunSpec.key`), and CSV export goes through
the shared serializer (:mod:`repro.sim.serialize`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.arch.config import MachineConfig
from repro.faults.plan import FaultPlan
from repro.obs.data import ObsData
# Re-exported for backward compatibility: these historically lived here.
from repro.sim.executor import (CONFIG_AXES, MAPPING_PRESETS, PointTask,
                                execute_points, grid_settings, point_key,
                                point_specs, resolve_mapping, validate_axes)
from repro.program.ir import Program
from repro.sim.metrics import Comparison
from repro.sim.serialize import comparison_row, rows_to_csv

__all__ = ["MAPPING_PRESETS", "Sweep", "SweepPoint", "best_point",
           "resolve_mapping", "to_csv"]


@dataclass(frozen=True)
class SweepPoint:
    """One grid point: the axis values plus its comparison."""

    settings: Tuple[Tuple[str, object], ...]
    comparison: Comparison

    def value(self, axis: str):
        return dict(self.settings)[axis]

    def row(self) -> Dict[str, object]:
        return comparison_row(dict(self.settings), self.comparison)


class Sweep:
    """A cartesian sweep over configuration axes for one program.

    Axes are named keyword lists; recognized names map onto
    :class:`MachineConfig` fields (plus ``mapping``).  Every point runs
    a baseline/optimized pair; pairs are memoized under the canonical
    :meth:`RunSpec.key`-derived point key, so overlapping sweeps (or
    repeated axis values) cost nothing extra.

    ``workers`` > 1 executes uncached points on a process pool; the
    memoization cache is filled from the workers' results, so a
    follow-up sweep over a superset of the axes only simulates the new
    points.  An optional ``fault_plan``/``seed`` applies to every
    point, matching :class:`repro.sim.harness.HardenedSweep`.
    """

    CONFIG_AXES = CONFIG_AXES

    def __init__(self, program: Program,
                 base_config: Optional[MachineConfig] = None,
                 workers: int = 1,
                 fault_plan: Optional[FaultPlan] = None,
                 seed: int = 0,
                 validate: str = "off",
                 obs: str = "off",
                 engine: str = "fast",
                 store: Optional[str] = None):
        self.program = program
        self.base_config = base_config or \
            MachineConfig.scaled_default().with_(
                interleaving="cache_line")
        self.workers = workers
        self.fault_plan = fault_plan
        self.seed = seed
        self.validate = validate
        self.obs = obs
        # Engine is deliberately absent from the point key: the fast
        # and reference loops are bit-identical, so cached comparisons
        # are engine-agnostic.  The store rides along the same way:
        # operational context, not identity.
        self.engine = engine
        self.store = store
        self._cache: Dict[str, Comparison] = {}
        self._obs_parts: List[ObsData] = []
        #: Persistent-store record traffic summed over every executed
        #: point (zero when no store is configured).
        self.store_hits = 0
        self.store_misses = 0

    def _key(self, settings: Dict[str, object]) -> str:
        return point_key(point_specs(self.program, self.base_config,
                                     settings, self.fault_plan,
                                     self.seed))

    def _task(self, settings: Dict[str, object]) -> PointTask:
        return PointTask(program=self.program,
                         base_config=self.base_config,
                         settings=tuple(sorted(settings.items())),
                         fault_plan=self.fault_plan, seed=self.seed,
                         validate=self.validate, obs=self.obs,
                         engine=self.engine, store=self.store)

    def run(self, progress: Optional[Callable] = None,
            **axes: Iterable) -> List[SweepPoint]:
        """Run the cartesian product of the given axes.

        ``progress`` (optional) receives each freshly simulated
        :class:`~repro.sim.executor.PointOutcome` as it completes.
        """
        validate_axes(axes)
        grid = grid_settings(axes)
        keys = [self._key(settings) for settings in grid]
        pending = []  # first occurrence of each uncached key, in order
        claimed = set()
        for settings, key in zip(grid, keys):
            if key not in self._cache and key not in claimed:
                claimed.add(key)
                pending.append((key, settings))
        # ``progress`` is only forwarded when set, so test doubles that
        # stand in for execute_points keep their minimal signature.
        extra = {"progress": progress} if progress is not None else {}
        outcomes = execute_points([self._task(s) for _, s in pending],
                                  workers=self.workers, **extra)
        for (key, _), outcome in zip(pending, outcomes):
            self._cache[key] = outcome.comparison
            self._obs_parts.extend(outcome.obs)
            self.store_hits += outcome.store_hits
            self.store_misses += outcome.store_misses
        return [SweepPoint(tuple(sorted(settings.items())),
                           self._cache[key])
                for settings, key in zip(grid, keys)]

    def collected_obs(self) -> Optional[ObsData]:
        """Everything the sweep's runs observed so far, merged into one
        bundle (``None`` when nothing was observed)."""
        if not self._obs_parts:
            return None
        return ObsData.merged(self._obs_parts,
                              label=f"{self.program.name}/sweep")


def to_csv(points: List[SweepPoint]) -> str:
    """Render sweep points as CSV text (axes + the four reductions)."""
    return rows_to_csv([point.row() for point in points])


def best_point(points: List[SweepPoint],
               metric: str = "exec_time") -> SweepPoint:
    """The point with the largest reduction on ``metric``."""
    if not points:
        raise ValueError("empty sweep")
    return max(points, key=lambda p: p.comparison.as_row()[metric])
