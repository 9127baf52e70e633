"""``repro-cli doctor``: self-check of the install, configs and models.

The doctor answers "is this checkout healthy enough to trust?" in one
command.  It walks a fixed list of named checks:

* **install** -- the interpreter, numpy, and every ``repro`` subpackage
  import cleanly;
* **configs** -- the paper and scaled machine presets construct and
  self-validate, across every MC placement (P1/P2/P3) and mapping
  preset (M1/M2/voronoi);
* **registry** -- the invariant-checker registry is populated, every
  layer is covered, and level filtering behaves;
* **kernels** -- the bundled example kernels compile through the
  frontend;
* **workloads** -- one small strict-validated smoke simulation per
  application model (the expensive part; skippable with ``smoke=False``
  or narrowable with ``apps=[...]``).

Kept out of ``repro.validate.__init__`` on purpose: this module imports
the simulator, which itself imports ``repro.validate``.
"""

from __future__ import annotations

import platform
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Sequence

from repro.validate import CHECKERS, LAYERS, checkers_for

#: Placements and mapping presets the config check exercises.
PLACEMENTS = ("P1", "P2", "P3")
MAPPING_NAMES = ("M1", "M2", "voronoi")


@dataclass
class DoctorCheck:
    """One named check: pass/fail plus a human-readable detail line."""

    name: str
    ok: bool
    detail: str = ""
    elapsed: float = 0.0


@dataclass
class DoctorReport:
    """Every check the doctor ran, in order."""

    checks: List[DoctorCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    @property
    def failures(self) -> List[DoctorCheck]:
        return [check for check in self.checks if not check.ok]

    def summary(self) -> str:
        passed = sum(1 for check in self.checks if check.ok)
        verdict = "healthy" if self.ok else \
            f"{len(self.failures)} check(s) FAILED"
        return f"doctor: {passed}/{len(self.checks)} checks passed -- " \
               f"{verdict}"


def _run_check(report: DoctorReport, name: str,
               func: Callable[[], str]) -> None:
    """Execute one check; the check passes unless it raises."""
    started = time.perf_counter()
    try:
        detail = func() or ""
        ok = True
    except Exception as exc:
        detail = f"{type(exc).__name__}: {exc}"
        ok = False
    report.checks.append(DoctorCheck(
        name=name, ok=ok, detail=detail,
        elapsed=time.perf_counter() - started))


def _check_install() -> str:
    import numpy
    import repro
    import repro.api
    import repro.faults.plan
    import repro.frontend.lower
    import repro.memsys.controller
    import repro.noc.network
    import repro.osmodel.allocation
    import repro.sim.harness
    import repro.workloads

    return (f"python {platform.python_version()}, "
            f"numpy {numpy.__version__}, "
            f"repro {getattr(repro, '__version__', 'dev')}")


def _check_configs() -> str:
    from repro.arch.config import MachineConfig
    from repro.arch.clustering import resolve_mapping

    built = 0
    for factory in (MachineConfig.paper_default,
                    MachineConfig.scaled_default):
        for placement in PLACEMENTS:
            config = factory().with_(mc_placement=placement)
            config.mesh()                       # topology constructs
            nodes = config.mc_nodes()
            if len(set(nodes)) != config.num_mcs:
                raise ValueError(
                    f"placement {placement} produced duplicate MC "
                    f"nodes {nodes}")
            for name in MAPPING_NAMES:
                mapping = resolve_mapping(config, name)
                if mapping.num_threads != config.num_cores:
                    raise ValueError(
                        f"mapping {name}/{placement} binds "
                        f"{mapping.num_threads} threads on a "
                        f"{config.num_cores}-core mesh")
                built += 1
    return f"{built} placement x mapping combinations construct"


def _check_registry() -> str:
    if not CHECKERS:
        raise ValueError("invariant-checker registry is empty")
    covered = {checker.layer for checker in CHECKERS.values()}
    missing = [layer for layer in LAYERS if layer not in covered]
    if missing:
        raise ValueError(f"no checker covers layer(s): "
                         f"{', '.join(missing)}")
    metrics_only = checkers_for("metrics")
    if not metrics_only or len(metrics_only) >= len(checkers_for(
            "strict")):
        raise ValueError("level filtering is broken: 'metrics' must "
                         "select a non-empty strict subset")
    return (f"{len(CHECKERS)} checkers across "
            f"{len(covered)} layers")


def _check_kernels() -> str:
    from repro.frontend.lower import compile_kernel

    kernels_dir = Path(__file__).resolve().parents[3] / "examples" \
        / "kernels"
    sources = sorted(kernels_dir.glob("*.krn"))
    if not sources:
        return "no bundled example kernels found (skipped)"
    for path in sources:
        program = compile_kernel(path.read_text(), name=path.stem)
        if not program.arrays or not program.nests:
            raise ValueError(f"{path.name} compiled to an empty program")
    return f"{len(sources)} example kernel(s) compile"


def _smoke_one(name: str, scale: float) -> None:
    from repro.arch.config import MachineConfig
    from repro.sim.run import RunSpec, run_simulation
    from repro.workloads import build_workload

    program = build_workload(name, scale=scale)
    config = MachineConfig.scaled_default()
    result = run_simulation(RunSpec(program=program, config=config,
                                    optimized=True, validate="strict"))
    if result.metrics.total_accesses <= 0:
        raise ValueError(f"{name}: smoke run performed no accesses")


def run_doctor(scale: float = 0.25,
               apps: Optional[Sequence[str]] = None,
               smoke: bool = True) -> DoctorReport:
    """Run every doctor check; returns the full report.

    ``scale`` shrinks the smoke-run workloads; ``apps`` limits which
    applications are smoke-run (default: all); ``smoke=False`` skips
    the simulations entirely (install/config/registry checks only).
    """
    report = DoctorReport()
    _run_check(report, "install", _check_install)
    _run_check(report, "configs", _check_configs)
    _run_check(report, "registry", _check_registry)
    _run_check(report, "kernels", _check_kernels)
    if smoke:
        from repro.workloads import SUITE_ORDER

        names = list(apps) if apps else list(SUITE_ORDER)
        for name in names:
            _run_check(report, f"smoke:{name}",
                       lambda name=name: (_smoke_one(name, scale) or
                                          f"strict-validated at scale "
                                          f"{scale:g}"))
    return report
