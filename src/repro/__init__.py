"""repro: reproduction of "Optimizing Off-Chip Accesses in Multicores".

A compiler-guided data-layout transformation for NoC-based manycores
(Ding et al., PLDI 2015), together with every substrate the evaluation
needs: an affine-program IR, a 2D-mesh NoC simulator with link
contention, private/shared (SNUCA) cache hierarchies, banked DRAM with
FR-FCFS-style controllers, and an OS page-allocation model.

Quick start (the :mod:`repro.api` facade)::

    import repro
    from repro.workloads import build_workload

    program = build_workload("swim")
    comparison = repro.compare(program)
    print(f"execution-time reduction: "
          f"{comparison.exec_time_reduction:.1%}")

    # one fully specified run, and a parallel design-space sweep
    result = repro.run(program=program, optimized=True)
    report = repro.sweep(program, workers=4,
                         mapping=["M1", "M2"], num_mcs=[4, 8])
"""

import sys
import types

from repro._lazy import lazy_exports

__version__ = "1.0.0"

# Public name -> defining module.  Nothing below is imported until it is
# first touched, so ``import repro`` followed by one run loads only the
# layers that run needs (see docs/performance.md, "Cold start").
_EXPORTS = {
    "repro.api": ("CompareRequest", "Experiment", "Result", "RunRequest",
                  "SearchRequest", "SweepRequest", "SweepResult", "api",
                  "compare", "run", "search", "sweep"),
    "repro.arch.clustering": ("Cluster", "L2ToMCMapping", "grid_mapping",
                              "mapping_m1", "mapping_m2",
                              "partial_grid_mapping"),
    "repro.arch.config": ("CACHE_LINE_INTERLEAVING", "MachineConfig",
                          "PAGE_INTERLEAVING"),
    "repro.arch.topology": ("Mesh",),
    "repro.core.pipeline": ("ArrayPlan", "LayoutTransformer",
                            "TransformationResult", "original_layouts"),
    "repro.errors": ("FrontendError", "LayoutError", "ReproError",
                     "RequestError", "SimulationError",
                     "SimulationTimeout", "SolverError", "StoreError",
                     "ValidationError"),
    "repro.faults.plan": ("BankFault", "FaultPlan", "LinkDegradation",
                          "LinkFault", "MCFault", "PagePressure"),
    "repro.frontend.lower": ("compile_kernel",),
    "repro.program.ir": ("AffineRef", "ArrayDecl", "IndexedRef",
                         "LoopNest", "Program", "identity_ref",
                         "shifted_ref"),
    "repro.sim.harness": ("HardenedSweep", "HarnessConfig", "RunOutcome",
                          "SweepReport", "run_hardened"),
    "repro.sim.metrics": ("Comparison", "RunMetrics"),
    "repro.sim.multiprogram": ("WeightedSpeedupResult",
                               "run_multiprogram"),
    "repro.sim.run": ("RunResult", "RunSpec", "run_optimal_pair",
                      "run_pair", "run_simulation"),
    "repro.sim.sweep": ("Sweep",),
    "repro.validate": ("validate",),
}
__all__ = sorted(name for names in _EXPORTS.values() for name in names)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)


class _Package(types.ModuleType):
    """``repro.search`` is the :func:`repro.api.search` function.  The
    import system binds every newly loaded subpackage onto its parent,
    so loading the ``repro.search`` subpackage would otherwise replace
    the function with the package; the binding is dropped instead (the
    package stays reachable through ``sys.modules`` and ``from
    repro.search import ...``)."""

    def __setattr__(self, name: str, value: object) -> None:
        if name == "search" and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
