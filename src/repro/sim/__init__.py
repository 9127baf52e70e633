"""Full-system simulation: the experiment runner and metrics.

A lazy facade (:mod:`repro._lazy`): each name below is imported on
first use, so ``from repro.sim.run import ...`` does not pull in the
sweep engines or the multiprogram runner.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Comparison", "RunMetrics", "RunResult", "RunSpec", "Sweep",
    "SweepPoint", "SystemSimulator", "best_point", "to_csv",
    "ThreadStream", "WeightedSpeedupResult", "build_streams",
    "run_multiprogram", "run_optimal_pair", "run_pair", "run_simulation",
    "split_regions",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.sim.metrics": ("Comparison", "RunMetrics"),
    "repro.sim.multiprogram": ("WeightedSpeedupResult", "run_multiprogram",
                               "split_regions"),
    "repro.sim.run": ("RunResult", "RunSpec", "run_optimal_pair",
                      "run_pair", "run_simulation"),
    "repro.sim.sweep": ("Sweep", "SweepPoint", "best_point", "to_csv"),
    "repro.sim.system": ("SystemSimulator", "ThreadStream",
                         "build_streams"),
})
