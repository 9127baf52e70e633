"""Fault injection & graceful degradation for the simulated fabric.

The paper's argument rests on *where* requests are serviced; this
package lets the reproduction answer the follow-up question -- does the
layout optimization still win when the machine is degraded?  A seeded,
serializable :class:`FaultPlan` declares link failures, bandwidth
degradation windows, controller offline/slowdown windows, dead DRAM
banks and page-pool pressure; the runtime models translate it into the
queries the NoC, controllers and OS model ask during simulation.

A lazy facade (:mod:`repro._lazy`): the runtime models load only when a
run carries a non-empty plan.
"""

from repro._lazy import lazy_exports

__all__ = [
    "BankFault", "ControllerFaultModel", "FaultPlan", "LinkDegradation",
    "LinkFault", "MCFault", "NetworkFaultModel", "PagePressure",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.faults.models": ("ControllerFaultModel", "NetworkFaultModel"),
    "repro.faults.plan": ("BankFault", "FaultPlan", "LinkDegradation",
                          "LinkFault", "MCFault", "PagePressure"),
})
