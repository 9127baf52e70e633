"""Cross-layer invariant sanitizer for the reproduction.

``repro.validate`` holds a registry of cheap, composable invariant
checkers spanning every layer of the pipeline -- compiler (unimodular
transforms, layout bijectivity, Table-2 weight accounting), OS model
(page-table single mapping, MC-aware placement accounting), NoC
(minimal-route and monotone-link invariants via the inline
:class:`NetworkAudit`), memory system (per-controller conservation
reconciled with injected faults), and metrics (access and latency
accounting identities).

Runs opt in through ``RunSpec.validate`` (``"off"`` | ``"metrics"`` |
``"strict"``); violations surface as structured
:class:`~repro.errors.ValidationError`.  The companion modules
:mod:`repro.validate.doctor` (installation/config/workload self-check
behind ``repro-cli doctor``) and :mod:`repro.validate.fuzz` (frontend
never-crash fuzz harness behind ``repro-cli fuzz``) are *not* imported
here: doctor pulls in the simulator, which itself imports this package.

A lazy facade (:mod:`repro._lazy`): nothing loads until a name is
used, and the first use also imports :mod:`repro.validate.checkers`,
whose decorators fill the registry.  Runs with ``validate="off"``
therefore never load the checkers.
"""

from repro._lazy import lazy_exports

__all__ = [
    "CHECKERS",
    "Checker",
    "LAYERS",
    "NetworkAudit",
    "RunAudit",
    "VALIDATE_LEVELS",
    "ValidationReport",
    "Violation",
    "checkers_for",
    "register",
    "validate_run",
]

_getattr, __dir__ = lazy_exports(__name__, {
    "repro.validate.audit": ("NetworkAudit", "RunAudit"),
    "repro.validate.registry": ("CHECKERS", "Checker", "LAYERS",
                                "VALIDATE_LEVELS", "ValidationReport",
                                "Violation", "checkers_for", "register",
                                "validate_run"),
})


def __getattr__(name: str) -> object:
    value = _getattr(name)
    # Importing the checkers module populates the registry.
    import repro.validate.checkers  # noqa: F401  (registration side-effect)
    return value
