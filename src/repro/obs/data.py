"""The per-run observability bundle: spans + telemetry + metadata.

:class:`ObsData` is what a run hands back when ``RunSpec.obs`` is not
``"off"``: the tracer's merged spans, the telemetry registry (``full``
level only), and run metadata the exporters want (label, simulated
exec time, fault windows).  It is plain data -- picklable, so parallel
sweep workers return it across process boundaries -- and mergeable, so
a sweep can be profiled as one trace with per-run lanes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

from repro.obs.tracer import SpanRecord

if TYPE_CHECKING:
    from repro.obs.telemetry import TelemetryRegistry

#: Observability levels, in increasing coverage order: ``off`` costs
#: nothing, ``spans`` traces wall-clock phases, ``full`` additionally
#: collects hardware telemetry (per-link occupancy, per-MC series).
OBS_LEVELS = ("off", "spans", "full")


@dataclass
class ObsData:
    """Everything one observed run produced."""

    level: str = "spans"
    label: str = ""
    spans: List[SpanRecord] = field(default_factory=list)
    telemetry: Optional[TelemetryRegistry] = None
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def enabled(self) -> bool:
        return self.level != "off"

    def span_totals(self) -> Dict[str, Dict[str, float]]:
        """Aggregate spans by name: calls, total/mean/max seconds."""
        totals: Dict[str, Dict[str, float]] = {}
        for record in self.spans:
            slot = totals.setdefault(
                record.name, {"calls": 0, "total": 0.0, "max": 0.0})
            slot["calls"] += 1
            slot["total"] += record.duration
            if record.duration > slot["max"]:
                slot["max"] = record.duration
        for slot in totals.values():
            slot["mean"] = slot["total"] / slot["calls"]
        return totals

    @classmethod
    def merged(cls, parts: Iterable["ObsData"],
               label: str = "merged") -> "ObsData":
        """Combine several runs' bundles: spans concatenate (each span
        already carries its run label), telemetry registries fold
        together, and per-run metadata nests under ``meta["runs"]``."""
        parts = [p for p in parts if p is not None]
        out = cls(level=max((p.level for p in parts),
                            key=OBS_LEVELS.index, default="spans"),
                  label=label)
        registries = [p.telemetry for p in parts if p.telemetry]
        if registries:
            from repro.obs.telemetry import TelemetryRegistry
            out.telemetry = TelemetryRegistry()
            for registry in registries:
                out.telemetry.merge(registry)
        runs = []
        for part in parts:
            out.spans.extend(part.spans)
            runs.append({"label": part.label, "level": part.level,
                         **part.meta})
        out.spans.sort(key=lambda r: (r.run, r.start))
        out.meta["runs"] = runs
        return out
