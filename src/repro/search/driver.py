"""The search loop: analytic screen -> frontier -> bit-exact re-sim.

:func:`run_search` ties the subsystem together:

1. **Screen.** Every candidate the mode visits (exhaustive enumeration
   or seeded annealing, :mod:`repro.search.anneal`) is costed with
   ``engine="analytic"`` (:mod:`repro.search.analytic`) -- no event
   simulation, so thousands of candidates are affordable.  The
   compile-time mapping score (:mod:`repro.core.mapping_selection`)
   rides along as the documented tie-break, reusing the paper's
   Section 4 ranking seam.
2. **Frontier.** The best ``top_k`` screened candidates survive
   (:mod:`repro.search.frontier`), deterministically ordered.
3. **Re-simulate.** Each frontier entry is re-run bit-exactly with
   ``engine="fast"`` and the final ranking uses the *simulated*
   cycles; the analytic-vs-simulated error of each survivor is
   reported (and exported as the ``search.error_pct`` histogram).

Determinism: the screen is deterministic given ``(space, mode, seed)``
and the re-simulation is the bit-exact engine, so the same call yields
byte-identical CSV -- the property the CI ``search-smoke`` job pins.

Telemetry (``obs="full"``): ``search.candidates``,
``search.resimulated``, ``search.error_pct`` (histogram),
``search.accept_rate`` (anneal acceptance, percent gauge).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.config import MachineConfig
from repro.core.mapping_selection import score_mapping
from repro.obs.data import OBS_LEVELS, ObsData
from repro.obs.telemetry import TelemetryRegistry
from repro.obs.tracer import Tracer, current_tracer
from repro.program.ir import Program
from repro.search.anneal import anneal
from repro.search.frontier import Frontier
from repro.search.space import Candidate, CandidateSpace, INTERLEAVINGS

__all__ = ["SEARCH_MODES", "SearchResult", "run_search"]

#: ``mode=`` vocabulary: ``auto`` enumerates when the space is small
#: enough (``exhaustive_limit``) and anneals otherwise.
SEARCH_MODES = ("auto", "exhaustive", "anneal")

#: CSV schema of :meth:`SearchResult.to_csv`, in order.
CSV_COLUMNS = ("rank", "placement", "mapping", "interleaving",
               "analytic_cycles", "simulated_cycles", "error_pct",
               "score")


@dataclass
class SearchResult:
    """Everything one search produced, ready for CSV/JSON rendering.

    ``rows`` hold the re-ranked frontier (best first): placement /
    mapping / interleaving, the analytic estimate, the bit-exact
    simulated cycles (``None`` when ``resimulate=False``), the
    analytic-vs-simulated error in percent, and the compile-time
    mapping score used as the tie-break.
    """

    mode: str
    seed: int
    space_size: int
    candidates_evaluated: int
    rows: List[Dict[str, object]] = field(default_factory=list)
    acceptance_rate: Optional[float] = None
    obs: Optional[ObsData] = None

    @property
    def best(self) -> Optional[Dict[str, object]]:
        return self.rows[0] if self.rows else None

    def to_csv(self) -> str:
        """The frontier as canonical CSV (byte-stable for equal
        searches -- the determinism contract the CI smoke pins)."""
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in self.rows:
            writer.writerow(["" if row[c] is None else row[c]
                             for c in CSV_COLUMNS])
        return out.getvalue()

    def to_doc(self) -> Dict[str, object]:
        """A JSON-shaped summary (the CLI's ``--json`` rendering)."""
        return {"mode": self.mode, "seed": self.seed,
                "space_size": self.space_size,
                "candidates_evaluated": self.candidates_evaluated,
                "acceptance_rate": self.acceptance_rate,
                "rows": list(self.rows)}


def run_search(program: Program,
               config: Optional[MachineConfig] = None, *,
               mode: str = "auto",
               placements: object = "named",
               mappings: Optional[Sequence[str]] = None,
               interleavings: Sequence[str] = INTERLEAVINGS,
               top_k: int = 4,
               steps: int = 128,
               seed: int = 0,
               exhaustive_limit: int = 512,
               resimulate: bool = True,
               workers: int = 1,
               obs: str = "off") -> SearchResult:
    """Search the placement/mapping/interleaving space for ``program``.

    ``config`` supplies everything the candidates do not override
    (mesh shape, cache geometry, MC count...); by default the scaled
    paper machine.  See the module docstring for the loop; all
    randomness is seeded, so equal arguments give equal results.

    ``workers`` > 1 fans the frontier re-simulation out through the
    supervised work-stealing executor
    (:func:`repro.sim.executor.execute_runs`); results -- and the CSV
    bytes -- are bit-identical to the serial loop.
    """
    from repro.sim.executor import execute_runs
    from repro.sim.run import RunSpec, run_simulation

    if mode not in SEARCH_MODES:
        raise ValueError(f"unknown search mode {mode!r}; modes: "
                         f"{', '.join(SEARCH_MODES)}")
    if obs not in OBS_LEVELS:
        raise ValueError(f"unknown observability level {obs!r}; "
                         f"levels: {', '.join(OBS_LEVELS)}")
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    if config is None:
        config = MachineConfig.scaled_default()

    space = CandidateSpace(config, placements, mappings, interleavings)
    size = space.size()
    if mode == "auto":
        mode = "exhaustive" if size <= max(exhaustive_limit, 1) \
            else "anneal"

    obs_data: Optional[ObsData] = None
    telemetry: Optional[TelemetryRegistry] = None
    tracer: Optional[Tracer] = None
    if obs != "off":
        telemetry = TelemetryRegistry() if obs == "full" else None
        obs_data = ObsData(level=obs, label=f"search:{program.name}",
                           telemetry=telemetry)
        tracer = Tracer(label=f"search:{program.name}")

    frontier = Frontier(top_k)
    cache: Dict[Candidate, Tuple[float, float]] = {}

    def evaluate(candidate: Candidate) -> Tuple[float, float]:
        cached = cache.get(candidate)
        if cached is not None:
            return cached
        cand_config = candidate.config(config)
        mapping = candidate.resolve_mapping(config)
        spec = RunSpec(program=program, config=cand_config,
                       mapping=mapping, engine="analytic", seed=seed)
        cost = run_simulation(spec).metrics.exec_time
        score = score_mapping(mapping, program, cand_config).total
        cache[candidate] = (cost, score)
        frontier.offer(candidate, cost, score)
        return cost, score

    def screen() -> Optional[float]:
        if mode == "exhaustive":
            for candidate in space.enumerate():
                evaluate(candidate)
            return None
        result = anneal(space, lambda c: evaluate(c)[0], seed=seed,
                        steps=steps)
        return result.acceptance_rate

    def resim() -> List[Dict[str, object]]:
        entries = frontier.entries()
        metrics_by_entry: List[object] = []
        if resimulate and entries:
            specs = []
            for entry in entries:
                cand_config = entry.candidate.config(config)
                mapping = entry.candidate.resolve_mapping(config)
                specs.append(RunSpec(program=program,
                                     config=cand_config,
                                     mapping=mapping, engine="fast",
                                     seed=seed))
            metrics_by_entry = execute_runs(specs, workers=workers)
        rows: List[Dict[str, object]] = []
        for position, entry in enumerate(entries):
            row: Dict[str, object] = {
                "placement": entry.candidate.placement,
                "mapping": entry.candidate.mapping,
                "interleaving": entry.candidate.interleaving,
                "analytic_cycles": entry.cost,
                "simulated_cycles": None,
                "error_pct": None,
                "score": entry.score,
            }
            if resimulate:
                simulated = metrics_by_entry[position].exec_time
                error = (abs(entry.cost - simulated)
                         / max(simulated, 1.0) * 100.0)
                row["simulated_cycles"] = simulated
                row["error_pct"] = error
                if telemetry is not None:
                    telemetry.counter("search.resimulated").inc()
                    telemetry.histogram("search.error_pct"
                                        ).observe(error)
            rows.append(row)
        # Final ranking: bit-exact cycles when available, analytic
        # otherwise; mapping score then the candidate's total order
        # break ties -- same discipline as the frontier itself.
        rows.sort(key=lambda r: (
            r["simulated_cycles"] if r["simulated_cycles"] is not None
            else r["analytic_cycles"],
            r["score"], r["placement"], r["mapping"],
            r["interleaving"]))
        for rank, row in enumerate(rows, start=1):
            row["rank"] = rank
        return rows

    if tracer is not None:
        outer = current_tracer()
        with tracer.activate():
            with tracer.span("search", cat="search", mode=mode,
                             space=size, top_k=top_k, seed=seed):
                with tracer.span("search.screen", cat="search"):
                    acceptance = screen()
                with tracer.span("search.resimulate", cat="search",
                                 entries=len(frontier)):
                    rows = resim()
        obs_data.spans = tracer.spans()
        obs_data.meta["mode"] = mode
        obs_data.meta["space_size"] = size
        if outer is not None:
            outer.absorb(obs_data.spans)
    else:
        acceptance = screen()
        rows = resim()

    if telemetry is not None:
        telemetry.counter("search.candidates").inc(len(cache))
        if acceptance is not None:
            telemetry.gauge("search.accept_rate"
                            ).set(acceptance * 100.0)

    return SearchResult(mode=mode, seed=seed, space_size=size,
                        candidates_evaluated=len(cache), rows=rows,
                        acceptance_rate=acceptance, obs=obs_data)
