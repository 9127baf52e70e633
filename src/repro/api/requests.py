"""Typed, versioned experiment requests: the one request vocabulary.

Every way of asking this system for work -- the keyword facade
(:func:`repro.api.run`), the CLI, and the experiment service's wire
protocol (:mod:`repro.serve`) -- constructs the same three dataclasses:

* :class:`RunRequest` -- one simulated execution.
* :class:`SweepRequest` -- a cartesian configuration sweep.
* :class:`CompareRequest` -- the baseline-vs-optimized pair.
* :class:`SearchRequest` -- a design-space placement search
  (analytic screen + bit-exact frontier re-simulation).

Each request has a canonical JSON codec (``to_wire``/``from_wire``,
``to_json``/``from_json``) versioned by ``schema_version``
(:data:`SCHEMA_VERSION`).  Decoding is strict: a missing or wrong
version, an unknown field, a mistyped value, or a vocabulary violation
raises :class:`~repro.errors.RequestError` naming the offender --
never a bare ``TypeError`` three layers down.

Identity is inherited, not reinvented: a request resolves to the same
:class:`~repro.sim.run.RunSpec` objects the in-process facade builds,
so ``request.key()`` *is* the memo/store key
(:meth:`RunSpec.key() <repro.sim.run.RunSpec.key>`).  A run submitted
over HTTP, replayed from a checkpoint, and memoized inside a sweep all
agree on what "the same experiment" means.

Requests are also usable purely in process: attach in-memory objects
(a built :class:`~repro.program.ir.Program`, a
:class:`~repro.arch.config.MachineConfig`, a custom mapping) via
:meth:`from_objects` -- those slots never travel on the wire.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Callable, ClassVar, Dict, List,
                    Mapping, Optional, Tuple, Type, Union)

from repro.arch.clustering import (L2ToMCMapping, MAPPING_PRESETS,
                                   resolve_mapping)
from repro.arch.config import MachineConfig
from repro.errors import RequestError
from repro.faults.plan import FaultPlan
from repro.obs.data import OBS_LEVELS
from repro.program.ir import Program
from repro.sim.metrics import Comparison
from repro.sim.run import (ENGINES, PAGE_POLICIES, RunResult, RunSpec,
                           run_simulation)
from repro.validate.registry import VALIDATE_LEVELS

if TYPE_CHECKING:
    from repro.sim.harness import HarnessConfig, SweepReport

# The sweep engines (executor, harness, sweep) and the search subsystem
# are imported inside the sweep/search methods: building or validating
# a RunRequest must not load the process pool.

__all__ = ["CompareRequest", "REQUEST_KINDS", "RunRequest",
           "SCHEMA_VERSION", "SearchRequest", "SweepRequest",
           "request_from_wire"]

#: Wire-format version.  Bump on incompatible schema changes; decoders
#: reject every version they do not speak, precisely.
SCHEMA_VERSION = 1

#: MachineConfig field names a request's ``config`` dict may override.
CONFIG_FIELDS = frozenset(f.name for f in
                          dataclasses.fields(MachineConfig))


def _attached():
    """An in-memory object slot: never serialized, never compared."""
    return field(default=None, repr=False, compare=False,
                 metadata={"wire": False})


def canonical_json(doc: Mapping[str, object]) -> str:
    """The one JSON rendering two peers agree on byte-for-byte."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _typed(name: str, value, types: tuple, none_ok: bool):
    """Type-check one wire value, diagnosing precisely."""
    if value is None:
        if none_ok:
            return None
        raise RequestError(f"field {name!r} must not be null")
    if isinstance(value, bool) and bool not in types:
        raise RequestError(f"field {name!r} must be "
                           f"{'/'.join(t.__name__ for t in types)}, "
                           f"got a bool")
    if not isinstance(value, types):
        raise RequestError(f"field {name!r} must be "
                           f"{'/'.join(t.__name__ for t in types)}, "
                           f"got {type(value).__name__}")
    return value


def _check_enum(name: str, value: object, options) -> None:
    if value not in options:
        raise RequestError(f"unknown {name} {value!r}; options: "
                           f"{', '.join(str(o) for o in options)}")


def _check_config_overrides(config: Mapping[str, object]) -> None:
    unknown = sorted(set(config) - CONFIG_FIELDS)
    if unknown:
        raise RequestError(
            f"unknown machine-config field(s): {', '.join(unknown)} "
            f"(see repro.arch.config.MachineConfig)")


@dataclass
class _Request:
    """Shared machinery: the strict versioned codec and resolution
    helpers.  Subclasses declare ``KIND`` and ``_WIRE_TYPES``."""

    KIND: ClassVar[str] = ""
    _WIRE_TYPES: ClassVar[Dict[str, Tuple[tuple, bool]]] = {}

    # -- codec ---------------------------------------------------------------

    @classmethod
    def wire_fields(cls):
        return [f for f in dataclasses.fields(cls)
                if f.metadata.get("wire", True)]

    def to_wire(self) -> Dict[str, object]:
        """The request as a plain JSON-serializable dict, every wire
        field present (canonical form -- hash it, diff it, replay it)."""
        doc: Dict[str, object] = {"schema_version": SCHEMA_VERSION,
                                  "kind": self.KIND}
        for f in self.wire_fields():
            doc[f.name] = getattr(self, f.name)
        return doc

    def to_json(self) -> str:
        return canonical_json(self.to_wire())

    @classmethod
    def from_wire(cls, doc) -> "_Request":
        """Decode a wire dict, rejecting anything this build does not
        speak with a precise :class:`~repro.errors.RequestError`."""
        if not isinstance(doc, Mapping):
            raise RequestError(f"request body must be a JSON object, "
                               f"got {type(doc).__name__}")
        version = doc.get("schema_version")
        if version is None:
            raise RequestError(
                f"request is missing schema_version (this build "
                f"speaks version {SCHEMA_VERSION})")
        if version != SCHEMA_VERSION:
            raise RequestError(
                f"unsupported schema_version {version!r}; this build "
                f"speaks version {SCHEMA_VERSION}")
        kind = doc.get("kind")
        if kind is not None and kind != cls.KIND:
            raise RequestError(f"request kind {kind!r} does not match "
                               f"this endpoint ({cls.KIND!r})")
        names = [f.name for f in cls.wire_fields()]
        unknown = sorted(set(doc) - set(names) -
                         {"schema_version", "kind"})
        if unknown:
            raise RequestError(
                f"unknown request field(s): {', '.join(unknown)}; "
                f"known fields: {', '.join(names)}")
        kwargs = {}
        for f in cls.wire_fields():
            if f.name in doc:
                types, none_ok = cls._WIRE_TYPES[f.name]
                kwargs[f.name] = _typed(f.name, doc[f.name], types,
                                        none_ok)
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: Union[str, bytes]) -> "_Request":
        try:
            doc = json.loads(text)
        except (ValueError, TypeError) as err:
            raise RequestError(f"malformed JSON: {err}") from err
        return cls.from_wire(doc)

    # -- shared validation / resolution --------------------------------------

    def _check_workload(self) -> None:
        if self.workload and self.kernel_source:
            raise RequestError("set either workload= or kernel_source=,"
                               " not both")

    def _check_deadline(self) -> None:
        deadline = getattr(self, "deadline_ms", None)
        if deadline is None:
            return
        if isinstance(deadline, bool) or not isinstance(deadline, int):
            raise RequestError(
                f"deadline_ms must be an integer number of "
                f"milliseconds, got {deadline!r}")
        if deadline < 1:
            raise RequestError(
                f"deadline_ms must be >= 1 millisecond, got "
                f"{deadline}")

    def _build_program(self) -> Program:
        if self.program is not None:
            return self.program
        if self.kernel_source:
            # FrontendError (a ReproError) propagates typed: the kernel
            # is the caller's input, but the diagnostic is the
            # frontend's business.
            from repro.frontend.lower import compile_kernel
            return compile_kernel(self.kernel_source,
                                  name=self.kernel_name or "kernel")
        if not self.workload:
            raise RequestError("request names no workload (set "
                               "workload= or kernel_source=)")
        from repro.workloads import (DEMO_KERNELS, WORKLOADS,
                                     build_demo_kernel, build_workload)
        if self.workload in WORKLOADS:
            return build_workload(self.workload, self.scale)
        if self.workload in DEMO_KERNELS:
            return build_demo_kernel(self.workload, self.scale)
        raise RequestError(
            f"unknown workload {self.workload!r}; suite applications: "
            f"{', '.join(WORKLOADS)}; demo kernels: "
            f"{', '.join(DEMO_KERNELS)}")

    def _build_config(self) -> MachineConfig:
        if self.config_obj is not None:
            return self.config_obj
        overrides = dict(self.config)
        overrides.setdefault("interleaving", "cache_line")
        try:
            return MachineConfig.scaled_default().with_(**overrides)
        except (TypeError, ValueError) as err:
            raise RequestError(f"bad machine configuration: {err}") \
                from err

    def _build_fault_plan(self) -> Optional[FaultPlan]:
        attached = getattr(self, "fault_plan_obj", None)
        if attached is not None:
            return attached
        plan = getattr(self, "fault_plan", None)
        if plan is None:
            return None
        try:
            return FaultPlan.from_dict(plan)
        except (KeyError, TypeError, ValueError) as err:
            raise RequestError(f"bad fault plan: {err}") from err


@dataclass
class RunRequest(_Request):
    """One simulated execution, addressable by value.

    The wire twin of :class:`~repro.sim.run.RunSpec`: scalar fields
    travel as JSON; the program arrives by name (``workload``) or as
    kernel source, the machine as a ``config`` override dict, the
    mapping as a preset name.  ``key()`` equals the resolved spec's
    memo/store key, so the service's dedupe and the in-process memo
    agree exactly.
    """

    KIND = "run"

    workload: str = ""
    kernel_source: str = ""
    kernel_name: str = ""
    scale: float = 1.0
    config: Dict[str, object] = field(default_factory=dict)
    mapping: Optional[str] = None
    optimized: bool = False
    optimal: bool = False
    page_policy: str = "auto"
    localize_offchip: bool = True
    pages_per_mc: Optional[int] = None
    name: str = ""
    fault_plan: Optional[Dict[str, object]] = None
    seed: int = 0
    validate: str = "off"
    obs: str = "off"
    engine: str = "fast"
    store: Optional[str] = None
    #: End-to-end budget in milliseconds (service requests).  Transport
    #: policy, not experiment identity: excluded from ``key()`` because
    #: ``to_spec()`` never sees it.
    deadline_ms: Optional[int] = None

    # In-memory slots (never on the wire): a built Program, a full
    # MachineConfig, a custom mapping, a FaultPlan object.
    program: Optional[Program] = _attached()
    config_obj: Optional[MachineConfig] = _attached()
    mapping_obj: Optional[L2ToMCMapping] = _attached()
    fault_plan_obj: Optional[FaultPlan] = _attached()

    _WIRE_TYPES = {
        "workload": ((str,), False),
        "kernel_source": ((str,), False),
        "kernel_name": ((str,), False),
        "scale": ((int, float), False),
        "config": ((dict,), False),
        "mapping": ((str,), True),
        "optimized": ((bool,), False),
        "optimal": ((bool,), False),
        "page_policy": ((str,), False),
        "localize_offchip": ((bool,), False),
        "pages_per_mc": ((int,), True),
        "name": ((str,), False),
        "fault_plan": ((dict,), True),
        "seed": ((int,), False),
        "validate": ((str,), False),
        "obs": ((str,), False),
        "engine": ((str,), False),
        "store": ((str,), True),
        "deadline_ms": ((int,), True),
    }

    def __post_init__(self) -> None:
        self._check_workload()
        self._check_deadline()
        _check_enum("page policy", self.page_policy, PAGE_POLICIES)
        _check_enum("validation level", self.validate, VALIDATE_LEVELS)
        _check_enum("observability level", self.obs, OBS_LEVELS)
        _check_enum("engine", self.engine, ENGINES)
        _check_config_overrides(self.config)
        if self.mapping is not None and self.mapping_obj is None:
            _check_enum("mapping preset", self.mapping, MAPPING_PRESETS)

    @classmethod
    def from_objects(cls, program: Optional[Program] = None,
                     config: Optional[MachineConfig] = None,
                     **spec_kw) -> "RunRequest":
        """Build a request from in-memory objects -- the path the
        keyword facade (``repro.run(program=p, optimized=True)``)
        takes.  Object-valued ``mapping``/``fault_plan`` keywords land
        in the attached slots; unknown keywords raise ``TypeError``
        exactly as building a :class:`RunSpec` would.
        """
        kwargs: Dict[str, object] = {"program": program,
                                     "config_obj": config}
        wire_names = {f.name for f in cls.wire_fields()}
        for key, value in spec_kw.items():
            if key == "mapping" and isinstance(value, L2ToMCMapping):
                kwargs["mapping_obj"] = value
            elif key == "fault_plan" and isinstance(value, FaultPlan):
                kwargs["fault_plan_obj"] = value
            elif key in wire_names:
                kwargs[key] = value
            else:
                raise TypeError(f"run() got an unexpected keyword "
                                f"argument {key!r}")
        return cls(**kwargs)

    def to_spec(self) -> RunSpec:
        """Resolve to the canonical :class:`RunSpec` (program, machine
        and mapping built; the expensive parts are cached)."""
        resolved = getattr(self, "_resolved", None)
        if resolved is None:
            program = self._build_program()
            config = self._build_config()
            mapping = self.mapping_obj
            if mapping is None and self.mapping is not None:
                mapping = resolve_mapping(config, self.mapping)
            resolved = (program, config, mapping,
                        self._build_fault_plan())
            self._resolved = resolved
        program, config, mapping, plan = resolved
        return RunSpec(program=program, config=config, mapping=mapping,
                       optimized=self.optimized, optimal=self.optimal,
                       page_policy=self.page_policy,
                       localize_offchip=self.localize_offchip,
                       pages_per_mc=self.pages_per_mc, name=self.name,
                       fault_plan=plan, seed=self.seed,
                       validate=self.validate, obs=self.obs,
                       engine=self.engine, store=self.store)

    def key(self) -> str:
        """The memo/store identity: exactly ``to_spec().key()`` --
        wire key == memo key by construction."""
        return self.to_spec().key()

    def execute(self) -> RunResult:
        return run_simulation(self.to_spec())


@dataclass
class SweepRequest(_Request):
    """A cartesian configuration sweep, addressable by value.

    ``axes`` maps axis names (:data:`repro.sim.executor.CONFIG_AXES`
    plus ``mapping``) to value lists.  ``key()`` digests the canonical
    per-point keys, so two clients describing the same grid coalesce
    even though the sweep as a whole is not a single memo entry.
    """

    KIND = "sweep"

    workload: str = ""
    kernel_source: str = ""
    kernel_name: str = ""
    scale: float = 1.0
    config: Dict[str, object] = field(default_factory=dict)
    axes: Dict[str, List[object]] = field(default_factory=dict)
    workers: int = 1
    hardened: bool = False
    fault_plan: Optional[Dict[str, object]] = None
    seed: int = 0
    validate: str = "off"
    obs: str = "off"
    engine: str = "fast"
    store: Optional[str] = None
    deadline_ms: Optional[int] = None

    program: Optional[Program] = _attached()
    config_obj: Optional[MachineConfig] = _attached()
    fault_plan_obj: Optional[FaultPlan] = _attached()

    _WIRE_TYPES = {
        "workload": ((str,), False),
        "kernel_source": ((str,), False),
        "kernel_name": ((str,), False),
        "scale": ((int, float), False),
        "config": ((dict,), False),
        "axes": ((dict,), False),
        "workers": ((int,), False),
        "hardened": ((bool,), False),
        "fault_plan": ((dict,), True),
        "seed": ((int,), False),
        "validate": ((str,), False),
        "obs": ((str,), False),
        "engine": ((str,), False),
        "store": ((str,), True),
        "deadline_ms": ((int,), True),
    }

    def __post_init__(self) -> None:
        self._check_workload()
        self._check_deadline()
        _check_enum("validation level", self.validate, VALIDATE_LEVELS)
        _check_enum("observability level", self.obs, OBS_LEVELS)
        _check_enum("engine", self.engine, ENGINES)
        _check_config_overrides(self.config)
        if not isinstance(self.workers, int) or \
                isinstance(self.workers, bool) or self.workers < 1:
            raise RequestError(f"workers must be an integer >= 1, got "
                               f"{self.workers!r}")
        from repro.sim.executor import validate_axes
        try:
            validate_axes(self.axes)
        except ValueError as err:
            raise RequestError(str(err)) from err
        for axis, values in self.axes.items():
            if not isinstance(values, (list, tuple)):
                raise RequestError(f"axis {axis!r} must map to a list "
                                   f"of values, got "
                                   f"{type(values).__name__}")

    @classmethod
    def from_objects(cls, program: Optional[Program] = None,
                     config: Optional[MachineConfig] = None,
                     axes: Optional[Mapping[str, List[object]]] = None,
                     **kw) -> "SweepRequest":
        """In-memory construction path (the ``repro.sweep`` facade)."""
        kwargs: Dict[str, object] = {"program": program,
                                     "config_obj": config,
                                     "axes": dict(axes or {})}
        wire_names = {f.name for f in cls.wire_fields()}
        for key, value in kw.items():
            if key == "fault_plan" and isinstance(value, FaultPlan):
                kwargs["fault_plan_obj"] = value
            elif key in wire_names:
                kwargs[key] = value
            else:
                raise TypeError(f"sweep() got an unexpected keyword "
                                f"argument {key!r}")
        return cls(**kwargs)

    def grid(self) -> List[Dict[str, object]]:
        """The grid points, in the canonical (sorted-axis, row-major)
        order every sweep uses."""
        from repro.sim.executor import grid_settings
        return grid_settings(self.axes)

    def _resolve(self):
        resolved = getattr(self, "_resolved", None)
        if resolved is None:
            resolved = (self._build_program(), self._build_config(),
                        self._build_fault_plan())
            self._resolved = resolved
        return resolved

    def point_keys(self) -> List[str]:
        """The canonical per-point memo/checkpoint keys, grid order."""
        from repro.sim.executor import point_specs
        from repro.sim.serialize import point_key
        program, config, plan = self._resolve()
        keys = []
        for settings in self.grid():
            try:
                specs = point_specs(program, config, settings, plan,
                                    self.seed)
            except ValueError as err:  # e.g. unknown mapping preset
                raise RequestError(str(err)) from err
            keys.append(point_key(specs))
        return keys

    def key(self) -> str:
        """Identity of the whole sweep: a digest over the canonical
        point keys -- the same keys the memo, the checkpoints and the
        result store use, so wire identity and cache identity agree."""
        program, _, _ = self._resolve()
        digest = hashlib.sha1(
            "|".join(self.point_keys()).encode("utf-8")).hexdigest()
        safe = "".join(c if c.isalnum() or c in "._" else "_"
                       for c in program.name)
        return f"{safe}-sweep-{digest[:20]}"

    def execute(self, progress: Optional[Callable] = None,
                checkpoint: Optional[str] = None,
                harness: Optional[HarnessConfig] = None,
                max_points: Optional[int] = None) -> SweepReport:
        """Run the sweep.  ``checkpoint``/``harness``/``max_points``
        imply the hardened engine, exactly as the facade documents."""
        from repro.sim.harness import HardenedSweep, SweepReport
        from repro.sim.sweep import Sweep
        program, config, plan = self._resolve()
        hardened = (self.hardened or checkpoint is not None
                    or harness is not None or max_points is not None)
        if hardened:
            return HardenedSweep(program, config, harness=harness,
                                 checkpoint=checkpoint, fault_plan=plan,
                                 seed=self.seed, workers=self.workers,
                                 validate=self.validate, obs=self.obs,
                                 engine=self.engine, store=self.store
                                 ).run(max_points=max_points,
                                       progress=progress, **self.axes)
        runner = Sweep(program, config, workers=self.workers,
                       fault_plan=plan, seed=self.seed,
                       validate=self.validate, obs=self.obs,
                       engine=self.engine, store=self.store)
        points = runner.run(progress=progress, **self.axes)
        return SweepReport(rows=[point.row() for point in points],
                           points=list(points),
                           obs=runner.collected_obs(),
                           store_hits=runner.store_hits,
                           store_misses=runner.store_misses)


@dataclass
class CompareRequest(_Request):
    """Baseline vs. optimized under one configuration -- the
    comparison every per-application bar of the paper's figures
    reports, addressable by value."""

    KIND = "compare"

    workload: str = ""
    kernel_source: str = ""
    kernel_name: str = ""
    scale: float = 1.0
    config: Dict[str, object] = field(default_factory=dict)
    mapping: Optional[str] = None
    page_policy: str = "auto"
    localize_offchip: bool = True
    engine: str = "fast"
    store: Optional[str] = None
    deadline_ms: Optional[int] = None

    program: Optional[Program] = _attached()
    config_obj: Optional[MachineConfig] = _attached()
    mapping_obj: Optional[L2ToMCMapping] = _attached()

    _WIRE_TYPES = {
        "workload": ((str,), False),
        "kernel_source": ((str,), False),
        "kernel_name": ((str,), False),
        "scale": ((int, float), False),
        "config": ((dict,), False),
        "mapping": ((str,), True),
        "page_policy": ((str,), False),
        "localize_offchip": ((bool,), False),
        "engine": ((str,), False),
        "store": ((str,), True),
        "deadline_ms": ((int,), True),
    }

    def __post_init__(self) -> None:
        self._check_workload()
        self._check_deadline()
        _check_enum("page policy", self.page_policy, PAGE_POLICIES)
        _check_enum("engine", self.engine, ENGINES)
        _check_config_overrides(self.config)
        if self.mapping is not None and self.mapping_obj is None:
            _check_enum("mapping preset", self.mapping, MAPPING_PRESETS)

    @classmethod
    def from_objects(cls, program: Optional[Program] = None,
                     config: Optional[MachineConfig] = None,
                     mapping=None, **kw) -> "CompareRequest":
        kwargs: Dict[str, object] = {"program": program,
                                     "config_obj": config}
        if isinstance(mapping, L2ToMCMapping):
            kwargs["mapping_obj"] = mapping
        elif mapping is not None:
            kwargs["mapping"] = mapping
        wire_names = {f.name for f in cls.wire_fields()}
        for key, value in kw.items():
            if key not in wire_names:
                raise TypeError(f"compare() got an unexpected keyword "
                                f"argument {key!r}")
            kwargs[key] = value
        return cls(**kwargs)

    def specs(self) -> Tuple[RunSpec, RunSpec]:
        """The baseline/optimized pair, key-identical to the pair
        :func:`repro.sim.run.run_pair` builds."""
        resolved = getattr(self, "_resolved", None)
        if resolved is None:
            program = self._build_program()
            config = self._build_config()
            mapping = self.mapping_obj
            if mapping is None and self.mapping is not None:
                mapping = resolve_mapping(config, self.mapping)
            resolved = (program, config, mapping)
            self._resolved = resolved
        program, config, mapping = resolved
        base = RunSpec(program=program, config=config, mapping=mapping,
                       optimized=False, page_policy=self.page_policy,
                       engine=self.engine, store=self.store)
        opt = RunSpec(program=program, config=config, mapping=mapping,
                      optimized=True, page_policy=self.page_policy,
                      localize_offchip=self.localize_offchip,
                      engine=self.engine, store=self.store)
        return base, opt

    def key(self) -> str:
        from repro.sim.serialize import point_key
        return point_key(self.specs())

    def execute(self) -> Comparison:
        base, opt = self.specs()
        return Comparison(run_simulation(base).metrics,
                          run_simulation(opt).metrics)


def _all_interleavings() -> List[str]:
    from repro.search import INTERLEAVINGS
    return list(INTERLEAVINGS)


@dataclass
class SearchRequest(_Request):
    """A design-space placement search, addressable by value.

    The wire twin of :func:`repro.search.run_search`: screen the
    placement/mapping/interleaving space analytically, keep the
    ``top_k`` frontier, re-simulate it bit-exactly.  ``placements``
    is a pool name (:data:`repro.search.PLACEMENT_POOLS`) or an
    explicit list of placement strings; ``mappings`` defaults to
    every preset valid for the machine.  The search is fully seeded:
    equal requests produce byte-identical frontier CSV.
    """

    KIND = "search"

    workload: str = ""
    kernel_source: str = ""
    kernel_name: str = ""
    scale: float = 1.0
    config: Dict[str, object] = field(default_factory=dict)
    mode: str = "auto"
    placements: Union[str, List[str]] = "named"
    mappings: Optional[List[str]] = None
    interleavings: List[str] = field(default_factory=_all_interleavings)
    top_k: int = 4
    steps: int = 128
    seed: int = 0
    resimulate: bool = True
    obs: str = "off"
    deadline_ms: Optional[int] = None

    program: Optional[Program] = _attached()
    config_obj: Optional[MachineConfig] = _attached()

    _WIRE_TYPES = {
        "workload": ((str,), False),
        "kernel_source": ((str,), False),
        "kernel_name": ((str,), False),
        "scale": ((int, float), False),
        "config": ((dict,), False),
        "mode": ((str,), False),
        "placements": ((str, list), False),
        "mappings": ((list,), True),
        "interleavings": ((list,), False),
        "top_k": ((int,), False),
        "steps": ((int,), False),
        "seed": ((int,), False),
        "resimulate": ((bool,), False),
        "obs": ((str,), False),
        "deadline_ms": ((int,), True),
    }

    def __post_init__(self) -> None:
        from repro.search import (INTERLEAVINGS, PLACEMENT_POOLS,
                                  SEARCH_MODES)
        self._check_workload()
        self._check_deadline()
        _check_enum("search mode", self.mode, SEARCH_MODES)
        _check_enum("observability level", self.obs, OBS_LEVELS)
        _check_config_overrides(self.config)
        if isinstance(self.placements, str) and \
                self.placements not in PLACEMENT_POOLS:
            raise RequestError(
                f"unknown placement pool {self.placements!r}; pools: "
                f"{', '.join(PLACEMENT_POOLS)} (or pass an explicit "
                f"list of placement strings)")
        if self.mappings is not None:
            for name in self.mappings:
                _check_enum("mapping preset", name, MAPPING_PRESETS)
        for mode in self.interleavings:
            _check_enum("interleaving", mode, INTERLEAVINGS)
        if not isinstance(self.top_k, int) or \
                isinstance(self.top_k, bool) or self.top_k < 1:
            raise RequestError(f"top_k must be an integer >= 1, got "
                               f"{self.top_k!r}")
        if not isinstance(self.steps, int) or \
                isinstance(self.steps, bool) or self.steps < 1:
            raise RequestError(f"steps must be an integer >= 1, got "
                               f"{self.steps!r}")

    @classmethod
    def from_objects(cls, program: Optional[Program] = None,
                     config: Optional[MachineConfig] = None,
                     **kw) -> "SearchRequest":
        """In-memory construction path (the ``repro.search`` facade)."""
        kwargs: Dict[str, object] = {"program": program,
                                     "config_obj": config}
        wire_names = {f.name for f in cls.wire_fields()}
        for key, value in kw.items():
            if key not in wire_names:
                raise TypeError(f"search() got an unexpected keyword "
                                f"argument {key!r}")
            kwargs[key] = value
        return cls(**kwargs)

    def key(self) -> str:
        """Identity of the whole search: a digest over the canonical
        wire form minus transport policy (``deadline_ms``), prefixed
        with the program name for humans."""
        resolved = getattr(self, "_resolved", None)
        if resolved is None:
            resolved = self._build_program()
            self._resolved = resolved
        doc = self.to_wire()
        doc.pop("deadline_ms", None)
        doc["program"] = resolved.name
        digest = hashlib.sha1(
            canonical_json(doc).encode("utf-8")).hexdigest()
        safe = "".join(c if c.isalnum() or c in "._" else "_"
                       for c in resolved.name)
        return f"{safe}-search-{digest[:20]}"

    def execute(self, workers: int = 1):
        """Run the search (a :class:`repro.search.SearchResult`).

        ``workers`` fans the frontier re-simulation out through the
        parallel executor; an operational knob (it never changes the
        result), so like the sweep's ``progress`` it is an
        execute-time parameter, not a wire field."""
        from repro.search import run_search
        program = self._build_program()
        config = self.config_obj
        if config is None:
            overrides = {k: v for k, v in self.config.items()}
            try:
                config = MachineConfig.scaled_default().with_(
                    **overrides)
            except (TypeError, ValueError) as err:
                raise RequestError(
                    f"bad machine configuration: {err}") from err
        placements = self.placements if isinstance(
            self.placements, str) else list(self.placements)
        try:
            return run_search(program, config, mode=self.mode,
                              placements=placements,
                              mappings=self.mappings,
                              interleavings=tuple(self.interleavings),
                              top_k=self.top_k, steps=self.steps,
                              seed=self.seed,
                              resimulate=self.resimulate,
                              workers=workers,
                              obs=self.obs)
        except ValueError as err:
            raise RequestError(str(err)) from err


#: Wire ``kind`` -> request class, for endpoint-agnostic decoding.
REQUEST_KINDS: Dict[str, Type[_Request]] = {
    RunRequest.KIND: RunRequest,
    SweepRequest.KIND: SweepRequest,
    CompareRequest.KIND: CompareRequest,
    SearchRequest.KIND: SearchRequest,
}


def request_from_wire(doc) -> Union[RunRequest, SweepRequest,
                                    CompareRequest]:
    """Decode any request by its ``kind`` field."""
    if not isinstance(doc, Mapping):
        raise RequestError(f"request body must be a JSON object, got "
                           f"{type(doc).__name__}")
    kind = doc.get("kind")
    if kind is None:
        raise RequestError(f"request is missing kind; one of: "
                           f"{', '.join(REQUEST_KINDS)}")
    cls = REQUEST_KINDS.get(kind)
    if cls is None:
        raise RequestError(f"unknown request kind {kind!r}; one of: "
                           f"{', '.join(REQUEST_KINDS)}")
    return cls.from_wire(doc)
