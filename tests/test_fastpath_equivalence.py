"""Engine equivalence: the fast event loop is bit-identical.

The ``engine="fast"`` hit-filtered loop (repro.sim.fastpath) promises
*bit-identical* results to the reference every-access loop -- not
"close", identical, down to float accumulators.  These tests pin that
contract across the dimensions that exercise different code paths:
mappings, interleavings, the optimal scheme, page policies, fault
plans (integer-valued and fractional, which selects the general
floating-point timing mode), strict validation (audit-wrapped sends),
full observability (telemetry-wrapped sends), the machine shapes whose
hits the fast loop classifies differently (a shared SNUCA L2, several
threads per node, and both together), and the configurations where the
fast loop must decline and fall back to the reference (write modeling,
phase tracking).  A hypothesis generator pairs fuzz-mutated kernels with
random machine axes on top of the hand-picked cases.

Where the two engines run, their end-of-run simulator *state* is
compared too, not only the metrics: every controller's stats, bank and
channel busy-until times and FR-FCFS row window, the directory's
sharers for every tracked line, the network's link busy-until times
and stats, and every cache's contents and counters.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.arch.config import MachineConfig
from repro.errors import FrontendError
from repro.faults.plan import (BankFault, FaultPlan, LinkDegradation,
                               LinkFault, MCFault)
from repro.frontend.lower import compile_kernel
from repro.sim import fastpath
from repro.sim.executor import point_specs, resolve_mapping, run_point, \
    PointTask
from repro.sim.run import EXACT_ENGINES, RunSpec, run_simulation
from repro.sim.serialize import comparison_row
from repro.sim.metrics import Comparison
from repro.sim.system import SystemSimulator
from repro.validate.fuzz import BUILTIN_CORPUS, mutate
from repro.workloads import build_workload

SCALE = 0.2


def _config(**kw):
    base = MachineConfig.scaled_default().with_(
        interleaving="cache_line")
    return base.with_(**kw) if kw else base


def _tight_config(**kw):
    """Caches small enough that every level evicts (a 4 KiB L2 bank is
    one set), and all threads starting at once, so threads of one node
    tie in time and the ``(time, tid)`` order decides."""
    return MachineConfig.scaled_default(64).with_(
        interleaving="cache_line", thread_stagger=0).with_(**kw)


@pytest.fixture
def simulators(monkeypatch):
    """Every SystemSimulator that runs during the test, in run order."""
    sims = []
    original = SystemSimulator.run

    def run(self, *args, **kwargs):
        sims.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(SystemSimulator, "run", run)
    return sims


@pytest.fixture
def verdicts(monkeypatch):
    """Every ``fastpath.eligible`` answer during the test, in order."""
    answers = []
    original = fastpath.eligible

    def eligible(sim, streams):
        answers.append(original(sim, streams))
        return answers[-1]

    monkeypatch.setattr(fastpath, "eligible", eligible)
    return answers


def _run_pair(sims, program, config, **spec_kw):
    """``(metrics, simulator)`` per exact engine, fast first."""
    pairs = []
    for engine in EXACT_ENGINES:
        del sims[:]
        spec = RunSpec(program=program, config=config, engine=engine,
                       **spec_kw)
        metrics = run_simulation(spec).metrics
        (sim,) = sims
        pairs.append((metrics, sim))
    return pairs


def _metrics_pair(program, config, **spec_kw):
    results = []
    for engine in EXACT_ENGINES:
        spec = RunSpec(program=program, config=config, engine=engine,
                       **spec_kw)
        results.append(run_simulation(spec).metrics)
    return results


def _assert_identical(a, b):
    """Field-by-field bit-identity of two RunMetrics."""
    va, vb = vars(a), vars(b)
    assert va.keys() == vb.keys()
    for name, x in va.items():
        y = vb[name]
        if isinstance(x, np.ndarray):
            assert np.array_equal(x, y), name
        else:
            assert x == y, name


def _assert_same_state(a, b):
    """Bit-identity of two simulators' end-of-run state."""
    assert len(a.controllers) == len(b.controllers)
    for j, (ca, cb) in enumerate(zip(a.controllers, b.controllers)):
        assert vars(ca.stats) == vars(cb.stats), f"mc {j} stats"
        assert ca.bank_busy == cb.bank_busy, f"mc {j} bank_busy"
        assert ca.channel_free == cb.channel_free, f"mc {j} channel"
        assert ca._recent_rows == cb._recent_rows, f"mc {j} rows"
        assert ca._recent_times == cb._recent_times, f"mc {j} times"
    da, db = a.directory, b.directory
    assert (da is None) == (db is None)
    if da is not None:  # a shared SNUCA L2 keeps no directory
        assert da.tracked_lines == db.tracked_lines
        assert da._sharers == db._sharers
        assert list(da._sharers) == list(db._sharers)
        for line in da._sharers:
            assert da.sharers_of(line) == db.sharers_of(line), line
    assert a.network.link_free == b.network.link_free
    assert vars(a.network.stats) == vars(b.network.stats)
    for level in ("l1", "l2"):
        for node, (xa, xb) in enumerate(zip(getattr(a, level),
                                            getattr(b, level))):
            assert (xa.hits, xa.misses) == (xb.hits, xb.misses), \
                f"{level} {node} counters"
            assert xa.sets == xb.sets, f"{level} {node} contents"


def _assert_equivalent(pairs):
    """Fast and reference agree on metrics and on simulator state."""
    (fast, fast_sim), (ref, ref_sim) = pairs
    _assert_identical(fast, ref)
    _assert_same_state(fast_sim, ref_sim)


@pytest.mark.parametrize("optimized", [False, True])
@pytest.mark.parametrize("mapping_name", ["M1", "M2"])
def test_mappings_bit_identical(simulators, optimized, mapping_name):
    program = build_workload("swim", SCALE)
    config = _config()
    mapping = resolve_mapping(config, mapping_name)
    _assert_equivalent(_run_pair(simulators, program, config,
                                 mapping=mapping, optimized=optimized))


@pytest.mark.parametrize("interleaving", ["cache_line", "page"])
def test_interleavings_bit_identical(simulators, interleaving):
    program = build_workload("mgrid", SCALE)
    config = _config(interleaving=interleaving)
    _assert_equivalent(_run_pair(simulators, program, config,
                                 optimized=True))


def test_optimal_scheme_bit_identical(simulators):
    program = build_workload("swim", SCALE)
    _assert_equivalent(_run_pair(simulators, program, _config(),
                                 optimal=True))


def test_first_touch_seeded_bit_identical(simulators):
    program = build_workload("applu", SCALE)
    _assert_equivalent(_run_pair(simulators, program, _config(),
                                 optimized=True,
                                 page_policy="first_touch", seed=7))


def test_integer_fault_plan_bit_identical(simulators):
    # Every window edge and factor integral: the fast loop stays in
    # its exact int64 prefix-sum timing mode.
    plan = FaultPlan(link_faults=(LinkFault(0, 1),),
                     link_degradations=(LinkDegradation(2, 3, 2.0),),
                     mc_faults=(MCFault(1, "slow", 2.0, 0, 50_000),),
                     bank_faults=(BankFault(0, 0),))
    program = build_workload("swim", SCALE)
    _assert_equivalent(_run_pair(simulators, program, _config(),
                                 optimized=True, fault_plan=plan))


def test_fractional_fault_plan_bit_identical(simulators):
    # Fractional factors and window edges force the general
    # floating-point timing mode; identity must survive that too.
    plan = FaultPlan(
        link_degradations=(LinkDegradation(0, 1, 1.5),),
        mc_faults=(MCFault(2, "slow", 1.7, 100.5, 60_000.25),))
    program = build_workload("swim", SCALE)
    _assert_equivalent(_run_pair(simulators, program, _config(),
                                 optimized=True, fault_plan=plan))


def test_fractional_overlap_bit_identical(simulators):
    # art's MLP demand drives effective_overlap above zero, so keep < 1
    # and simulated times go fractional (general timing mode).
    program = build_workload("art", SCALE)
    _assert_equivalent(_run_pair(simulators, program, _config(),
                                 optimized=True))


def test_strict_validation_bit_identical(simulators):
    # Strict validation attaches a NetworkAudit, which routes the fast
    # loop through the regular send method; the audit must also pass.
    program = build_workload("swim", SCALE)
    _assert_equivalent(_run_pair(simulators, program, _config(),
                                 optimized=True, validate="strict"))


def test_obs_full_bit_identical(simulators):
    # Telemetry routes sends and the MC service through their methods.
    program = build_workload("swim", SCALE)
    _assert_equivalent(_run_pair(simulators, program, _config(),
                                 optimized=True, obs="full"))


@pytest.mark.parametrize("knob", ["model_writes", "track_phases"])
def test_fallback_configs_still_identical(simulators, knob):
    # Configurations outside the fast loop's eligibility envelope fall
    # back to the reference loop under engine="fast" and say why;
    # results are (trivially) identical and nothing crashes.
    program = build_workload("swim", SCALE)
    config = _config(**{knob: True})
    (fast, fast_sim), (ref, _) = _run_pair(simulators, program, config,
                                           optimized=True)
    _assert_identical(fast, ref)
    assert fast_sim.engine_used == "reference"
    assert fast_sim.fallback_reason == knob


# -- machine shapes: shared L2 and several threads per node -----------------

#: (shared_l2, threads_per_core) pairs beyond the private one-thread
#: default: the shared-L2 replay, the online per-node mode, and both.
SHAPES = [(True, 1), (False, 2), (True, 2)]
_SHAPE_IDS = [f"{'shared' if shared else 'private'}-t{threads}"
              for shared, threads in SHAPES]


def _assert_fast_ran(pairs, verdicts):
    """The fast run really took the fast loop (no silent fallback)."""
    (_, fast_sim), (_, ref_sim) = pairs
    assert verdicts == [True]
    assert fast_sim.engine_used == "fast"
    assert fast_sim.fallback_reason is None
    assert ref_sim.engine_used == "reference"


@pytest.mark.parametrize("app", ["swim", "hpccg"])
@pytest.mark.parametrize("threads", [1, 2, 4])
@pytest.mark.parametrize("shared", [False, True])
def test_shapes_bit_identical(simulators, verdicts, shared, threads, app):
    # swim keeps every time integral (the int64 prefix-sum mode);
    # hpccg's MLP demand makes miss_overlap fractional (keep = 0.65).
    program = build_workload(app, 0.1)
    config = _config(shared_l2=shared, threads_per_core=threads)
    pairs = _run_pair(simulators, program, config, optimized=True)
    _assert_equivalent(pairs)
    _assert_fast_ran(pairs, verdicts)


@pytest.mark.parametrize("app", ["swim", "hpccg"])
@pytest.mark.parametrize("shared,threads", SHAPES, ids=_SHAPE_IDS)
def test_shapes_tight_machine_bit_identical(simulators, verdicts, shared,
                                            threads, app):
    program = build_workload(app, 0.1)
    config = _tight_config(shared_l2=shared, threads_per_core=threads)
    pairs = _run_pair(simulators, program, config, optimized=True)
    _assert_equivalent(pairs)
    _assert_fast_ran(pairs, verdicts)


@pytest.mark.parametrize("shared,threads", SHAPES, ids=_SHAPE_IDS)
def test_shapes_page_interleaving_bit_identical(simulators, verdicts,
                                                 shared, threads):
    program = build_workload("mgrid", SCALE)
    config = _config(shared_l2=shared, threads_per_core=threads,
                     interleaving="page")
    pairs = _run_pair(simulators, program, config, optimized=True)
    _assert_equivalent(pairs)
    _assert_fast_ran(pairs, verdicts)


@pytest.mark.parametrize("shared,threads", SHAPES, ids=_SHAPE_IDS)
def test_shapes_optimal_bit_identical(simulators, verdicts, shared,
                                      threads):
    # The nearest controller: per node (private), per home bank (shared).
    program = build_workload("swim", SCALE)
    config = _config(shared_l2=shared, threads_per_core=threads)
    pairs = _run_pair(simulators, program, config, optimal=True)
    _assert_equivalent(pairs)
    _assert_fast_ran(pairs, verdicts)


@pytest.mark.parametrize("shared,threads", SHAPES, ids=_SHAPE_IDS)
def test_shapes_fault_plan_bit_identical(simulators, verdicts, shared,
                                         threads):
    # A degraded link (Network.send) and a controller offline for a
    # window (failover through _route_mc, MemoryController.service).
    plan = FaultPlan(link_degradations=(LinkDegradation(1, 2, 2.0),),
                     mc_faults=(MCFault(0, "offline", start=2_000,
                                        end=30_000),))
    program = build_workload("swim", SCALE)
    config = _config(shared_l2=shared, threads_per_core=threads)
    pairs = _run_pair(simulators, program, config, optimized=True,
                      fault_plan=plan)
    _assert_equivalent(pairs)
    _assert_fast_ran(pairs, verdicts)
    assert pairs[0][0].mc_failovers > 0


@pytest.mark.parametrize("level", [{"obs": "full"},
                                   {"validate": "strict"}],
                         ids=["obs-full", "strict"])
@pytest.mark.parametrize("shared,threads", SHAPES, ids=_SHAPE_IDS)
def test_shapes_observed_bit_identical(simulators, verdicts, shared,
                                       threads, level):
    program = build_workload("swim", SCALE)
    config = _config(shared_l2=shared, threads_per_core=threads)
    pairs = _run_pair(simulators, program, config, optimized=True,
                      **level)
    _assert_equivalent(pairs)
    _assert_fast_ran(pairs, verdicts)


# -- differential generator ---------------------------------------------------

def _fuzzed_program(corpus_index: int, seed: int, mutated: bool):
    """A corpus kernel, fuzz-mutated when the mutant still compiles
    (otherwise the kernel as written), so every example simulates."""
    source = BUILTIN_CORPUS[corpus_index]
    if mutated:
        candidate, _ = mutate(source, random.Random(seed))
        try:
            return compile_kernel(candidate, name=f"fuzz{seed}")
        except FrontendError:
            pass
    return compile_kernel(source, name=f"corpus{corpus_index}")


@given(corpus_index=st.integers(0, len(BUILTIN_CORPUS) - 1),
       seed=st.integers(0, 2 ** 32 - 1),
       mutated=st.booleans(),
       shared=st.booleans(),
       threads=st.sampled_from([1, 2, 4]),
       interleaving=st.sampled_from(["cache_line", "page"]),
       num_mcs=st.sampled_from([2, 4, 8]),
       # the corpus kernels are small: on a 4x4 mesh their threads
       # still share nodes when threads_per_core > 1
       mesh=st.sampled_from([4, 8]),
       miss_overlap=st.sampled_from([0.0, 0.25, 0.35]),
       tight=st.booleans(),
       optimized=st.booleans())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_generated_programs_bit_identical(simulators, corpus_index, seed,
                                          mutated, shared, threads,
                                          interleaving, num_mcs, mesh,
                                          miss_overlap, tight, optimized):
    program = _fuzzed_program(corpus_index, seed, mutated)
    config = (_tight_config if tight else _config)(
        shared_l2=shared, threads_per_core=threads,
        interleaving=interleaving, num_mcs=num_mcs,
        mesh_width=mesh, mesh_height=mesh, miss_overlap=miss_overlap)
    pairs = _run_pair(simulators, program, config, optimized=optimized)
    _assert_equivalent(pairs)
    assert pairs[0][1].engine_used == "fast"


def test_csv_rows_bit_identical():
    # The end-to-end artifact sweeps emit: identical CSV rows, both
    # engines, through the shared point executor.
    program = build_workload("swim", SCALE)
    config = _config()
    settings = {"mapping": "M2", "num_mcs": 4}
    rows = []
    for engine in EXACT_ENGINES:
        base_spec, opt_spec = point_specs(program, config, settings,
                                          engine=engine)
        base = run_simulation(base_spec)
        opt = run_simulation(opt_spec)
        rows.append(comparison_row(
            settings, Comparison(base.metrics, opt.metrics)))
    assert rows[0] == rows[1]


def test_point_task_threads_engine():
    program = build_workload("swim", SCALE)
    config = _config()
    outcomes = [run_point(PointTask(program=program, base_config=config,
                                    settings=(("mapping", "M1"),),
                                    engine=engine))
                for engine in EXACT_ENGINES]
    assert outcomes[0].row == outcomes[1].row


def test_engine_excluded_from_key():
    # The engines are bit-identical by contract, so cached results are
    # engine-agnostic: the canonical run key must not depend on it.
    program = build_workload("swim", SCALE)
    config = _config()
    keys = {RunSpec(program=program, config=config, optimized=True,
                    engine=engine).key() for engine in EXACT_ENGINES}
    assert len(keys) == 1


def test_unknown_engine_rejected():
    program = build_workload("swim", SCALE)
    with pytest.raises(ValueError):
        RunSpec(program=program, config=_config(), engine="warp")


def test_run_metrics_not_none_fields():
    # Smoke guard: the fast loop fills every accumulator it bypasses
    # the heap for (a forgotten assignment would leave zeros).
    program = build_workload("swim", SCALE)
    fast, _ = _metrics_pair(program, _config(), optimized=True)
    assert fast.total_accesses > 0
    assert fast.l1_hits > 0 and fast.l2_hits > 0
    assert fast.exec_time > 0
