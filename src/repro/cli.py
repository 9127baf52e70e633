"""Command-line interface: the tool a downstream user actually drives.

Subcommands::

    repro-cli transform kernel.krn        # run the pass, print C output
    repro-cli legality kernel.krn         # dependence / legality report
    repro-cli run --app swim              # simulate one configuration
    repro-cli compare --app swim          # baseline vs optimized
    repro-cli suite                       # the 13-application table
    repro-cli sweep --app swim --axis mapping=M1,M2 --workers 4
                                          # parallel CSV design sweep
    repro-cli search --app swim --mesh 4x4 --top-k 4
                                          # analytic placement search
                                          # (see docs/search.md)
    repro-cli trace --app swim --output t.npz         # save traces
    repro-cli trace matmul --out trace.json
                                          # observed run -> Chrome trace
    repro-cli profile matmul              # where the time goes (spans)
    repro-cli report --output report.md   # markdown suite report
    repro-cli list                        # available workload models
    repro-cli doctor                      # install/config/model self-check
    repro-cli fuzz --cases 200            # frontend never-crash fuzzing
    repro-cli store stats results/        # result-store inventory
    repro-cli store verify results/       # re-checksum every record
    repro-cli store gc results/           # drop quarantine + temp debris
    repro-cli serve --store results/      # HTTP experiment service
                                          # (see docs/service.md)

``run``, ``compare`` and ``sweep`` build the same typed request
objects (:mod:`repro.api.requests`) the Python facade and the
experiment service use, so an experiment means the same thing -- and
keys the same store record -- no matter which door it came through.

Exit codes: 0 success, 1 generic failure, 2 argparse usage.  A
:class:`~repro.errors.ReproError` exits with its family's code from
:data:`repro.errors.EXIT_CODES` (request 3, frontend 4, solver 5,
layout 6, simulation 7, validation 8, store 9, other 10), matching
the service's HTTP status mapping so shell scripts and HTTP clients
classify the same failure the same way.

``run`` and ``sweep`` take ``--store DIR`` to replay/persist results
through the crash-safe store (:mod:`repro.store`); ``sweep --store``
prints a ``[store] hits=... misses=...`` summary on stderr.

``run`` and ``sweep`` additionally take ``--validate
{off,metrics,strict}`` to run the :mod:`repro.validate` invariant
sanitizer over every simulation.  ``sweep`` takes ``--progress``
(periodic progress lines on stderr) or ``--quiet`` (suppress the final
summary line).

``trace`` and ``profile`` accept a positional workload resolved in
order: suite application name, ``.krn`` kernel file path, then built-in
demo kernel (``matmul``).  ``trace WORKLOAD --out trace.json`` runs one
observed simulation (``obs=full``) and writes a Chrome ``trace_event``
file loadable in ``chrome://tracing`` / Perfetto; ``--heatmap`` /
``--timeline`` additionally print the ASCII NoC-link heatmap and per-MC
queue-occupancy timeline.

All simulation-facing commands share the machine flags:
``--interleaving {cache_line,page}``, ``--shared-l2``, ``--mapping
{M1,M2}``, ``--placement {P1,P2,P3}``, ``--mcs N``, ``--mesh WxH``,
``--scale F`` (workload scale).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from repro.arch.clustering import resolve_mapping
from repro.arch.config import MachineConfig
from repro.errors import ReproError, ValidationError, exit_code
from repro.workloads import SUITE_ORDER, build_workload

# Everything else is imported by the subcommand that needs it, so
# ``repro-cli run`` loads only the run path (see docs/performance.md,
# "Cold start").

METRIC_COLUMNS = ["onchip_net", "offchip_net", "offchip_mem", "exec_time"]


def _machine_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--interleaving", default="cache_line",
                        choices=["cache_line", "page"])
    parser.add_argument("--shared-l2", action="store_true")
    parser.add_argument("--mapping", default="M1", choices=["M1", "M2"])
    parser.add_argument("--placement", default="P1",
                        choices=["P1", "P2", "P3"])
    parser.add_argument("--mcs", type=int, default=4)
    parser.add_argument("--mesh", default="8x8",
                        help="mesh dimensions, e.g. 8x8")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload scale factor")


def _config(args: argparse.Namespace) -> MachineConfig:
    width, _, height = args.mesh.partition("x")
    return MachineConfig.scaled_default().with_(
        interleaving=args.interleaving, shared_l2=args.shared_l2,
        mc_placement=args.placement, num_mcs=args.mcs,
        mesh_width=int(width), mesh_height=int(height or width))


def _load_program(args: argparse.Namespace):
    if getattr(args, "app", None):
        return build_workload(args.app, args.scale)
    from repro.frontend import compile_kernel
    with open(args.kernel) as handle:
        source = handle.read()
    return compile_kernel(source, name=args.kernel.rsplit("/", 1)[-1]
                          .split(".")[0])


def _resolve_program(args: argparse.Namespace):
    """Load the program for verbs taking a positional ``workload``:
    suite application name, then kernel file path, then demo kernel."""
    token = getattr(args, "workload", None)
    if not token:
        if getattr(args, "app", None) or getattr(args, "kernel", None):
            return _load_program(args)
        raise SystemExit(f"repro-cli {args.command}: name a workload "
                         f"(positionally, or via --app/--kernel)")
    if getattr(args, "app", None) or getattr(args, "kernel", None):
        raise SystemExit(f"repro-cli {args.command}: pass either a "
                         f"positional workload or --app/--kernel, "
                         f"not both")
    from repro.workloads import (DEMO_KERNELS, WORKLOADS,
                                 build_demo_kernel)
    if token in WORKLOADS:
        return build_workload(token, args.scale)
    if os.path.exists(token):
        from repro.frontend import compile_kernel
        with open(token) as handle:
            source = handle.read()
        return compile_kernel(source, name=token.rsplit("/", 1)[-1]
                              .split(".")[0])
    if token in DEMO_KERNELS:
        return build_demo_kernel(token, args.scale)
    raise SystemExit(
        f"repro-cli {args.command}: unknown workload {token!r} -- not "
        f"a suite application ({', '.join(WORKLOADS)}), not a kernel "
        f"file, and not a demo kernel ({', '.join(DEMO_KERNELS)})")


def _print_metrics(metrics, out) -> None:
    print(f"total accesses:     {metrics.total_accesses:>12,}", file=out)
    print(f"off-chip fraction:  {metrics.offchip_fraction:>12.1%}",
          file=out)
    print(f"on-chip net latency:  "
          f"{metrics.avg_onchip_net_latency:>10.1f} cycles", file=out)
    print(f"off-chip net latency: "
          f"{metrics.avg_offchip_net_latency:>10.1f} cycles", file=out)
    print(f"off-chip mem latency: "
          f"{metrics.avg_offchip_mem_latency:>10.1f} cycles", file=out)
    print(f"DRAM row-hit rate:  {metrics.row_hit_rate:>12.1%}", file=out)
    print(f"execution time:     {metrics.exec_time:>12,.0f} cycles",
          file=out)


def _engine_label(result) -> str:
    """The event loop that ran, with the reason when ``fast`` fell
    back (``reference (fallback: model_writes)``)."""
    if result.store_hit:
        return "store replay"
    if result.fallback_reason is not None:
        return f"{result.engine_used} (fallback: {result.fallback_reason})"
    return str(result.engine_used)


# -- subcommands -------------------------------------------------------------

def cmd_transform(args: argparse.Namespace, out) -> int:
    from repro.core.pipeline import LayoutTransformer
    from repro.frontend import emit_program
    program = _load_program(args)
    config = _config(args)
    transformer = LayoutTransformer(config,
                                    resolve_mapping(config, args.mapping))
    result = transformer.run(program)
    print(f"arrays optimized: {result.pct_arrays_optimized:.0%}, "
          f"references satisfied: {result.pct_refs_satisfied:.0%}",
          file=out)
    for name, plan in result.plans.items():
        print(f"  {name}: {plan.reason}", file=out)
    if args.emit in ("original", "both"):
        print("", file=out)
        print(emit_program(program), file=out)
    if args.emit in ("transformed", "both"):
        print("", file=out)
        print(emit_program(program, result), file=out)
    return 0


def cmd_legality(args: argparse.Namespace, out) -> int:
    from repro.core.dependence import check_program
    program = _load_program(args)
    status = 0
    for report in check_program(program):
        verdict = "legal" if report.legal else "NOT PROVEN LEGAL"
        print(f"nest {report.nest_name} (parallel dim "
              f"{report.parallel_dim}): {verdict}", file=out)
        for conflict in report.conflicts:
            print(f"    {conflict}", file=out)
            status = 1
    return status


def _load_fault_plan(path: str):
    if not path:
        return None
    from repro.faults import FaultPlan
    try:
        with open(path) as handle:
            return FaultPlan.from_json(handle.read())
    except (OSError, ValueError, KeyError, TypeError) as err:
        raise SystemExit(f"repro-cli: cannot load fault plan "
                         f"{path!r}: {err}")


def cmd_run(args: argparse.Namespace, out) -> int:
    from repro.api.requests import RunRequest
    program = _load_program(args)
    config = _config(args)
    plan = _load_fault_plan(args.fault_plan)
    request = RunRequest.from_objects(
        program=program, config=config,
        mapping=resolve_mapping(config, args.mapping),
        optimized=args.optimized, optimal=args.optimal,
        fault_plan=plan, seed=args.seed, validate=args.validate,
        engine=args.engine, store=args.store or None)
    result = request.execute()
    kind = "optimal" if args.optimal else (
        "optimized" if args.optimized else "baseline")
    print(f"{program.name} ({kind}):", file=out)
    _print_metrics(result.metrics, out)
    print(f"engine:             {_engine_label(result):>12}", file=out)
    if args.validate != "off":
        print(f"validation:         "
              f"{result.metrics.validation_checks:>12,} checks "
              f"({args.validate}), all invariants hold", file=out)
    if plan is not None:
        m = result.metrics
        print(f"fault events:       {m.fault_events:>12,}  "
              f"(failovers {m.mc_failovers}, detours {m.link_detours}, "
              f"bank remaps {m.bank_remaps}, "
              f"page fallbacks {m.page_fallbacks})", file=out)
    return 0


def cmd_compare(args: argparse.Namespace, out) -> int:
    from repro.api.requests import CompareRequest
    program = _load_program(args)
    config = _config(args)
    comparison = CompareRequest.from_objects(
        program=program, config=config,
        mapping=resolve_mapping(config, args.mapping)).execute()
    print(f"{program.name}: baseline vs optimized", file=out)
    labels = {
        "onchip_net": "on-chip network latency",
        "offchip_net": "off-chip network latency",
        "offchip_mem": "off-chip memory latency",
        "exec_time": "execution time",
    }
    for key, value in comparison.as_row().items():
        bar = "#" * max(0, int(round(value * 40)))
        print(f"  {labels[key]:<26} {value:>7.1%}  {bar}", file=out)
    return 0


def cmd_suite(args: argparse.Namespace, out) -> int:
    from repro.analysis.tables import (format_percent_table,
                                       improvement_summary)
    from repro.api.requests import CompareRequest
    config = _config(args)
    mapping = resolve_mapping(config, args.mapping)
    rows = {}
    for app in SUITE_ORDER:
        program = build_workload(app, args.scale)
        comparison = CompareRequest.from_objects(
            program=program, config=config, mapping=mapping).execute()
        rows[app] = comparison
        print(f"  {app}: exec {comparison.exec_time_reduction:+.1%}",
              file=out)
    summary = improvement_summary(rows)
    print(format_percent_table(summary, METRIC_COLUMNS,
                               title="suite reductions"), file=out)
    return 0


def _parse_axes(specs: List[str]) -> dict:
    """Parse repeated ``--axis name=v1,v2`` flags, failing fast with a
    one-line diagnostic that names the offending axis/value and lists
    the known axes (a typo must not abort a sweep mid-run with a
    traceback)."""
    from repro.sim.executor import CONFIG_AXES
    known = CONFIG_AXES + ("mapping",)
    axes = {}
    for spec in specs:
        name, _, values = spec.partition("=")
        if not name or not values:
            raise SystemExit(
                f"repro-cli sweep: bad axis spec {spec!r}; "
                f"expected name=v1,v2 with name one of: "
                f"{', '.join(known)}")
        if name not in known:
            raise SystemExit(
                f"repro-cli sweep: unknown axis {name!r} "
                f"(in {spec!r}); known axes: {', '.join(known)}")
        parsed = []
        for v in values.split(","):
            if not v:
                raise SystemExit(
                    f"repro-cli sweep: empty value for axis {name!r} "
                    f"(in {spec!r})")
            if v.lower() in ("true", "false"):
                parsed.append(v.lower() == "true")
            else:
                try:
                    parsed.append(int(v))
                except ValueError:
                    parsed.append(v)
        axes[name] = parsed
    return axes


def cmd_sweep(args: argparse.Namespace, out) -> int:
    from repro.api.requests import SweepRequest
    from repro.sim.executor import (default_workers, grid_settings,
                                    steal_stats)
    program = _load_program(args)
    workers = args.workers if args.workers is not None else \
        default_workers()
    if workers < 1:
        raise SystemExit(f"repro-cli sweep: --workers must be >= 1, "
                         f"got {workers}")
    axes = _parse_axes(args.axis)
    total = len(grid_settings(axes))
    state = {"done": 0, "failed": 0, "started": time.monotonic()}

    def progress(outcome):
        # Counts every freshly simulated point for the summary line;
        # the per-wave lines are printed only under --progress.
        state["done"] += 1
        if not getattr(outcome, "ok", True):
            state["failed"] += 1
        if args.progress:
            wave = (state["done"] - 1) // max(workers, 1)
            print(f"[sweep] wave {wave}: {state['done']}/{total} "
                  f"points done, {state['failed']} failed",
                  file=sys.stderr)

    steal_before = steal_stats()
    try:
        request = SweepRequest.from_objects(
            program=program, config=_config(args), axes=axes,
            workers=workers, validate=args.validate,
            engine=args.engine, store=args.store or None)
        report = request.execute(progress=progress)
    except ValidationError:
        raise  # main() maps it to the validation exit code
    except ValueError as err:  # e.g. unknown mapping preset value
        raise SystemExit(f"repro-cli sweep: {err}")
    if not args.quiet:
        elapsed = time.monotonic() - state["started"]
        print(f"[sweep] {report.completed} points ({state['done']} "
              f"simulated) in {elapsed:.1f}s", file=sys.stderr)
        if args.store:
            # The CI smoke job greps this line to prove a shared store
            # actually served records across processes.
            print(f"[store] hits={report.store_hits} "
                  f"misses={report.store_misses} dir={args.store}",
                  file=sys.stderr)
        if workers > 1:
            # The CI scaling job greps this line to prove workers
            # stole batches.
            steal_now = steal_stats()
            print(f"[steal] batches="
                  f"{steal_now['batches'] - steal_before['batches']} "
                  f"tasks={steal_now['tasks'] - steal_before['tasks']} "
                  f"requeued="
                  f"{steal_now['requeued'] - steal_before['requeued']}",
                  file=sys.stderr)
    print(report.to_csv(), end="", file=out)
    return 0


def cmd_trace(args: argparse.Namespace, out) -> int:
    from repro.sim.run import RunSpec, run_simulation
    program = _resolve_program(args)
    config = _config(args)
    mapping = resolve_mapping(config, args.mapping)
    if not args.out and not args.output:
        raise SystemExit("repro-cli trace: pass --out trace.json "
                         "(Chrome trace) and/or --output traces.npz")
    if args.output:
        from repro.core.pipeline import LayoutTransformer, original_layouts
        from repro.program.address_space import AddressSpace
        from repro.program.trace import generate_traces
        from repro.program.tracefile import save_traces
        if args.optimized:
            transformer = LayoutTransformer(config, mapping)
            layouts = transformer.run(program).layouts
        else:
            layouts = original_layouts(program)
        bases = AddressSpace(config).place_all(layouts)
        threads = config.num_cores * config.threads_per_core
        traces = generate_traces(program, layouts, bases, threads)
        save_traces(args.output, traces,
                    metadata={"program": program.name,
                              "optimized": args.optimized,
                              "threads": threads})
        total = sum(t.num_accesses for t in traces)
        print(f"wrote {total:,} accesses over {threads} threads to "
              f"{args.output}", file=out)
    if args.out:
        from repro.obs import (link_heatmap, mc_timeline,
                               write_chrome_trace)
        spec = RunSpec(program=program, config=config, mapping=mapping,
                       optimized=args.optimized, obs="full")
        result = run_simulation(spec)
        count = write_chrome_trace(args.out, result.obs)
        print(f"wrote Chrome trace ({len(result.obs.spans)} spans, "
              f"{count} events) to {args.out} -- load it in "
              f"chrome://tracing or Perfetto", file=out)
        if args.heatmap:
            print(link_heatmap(result.obs), file=out)
        if args.timeline:
            print(mc_timeline(result.obs), file=out)
    return 0


def cmd_profile(args: argparse.Namespace, out) -> int:
    from repro.obs import profile_table
    from repro.sim.run import RunSpec, run_simulation
    program = _resolve_program(args)
    config = _config(args)
    mapping = resolve_mapping(config, args.mapping)
    spec = RunSpec(program=program, config=config, mapping=mapping,
                   optimized=args.optimized, obs=args.obs)
    result = run_simulation(spec)
    print(f"engine: {_engine_label(result)}", file=out)
    print(profile_table(result.obs, top=args.top), file=out)
    return 0


def cmd_report(args: argparse.Namespace, out) -> int:
    from repro.analysis.report import build_report
    config = _config(args)
    apps = args.apps.split(",") if args.apps else list(SUITE_ORDER)
    report = build_report(apps, config,
                          mapping=resolve_mapping(config, args.mapping),
                          scale=args.scale)
    text = report.to_markdown(
        title=f"Off-chip localization report ({config.interleaving})")
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {args.output}", file=out)
    else:
        print(text, file=out)
    return 0


def cmd_doctor(args: argparse.Namespace, out) -> int:
    from repro.validate.doctor import run_doctor
    apps = args.apps.split(",") if args.apps else None
    report = run_doctor(scale=args.scale, apps=apps,
                        smoke=not args.skip_runs)
    for check in report.checks:
        mark = "ok  " if check.ok else "FAIL"
        print(f"  {mark} {check.name:<16} {check.detail} "
              f"({check.elapsed:.2f}s)", file=out)
    print(report.summary(), file=out)
    return 0 if report.ok else 1


def cmd_fuzz(args: argparse.Namespace, out) -> int:
    from repro.validate.fuzz import fuzz_frontend, load_corpus
    corpus = load_corpus(args.kernel) if args.kernel else None
    report = fuzz_frontend(cases=args.cases, seed=args.seed,
                           corpus=corpus, run_pass=not args.no_pass)
    print(report.summary(), file=out)
    for case in report.crashes:
        print(f"  CRASH case {case.index} "
              f"(mutations: {', '.join(case.mutations)}): "
              f"{case.detail}", file=out)
        print("  ---- source ----", file=out)
        for line in case.source.splitlines():
            print(f"  | {line}", file=out)
    return 0 if report.ok else 1


def cmd_store(args: argparse.Namespace, out) -> int:
    from repro.store import DiskStore, FallbackStore, open_store
    if args.action == "ping":
        from repro.errors import EXIT_CODES
        from repro.store import RemoteStore
        if not str(args.dir).startswith(("http://", "https://")):
            raise SystemExit(f"repro-cli store ping: {args.dir!r} is "
                             f"not a store-server URL "
                             f"(expected http://host:port)")
        report = RemoteStore.from_url(args.dir).ping()
        print(f"url:          {report['url']}", file=out)
        print(f"reachable:    {'yes' if report['ok'] else 'no'}",
              file=out)
        if report.get("latency_ms") is not None:
            print(f"latency_ms:   {report['latency_ms']:.1f}", file=out)
        print(f"breaker:      {report['breaker']}", file=out)
        if "server_store" in report:
            print(f"server_store: {report['server_store']}", file=out)
        if "error" in report:
            print(f"error:        {report['error']}", file=out)
        return 0 if report["ok"] else EXIT_CODES["store"]
    store = open_store(args.dir)
    backend = store.primary if isinstance(store, FallbackStore) \
        else store
    if not isinstance(backend, DiskStore):
        raise SystemExit(f"repro-cli store: {args.dir!r} is not a "
                         f"usable store directory "
                         f"({store.description})")
    if args.action == "stats":
        summary = backend.stats_summary()
        print(f"store {summary['root']} (format v{summary['version']})",
              file=out)
        for kind, count in sorted(summary["records"].items()):
            print(f"  {kind + ' records:':<20} {count}", file=out)
        print(f"  {'bytes:':<20} {summary['bytes']:,}", file=out)
        # Quarantined corrupt records are their own line item, never
        # folded into misses: a miss is a record that was never there.
        print(f"  {'quarantined:':<20} {summary['quarantined']}",
              file=out)
        print(f"  {'misses (session):':<20} {summary['misses']}",
              file=out)
        print(f"  {'corrupt (session):':<20} {summary['corrupt']}",
              file=out)
        return 0
    if args.action == "verify":
        report = backend.verify()
        print(f"checked {report['checked']} records: "
              f"{report['bad']} bad (quarantined)", file=out)
        return 1 if report["bad"] else 0
    report = backend.gc()
    print(f"removed {report['removed']} quarantined/orphaned files "
          f"({report['bytes']:,} bytes)", file=out)
    return 0


def cmd_search(args: argparse.Namespace, out) -> int:
    import json as json_mod

    from repro.api.requests import SearchRequest
    from repro.search import PLACEMENT_POOLS

    program = _load_program(args)
    width, _, height = args.mesh.partition("x")
    config = MachineConfig.scaled_default().with_(
        num_mcs=args.mcs, mesh_width=int(width),
        mesh_height=int(height or width))
    placements = (args.placements
                  if args.placements in PLACEMENT_POOLS
                  else [p for p in args.placements.split(",") if p])
    mappings = ([m for m in args.mappings.split(",") if m]
                if args.mappings else None)
    interleavings = [i for i in args.interleavings.split(",") if i]
    request = SearchRequest.from_objects(
        program=program, config=config, mode=args.mode,
        placements=placements, mappings=mappings,
        interleavings=interleavings, top_k=args.top_k,
        steps=args.steps, seed=args.seed,
        resimulate=not args.no_resim)
    if args.workers < 1:
        raise SystemExit(f"repro-cli search: --workers must be >= 1, "
                         f"got {args.workers}")
    result = request.execute(workers=args.workers)
    if not args.quiet:
        accept = ("" if result.acceptance_rate is None else
                  f", acceptance {result.acceptance_rate:.0%}")
        print(f"[search] {result.mode}: "
              f"{result.candidates_evaluated}/{result.space_size} "
              f"candidates screened, top {len(result.rows)} "
              f"re-simulated{accept}", file=sys.stderr)
    if args.json:
        print(json_mod.dumps(result.to_doc(), indent=2), file=out)
    else:
        print(result.to_csv(), end="", file=out)
    return 0


def cmd_serve(args: argparse.Namespace, out) -> int:
    import asyncio

    from repro.serve import serve_forever
    from repro.serve.wire import DEFAULT_READ_TIMEOUT
    read_timeout = args.read_timeout
    if read_timeout is None:
        read_timeout = DEFAULT_READ_TIMEOUT
    elif read_timeout <= 0:
        read_timeout = None  # explicit 0 disables the guard
    try:
        return asyncio.run(serve_forever(
            host=args.host, port=args.port, store=args.store or None,
            job_threads=args.job_threads, max_queued=args.max_queued,
            read_timeout=read_timeout,
            analytic_admission=args.analytic_admission, out=out))
    except KeyboardInterrupt:
        return 0


def cmd_list(args: argparse.Namespace, out) -> int:
    for app in SUITE_ORDER:
        program = build_workload(app, 0.2)
        print(f"  {app:<11} arrays={len(program.arrays)} "
              f"nests={len(program.nests)} "
              f"mlp_demand={program.mlp_demand}", file=out)
    return 0


# -- driver ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cli",
        description="Off-chip access localization: compile, analyze, "
                    "simulate.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="run the layout pass on a "
                                         "kernel file and emit C")
    p.add_argument("kernel")
    p.add_argument("--emit", default="transformed",
                   choices=["original", "transformed", "both", "none"])
    _machine_flags(p)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("legality", help="dependence / legality report")
    p.add_argument("kernel")
    _machine_flags(p)
    p.set_defaults(func=cmd_legality)

    for name, func in (("run", cmd_run), ("compare", cmd_compare)):
        p = sub.add_parser(name)
        target = p.add_mutually_exclusive_group(required=True)
        target.add_argument("--app", choices=list(SUITE_ORDER))
        target.add_argument("--kernel")
        if name == "run":
            p.add_argument("--optimized", action="store_true")
            p.add_argument("--optimal", action="store_true")
            p.add_argument("--fault-plan", default="",
                           help="JSON fault plan to inject "
                                "(see repro.faults.FaultPlan)")
            p.add_argument("--seed", type=int, default=0,
                           help="seed for stochastic tie-breaks")
            p.add_argument("--validate", default="off",
                           choices=["off", "metrics", "strict"],
                           help="invariant-sanitizer level "
                                "(repro.validate)")
            p.add_argument("--engine", default="fast",
                           choices=["fast", "reference"],
                           help="event-loop engine (bit-identical; "
                                "'fast' filters cache hits out of the "
                                "global heap)")
            p.add_argument("--store", default="",
                           help="persistent result store: a directory "
                                "or a store-server URL "
                                "(http://host:port; replay hits, "
                                "persist misses; bit-identical either "
                                "way)")
        _machine_flags(p)
        p.set_defaults(func=func)

    p = sub.add_parser("suite", help="run all 13 applications")
    _machine_flags(p)
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("sweep", help="cartesian configuration sweep "
                                     "(CSV to stdout)")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--app", choices=list(SUITE_ORDER))
    target.add_argument("--kernel")
    p.add_argument("--axis", action="append", default=[],
                   help="axis spec name=v1,v2 (repeatable), e.g. "
                        "mapping=M1,M2 num_mcs=4,8")
    p.add_argument("--workers", type=int, default=None,
                   help="parallel worker processes for grid points "
                        "(default: one per CPU; 1 = in-process)")
    p.add_argument("--validate", default="off",
                   choices=["off", "metrics", "strict"],
                   help="invariant-sanitizer level for every run")
    p.add_argument("--engine", default="fast",
                   choices=["fast", "reference"],
                   help="event-loop engine for every run "
                        "(bit-identical)")
    p.add_argument("--store", default="",
                   help="persistent result store shared across "
                        "processes: a directory, or a store-server "
                        "URL (http://host:port) to share one store "
                        "over the network (replay hits, persist "
                        "misses)")
    verbosity = p.add_mutually_exclusive_group()
    verbosity.add_argument("--progress", action="store_true",
                           help="periodic progress lines on stderr "
                                "(wave index, points done/failed)")
    verbosity.add_argument("--quiet", action="store_true",
                           help="suppress the final summary line")
    _machine_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("search", help="design-space placement search: "
                                      "analytic screen + bit-exact "
                                      "frontier re-simulation (CSV to "
                                      "stdout; see docs/search.md)")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--app", choices=list(SUITE_ORDER))
    target.add_argument("--kernel")
    p.add_argument("--mode", default="auto",
                   choices=["auto", "exhaustive", "anneal"],
                   help="auto enumerates small spaces and anneals "
                        "large ones")
    p.add_argument("--placements", default="named",
                   help="candidate pool: named (P1/P2/P3), perimeter, "
                        "all, or explicit comma-separated placements "
                        "(e.g. P1,custom:0,...)")
    p.add_argument("--mappings", default="",
                   help="comma-separated mapping presets to consider "
                        "(default: every preset valid for the "
                        "machine)")
    p.add_argument("--interleavings", default="cache_line,page",
                   help="comma-separated interleavings to consider")
    p.add_argument("--top-k", type=int, default=4,
                   help="frontier size kept and re-simulated")
    p.add_argument("--steps", type=int, default=128,
                   help="annealing proposals (anneal mode)")
    p.add_argument("--seed", type=int, default=0,
                   help="search seed; same seed, same frontier, "
                        "byte-identical CSV")
    p.add_argument("--no-resim", action="store_true",
                   help="skip the bit-exact frontier re-simulation "
                        "(analytic estimates only)")
    p.add_argument("--workers", type=int, default=1,
                   help="parallel worker processes for the frontier "
                        "re-simulation (byte-identical CSV)")
    p.add_argument("--json", action="store_true",
                   help="emit the JSON summary instead of CSV")
    p.add_argument("--quiet", action="store_true",
                   help="suppress the stderr summary line")
    p.add_argument("--mcs", type=int, default=4)
    p.add_argument("--mesh", default="8x8",
                   help="mesh dimensions, e.g. 8x8")
    p.add_argument("--scale", type=float, default=1.0,
                   help="workload scale factor")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("trace", help="save access traces (--output "
                                     ".npz) and/or record an observed "
                                     "run as a Chrome trace (--out)")
    p.add_argument("workload", nargs="?", default="",
                   help="suite app, kernel file, or demo kernel "
                        "(e.g. matmul)")
    target = p.add_mutually_exclusive_group()
    target.add_argument("--app", choices=list(SUITE_ORDER))
    target.add_argument("--kernel")
    p.add_argument("--output", default="", help="output .npz path "
                                                "(raw access traces)")
    p.add_argument("--out", default="",
                   help="Chrome trace_event JSON path (obs=full run; "
                        "open in chrome://tracing / Perfetto)")
    p.add_argument("--heatmap", action="store_true",
                   help="also print the ASCII NoC-link heatmap")
    p.add_argument("--timeline", action="store_true",
                   help="also print the per-MC occupancy timeline")
    p.add_argument("--optimized", action="store_true")
    _machine_flags(p)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("profile", help="run one observed simulation "
                                       "and print where the time goes")
    p.add_argument("workload", nargs="?", default="matmul",
                   help="suite app, kernel file, or demo kernel "
                        "(default: matmul)")
    p.add_argument("--top", type=int, default=15,
                   help="rows in the span table")
    p.add_argument("--obs", default="full", choices=["spans", "full"],
                   help="observation level for the run")
    p.add_argument("--optimized", action="store_true")
    _machine_flags(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("report", help="markdown suite report")
    p.add_argument("--apps", default="",
                   help="comma-separated subset (default: all 13)")
    p.add_argument("--output", default="", help="write to a file")
    _machine_flags(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("doctor", help="self-check: install, config "
                                      "presets, one strict-validated "
                                      "smoke run per workload")
    p.add_argument("--scale", type=float, default=0.25,
                   help="workload scale for the smoke runs")
    p.add_argument("--apps", default="",
                   help="comma-separated subset to smoke-run "
                        "(default: all 13)")
    p.add_argument("--skip-runs", action="store_true",
                   help="skip the smoke simulations (fast static "
                        "checks only)")
    p.set_defaults(func=cmd_doctor)

    p = sub.add_parser("fuzz", help="fuzz the frontend's never-crash "
                                    "contract with mutated kernels")
    p.add_argument("--cases", type=int, default=200,
                   help="number of mutated kernels to try")
    p.add_argument("--seed", type=int, default=0,
                   help="campaign seed (campaigns are reproducible)")
    p.add_argument("--kernel", action="append", default=[],
                   help="extra corpus file or directory of .krn "
                        "kernels (repeatable)")
    p.add_argument("--no-pass", action="store_true",
                   help="compile only; skip the layout-pass "
                        "degradation check")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("store", help="inspect/maintain a persistent "
                                     "result store (directory or "
                                     "store-server URL)")
    p.add_argument("action", choices=["stats", "verify", "gc", "ping"],
                   help="stats: inventory; verify: re-checksum every "
                        "record (damaged ones are quarantined); gc: "
                        "drop quarantined records and orphaned temp "
                        "files; ping: one health round trip to a "
                        "store-server URL (reports latency and the "
                        "client circuit-breaker state)")
    p.add_argument("dir", help="store root directory, or a store-"
                               "server URL (http://host:port) for "
                               "ping")
    p.set_defaults(func=cmd_store)

    p = sub.add_parser("serve", help="run the HTTP experiment service "
                                     "(typed schema-v1 requests; see "
                                     "docs/service.md)")
    p.add_argument("--host", default="127.0.0.1",
                   help="interface to bind (default: loopback)")
    p.add_argument("--port", type=int, default=8080,
                   help="TCP port; 0 picks an ephemeral port, printed "
                        "on the listening line")
    p.add_argument("--store", default="",
                   help="persistent result-store directory every "
                        "request dedupes through (strongly "
                        "recommended; without it only in-flight "
                        "coalescing dedupes work).  Also serves the "
                        "store over GET/PUT /v1/store/... -- remote "
                        "workers share it by running with "
                        "--store http://host:port")
    p.add_argument("--job-threads", type=int, default=2,
                   help="concurrent jobs (each may fan out to the "
                        "process pool via its request's workers=)")
    p.add_argument("--max-queued", type=int, default=32,
                   help="bounded job queue; submissions past this "
                        "answer HTTP 429")
    p.add_argument("--read-timeout", type=float, default=None,
                   help="seconds to receive one whole HTTP request "
                        "before answering 408 (default 30; slow-loris "
                        "guard)")
    p.add_argument("--analytic-admission", action="store_true",
                   help="cost run/compare submissions with the "
                        "analytic engine so admission control "
                        "predicts queue wait per job size instead of "
                        "one flat average (see docs/search.md)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("list", help="list workload models")
    p.set_defaults(func=cmd_list)
    return parser


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, out)
    except BrokenPipeError:
        # downstream consumer (head, less) closed the pipe: not an error
        return 0
    except ReproError as err:
        # One classification for scripts and the service alike: each
        # error family exits with its repro.errors.EXIT_CODES code,
        # mirroring the HTTP status mapping of repro.serve.
        print(f"repro-cli {args.command}: {err}", file=sys.stderr)
        if isinstance(err, ValidationError):
            for violation in err.violations:
                print(f"  {violation}", file=sys.stderr)
        return exit_code(err)


if __name__ == "__main__":
    raise SystemExit(main())
