"""Command-line toolchain: compile, run, inspect.

The CLI face of the reproduction (the paper's contribution #4 is an
open-source tool chain)::

    python -m repro run prog.c --scheme hwst128_tchk --stats
    python -m repro run prog.c --scheme hwst128_tchk --elide-checks
    python -m repro analyze prog.c --json
    python -m repro compile prog.c --disasm
    python -m repro schemes
    python -m repro workloads --run treeadd --scheme sbcets
    python -m repro juliet --cwe 416 --limit 3 --scheme asan
    python -m repro experiments fig4 --scale small --jobs 4
    python -m repro bench --reps 3 --seed 7 --out BENCH_SIM.json
    python -m repro bench --against BENCH_SIM.json
    python -m repro conform --jobs 4 --fuzz-count 200 --out CONFORM.json
    python -m repro serve --port 8128 --jobs 4 --cache-dir .repro-cache
"""

from __future__ import annotations

import argparse
import contextlib
import signal
import sys
from typing import List, Optional

from repro.core.config import HwstConfig
from repro.errors import (EXIT_FAILURE, EXIT_OK, CampaignInterrupted,
                          ReproError, exit_code_for, exit_code_for_status)
from repro.harness.runner import detected
from repro.pipeline.timing import InOrderPipeline
from repro.schemes import SCHEMES, compile_source
from repro.sim import DEFAULT_ENGINE, ENGINES, make_machine
from repro.workloads import WORKLOADS


def _read_source(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _config(args) -> HwstConfig:
    return HwstConfig(elide_checks=getattr(args, "elide_checks", False))


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive: {text}")
    return value


def _result_exit_code(result) -> int:
    """Distinct documented exit code for a run outcome (see
    repro.errors: 4=spatial, 5=temporal, 6=memory fault, ...)."""
    return exit_code_for_status(result.status, result.exit_code)


@contextlib.contextmanager
def _graceful_stop():
    """Convert SIGTERM/SIGINT into a polled stop flag for the scope of
    a campaign, so ``repro fuzz`` / ``repro faultcampaign`` flush a
    valid truncated report (exit code 12) instead of dying mid-write.
    A second SIGINT restores default handling (immediate kill escape
    hatch). Yields the flag callable the campaigns poll."""
    state = {"stop": False}

    def handler(signum, _frame):
        if state["stop"] and signum == signal.SIGINT:
            signal.signal(signal.SIGINT, signal.default_int_handler)
        state["stop"] = True
        print("interrupt: finishing current chunk, flushing truncated "
              "report (send SIGINT again to kill)", file=sys.stderr)

    previous = {sig: signal.signal(sig, handler)
                for sig in (signal.SIGTERM, signal.SIGINT)}
    try:
        yield lambda: state["stop"]
    finally:
        for sig, old in previous.items():
            signal.signal(sig, old)


def _print_result(result, stats: bool):
    print(f"status : {result.status}")
    if result.status == "exit":
        print(f"exit   : {result.exit_code}")
    if result.trap_class:
        pc = f" @ {result.trap_pc:#x}" if result.trap_pc is not None \
            else ""
        print(f"trap   : {result.trap_class}{pc}")
    if result.detail:
        print(f"detail : {result.detail}")
    if result.output:
        print(f"output : {result.output_text()!r}")
    print(f"instret: {result.instret}")
    print(f"cycles : {result.cycles}")
    if stats:
        from repro.obs.stats import derived_rates

        print("stats  :")
        for key in sorted(result.stats):
            print(f"  {key:18s} {result.stats[key]}")
        rates = derived_rates(result.stats, instret=result.instret,
                              cycles=result.cycles)
        print("derived:")
        for key in sorted(rates):
            print(f"  {key:18s} {rates[key]:.4f}")


def cmd_run(args) -> int:
    source = _read_source(args.file)
    profiling = bool(args.profile or args.folded_out)
    observing = bool(profiling or args.trace_out or args.metrics_out)
    metrics = tracer = profiler = phases = None
    if observing:
        from repro.obs import (CycleProfiler, MetricsRegistry, PhaseTimers,
                               Tracer)

        metrics = MetricsRegistry()
        if args.trace_out:
            tracer = Tracer(capacity=args.trace_buffer)
        if profiling:
            profiler = CycleProfiler()
        phases = PhaseTimers(metrics=metrics, tracer=tracer)
    program = compile_source(source, args.scheme, _config(args),
                             phases=phases)
    timing = None if args.no_timing else InOrderPipeline(metrics=metrics)
    machine = make_machine(args.engine, timing=timing,
                           trace_depth=args.trace, metrics=metrics,
                           tracer=tracer, profiler=profiler)
    result = machine.run(program, max_instructions=args.max_instructions)
    _print_result(result, args.stats)
    if args.trace and result.status != "exit":
        print("\nlast retired instructions:")
        print(machine.trace_text())
    if profiling:
        report = profiler.report(program)
        if args.profile:
            print("\nhotspots:")
            print(report.table())
            print(f"attributed : "
                  f"{100.0 * report.attributed_fraction:.1f}% "
                  "of cycles mapped to functions")
        if args.folded_out:
            with open(args.folded_out, "w") as fh:
                fh.write(report.to_collapsed())
            print(f"folded  -> {args.folded_out} "
                  "(flamegraph.pl / speedscope)")
    if args.metrics_out:
        machine.metrics.to_json(
            args.metrics_out,
            extra={"scheme": args.scheme, "file": args.file})
        print(f"metrics -> {args.metrics_out}")
    if args.trace_out:
        if args.trace_format == "jsonl":
            tracer.to_jsonl(args.trace_out)
        else:
            tracer.to_chrome_json(args.trace_out)
        note = f" ({tracer.dropped} dropped)" if tracer.dropped else ""
        print(f"trace   -> {args.trace_out} "
              f"({len(tracer)} events{note})")
        if tracer.dropped:
            print(f"warning: trace ring buffer overflowed, "
                  f"{tracer.dropped} oldest events dropped — raise "
                  f"--trace-buffer (currently {args.trace_buffer})",
                  file=sys.stderr)
    return _result_exit_code(result)


def cmd_stats(args) -> int:
    """Run a program and pretty-print the full metric tree."""
    from repro.harness.runner import run_program
    from repro.obs import MetricsRegistry
    from repro.obs.metrics import format_tree
    from repro.obs.stats import derived_rates

    metrics = MetricsRegistry()
    result = run_program(_read_source(args.file), args.scheme,
                         _config(args), timing=not args.no_timing,
                         max_instructions=args.max_instructions,
                         metrics=metrics)
    print(f"{args.file} under {args.scheme}: {result.status} "
          f"({result.instret} instructions, {result.cycles} cycles)")
    rates = derived_rates(result.stats, instret=result.instret,
                          cycles=result.cycles)
    print(format_tree(metrics.tree(), derived=rates))
    if args.metrics_out:
        metrics.to_json(args.metrics_out,
                        extra={"scheme": args.scheme, "file": args.file})
        print(f"metrics -> {args.metrics_out}")
    return 0 if result.ok else 1


def cmd_compile(args) -> int:
    source = _read_source(args.file)
    program = compile_source(source, args.scheme, _config(args))
    print(f"scheme      : {args.scheme}")
    print(f"text        : {program.text_base:#x}..{program.text_end:#x} "
          f"({len(program.instrs)} instructions)")
    data = program.segments[0] if program.segments else None
    if data is not None:
        print(f"data        : {data.addr:#x} (+{len(data.data)} bytes)")
    print(f"entry       : {program.entry:#x}")
    if args.encode:
        from repro.isa.encoding import encode_program

        blob = encode_program(program.instrs)
        with open(args.encode, "wb") as fh:
            fh.write(blob)
        print(f"machine code: {args.encode} ({len(blob)} bytes)")
    if args.disasm:
        print()
        print(program.listing())
    return 0


def cmd_schemes(_args) -> int:
    width = max(len(name) for name in SCHEMES) + 2
    for name, spec in SCHEMES.items():
        print(f"{name:{width}s}{spec.description}")
    return 0


def cmd_workloads(args) -> int:
    if args.run is None:
        width = max(len(name) for name in WORKLOADS) + 2
        for name, workload in WORKLOADS.items():
            print(f"{workload.group:8s} {name:{width}s}"
                  f"{workload.description}")
        return 0
    workload = WORKLOADS.get(args.run)
    if workload is None:
        print(f"unknown workload {args.run!r}", file=sys.stderr)
        return 1
    from repro.harness.runner import run_workload

    result = run_workload(args.run, args.scheme, scale=args.scale,
                          config=_config(args))
    _print_result(result, args.stats)
    return 0 if result.ok else 1


def cmd_juliet(args) -> int:
    from repro.harness.runner import run_program
    from repro.workloads.juliet import generate_corpus

    cwes = [args.cwe] if args.cwe else None
    cases = generate_corpus(fraction=1.0, cwes=cwes,
                            max_per_subtype=args.limit)
    for case in cases:
        if args.show:
            print(f"=== {case.case_id} (flow {case.flow}) ===")
            print(case.bad_source)
            continue
        result = run_program(case.bad_source, args.scheme,
                             config=_config(args), timing=False,
                             max_instructions=3_000_000)
        verdict = "DETECTED" if detected(args.scheme, result) else \
            "missed"
        print(f"{case.case_id:38s} {result.status:20s} {verdict}")
    return 0


def cmd_analyze(args) -> int:
    """Static memory-safety lint: no execution, no instrumentation."""
    import json

    from repro.analyze import analyze_source

    reports = []
    failed = False
    for path in args.files:
        report = analyze_source(_read_source(path), name=path)
        reports.append(report)
        if report.errors():
            failed = True
    if getattr(args, "sarif", None):
        sarif = reports[0].to_sarif()
        if len(reports) > 1:
            for report in reports[1:]:
                sarif["runs"].extend(report.to_sarif()["runs"])
        with open(args.sarif, "w", encoding="utf-8") as fh:
            json.dump(sarif, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.json:
        payload = [report.to_dict() for report in reports]
        print(json.dumps(payload[0] if len(payload) == 1 else payload,
                         indent=2))
    else:
        for report in reports:
            print(report.text())
    return 1 if failed else 0


def _print_report(args, text: str, summary: str, doc: dict) -> None:
    """A campaign's table and executor summary on stdout, and its
    report document at ``--out``."""
    from repro.harness.parallel import report_to_json

    print(text)
    print(summary)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report_to_json(doc))
        print(f"report -> {args.out}")


def _campaign(args, label: str, run) -> int:
    """The body of ``repro fuzz`` and ``repro faultcampaign``.

    ``run(executor=, heartbeat=, stop=)`` runs the campaign on one
    executor, with SIGTERM/SIGINT turned into its stop flag and a
    heartbeat from ``--heartbeat SECONDS`` (0 = off, the default:
    short runs and tests stay silent). An interrupted campaign still
    writes its truncated report, then raises
    :class:`~repro.errors.CampaignInterrupted` (exit 12).
    """
    from repro.harness.parallel import SweepExecutor

    with SweepExecutor(jobs=args.jobs) as executor, \
            _graceful_stop() as stop:
        heartbeat = None
        if args.heartbeat:
            from repro.obs import Heartbeat

            heartbeat = Heartbeat(total=args.n, label=label,
                                  interval_s=args.heartbeat,
                                  metrics=executor.registry)
        report = run(executor=executor, heartbeat=heartbeat, stop=stop)
    doc = report.to_dict()
    _print_report(args, report.table(), executor.summary(), doc)
    if report.interrupted:
        raise CampaignInterrupted(doc["completed"], args.n)
    return 0 if report.clean else 1


def cmd_faultcampaign(args) -> int:
    """Seeded fault-injection campaign with a differential oracle."""
    from repro.faultinject import FAMILIES, run_campaign

    families = [name.strip() for name in args.faults.split(",")
                if name.strip()]
    unknown = [name for name in families if name not in FAMILIES]
    if unknown:
        print(f"error: unknown fault families {unknown}; known: "
              f"{sorted(FAMILIES)}", file=sys.stderr)
        return 2
    # Exit 1 gates on harness health: injections are *supposed* to be
    # detected or masked (and silent corruption is a finding, not a
    # failure), but a crash or hang means the harness misbehaved.
    return _campaign(args, "faultinject", lambda **hooks: run_campaign(
        scheme=args.scheme, families=families, n=args.n,
        seed=args.seed, wallclock_budget=args.wallclock,
        engine_lockstep=args.engine_lockstep, **hooks))


def cmd_fuzz(args) -> int:
    """Coverage-guided differential fuzzing campaign."""
    from repro.fuzz import run_fuzz

    return _campaign(args, "fuzz", lambda **hooks: run_fuzz(
        n=args.n, seed=args.seed, corpus_dir=args.corpus,
        reduce_divergences=not args.no_reduce,
        wallclock_budget=args.wallclock,
        engine_lockstep=args.engine_lockstep,
        spec_lockstep=args.spec_lockstep, **hooks))


def cmd_conform(args) -> int:
    """Conformance campaign: executable spec vs the ISS engines."""
    from repro.errors import EXIT_SPEC_DIVERGENCE
    from repro.harness.conform import divergences_of, run_conform
    from repro.harness.parallel import SweepExecutor

    schemes = [name.strip() for name in args.schemes.split(",")
               if name.strip()]
    unknown = [name for name in schemes if name not in SCHEMES]
    if unknown:
        print(f"error: unknown schemes {unknown}; known: "
              f"{sorted(SCHEMES)}", file=sys.stderr)
        return 2
    workloads = None
    if args.workloads:
        workloads = [name.strip() for name in args.workloads.split(",")
                     if name.strip()]
        missing = [name for name in workloads if name not in WORKLOADS]
        if missing:
            print(f"error: unknown workloads {missing}; known: "
                  f"{sorted(WORKLOADS)}", file=sys.stderr)
            return 2
    with SweepExecutor(jobs=args.jobs) as executor:
        report = run_conform(
            workloads=workloads, schemes=schemes, scale=args.scale,
            fuzz_count=args.fuzz_count, seed=args.seed,
            equiv=not args.skip_equiv, lockstep=not args.skip_lockstep,
            max_instructions=args.max_instructions,
            heartbeat_s=args.heartbeat, registry=executor.registry,
            executor=executor)
    totals = report["totals"]
    lines = [f"conform: {totals['cells']} cells, "
             f"{totals['equiv_cases']} equivalence cases, "
             f"{totals['retires']} lockstep retires, "
             f"{totals['mnemonics_covered']} mnemonics covered, "
             f"{totals['divergences']} divergences"]
    never = report["coverage"]["never_exercised"]
    if never and not args.skip_lockstep:
        lines.append(f"never exercised by the lockstep corpus "
                     f"({len(never)}): " + " ".join(never))
    _print_report(args, "\n".join(lines), executor.summary(), report)
    return EXIT_SPEC_DIVERGENCE if divergences_of(report) else EXIT_OK


def cmd_serve(args) -> int:
    """Long-running compile-and-check HTTP service (repro.serve/v1)."""
    import asyncio

    from repro.serve import ServeApp, Supervisor

    supervisor = Supervisor(
        jobs=args.jobs,
        disk_root=args.cache_dir,
        disk_max_bytes=args.cache_max_mb * 1024 * 1024,
        breaker_cooldown_s=args.breaker_cooldown)
    app = ServeApp(
        supervisor,
        host=args.host, port=args.port,
        queue_limit=args.queue_limit,
        deadline_s=args.deadline,
        drain_timeout_s=args.drain_timeout,
        allow_debug=args.debug_faults)

    async def serve() -> None:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, app.request_shutdown)
        await app.start()
        print(f"repro serve listening on "
              f"http://{app.host}:{app.port} "
              f"(workers={args.jobs} queue={args.queue_limit} "
              f"deadline={args.deadline:g}s)", flush=True)
        await app.run()

    try:
        asyncio.run(serve())
    finally:
        supervisor.close()
    print("repro serve: drained cleanly", file=sys.stderr)
    return EXIT_OK


def cmd_experiments(args) -> int:
    from repro.harness import experiments

    return experiments.main(args.rest)


def cmd_bench(args) -> int:
    """Performance-trajectory bench: run/compare repro.bench/v1
    envelopes (see repro.obs.bench / repro.obs.compare)."""
    from repro.errors import BenchRegression
    from repro.obs.bench import (
        SCENARIOS, load_envelope, run_bench, save_envelope,
    )
    from repro.obs.compare import compare_envelopes

    if args.list:
        width = max(len(name) for name in SCENARIOS) + 2
        for name, scenario in SCENARIOS.items():
            quick = "quick " if scenario.quick else "      "
            print(f"{quick}{name:{width}s}{scenario.description}")
        return 0

    names = None
    if args.scenarios:
        names = [name.strip() for name in args.scenarios.split(",")
                 if name.strip()]
        unknown = [name for name in names if name not in SCENARIOS]
        if unknown:
            print(f"error: unknown bench scenarios {unknown}; see "
                  "repro bench --list", file=sys.stderr)
            return 2
    if args.replay:
        # Compare two existing envelopes without running anything
        # (CI's self-check path).
        envelope = load_envelope(args.replay)
    else:
        def progress(name, index, total):
            print(f"bench [{index + 1}/{total}] {name} "
                  f"(x{args.reps})", file=sys.stderr)

        envelope = run_bench(scenarios=names, reps=args.reps,
                             seed=args.seed, quick=args.quick,
                             engine=args.engine, progress=progress)
    if args.out:
        save_envelope(envelope, args.out)
        print(f"envelope -> {args.out}")
    if args.against:
        base = load_envelope(args.against)
        comparison = compare_envelopes(
            base, envelope, tolerance_pct=args.tolerance,
            min_wall_ms=args.min_wall)
        print(comparison.table())
        if not comparison.ok:
            # Distinct documented exit code (repro.errors: 11).
            raise BenchRegression(
                [d.name for d in comparison.regressions])
    elif not args.out and not args.replay:
        # No baseline and nowhere to save: show what was measured.
        for name, entry in envelope["scenarios"].items():
            wall = entry["measured"]["wall_ms"]
            mips = entry["measured"].get("guest_mips")
            mips_s = f"  {mips['median']:.2f} MIPS" if mips else ""
            print(f"{name:<28}{wall['median']:>10.2f} ms "
                  f"±{wall['iqr']:.2f}{mips_s}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HWST128 reproduction tool chain")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="compile and execute a mini-C file")
    run_p.add_argument("file")
    run_p.add_argument("--scheme", default="baseline",
                       choices=sorted(SCHEMES))
    run_p.add_argument("--stats", action="store_true")
    run_p.add_argument("--elide-checks", action="store_true",
                       help="statically remove proven-redundant checks")
    run_p.add_argument("--no-timing", action="store_true")
    run_p.add_argument("--engine", default=DEFAULT_ENGINE,
                       choices=sorted(ENGINES),
                       help="execution core: 'fast' (translation-cached "
                       "superblock interpreter, the default) or 'ref' "
                       "(per-instruction reference interpreter; same "
                       "observables)")
    run_p.add_argument("--trace", type=int, default=0, metavar="N",
                       help="keep the last N instructions for post-mortem")
    run_p.add_argument("--max-instructions", type=int,
                       default=200_000_000)
    run_p.add_argument("--profile", action="store_true",
                       help="per-function cycle-attribution hotspot table")
    run_p.add_argument("--folded-out", metavar="OUT.FOLDED",
                       help="write collapsed-stack profile lines "
                       "(flamegraph.pl / speedscope input)")
    run_p.add_argument("--metrics-out", metavar="OUT.JSON",
                       help="write the metric snapshot "
                       "(repro.obs.metrics/v1)")
    run_p.add_argument("--trace-out", metavar="OUT.JSON",
                       help="write a structured event trace")
    run_p.add_argument("--trace-format", default="chrome",
                       choices=("chrome", "jsonl"),
                       help="trace_event JSON (Perfetto-loadable) or JSONL")
    run_p.add_argument("--trace-buffer", type=_positive_int,
                       default=65536, metavar="N",
                       help="trace ring-buffer capacity")
    run_p.set_defaults(fn=cmd_run)

    stats_p = sub.add_parser(
        "stats", help="run a mini-C file and print the metric tree")
    stats_p.add_argument("file")
    stats_p.add_argument("--scheme", default="baseline",
                         choices=sorted(SCHEMES))
    stats_p.add_argument("--elide-checks", action="store_true",
                         help="statically remove proven-redundant checks")
    stats_p.add_argument("--no-timing", action="store_true")
    stats_p.add_argument("--max-instructions", type=int,
                         default=200_000_000)
    stats_p.add_argument("--metrics-out", metavar="OUT.JSON",
                         help="also write the snapshot as JSON")
    stats_p.set_defaults(fn=cmd_stats)

    compile_p = sub.add_parser("compile",
                               help="compile and inspect a mini-C file")
    compile_p.add_argument("file")
    compile_p.add_argument("--scheme", default="baseline",
                           choices=sorted(SCHEMES))
    compile_p.add_argument("--elide-checks", action="store_true",
                           help="statically remove proven-redundant checks")
    compile_p.add_argument("--disasm", action="store_true",
                           help="print the full assembly listing")
    compile_p.add_argument("--encode", metavar="OUT.BIN",
                           help="write binary machine code")
    compile_p.set_defaults(fn=cmd_compile)

    schemes_p = sub.add_parser("schemes", help="list protection schemes")
    schemes_p.set_defaults(fn=cmd_schemes)

    workloads_p = sub.add_parser("workloads",
                                 help="list or run benchmark workloads")
    workloads_p.add_argument("--run", metavar="NAME")
    workloads_p.add_argument("--scheme", default="baseline",
                             choices=sorted(SCHEMES))
    workloads_p.add_argument("--scale", default="default",
                             choices=("default", "small"))
    workloads_p.add_argument("--stats", action="store_true")
    workloads_p.add_argument("--elide-checks", action="store_true",
                             help="statically remove proven-redundant "
                             "checks")
    workloads_p.set_defaults(fn=cmd_workloads)

    juliet_p = sub.add_parser("juliet",
                              help="generate/run Juliet-style cases")
    juliet_p.add_argument("--cwe", type=int)
    juliet_p.add_argument("--limit", type=int, default=1,
                          help="cases per subtype")
    juliet_p.add_argument("--scheme", default="hwst128_tchk",
                          choices=sorted(SCHEMES))
    juliet_p.add_argument("--show", action="store_true",
                          help="print sources instead of running")
    juliet_p.add_argument("--elide-checks", action="store_true",
                          help="statically remove proven-redundant checks")
    juliet_p.set_defaults(fn=cmd_juliet)

    analyze_p = sub.add_parser(
        "analyze", help="static memory-safety lint (no execution)")
    analyze_p.add_argument("files", nargs="+")
    analyze_p.add_argument("--json", action="store_true",
                           help="emit repro.analyze/v1 JSON")
    analyze_p.add_argument("--sarif", metavar="OUT.SARIF",
                           help="write findings as SARIF 2.1.0 "
                                "(one run per input file)")
    analyze_p.set_defaults(fn=cmd_analyze)

    fault_p = sub.add_parser(
        "faultcampaign",
        help="seeded fault-injection campaign (differential oracle)")
    fault_p.add_argument("--scheme", default="hwst128",
                         choices=sorted(SCHEMES))
    fault_p.add_argument("--faults", default="metadata,keybuffer,checks",
                         metavar="FAM[,FAM...]",
                         help="fault families: metadata, keybuffer, "
                         "checks")
    fault_p.add_argument("--n", type=_positive_int, default=200,
                         help="number of injections")
    fault_p.add_argument("--seed", type=int, default=0)
    fault_p.add_argument("--jobs", type=_positive_int, default=1)
    fault_p.add_argument("--wallclock", type=float, default=60.0,
                         metavar="SECONDS",
                         help="per-injection watchdog budget")
    fault_p.add_argument("--out", metavar="OUT.JSON",
                         help="write the repro.faultinject/v1 report")
    fault_p.add_argument("--engine-lockstep", action="store_true",
                         help="before injecting, run every golden on "
                         "the reference and the fast engine and abort "
                         "on any observable mismatch (report bytes "
                         "unchanged)")
    fault_p.add_argument("--heartbeat", type=float, default=0.0,
                         metavar="SECONDS",
                         help="emit JSON progress heartbeats on stderr "
                         "every SECONDS (0 = off)")
    fault_p.set_defaults(fn=cmd_faultcampaign)

    fuzz_p = sub.add_parser(
        "fuzz",
        help="coverage-guided differential fuzzing (grammar generator "
        "+ oracle stack + ddmin reducer)")
    fuzz_p.add_argument("--n", type=_positive_int, default=200,
                        help="number of generated programs")
    fuzz_p.add_argument("--seed", type=int, default=0)
    fuzz_p.add_argument("--jobs", type=_positive_int, default=1)
    fuzz_p.add_argument("--wallclock", type=float, default=60.0,
                        metavar="SECONDS",
                        help="per-program watchdog budget")
    fuzz_p.add_argument("--corpus", metavar="DIR",
                        help="save divergent programs (orig + reduced "
                        "repro + metadata) here")
    fuzz_p.add_argument("--no-reduce", action="store_true",
                        help="skip ddmin reduction of divergences")
    fuzz_p.add_argument("--out", metavar="OUT.JSON",
                        help="write the repro.fuzz/v1 report")
    fuzz_p.add_argument("--engine-lockstep", action="store_true",
                        help="add the ref-vs-fast engine oracle to "
                        "every probe (hwst128 build run on both "
                        "engines; must match including instret)")
    fuzz_p.add_argument("--spec-lockstep", action="store_true",
                        help="add the executable golden spec "
                        "(repro.spec) as an oracle: the hwst128 build "
                        "co-simulated against the reference engine "
                        "with per-retire architectural state diffs")
    fuzz_p.add_argument("--heartbeat", type=float, default=0.0,
                        metavar="SECONDS",
                        help="emit JSON progress heartbeats on stderr "
                        "every SECONDS (0 = off)")
    fuzz_p.set_defaults(fn=cmd_fuzz)

    conform_p = sub.add_parser(
        "conform",
        help="spec-vs-ISS conformance: per-instruction equivalence "
        "sweeps + lockstep co-simulation over workloads and fuzz "
        "programs (exit 15 on any divergence)")
    conform_p.add_argument("--workloads", metavar="A,B,...",
                           help="lockstep these workload kernels only "
                           "(default: all registered workloads)")
    conform_p.add_argument("--schemes", default=",".join(
        ("hwst128_tchk", "bogo", "wdl_wide")),
        metavar="A,B,...",
        help="schemes to lockstep each workload under")
    conform_p.add_argument("--scale", default="small",
                           help="workload input scale")
    conform_p.add_argument("--fuzz-count", type=int, default=200,
                           metavar="N",
                           help="generated fuzz programs to lockstep "
                           "(0 = none)")
    conform_p.add_argument("--seed", type=int, default=20260807,
                           help="seed for equivalence cases and the "
                           "fuzz corpus")
    conform_p.add_argument("--jobs", type=_positive_int, default=1)
    conform_p.add_argument("--skip-equiv", action="store_true",
                           help="skip the per-instruction equivalence "
                           "sweep")
    conform_p.add_argument("--skip-lockstep", action="store_true",
                           help="skip program lockstep (equivalence "
                           "sweep only)")
    conform_p.add_argument("--max-instructions", type=_positive_int,
                           default=2_000_000,
                           help="per-program lockstep retire budget")
    conform_p.add_argument("--heartbeat", type=float, default=0.0,
                           metavar="SECONDS",
                           help="emit JSON progress heartbeats on "
                           "stderr every SECONDS (0 = off)")
    conform_p.add_argument("--out", metavar="OUT.JSON",
                           help="write the repro.spec/v1 report")
    conform_p.set_defaults(fn=cmd_conform)

    bench_p = sub.add_parser(
        "bench",
        help="performance-trajectory bench: run the scenario suite, "
        "write/compare repro.bench/v1 envelopes")
    bench_p.add_argument("--reps", type=_positive_int, default=3,
                         help="repetitions per scenario (median/IQR)")
    bench_p.add_argument("--seed", type=int, default=7,
                         help="campaign-smoke seed")
    bench_p.add_argument("--quick", action="store_true",
                         help="run the quick scenario subset only")
    bench_p.add_argument("--scenarios", metavar="NAME[,NAME...]",
                         help="run only these scenarios "
                         "(see --list)")
    bench_p.add_argument("--list", action="store_true",
                         help="list registered scenarios and exit")
    bench_p.add_argument("--out", metavar="OUT.JSON",
                         help="write the repro.bench/v1 envelope "
                         "(BENCH_SIM.json)")
    bench_p.add_argument("--against", metavar="BASE.JSON",
                         help="gate against a baseline envelope; exits "
                         "11 on regression past tolerance")
    bench_p.add_argument("--replay", metavar="CUR.JSON",
                         help="compare an existing envelope instead of "
                         "running the suite")
    bench_p.add_argument("--tolerance", type=float, default=25.0,
                         metavar="PCT",
                         help="median wall-time slowdown gate")
    bench_p.add_argument("--engine", default="ref",
                         choices=("ref", "fast"),
                         help="execution core for workload scenarios "
                         "(the envelope records it)")
    bench_p.add_argument("--min-wall", type=float, default=2.0,
                         metavar="MS",
                         help="baseline medians below this never gate")
    bench_p.set_defaults(fn=cmd_bench)

    serve_p = sub.add_parser(
        "serve",
        help="hardened compile-and-check HTTP service "
        "(repro.serve/v1; POST /v1/check, /healthz, /metrics)")
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=8128,
                         help="listen port (0 = ephemeral, printed at "
                         "startup)")
    serve_p.add_argument("--jobs", type=_positive_int, default=2,
                         help="supervised worker processes")
    serve_p.add_argument("--queue-limit", type=_positive_int, default=8,
                         help="admitted concurrent requests before "
                         "load-shedding 429s")
    serve_p.add_argument("--deadline", type=float, default=30.0,
                         metavar="SECONDS",
                         help="per-request wallclock deadline "
                         "(exceeding it returns 504)")
    serve_p.add_argument("--drain-timeout", type=float, default=10.0,
                         metavar="SECONDS",
                         help="SIGTERM drain budget; missing it exits "
                         "14 with in-flight requests dropped")
    serve_p.add_argument("--cache-dir", metavar="DIR",
                         help="cross-process on-disk artifact store "
                         "shared by the workers (omit for per-process "
                         "memory-only caching)")
    serve_p.add_argument("--cache-max-mb", type=_positive_int,
                         default=256,
                         help="artifact store size cap (LRU eviction)")
    serve_p.add_argument("--breaker-cooldown", type=float, default=30.0,
                         metavar="SECONDS",
                         help="circuit-breaker quarantine window for a "
                         "worker-killing request fingerprint")
    serve_p.add_argument("--debug-faults", action="store_true",
                         help="accept the 'debug' request block "
                         "(planted worker crashes/sleeps) — soak "
                         "tests only, never production")
    serve_p.set_defaults(fn=cmd_serve)

    experiments_p = sub.add_parser(
        "experiments", help="regenerate paper figures; supports "
        "--jobs N parallel sweeps (see repro.harness.experiments)")
    experiments_p.add_argument("rest", nargs=argparse.REMAINDER)
    experiments_p.set_defaults(fn=cmd_experiments)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # `experiments` forwards everything verbatim (argparse's REMAINDER
    # refuses leading options like `--list`).
    if argv and argv[0] == "experiments":
        from repro.harness import experiments

        return experiments.main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FAILURE
    except ReproError as err:
        # Each error class maps to a distinct documented exit code
        # (repro.errors: 3=toolchain, 4=spatial, 5=temporal, ...).
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return exit_code_for(err)


if __name__ == "__main__":
    sys.exit(main())
