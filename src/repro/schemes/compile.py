"""Source -> Program compile pipelines, one per protection scheme."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.codegen.link import build_program
from repro.codegen.lower import CodegenOptions
from repro.codegen.runtime import runtime_source
from repro.core.config import HwstConfig
from repro.ir.irgen import lower_unit
from repro.ir.verify import verify_module
from repro.minic import analyze, tokenize
from repro.minic.parser import Parser
from repro.obs.phases import NULL_PHASES
from repro.pipeline.timing import InOrderPipeline, TimingParams
from repro.sim import make_machine
from repro.sim.machine import RunResult
from repro.sim.memory import DEFAULT_LAYOUT


@dataclass(frozen=True)
class SchemeSpec:
    """How to build a program under one protection scheme."""

    name: str
    runtime: str                       # scheme runtime family
    instrument: Optional[str] = None   # instrumentation pass name
    spill_meta: Optional[str] = None   # codegen metadata-spill flavour
    sbcets_shadow: str = "trie"
    description: str = ""


SCHEMES: Dict[str, SchemeSpec] = {
    "baseline": SchemeSpec(
        "baseline", runtime="baseline",
        description="unprotected build (perf.oh denominator)"),
    "sbcets": SchemeSpec(
        "sbcets", runtime="sbcets", instrument="sbcets",
        description="SoftboundCETS software spatial+temporal safety"),
    "sbcets_lmsm": SchemeSpec(
        "sbcets_lmsm", runtime="sbcets", instrument="sbcets",
        sbcets_shadow="linear",
        description="SBCETS with linear-mapped shadow (ABL-LMSM ablation)"),
    "hwst128": SchemeSpec(
        "hwst128", runtime="hwst", instrument="hwst128",
        spill_meta="hwst",
        description="HWST128 without tchk (software temporal key load)"),
    "hwst128_tchk": SchemeSpec(
        "hwst128_tchk", runtime="hwst", instrument="hwst128_tchk",
        spill_meta="hwst",
        description="full HWST128: tchk + keybuffer"),
    "bogo": SchemeSpec(
        "bogo", runtime="bogo", instrument="bogo", spill_meta="mpx",
        description="BOGO on MPX: spatial + free-time bound nullification"),
    "wdl_narrow": SchemeSpec(
        "wdl_narrow", runtime="wdl", instrument="wdl_narrow",
        description="WatchdogLite, scalar metadata handling"),
    "wdl_wide": SchemeSpec(
        "wdl_wide", runtime="wdl", instrument="wdl_wide", spill_meta="avx",
        description="WatchdogLite, AVX 256-bit metadata handling"),
    "asan": SchemeSpec(
        "asan", runtime="asan", instrument="asan",
        description="AddressSanitizer: redzones + quarantine"),
    "gcc": SchemeSpec(
        "gcc", runtime="gcc", instrument="gcc",
        description="GCC stack-protector canaries"),
}


def scheme_names():
    return list(SCHEMES)


def _compile_unit(source: str, name: str, phases=NULL_PHASES,
                  unit_cache=None):
    """Front end for one translation unit, phase-timed stage by stage.

    ``unit_cache`` (a :class:`repro.harness.compile_cache.CompileCache`)
    memoises the scheme-independent front-end result; a hit returns a
    fresh unpickled ``Module`` that later passes may mutate freely.
    """
    if unit_cache is not None:
        module = unit_cache.load_unit(source, name)
        if module is not None:
            return module
    with phases.phase("lex"):
        tokens = tokenize(source)
    with phases.phase("parse"):
        unit = Parser(tokens).parse_translation_unit()
    with phases.phase("sema"):
        sema = analyze(unit)
    with phases.phase("irgen"):
        module = lower_unit(sema, name)
    if unit_cache is not None:
        unit_cache.store_unit(source, name, module)
    return module


def compile_source(source: str, scheme: str = "baseline",
                   config: Optional[HwstConfig] = None,
                   program_name: str = "program",
                   phases=None, unit_cache=None):
    """Compile mini-C ``source`` under ``scheme`` into a Program.

    ``phases`` is an optional :class:`repro.obs.phases.PhaseTimers`;
    when attached, lex/parse/sema/irgen/instrument/lower/link wall
    times accumulate into its ``compile.*`` metrics (the user unit and
    the runtime unit both pass through the front-end phases).

    When ``config.elide_checks`` is set and the scheme's pass is
    elidable, the static memory-safety analysis runs before
    instrumentation (stamping per-access facts) and the redundant-check
    eliminator runs after it; elision counts land in
    ``module.meta["analyze"]`` and, with ``phases`` attached, in the
    ``compile.analyze.*`` counters.
    """
    spec = SCHEMES.get(scheme)
    if spec is None:
        raise ValueError(
            f"unknown scheme {scheme!r}; pick one of {sorted(SCHEMES)}")
    config = config or HwstConfig()
    phases = phases if phases is not None else NULL_PHASES

    module = _compile_unit(source, program_name, phases, unit_cache)
    if spec.instrument is not None:
        from repro.ir.instrument import PASSES, instrument_module

        elide = config.elide_checks and \
            getattr(PASSES.get(spec.instrument), "elidable", False)
        if elide:
            from repro.analyze.elide import hoist_loop_checks
            from repro.analyze.interproc import \
                analyze_module_interproc

            with phases.phase("analyze"):
                # Interprocedural: call-graph summaries refine call
                # sites, call-site contexts refine callees, and proven
                # loop-invariant temporal checks move to preheaders
                # before instrumentation.
                per_function, istats = analyze_module_interproc(
                    module, config, stamp=True)
                istats.checks_hoisted = hoist_loop_checks(
                    module, per_function)
        with phases.phase("instrument"):
            instrument_module(module, spec.instrument, config=config)
        if elide:
            from repro.analyze.elide import elide_module

            with phases.phase("analyze"):
                stats = elide_module(module, config)
            istats.cross_call_elided = stats.cross_call_elided
            module.meta["analyze"] = {
                "checks_total": stats.checks_total,
                "checks_proven": stats.checks_proven,
                "checks_elided": stats.checks_elided,
                "spatial_elided": stats.spatial_elided,
                "temporal_elided": stats.temporal_elided,
                "ops_removed": stats.ops_removed,
                **istats.to_meta(),
            }
            scope = phases.metrics
            if scope is not None:
                for key, value in module.meta["analyze"].items():
                    scope.counter(f"analyze.{key}").inc(value)
    runtime = _compile_unit(
        runtime_source(spec.runtime, spec.sbcets_shadow), "runtime",
        phases, unit_cache)
    module.merge(runtime)
    verify_module(module)

    meta: Dict[str, object] = {"scheme": scheme, "name": program_name}
    if "analyze" in module.meta:
        # Keep the elision summary on the Program so cached builds can
        # replay the compile.analyze.* counters without re-analysing.
        meta["analyze"] = dict(module.meta["analyze"])
    options = CodegenOptions(spill_meta=spec.spill_meta)
    program = build_program(module, config=config, layout=DEFAULT_LAYOUT,
                            options=options, meta=meta, phases=phases)
    return program


def run_source(source: str, scheme: str = "baseline",
               config: Optional[HwstConfig] = None,
               timing: bool = True,
               timing_params: Optional[TimingParams] = None,
               max_instructions: int = 200_000_000,
               program_name: str = "program",
               metrics=None, tracer=None, profiler=None,
               phases=None) -> RunResult:
    """Compile and execute ``source`` under ``scheme``.

    The optional observability hooks (``metrics`` registry, ``tracer``,
    ``profiler``, compile ``phases``) are threaded into both the
    compile pipeline and the machine; pass one shared
    :class:`~repro.obs.metrics.MetricsRegistry` to get the full
    ``compile.* / sim.* / pipeline.*`` tree in one snapshot.
    """
    config = config or HwstConfig()
    if phases is None and metrics is not None:
        from repro.obs.phases import PhaseTimers
        phases = PhaseTimers(metrics=metrics, tracer=tracer)
    program = compile_source(source, scheme, config, program_name,
                             phases=phases)
    pipeline = InOrderPipeline(timing_params, metrics=metrics) \
        if timing else None
    machine = make_machine(config=config, timing=pipeline, metrics=metrics,
                           tracer=tracer, profiler=profiler)
    return machine.run(program, max_instructions=max_instructions)
