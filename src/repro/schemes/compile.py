"""Source -> Program compile pipelines, one per protection scheme."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.codegen.link import RuntimeImage, build_program, lower_runtime
from repro.codegen.lower import CodegenOptions
from repro.codegen.runtime import runtime_source
from repro.core.config import HwstConfig
from repro.ir.irgen import lower_unit
from repro.ir.verify import verify_module
from repro.minic import analyze, tokenize
from repro.minic.parser import Parser
from repro.minic.sema import LITERAL_PREFIX
from repro.obs.phases import NULL_PHASES
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


#: String-literal prefix of the runtime library, distinct from the
#: user unit's (``repro.minic.sema.LITERAL_PREFIX``).
RUNTIME_LITERAL_PREFIX = "__rt.str."


def _compile_unit(source: str, name: str, phases=NULL_PHASES,
                  cache=None, literal_prefix: str = LITERAL_PREFIX):
    """Front end for one translation unit, phase-timed stage by stage.

    ``cache`` (a :class:`repro.harness.compile_cache.CompileCache`)
    memoises the scheme-independent front-end result; a hit returns a
    fresh unpickled ``Module`` that later passes may mutate freely.
    """
    if cache is not None:
        module = cache.load_unit(source, name)
        if module is not None:
            return module
    with phases.phase("lex"):
        tokens = tokenize(source)
    with phases.phase("parse"):
        unit = Parser(tokens).parse_translation_unit()
    with phases.phase("sema"):
        sema = analyze(unit, literal_prefix)
    with phases.phase("irgen"):
        module = lower_unit(sema, name)
    if cache is not None:
        cache.store_unit(source, name, module)
    return module


def runtime_image(spec: SchemeSpec, options: CodegenOptions,
                  phases=NULL_PHASES, cache=None) -> RuntimeImage:
    """``spec``'s runtime library, compiled, verified and lowered.

    With a ``cache`` the image is built once per cache and shared by
    every program linked against it; without one, every call does the
    full work.
    """
    source = runtime_source(spec.runtime, spec.sbcets_shadow)
    if cache is not None:
        image = cache.load_runtime(source, options)
        if image is not None:
            return image
    module = _compile_unit(source, "runtime", phases,
                           literal_prefix=RUNTIME_LITERAL_PREFIX)
    verify_module(module)
    image = lower_runtime(module, options, phases)
    if cache is not None:
        cache.store_runtime(source, options, image)
    return image


def compile_source(source: str, scheme: str = "baseline",
                   config: Optional[HwstConfig] = None,
                   phases=None, cache=None):
    """Compile mini-C ``source`` under ``scheme`` into a Program.

    ``phases`` is an optional :class:`repro.obs.phases.PhaseTimers`;
    when attached, lex/parse/sema/irgen/instrument/lower/link wall
    times accumulate into its ``compile.*`` metrics (the user unit and
    an uncached runtime unit both pass through the front-end phases).

    ``cache`` (a :class:`repro.harness.compile_cache.CompileCache`)
    supplies the user unit's front end and the scheme's runtime image
    when it holds them; the program comes out the same either way.

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

    module = _compile_unit(source, "program", phases, cache)
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
    options = CodegenOptions(spill_meta=spec.spill_meta)
    image = runtime_image(spec, options, phases, cache)
    verify_module(module, linked=image.interface)

    meta: Dict[str, object] = {"scheme": scheme, "name": "program"}
    if "analyze" in module.meta:
        # Keep the elision summary on the Program so cached builds can
        # replay the compile.analyze.* counters without re-analysing.
        meta["analyze"] = dict(module.meta["analyze"])
    program = build_program(module, image, config=config,
                            layout=DEFAULT_LAYOUT, options=options,
                            meta=meta, phases=phases)
    return program

