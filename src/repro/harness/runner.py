"""Run helpers and the paper's evaluation math (Eq. 7/8)."""

from __future__ import annotations

import gc
import time
from typing import Dict, Optional, Tuple

from repro.core.config import HwstConfig
from repro.pipeline.timing import InOrderPipeline, TimingParams
from repro.schemes import compile_source
from repro.sim.machine import (
    RunResult, STATUS_ABORT, STATUS_FAULT, STATUS_SPATIAL,
    STATUS_TEMPORAL,
)
from repro.workloads import WORKLOADS


def run_program(source: str, scheme: str,
                config: Optional[HwstConfig] = None,
                timing: bool = True,
                timing_params: Optional[TimingParams] = None,
                max_instructions: int = 200_000_000,
                metrics=None, tracer=None, profiler=None,
                phases=None, cache=None) -> RunResult:
    """Compile + execute one program under one scheme, on the default
    engine (:func:`repro.sim.make_machine`).

    Observability hooks (``metrics``/``tracer``/``profiler``/compile
    ``phases``) are optional and off by default; when a shared
    registry is passed, compile-phase, simulator and pipeline metrics
    all land in the same snapshot (``RunResult.metrics``).

    ``cache`` (a :class:`repro.harness.compile_cache.CompileCache`)
    reuses an identical compiled ``Program`` instead of rebuilding it;
    a custom ``phases`` object is ignored on that path (the cache
    times only work it actually performs).
    """
    from repro.sim import make_machine

    config = config or HwstConfig()
    if cache is not None:
        program = cache.compile(source, scheme, config,
                                metrics=metrics, tracer=tracer)
    else:
        if phases is None and metrics is not None:
            from repro.obs.phases import PhaseTimers
            phases = PhaseTimers(metrics=metrics, tracer=tracer)
        program = compile_source(source, scheme, config, phases=phases)
    pipeline = InOrderPipeline(timing_params, metrics=metrics) \
        if timing else None
    machine = make_machine(config=config, timing=pipeline,
                           metrics=metrics, tracer=tracer,
                           profiler=profiler)
    return machine.run(program, max_instructions=max_instructions)


def run_workload(name: str, scheme: str, scale: str = "default",
                 **kwargs) -> RunResult:
    """Run a registered benchmark workload under a scheme.

    Keyword arguments (including ``cache=``) pass through to
    :func:`run_program`.
    """
    return run_program(WORKLOADS[name].source(scale), scheme, **kwargs)


def timed_run(source: str, scheme: str,
              config: Optional[HwstConfig] = None,
              timing: bool = True,
              max_instructions: int = 200_000_000,
              profile: bool = False,
              engine: str = "ref") -> Tuple[RunResult, Dict]:
    """One *measured* compile+run: the bench runner's unit of work.

    Compiles without any cache (so compile-phase wall time is real
    work, not a pickle load), times ``Machine.run`` with
    ``perf_counter``, and returns ``(result, sample)`` where
    ``sample`` carries the host-side measurements of this repetition:

    * ``wall_s`` — wall-clock seconds of the simulation loop only (the
      cyclic collector is drained before the clock starts and disabled
      while it runs, so neither a previous rep's garbage nor a gen2
      pass over the process heap bills its pauses to this rep);
    * ``compile_s`` / ``phases_ms`` — compile wall time, total and per
      phase (lex/parse/…/link, from :class:`PhaseTimers`);
    * ``peak_rss_kb`` / ``gc_collections`` — host gauges sampled after
      the run (:mod:`repro.obs.host`, the same source of truth the
      machine stamps into ``RunResult.metrics``);
    * ``profile`` (only with ``profile=True``) — the deterministic
      per-function cycle list
      (:meth:`~repro.obs.profiler.ProfileReport.function_summary`).
    """
    from repro.obs.host import gc_collections, peak_rss_kb
    from repro.obs.phases import PhaseTimers
    from repro.obs.profiler import CycleProfiler
    from repro.sim import make_machine

    config = config or HwstConfig()
    phases = PhaseTimers()
    program = compile_source(source, scheme, config, phases=phases)
    profiler = CycleProfiler() if profile else None
    pipeline = InOrderPipeline() if timing else None
    machine = make_machine(engine, config=config, timing=pipeline,
                           profiler=profiler)
    # Measurement isolation: drain the cyclic collector (the previous
    # rep's dead machine and this rep's compile garbage otherwise pay
    # their collector pauses inside *this* rep's timed region), then
    # keep it off for the run itself — a translation cache allocating
    # thousands of closures triggers full gen2 passes over the whole
    # process heap, a double-digit-millisecond pause billed to whatever
    # rep it lands in.  Exactly one machine lives inside the disabled
    # window, so the deferred garbage is bounded.
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        result = machine.run(program, max_instructions=max_instructions)
        wall = time.perf_counter() - t0
    finally:
        if gc_was_enabled:
            gc.enable()
    sample: Dict = {
        "wall_s": wall,
        "compile_s": sum(phases.seconds.values()),
        "phases_ms": phases.summary(),
        "peak_rss_kb": peak_rss_kb(),
        "gc_collections": gc_collections(),
    }
    if profiler is not None:
        sample["profile"] = profiler.report(program).function_summary()
    return result, sample


def perf_overhead_pct(instrumented_cycles: int,
                      baseline_cycles: int) -> float:
    """Eq. 7: perf.oh(%) = (instrumented/baseline - 1) * 100."""
    if baseline_cycles <= 0:
        raise ValueError("baseline cycles must be positive")
    return (instrumented_cycles / baseline_cycles - 1.0) * 100.0


def speedup(sbcets_cycles: int, accelerated_cycles: int) -> float:
    """Eq. 8: speedup(x) = SBCETS_cycles / accelerated_cycles."""
    if accelerated_cycles <= 0:
        raise ValueError("accelerated cycles must be positive")
    return sbcets_cycles / accelerated_cycles


# Detection classification (Section 4: "parsing the output of the test
# case to observe if any violation is detected" — a report counts, a
# silent crash does not).

def detected(scheme: str, result: RunResult) -> bool:
    """Did this scheme's tooling *report* a violation on this run?"""
    if scheme in ("sbcets", "sbcets_lmsm", "hwst128", "hwst128_tchk",
                  "bogo", "wdl_narrow", "wdl_wide"):
        return result.status in (STATUS_SPATIAL, STATUS_TEMPORAL)
    if scheme == "asan":
        # ASAN prints a report for its own checks and for SEGV.
        if result.status == STATUS_ABORT and "asan" in result.detail:
            return True
        return result.status == STATUS_FAULT
    if scheme == "gcc":
        return result.status == STATUS_ABORT and \
            "smash" in result.detail
    return False  # baseline: crashes produce no diagnostic
