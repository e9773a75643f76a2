"""Differential oracle: golden run vs injected run -> verdict.

The oracle runs the *uninjected* program once per (target, scheme) and
freezes everything observable about it in a :class:`RunProfile`:
status, exit code, stdout, a digest of the final heap image, and the
uniform trap classification. Every injected run produces the same
profile, and :func:`classify` reduces the pair to one of five verdicts:

``detected``
    the injected run ended in a reported memory-safety violation
    (spatial/temporal) that the golden run did not exhibit identically
    — the protection stack caught the fault.
``masked``
    the injected run is observably identical to the golden run — the
    fault landed in dead state (an invalid SRF entry, a check that
    never fires again) or was architecturally absorbed.
``silent_corruption``
    the runs diverge but no check fired — wrong output, wrong exit
    code, a different trap, or a different final heap image. The worst
    verdict: the fault escaped the protection stack.
``hang``
    the injected run blew its step budget (or the wallclock watchdog
    fired in the worker) when the golden run did not.
``crash``
    the harness itself failed — a Python exception escaped the cell or
    the worker died. Always a bug in the fault models, never a valid
    campaign outcome (the acceptance gate requires 0).

Verdicts are a pure function of the two profiles, so same-seed
campaigns produce byte-identical scoreboards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.config import HwstConfig
from repro.obs.observers import NULL_OBSERVERS
from repro.sim.machine import Machine, STATUS_LIMIT, STATUS_SPATIAL, \
    STATUS_TEMPORAL

__all__ = ["RunProfile", "classify", "engine_pair", "golden_run",
           "profile_run", "profile_source",
           "DETECTED", "MASKED", "SILENT_CORRUPTION", "CRASH", "HANG",
           "CLASSES"]

DETECTED = "detected"
MASKED = "masked"
SILENT_CORRUPTION = "silent_corruption"
CRASH = "crash"
HANG = "hang"

#: Scoreboard buckets, in report order.
CLASSES = (DETECTED, MASKED, SILENT_CORRUPTION, CRASH, HANG)


@dataclass(frozen=True)
class RunProfile:
    """Everything the oracle compares between two runs of one program."""

    status: str
    exit_code: int
    output: bytes
    heap_digest: str
    trap_class: str
    trap_pc: Optional[int]
    instret: int

    def matches(self, other: "RunProfile") -> bool:
        """Observably identical (instret intentionally *excluded*: a
        masked fault may cost a few extra retired instructions without
        changing any architectural observable)."""
        return (self.status == other.status
                and self.exit_code == other.exit_code
                and self.output == other.output
                and self.heap_digest == other.heap_digest
                and self.trap_class == other.trap_class
                and self.trap_pc == other.trap_pc)

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "exit_code": self.exit_code,
            "output": self.output.decode("utf-8", errors="replace"),
            "heap_digest": self.heap_digest,
            "trap_class": self.trap_class,
            "trap_pc": self.trap_pc,
            "instret": self.instret,
        }


def profile_run(machine: Machine, result) -> RunProfile:
    """Freeze the observable outcome of a finished run.

    The heap digest covers data segment + heap (globals included):
    everything a program computes that is not stdout lands there.
    """
    layout = machine.program.layout
    digest = machine.memory.hash_range(layout.data_base, layout.heap_top)
    return RunProfile(
        status=result.status,
        exit_code=result.exit_code,
        output=result.output,
        heap_digest=digest,
        trap_class=result.trap_class,
        trap_pc=result.trap_pc,
        instret=result.instret,
    )


def profile_source(source: str, scheme: str,
                   config: Optional[HwstConfig] = None,
                   max_instructions: int = 50_000_000,
                   cache=None, engines: Tuple[Optional[str], ...] = (None,),
                   timed: bool = False,
                   observers=NULL_OBSERVERS
                   ) -> Tuple[List[RunProfile], object]:
    """Compile ``source`` once through ``cache`` (the process cache by
    default) and profile one run of it on each of ``engines``.

    ``engines`` names the execution cores (``None`` is the default
    engine); ``timed`` attaches the pipeline timing model;
    ``observers`` (a :class:`~repro.obs.observers.Observers`) watch
    every run, so an attached profiler is left holding the per-PC
    cycles. Returns the profiles, one per engine, and the compiled
    program.
    """
    from repro.harness.compile_cache import process_cache
    from repro.pipeline.timing import InOrderPipeline
    from repro.sim import make_machine

    config = config or HwstConfig()
    cache = cache if cache is not None else process_cache()
    program = cache.compile(source, scheme, config)
    profiles = []
    for engine in engines:
        machine = make_machine(engine, config=config,
                               timing=InOrderPipeline() if timed else None,
                               observers=observers)
        result = machine.run(program, max_instructions=max_instructions)
        profiles.append(profile_run(machine, result))
    return profiles, program


def golden_run(source: str, scheme: str,
               config: Optional[HwstConfig] = None,
               max_instructions: int = 50_000_000,
               cache=None) -> RunProfile:
    """Compile + run ``source`` uninjected and profile the outcome.

    Untimed (``timing=None``) — the oracle compares architectural
    state, and injected runs use the same machine construction so the
    comparison is apples-to-apples.
    """
    (golden,), _ = profile_source(source, scheme, config, max_instructions,
                                  cache)
    return golden


def engine_pair(source: str, scheme: str,
                config: Optional[HwstConfig] = None,
                max_instructions: int = 50_000_000,
                cache=None) -> Tuple[RunProfile, RunProfile]:
    """The engine-lockstep oracle's two sides: ``(ref, fast)`` profiles
    of one untimed build. Both engines are named explicitly, so the
    default engine can never turn the check into fast-vs-fast."""
    (ref, fast), _ = profile_source(source, scheme, config,
                                    max_instructions, cache,
                                    engines=("ref", "fast"))
    return ref, fast


def classify(golden: RunProfile, injected: RunProfile) -> str:
    """Reduce (golden, injected) to one scoreboard verdict.

    Never returns ``crash`` — that verdict is minted by the campaign
    layer for harness failures (error/worker_died envelopes), which by
    definition never produce an injected profile.
    """
    if injected.status == STATUS_LIMIT and golden.status != STATUS_LIMIT:
        return HANG
    if injected.matches(golden):
        return MASKED
    if injected.status in (STATUS_SPATIAL, STATUS_TEMPORAL):
        return DETECTED
    return SILENT_CORRUPTION
