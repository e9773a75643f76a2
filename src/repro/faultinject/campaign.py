"""Seeded fault-injection campaigns over the sweep executor.

:func:`run_campaign` is the whole pipeline:

1. **Golden runs.** Each target is compiled + run uninjected in the
   parent process; its :class:`RunProfile` freezes the expected
   observable outcome and sizes the per-injection step budget.
2. **Plan.** ``random.Random(seed)`` draws ``n`` :class:`FaultSpec`\\ s
   (kind, trigger instret, bit, select) round-robin over the targets —
   the plan is a pure function of ``(seed, n, families, targets)``.
3. **Execute.** Each injection is an :class:`InjectionCell`, a generic
   picklable cell the :class:`~repro.harness.parallel.SweepExecutor`
   fans across workers (grouped by target for compile-cache affinity).
   Cells run untimed with a deterministic step budget (4x the golden
   instret + slack) and the executor's wallclock watchdog as a
   nondeterministic backstop.
4. **Classify.** The worker classifies its own run against the golden
   profile (:func:`~repro.faultinject.oracle.classify`); the campaign
   layer only adds the envelope verdicts — ``hang`` for watchdog
   firings, ``crash`` for error/worker-death envelopes.
5. **Report.** The scoreboard and the per-injection records stream
   into a ``repro.faultinject/v1`` dict that contains *no* timestamps,
   durations or job counts — same seed, same JSON, byte for byte,
   regardless of parallelism. ``fault.*`` counters land on the
   executor's metrics registry.

A campaign is **interruptible**: cells always run in chunks of 16
(:func:`~repro.harness.parallel.run_chunks`), and ``stop`` (a
zero-argument callable, e.g. a flag set by a SIGTERM handler) is
checked at each chunk boundary. An interrupted campaign still returns
a *valid* report over the completed prefix, marked
``"interrupted": true`` + ``"completed": N`` — uninterrupted reports
carry neither key, so their bytes are unchanged.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.config import HwstConfig
from repro.harness.compile_cache import process_cache
from repro.harness.parallel import CellResult, STATUS_HANG, run_chunks
from repro.faultinject.faults import (
    FaultSpec, LINK_KINDS, RuntimeInjector, apply_link_fault, kinds_for,
)
from repro.faultinject.oracle import (
    CLASSES, CRASH, HANG, RunProfile, classify, engine_pair, golden_run,
    profile_run,
)
from repro.faultinject.targets import DEFAULT_TARGETS, TARGETS

__all__ = ["InjectionCell", "CampaignReport", "plan_campaign",
           "run_campaign", "REPORT_SCHEMA"]

REPORT_SCHEMA = "repro.faultinject/v1"

#: Step-budget slack on top of 4x the golden instret: generous enough
#: that a detoured-but-terminating run finishes, tight enough that a
#: genuinely wedged run is caught quickly.
_STEP_SLACK = 50_000

#: Cells per executor submission — the granularity at which an
#: interrupt takes effect. Kept a multiple of the default target count
#: so chunks retain target grouping.
_STOP_CHUNK = 16


@dataclass(frozen=True)
class InjectionCell:
    """One injection: golden profile + fault spec, picklable.

    A *generic* sweep cell — the executor calls :meth:`execute` in the
    worker (see ``_execute_cell``); ``tag``/``scheme``/``workload``/
    ``group_key``/``wallclock_budget`` feed its envelope machinery.
    """

    index: int
    target: str
    source: str
    scheme: str
    fault: FaultSpec
    golden: RunProfile
    max_instructions: int
    config: Optional[HwstConfig] = None
    wallclock_budget: Optional[float] = None
    workload: Optional[str] = None  # envelope field; targets aren't
    #                                 registered workloads

    @property
    def tag(self) -> str:
        return f"{self.target}/{self.fault.kind}/{self.index}"

    @property
    def group_key(self) -> str:
        # One worker sees all injections of a target: its program
        # compiles once per (target, scheme) per worker.
        return self.target

    def execute(self) -> CellResult:
        """Compile (cached), inject, run, classify. Runs in the worker.

        Every cell runs on the default engine: a runtime fault up to
        its trigger, then on the reference loop (``Machine.run``
        splits the budget); a link-time fault on a mutated copy of the
        program."""
        from repro.sim import make_machine

        config = self.config or HwstConfig()
        program = process_cache().compile(self.source, self.scheme,
                                          config)
        note = ""
        injector = None
        if self.fault.kind in LINK_KINDS:
            # The cached program is shared by every cell: the fault
            # runs on a copy that differs in one instruction.
            program, note = apply_link_fault(program, self.fault)
        else:
            injector = RuntimeInjector(self.fault)
        machine = make_machine(config=config, timing=None)
        result = machine.run(program, self.max_instructions, injector)
        injected = profile_run(machine, result)
        if injector is not None:
            note = injector.note if injector.fired else \
                "trigger past end of run; fault never fired"
        return CellResult(
            tag=self.tag, workload=None, scheme=self.scheme,
            ok=result.ok, status=result.status,
            exit_code=result.exit_code, detail=result.detail,
            instret=result.instret,
            trap_class=result.trap_class, trap_pc=result.trap_pc,
            extra={
                "classification": classify(self.golden, injected),
                "target": self.target,
                "fault": {
                    "kind": self.fault.kind,
                    "family": self.fault.family,
                    "trigger": self.fault.trigger,
                    "bit": self.fault.bit,
                    "select": self.fault.select,
                },
                "note": note,
                "profile": injected.to_dict(),
            })


def _verdict_of(result: CellResult) -> str:
    """Scoreboard verdict of one envelope (worker verdict, or the
    envelope-level hang/crash classes)."""
    verdict = result.extra.get("classification", "")
    if verdict:
        return verdict
    if result.status == STATUS_HANG:
        return HANG
    return CRASH  # status="error" / "worker_died": harness failure


@dataclass
class CampaignReport:
    """Aggregated campaign outcome + the deterministic JSON document."""

    scheme: str
    seed: int
    n: int
    families: List[str]
    targets: List[str]
    goldens: Dict[str, RunProfile]
    scoreboard: Dict[str, int]
    by_kind: Dict[str, Dict[str, int]]
    injections: List[dict] = field(default_factory=list)
    #: True when a ``stop`` flag cut the campaign short; the report
    #: then covers only the completed prefix (``len(injections)``).
    interrupted: bool = False

    @property
    def clean(self) -> bool:
        """No harness failures and nothing wedged — the CI gate."""
        return self.scoreboard[CRASH] == 0 and self.scoreboard[HANG] == 0

    def to_dict(self) -> dict:
        """The ``repro.faultinject/v1`` document.

        Deliberately free of timestamps, wall-times and job counts:
        same seed -> byte-identical JSON at any parallelism. The
        ``interrupted``/``completed`` keys appear *only* on a truncated
        report, so completed campaigns keep their exact bytes.
        """
        doc = {
            "schema": REPORT_SCHEMA,
            "scheme": self.scheme,
            "seed": self.seed,
            "n": self.n,
            "families": list(self.families),
            "targets": list(self.targets),
            "goldens": {name: profile.to_dict()
                        for name, profile in self.goldens.items()},
            "scoreboard": dict(self.scoreboard),
            "by_kind": {kind: dict(row)
                        for kind, row in self.by_kind.items()},
            "injections": list(self.injections),
        }
        if self.interrupted:
            doc["interrupted"] = True
            doc["completed"] = len(self.injections)
        return doc

    def table(self) -> str:
        """Human-readable scoreboard."""
        lines = [
            f"fault campaign: scheme={self.scheme} n={self.n} "
            f"seed={self.seed} families={','.join(self.families)}",
            f"{'kind':<16}" + "".join(f"{cls:>20}" for cls in CLASSES),
        ]
        for kind in sorted(self.by_kind):
            row = self.by_kind[kind]
            lines.append(f"{kind:<16}"
                         + "".join(f"{row[cls]:>20}" for cls in CLASSES))
        lines.append(f"{'total':<16}"
                     + "".join(f"{self.scoreboard[cls]:>20}"
                               for cls in CLASSES))
        return "\n".join(lines)


def plan_campaign(n: int, seed: int, kinds: Sequence[str],
                  targets: Sequence[str],
                  goldens: Dict[str, RunProfile]) -> List[tuple]:
    """Draw the injection plan: ``n`` (target, FaultSpec) pairs.

    Pure function of its arguments — uses a private
    ``random.Random(seed)``, never the global generator.
    """
    rng = random.Random(seed)
    plan = []
    for index in range(n):
        target = targets[index % len(targets)]
        kind = kinds[rng.randrange(len(kinds))]
        golden = goldens[target]
        trigger = rng.randrange(1, max(2, golden.instret))
        fault = FaultSpec(kind=kind, trigger=trigger,
                          bit=rng.randrange(128),
                          select=rng.randrange(1 << 16))
        plan.append((target, fault))
    return plan


def run_campaign(scheme: str = "hwst128",
                 families: Sequence[str] = ("metadata", "keybuffer",
                                            "checks"),
                 n: int = 200, seed: int = 0,
                 targets: Optional[Sequence[str]] = None,
                 config: Optional[HwstConfig] = None,
                 executor=None, jobs: int = 1,
                 wallclock_budget: Optional[float] = 60.0,
                 registry=None, heartbeat=None,
                 engine_lockstep: bool = False,
                 stop=None) -> CampaignReport:
    """Run a seeded fault-injection campaign; see the module docstring.

    ``executor`` (a :class:`SweepExecutor`) is reused when given —
    its ``fault.*`` counters and merged obs snapshot accumulate there;
    otherwise a transient executor with ``jobs`` workers runs the
    cells and ``registry`` (optional) receives the counters.
    ``heartbeat`` (a :class:`repro.obs.heartbeat.Heartbeat`) receives
    rate-limited progress ticks as injection groups complete —
    stderr/telemetry only; the ``repro.faultinject/v1`` report stays
    byte-identical with or without it.

    ``engine_lockstep`` (opt-in, default off) runs every golden target
    on both the reference and the fast engine before the campaign
    starts and raises :class:`ReproError` on any observable mismatch
    (including instret). It never changes the report bytes — it either
    passes silently or aborts loudly.

    Cells run in chunks of ``_STOP_CHUNK``. ``stop`` (optional
    zero-argument callable) is polled before every chunk; once it
    returns True the report is finalised over the completed prefix
    with ``interrupted=True``.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1: {n}")
    kinds = kinds_for(families)
    target_names = list(targets if targets is not None else
                        DEFAULT_TARGETS)
    for name in target_names:
        if name not in TARGETS:
            raise ValueError(f"unknown target {name!r}; known: "
                             f"{sorted(TARGETS)}")
    config = config or HwstConfig()

    goldens = {name: golden_run(TARGETS[name], scheme, config)
               for name in target_names}
    if engine_lockstep:
        from repro.errors import ReproError

        for name in target_names:
            ref, fast = engine_pair(TARGETS[name], scheme, config)
            if not (ref.matches(fast) and ref.instret == fast.instret):
                raise ReproError(
                    f"engine lockstep failed on golden {name!r}/"
                    f"{scheme}: ref {ref.status}/exit={ref.exit_code}/"
                    f"instret={ref.instret} vs fast {fast.status}/"
                    f"exit={fast.exit_code}/instret={fast.instret}")

    plan = plan_campaign(n, seed, kinds, target_names, goldens)
    cells = [
        InjectionCell(
            index=index, target=target, source=TARGETS[target],
            scheme=scheme, fault=fault, golden=goldens[target],
            max_instructions=goldens[target].instret * 4 + _STEP_SLACK,
            config=config, wallclock_budget=wallclock_budget)
        for index, (target, fault) in enumerate(plan)
    ]
    progress = None
    if heartbeat is not None:
        def progress(done):
            heartbeat.tick(done, phase="inject")
    results, interrupted = run_chunks(
        [cells[start:start + _STOP_CHUNK]
         for start in range(0, len(cells), _STOP_CHUNK)],
        executor=executor, jobs=jobs, stop=stop, progress=progress)

    scoreboard = {cls: 0 for cls in CLASSES}
    by_kind = {kind: {cls: 0 for cls in CLASSES} for kind in kinds}
    injections = []
    for cell, result in zip(cells, results):
        verdict = _verdict_of(result)
        scoreboard[verdict] += 1
        by_kind[cell.fault.kind][verdict] += 1
        record = {
            "index": cell.index,
            "target": cell.target,
            "kind": cell.fault.kind,
            "family": cell.fault.family,
            "trigger": cell.fault.trigger,
            "bit": cell.fault.bit,
            "select": cell.fault.select,
            "class": verdict,
            "status": result.status,
            "note": result.extra.get("note", ""),
        }
        if result.trap_class:
            record["trap_class"] = result.trap_class
            record["trap_pc"] = result.trap_pc
        injections.append(record)

    reg = executor.registry if executor is not None else registry
    if reg is not None:
        fault_scope = reg.scope("fault")
        fault_scope.counter("injected").inc(len(results))
        for cls in CLASSES:
            fault_scope.counter(cls).inc(scoreboard[cls])

    return CampaignReport(
        scheme=scheme, seed=seed, n=n,
        families=list(families), targets=target_names,
        goldens=goldens, scoreboard=scoreboard, by_kind=by_kind,
        injections=injections, interrupted=interrupted)
