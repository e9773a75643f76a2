"""Conformance campaign: the executable spec against the ISS engines.

This is the harness side of ``repro.spec`` — the only layer that knows
both worlds. It builds picklable cells for the sweep executor:

* :class:`ConformEquivCell` — one mnemonic's per-instruction
  equivalence battery (``repro.spec.equiv``) against a real machine,
  across all four compression geometries;
* :class:`ConformLockstepCell` — one program (workload kernel or fuzz
  program) in lockstep with the spec through :func:`run_lockstep`: the
  fast engine's block loop a chunk at a time, whole states compared at
  chunk ends, and on a mismatch the per-instruction rerun on the
  reference engine that names the retire.

:func:`run_conform` runs the cells as one chunk of
:func:`~repro.harness.parallel.run_chunks`, which runs the fuzz and
fault-injection campaigns too, and folds the envelopes into a
deterministic ``repro.spec/v1`` report: results appear in cell input
order, no timestamps or host state, so same-seed runs are
byte-identical at any ``--jobs``.

Divergence is *data* here (campaigns complete and report), and becomes
an exit code only at the CLI (``repro conform`` exits
``EXIT_SPEC_DIVERGENCE``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import FieldWidths, HwstConfig
from repro.harness.compile_cache import process_cache
from repro.harness.parallel import (
    CellResult, SweepExecutor, report_to_json, run_chunks,
)
from repro.harness.runner import WORKLOADS
from repro.isa.instructions import SPEC_TABLE
from repro.obs.heartbeat import Heartbeat
from repro.obs.metrics import MetricsRegistry
from repro.sim import make_machine
from repro.sim.memory import DEFAULT_LAYOUT
from repro.sim.program import Program
from repro.spec import geometry
from repro.spec import lockstep as spec_lockstep
from repro.spec.equiv import all_mnemonics, run_mnemonic

REPORT_SCHEMA = "repro.spec/v1"
DEFAULT_SEED = 20260807
DEFAULT_FUZZ_COUNT = 200
DEFAULT_MAX_INSTRUCTIONS = 2_000_000

#: Scheme selection for lockstep: the full HWST128 pipeline with
#: temporal checks, plus the MPX- and AVX-comparator extensions, so
#: every custom instruction class appears in real instruction streams.
CONFORM_SCHEMES: Tuple[str, ...] = ("hwst128_tchk", "bogo", "wdl_wide")
FUZZ_SCHEME = "hwst128"

__all__ = [
    "REPORT_SCHEMA", "DEFAULT_SEED", "CONFORM_SCHEMES", "EquivBench",
    "ConformEquivCell", "ConformLockstepCell", "build_cells",
    "run_lockstep", "run_conform", "report_to_json", "divergences_of",
]


def widths_of(config: HwstConfig) -> Tuple[int, int, int, int]:
    w = config.widths
    return (w.base, w.range, w.lock, w.key)


# ---------------------------------------------------------------------------
# Equivalence bench (the machine factory injected into repro.spec.equiv)
# ---------------------------------------------------------------------------

class EquivBench:
    """Per-geometry machines for single-instruction cases.

    One machine per compression geometry, reused across cases —
    ``machine.load`` restores everything a case can change, so each
    case starts from the post-reset state with exactly one instruction
    at ``text_base``. A case runs through ``step()``, the reference
    loop on either machine class, so ``engine`` picks only the class.
    """

    def __init__(self, engine: str = "ref"):
        self.engine = engine
        self._machines: Dict[int, object] = {}

    def machine_for(self, geom: int, ins):
        machine = self._machines.get(geom)
        if machine is None:
            widths = geometry.GEOMETRIES[geom]
            config = HwstConfig(
                widths=FieldWidths(*widths),
                lock_entries=min(1 << widths[2], 1 << 20))
            machine = make_machine(self.engine, config=config, timing=None)
            self._machines[geom] = machine
        program = Program(instrs=[ins], entry=DEFAULT_LAYOUT.text_base)
        machine.load(program)
        return machine


@dataclass(frozen=True)
class ConformEquivCell:
    """Sweep cell: one mnemonic's full equivalence battery."""

    mnemonic: str
    seed: int

    @property
    def tag(self) -> str:
        return f"equiv/{self.mnemonic}"

    @property
    def workload(self) -> Optional[str]:
        return None

    @property
    def scheme(self) -> str:
        return "equiv"

    @property
    def group_key(self) -> str:
        return self.tag

    def execute(self) -> CellResult:
        bench = EquivBench()
        result = run_mnemonic(self.mnemonic, self.seed, bench)
        divergences = result["divergences"]
        return CellResult(
            tag=self.tag, workload=None, scheme="equiv",
            ok=not divergences,
            status="ok" if not divergences else "divergence",
            stats={"cases": result["cases"],
                   "divergences": len(divergences)},
            extra={"mnemonic": self.mnemonic,
                   "cases": result["cases"],
                   "divergences": divergences})


# ---------------------------------------------------------------------------
# Lockstep cells
# ---------------------------------------------------------------------------

def run_lockstep(program: Program, config: HwstConfig,
                 max_instructions: int = DEFAULT_MAX_INSTRUCTIONS
                 ) -> spec_lockstep.LockstepResult:
    """``program`` in lockstep with the spec: chunked on the fast engine
    (the one every figure runs on), rerun per instruction on a fresh
    reference engine only when a chunk mismatches.

    A rerun divergence is reported as it stands. A clean rerun means
    the fast engine disagrees with the spec where the reference agrees:
    the rerun's outcome with the chunk's record, its reason ``"engine
    mismatch"``.
    """
    kwargs = dict(widths=widths_of(config), lock_base=config.lock_base,
                  shadow_budget=config.shadow_budget,
                  max_instructions=max_instructions)
    chunked = spec_lockstep.run_chunked(
        make_machine("fast", config=config, timing=None), program, **kwargs)
    if chunked.divergence is None:
        return chunked
    rerun = spec_lockstep.run_lockstep(
        make_machine("ref", config=config, timing=None), program, **kwargs)
    if rerun.divergence is not None:
        return rerun
    return replace(rerun, divergence=dict(chunked.divergence,
                                          reason="engine mismatch"))


@dataclass(frozen=True)
class ConformLockstepCell:
    """Sweep cell: one program through :func:`run_lockstep`."""

    tag: str
    source: str
    scheme: str
    workload: Optional[str] = None
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS

    @property
    def group_key(self) -> str:
        return self.workload or self.tag

    def execute(self) -> CellResult:
        config = HwstConfig()
        program = process_cache().compile(self.source, self.scheme, config)
        result = run_lockstep(program, config, self.max_instructions)
        divergence = result.divergence
        outcome = result.outcome
        return CellResult(
            tag=self.tag, workload=self.workload, scheme=self.scheme,
            ok=divergence is None,
            status="divergence" if divergence else outcome.status,
            exit_code=outcome.exit_code,
            detail=outcome.detail,
            instret=result.retires,
            stats={"retires": result.retires,
                   "mnemonics": len(result.mnemonics)},
            trap_class=outcome.trap_class,
            trap_pc=outcome.trap_pc,
            extra={"divergence": divergence,
                   "mnemonics": list(result.mnemonics)})


# ---------------------------------------------------------------------------
# Corpus assembly and campaign
# ---------------------------------------------------------------------------

def build_cells(workloads: Optional[Sequence[str]] = None,
                schemes: Sequence[str] = CONFORM_SCHEMES,
                scale: str = "small",
                fuzz_count: int = DEFAULT_FUZZ_COUNT,
                seed: int = DEFAULT_SEED,
                equiv: bool = True,
                lockstep: bool = True,
                max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
                ) -> List[object]:
    """The campaign's cell list, in deterministic report order:
    equivalence batteries first, then workload lockstep, then the
    fuzz-program lockstep corpus."""
    cells: List[object] = []
    if equiv:
        cells.extend(ConformEquivCell(mnemonic=m, seed=seed)
                     for m in all_mnemonics())
    if lockstep:
        names = sorted(workloads) if workloads else sorted(WORKLOADS)
        for scheme in schemes:
            for name in names:
                cells.append(ConformLockstepCell(
                    tag=f"lockstep/{scheme}/{name}",
                    source=WORKLOADS[name].source(scale),
                    scheme=scheme, workload=name,
                    max_instructions=max_instructions))
        if fuzz_count:
            from repro.fuzz.gen import generate_program, plan_programs
            for index, kind in plan_programs(seed, fuzz_count):
                generated = generate_program(seed, index, kind)
                cells.append(ConformLockstepCell(
                    tag=f"lockstep/fuzz/{generated.name}",
                    source=generated.source, scheme=FUZZ_SCHEME,
                    max_instructions=max_instructions))
    return cells


def _fold_report(cells: Sequence[object], results: Sequence[CellResult],
                 seed: int, corpus: dict) -> dict:
    equiv_section: Dict[str, dict] = {}
    lockstep_rows: List[dict] = []
    exercised: set = set()
    total_retires = 0
    total_cases = 0
    total_divergences = 0
    for cell, result in zip(cells, results):
        if isinstance(cell, ConformEquivCell):
            divergences = result.extra.get("divergences", [])
            if result.status in ("error", "hang", "worker_died"):
                divergences = [{"case": cell.mnemonic,
                                "deltas": [{"field": "cell.status",
                                            "spec": "ok",
                                            "iss": result.status}],
                                "error": result.error}]
            cases = result.extra.get("cases", 0)
            equiv_section[cell.mnemonic] = {
                "cases": cases, "divergences": divergences}
            total_cases += cases
            total_divergences += len(divergences)
        else:
            divergence = result.extra.get("divergence")
            if result.status in ("error", "hang", "worker_died"):
                divergence = {"reason": result.status,
                              "error": result.error}
            row = {
                "tag": result.tag,
                "scheme": result.scheme,
                "status": result.status,
                "exit_code": result.exit_code,
                "retires": result.instret,
                "trap_class": result.trap_class,
                "trap_pc": result.trap_pc,
                "divergence": divergence,
            }
            lockstep_rows.append(row)
            exercised.update(result.extra.get("mnemonics", ()))
            total_retires += result.instret
            if divergence is not None:
                total_divergences += 1
    never = sorted(set(SPEC_TABLE) - exercised)
    report = {
        "schema": REPORT_SCHEMA,
        "seed": seed,
        "corpus": corpus,
        "equiv": equiv_section,
        "lockstep": lockstep_rows,
        "coverage": {
            "exercised": sorted(exercised),
            "never_exercised": never,
        },
        "totals": {
            "cells": len(lockstep_rows) + len(equiv_section),
            "equiv_cases": total_cases,
            "retires": total_retires,
            "divergences": total_divergences,
            "mnemonics_covered": len(exercised),
        },
    }
    return report


def run_conform(workloads: Optional[Sequence[str]] = None,
                schemes: Sequence[str] = CONFORM_SCHEMES,
                scale: str = "small",
                fuzz_count: int = DEFAULT_FUZZ_COUNT,
                seed: int = DEFAULT_SEED,
                jobs: int = 1,
                equiv: bool = True,
                lockstep: bool = True,
                max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
                heartbeat_s: float = 15.0,
                registry: Optional[MetricsRegistry] = None,
                heartbeat_stream=None,
                executor: Optional[SweepExecutor] = None) -> dict:
    """Run the conformance campaign; returns the ``repro.spec/v1``
    report (divergence is data here, the CLI turns it into an exit
    code). Byte-identical for a fixed seed at any ``jobs``."""
    registry = registry if registry is not None else MetricsRegistry()
    cells = build_cells(workloads=workloads, schemes=schemes, scale=scale,
                        fuzz_count=fuzz_count, seed=seed, equiv=equiv,
                        lockstep=lockstep,
                        max_instructions=max_instructions)
    heartbeat = Heartbeat(total=len(cells), label="conform",
                          interval_s=heartbeat_s, stream=heartbeat_stream,
                          metrics=registry)
    results, _ = run_chunks([cells], executor=executor, jobs=jobs,
                            progress=heartbeat.tick)
    corpus = {
        "schemes": list(schemes) if lockstep else [],
        "scale": scale,
        "workloads": (sorted(workloads) if workloads
                      else sorted(WORKLOADS)) if lockstep else [],
        "fuzz_count": fuzz_count if lockstep else 0,
        "fuzz_scheme": FUZZ_SCHEME,
        "equiv_mnemonics": len(all_mnemonics()) if equiv else 0,
        "max_instructions": max_instructions,
    }
    report = _fold_report(cells, results, seed=seed, corpus=corpus)
    scope = registry.scope("spec")
    scope.counter("retires").inc(report["totals"]["retires"])
    scope.counter("divergences").inc(report["totals"]["divergences"])
    scope.gauge("mnemonics_covered").set(
        report["totals"]["mnemonics_covered"])
    return report


def divergences_of(report: dict) -> int:
    return int(report["totals"]["divergences"])
