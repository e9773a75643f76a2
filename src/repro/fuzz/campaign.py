"""Fuzz campaign driver: generate → probe → classify → reduce → report.

A campaign runs in *rounds*, the chunks of
:func:`~repro.harness.parallel.run_chunks`.  Each round plans
``round_size`` programs, generates them with the current
coverage-derived production weights, fans the oracle probes across the
executor's worker pool, then folds the observed coverage back into the
weights for the next round.  Coverage is merged in program-index
order at the round barrier, so the generated corpus — and therefore the
whole report — is a pure function of ``(seed, n, round_size)``; the
jobs count only changes wallclock, never a byte of the report.

Divergent programs are shrunk in the parent process with
:func:`repro.fuzz.reduce.reduce_source`; the predicate re-probes the
candidate and accepts it iff it still shows every original divergence
signature.  Reduced repros (plus the original source and a metadata
record) land in ``corpus_dir`` when one is given.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.fuzz.coverage import FuzzCoverage
from repro.fuzz.gen import generate_program, plan_programs
from repro.fuzz.oracle import (
    DEFAULT_SCHEMES, Divergence, classify_program, probe_program,
)
from repro.harness.parallel import (
    CellResult, STATUS_HANG, STATUS_WORKER_DIED, SweepExecutor,
    report_to_json, run_chunks,
)

__all__ = ["FuzzCell", "FuzzReport", "REPORT_SCHEMA", "run_fuzz"]

REPORT_SCHEMA = "repro.fuzz/v1"

#: Programs per generation round (the coverage-feedback barrier).
ROUND_SIZE = 25


@dataclass(frozen=True)
class FuzzCell:
    """One generated program's full oracle probe, as an executor cell."""

    index: int
    name: str
    kind: str                       # "safe" or a planted-bug kind
    expect: str                     # "" | "spatial" | "temporal"
    source: str
    schemes: Tuple[str, ...] = DEFAULT_SCHEMES
    max_instructions: int = 2_000_000
    wallclock_budget: Optional[float] = 60.0
    engine_lockstep: bool = False
    spec_lockstep: bool = False

    @property
    def tag(self) -> str:
        return f"fuzz/{self.index}"

    @property
    def scheme(self) -> str:
        return "fuzz"

    @property
    def workload(self) -> str:
        return self.name

    @property
    def group_key(self) -> str:
        # Batch neighbouring programs onto one worker for cache locality.
        return f"fuzz.{self.index // 4}"

    def execute(self) -> CellResult:
        probe = probe_program(self.source, self.schemes,
                              max_instructions=self.max_instructions,
                              engine_lockstep=self.engine_lockstep,
                              spec_lockstep=self.spec_lockstep)
        verdicts, divergences = classify_program(
            self.kind, self.expect, probe, self.schemes)
        reference = probe.profiles[self.schemes[-1]]
        return CellResult(
            tag=self.tag, workload=self.name, scheme="fuzz",
            ok=not divergences,
            status="agree" if not divergences else "divergence",
            exit_code=reference.exit_code,
            instret=reference.instret,
            extra={
                "verdicts": verdicts,
                "divergences": [d.to_dict() for d in divergences],
                "functions": list(probe.functions),
                "lint": list(probe.lint_kinds),
                "statuses": {key: profile.status
                             for key, profile in probe.profiles.items()},
            })


def _crash_signature(error: str) -> Tuple[str, str]:
    """Harness-divergence signature for a worker traceback."""
    last = error.strip().splitlines()[-1] if error.strip() else ""
    name = last.split(":", 1)[0].strip()
    name = name.rsplit(".", 1)[-1] or "Exception"
    return ("harness", f"crash.{name}")


def _envelope_divergence(result: CellResult) -> Divergence:
    if result.status == STATUS_HANG:
        return Divergence("harness", "hang", result.detail)
    if result.status == STATUS_WORKER_DIED:
        return Divergence("harness", "worker_died", result.detail)
    oracle, kind = _crash_signature(result.error)
    detail = result.error.strip().splitlines()[-1] if result.error else ""
    return Divergence(oracle, kind, detail)


def _signatures_of(source: str, kind: str, expect: str,
                   schemes: Sequence[str],
                   max_instructions: int,
                   engine_lockstep: bool = False,
                   spec_lockstep: bool = False) -> Set[Tuple[str, str]]:
    """Divergence signatures a candidate source exhibits (for ddmin)."""
    try:
        probe = probe_program(source, schemes,
                              max_instructions=max_instructions,
                              collect_coverage=False,
                              engine_lockstep=engine_lockstep,
                              spec_lockstep=spec_lockstep)
    except Exception as exc:                    # toolchain crash class
        return {("harness", f"crash.{type(exc).__name__}")}
    _, divergences = classify_program(kind, expect, probe, schemes)
    return {d.signature for d in divergences}


@dataclass
class FuzzReport:
    """Deterministic ``repro.fuzz/v1`` campaign report."""

    seed: int
    n: int
    schemes: Tuple[str, ...]
    round_size: int
    programs: List[dict] = field(default_factory=list)
    divergences: List[dict] = field(default_factory=list)
    coverage: dict = field(default_factory=dict)
    #: True when a ``stop`` flag cut the campaign short at a round (or
    #: reduction) boundary; the report then covers the completed prefix.
    interrupted: bool = False

    @property
    def clean(self) -> bool:
        return not self.divergences

    def scoreboard(self) -> dict:
        kinds: Dict[str, int] = {}
        oracle_tallies: Dict[str, Dict[str, int]] = {}
        for record in self.programs:
            kinds[record["kind"]] = kinds.get(record["kind"], 0) + 1
            for oracle, verdict in record["verdicts"].items():
                tally = oracle_tallies.setdefault(oracle, {})
                tally[verdict] = tally.get(verdict, 0) + 1
        return {
            "programs": len(self.programs),
            "safe": kinds.get("safe", 0),
            "planted": {k: kinds[k] for k in sorted(kinds) if k != "safe"},
            "oracles": {k: dict(sorted(v.items()))
                        for k, v in sorted(oracle_tallies.items())},
            "divergent_programs": len(
                {d["index"] for d in self.divergences}),
            "divergences": sum(len(d["divergences"])
                               for d in self.divergences),
        }

    def to_dict(self) -> dict:
        # interrupted/completed appear only on truncated reports, so
        # completed campaigns keep their exact bytes.
        doc = {
            "schema": REPORT_SCHEMA,
            "seed": self.seed,
            "n": self.n,
            "schemes": list(self.schemes),
            "round_size": self.round_size,
            "scoreboard": self.scoreboard(),
            "coverage": self.coverage,
            "programs": self.programs,
            "divergences": self.divergences,
        }
        if self.interrupted:
            doc["interrupted"] = True
            doc["completed"] = len(self.programs)
        return doc

    def to_json(self) -> str:
        return report_to_json(self.to_dict())

    def table(self) -> str:
        board = self.scoreboard()
        lines = [
            f"fuzz campaign: seed={self.seed} n={self.n} "
            f"schemes={'/'.join(self.schemes)}",
            f"  programs: {board['programs']} "
            f"({board['safe']} safe, "
            f"{board['programs'] - board['safe']} planted)",
        ]
        for oracle, tally in board["oracles"].items():
            cells = " ".join(f"{verdict}={count}"
                             for verdict, count in tally.items())
            lines.append(f"  oracle {oracle:<12} {cells}")
        if self.divergences:
            lines.append(f"  DIVERGENT: {board['divergent_programs']} "
                         f"program(s), {board['divergences']} finding(s)")
            for record in self.divergences:
                sigs = ", ".join(sorted(
                    {f"{d['oracle']}/{d['kind']}"
                     for d in record["divergences"]}))
                shrunk = record.get("reduced_statements")
                note = f" -> reduced to {shrunk} stmts" \
                    if shrunk is not None else ""
                lines.append(f"    {record['name']}: {sigs}{note}")
        else:
            lines.append("  no divergences")
        return "\n".join(lines)


def run_fuzz(n: int, seed: int,
             jobs: int = 1,
             executor: Optional[SweepExecutor] = None,
             schemes: Sequence[str] = DEFAULT_SCHEMES,
             corpus_dir=None,
             reduce_divergences: bool = True,
             round_size: int = ROUND_SIZE,
             max_instructions: int = 2_000_000,
             wallclock_budget: Optional[float] = 60.0,
             reduce_checks: int = 300,
             heartbeat=None,
             engine_lockstep: bool = False,
             spec_lockstep: bool = False,
             stop=None) -> FuzzReport:
    """Run a fuzz campaign of ``n`` programs from ``seed``.

    Deterministic: the report (and its JSON rendering) is byte-identical
    for the same ``(seed, n, round_size, schemes)`` at any ``jobs``.
    ``heartbeat`` (a :class:`repro.obs.heartbeat.Heartbeat`) receives
    rate-limited progress ticks as probe groups complete — stderr/
    telemetry only, never a byte of the report.

    ``engine_lockstep`` (opt-in) adds the ref-vs-fast engine oracle to
    every probe; ``spec_lockstep`` (opt-in) adds the executable golden
    spec (``repro.spec``) co-simulated against the reference engine.
    Both default off, keeping existing reports byte-identical.

    ``stop`` (optional zero-argument callable, e.g. a SIGTERM flag) is
    polled at every round boundary and between divergence reductions;
    once True, the campaign finalises a valid truncated report over
    the rounds that completed, marked ``interrupted=True``.
    """
    schemes = tuple(schemes)
    report = FuzzReport(seed=seed, n=n, schemes=schemes,
                        round_size=round_size)
    coverage = FuzzCoverage()
    features: Dict[int, Tuple[str, ...]] = {}
    divergent: List[Tuple[FuzzCell, List[Divergence]]] = []

    def round_cells(start):
        # A lazy chunk: nothing is generated until run_chunks runs it,
        # after ``stop`` is polled and every earlier round's coverage
        # is folded into the weights.
        weights = coverage.weights() if start else None
        for index, kind in plan_programs(
                seed, min(round_size, n - start), start=start):
            program = generate_program(seed, index, kind, weights)
            features[index] = program.features
            yield FuzzCell(
                index=index, name=program.name, kind=program.kind,
                expect=program.expect, source=program.source,
                schemes=schemes, max_instructions=max_instructions,
                wallclock_budget=wallclock_budget,
                engine_lockstep=engine_lockstep,
                spec_lockstep=spec_lockstep)

    def fold(cells, results):
        # Index order — the only order that exists as far as the
        # report is concerned, whatever jobs= was.
        for cell, result in zip(cells, results):
            if result.measured:
                verdicts = result.extra["verdicts"]
                found = [Divergence(**d)
                         for d in result.extra["divergences"]]
                coverage.observe(features[cell.index],
                                 result.extra["functions"])
                status = result.extra["statuses"].get(schemes[-1], "")
            else:
                envelope = _envelope_divergence(result)
                verdicts = {"harness": "divergence"}
                found = [envelope]
                status = result.status
            report.programs.append({
                "index": cell.index,
                "name": cell.name,
                "kind": cell.kind,
                "expect": cell.expect,
                "status": status,
                "verdicts": verdicts,
                "findings": len(found),
            })
            if found:
                divergent.append((cell, found))

    progress = None
    if heartbeat is not None:
        def progress(done):
            heartbeat.tick(done, divergent_programs=len(divergent),
                           phase="probe")
    _, report.interrupted = run_chunks(
        (round_cells(start) for start in range(0, n, round_size)),
        executor=executor, jobs=jobs, stop=stop, progress=progress,
        fold=fold)
    report.coverage = coverage.to_dict()

    corpus = Path(corpus_dir) if corpus_dir else None
    if corpus is not None:
        corpus.mkdir(parents=True, exist_ok=True)
    for cell, found in divergent:
        if stop is not None and stop() and not report.interrupted:
            # Keep recording the (cheap) divergence facts; only skip
            # the remaining expensive ddmin reductions.
            report.interrupted = True
            reduce_divergences = False
        if heartbeat is not None:
            heartbeat.tick(n, divergent_programs=len(divergent),
                           phase="reduce", reducing=cell.name)
        record = {
            "index": cell.index,
            "name": cell.name,
            "kind": cell.kind,
            "expect": cell.expect,
            "divergences": [d.to_dict() for d in found],
            "source": cell.source,
        }
        wanted = {d.signature for d in found}
        reducible = reduce_divergences and not any(
            d.kind in ("hang", "worker_died") for d in found)
        if reducible:
            from repro.fuzz.reduce import reduce_source

            def predicate(candidate: str,
                          _wanted=frozenset(wanted)) -> bool:
                got = _signatures_of(candidate, cell.kind, cell.expect,
                                     schemes, max_instructions,
                                     engine_lockstep=engine_lockstep,
                                     spec_lockstep=spec_lockstep)
                return _wanted <= got

            shrunk = reduce_source(cell.source, predicate,
                                   max_checks=reduce_checks)
            record["reduced_source"] = shrunk.source
            record["reduced_statements"] = shrunk.statements
            record["reduce_checks"] = shrunk.checks
        report.divergences.append(record)
        if corpus is not None:
            stem = corpus / cell.name
            stem.with_suffix(".c").write_text(cell.source)
            if "reduced_source" in record:
                (corpus / f"{cell.name}.min.c").write_text(
                    record["reduced_source"])
            stem.with_suffix(".json").write_text(report_to_json(record))
    return report
