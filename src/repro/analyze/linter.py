"""Static memory-safety linter: findings, reports, module/source APIs.

``analyze_module`` drives the interprocedural analysis
(:mod:`repro.analyze.interproc` — call-graph summaries bottom-up,
call-site contexts top-down) over an IR module and collects structured
findings; ``analyze_source`` runs just the compiler's front end
(lex/parse/sema/irgen — no instrumentation, no runtime link) and then
analyzes the result, which is what the ``repro analyze`` CLI uses.

Severity convention: ``error`` findings are *must*-style facts (a
trapping execution provably exists on a feasible path); ``warning``
and ``info`` findings are advisory and never gate an exit code. The
one deliberate exception is ``intra-oob``: the access provably escapes
the struct *field* its pointer was formed from, which object-
granularity metadata (one bound per allocation) cannot trap at runtime
— that blind spot is exactly why the finding exists.

Every finding carries a stable ``rule_id`` (``REPRO-MS-*``) used by
the SARIF 2.1.0 export (:meth:`AnalysisReport.to_sarif`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analyze.cfg import CFG
from repro.analyze.interproc import analyze_module_interproc
from repro.core.config import HwstConfig
from repro.ir.ir import Module

__all__ = ["Finding", "AnalysisReport", "RULE_IDS",
           "analyze_module", "analyze_source"]

SEVERITIES = ("error", "warning", "info")

# Stable rule identifiers, one per finding kind. These are part of the
# tool's external contract (SARIF consumers key baselines on them), so
# existing ids must never be renamed — only new ones added.
RULE_IDS: Dict[str, str] = {
    "oob": "REPRO-MS-OOB",
    "intra-oob": "REPRO-MS-INTRA-OOB",
    "uaf": "REPRO-MS-UAF",
    "double-free": "REPRO-MS-DOUBLE-FREE",
    "invalid-free": "REPRO-MS-INVALID-FREE",
    "null-deref": "REPRO-MS-NULL-DEREF",
    "uninit-deref": "REPRO-MS-UNINIT-DEREF",
    "scope-escape": "REPRO-MS-SCOPE-ESCAPE",
    "dead-code": "REPRO-MS-DEAD-CODE",
}

_RULE_DESCRIPTIONS: Dict[str, str] = {
    "oob": "Out-of-bounds access to a sized object",
    "intra-oob": "Access overflows the struct field its pointer was "
                 "formed from (invisible to object-granularity "
                 "metadata)",
    "uaf": "Use of a freed heap allocation",
    "double-free": "free() of an already-freed allocation",
    "invalid-free": "free() of a non-heap or interior pointer",
    "null-deref": "Dereference of a definitely-NULL pointer",
    "uninit-deref": "Use of an uninitialized pointer",
    "scope-escape": "Pointer to a local object escapes its scope",
    "dead-code": "Statement can never execute",
}

_SARIF_LEVELS = {"error": "error", "warning": "warning",
                 "info": "note"}


@dataclass(frozen=True)
class Finding:
    """One linter diagnostic with function/line provenance."""

    kind: str           # oob | intra-oob | uaf | double-free |
    #                     invalid-free | null-deref | uninit-deref |
    #                     scope-escape | dead-code
    severity: str       # error | warning | info
    function: str
    block: str
    line: int           # 1-based source line; 0 when unknown
    message: str

    @property
    def rule_id(self) -> str:
        return RULE_IDS.get(self.kind,
                            "REPRO-MS-" + self.kind.upper())

    def location(self) -> str:
        where = self.function
        if self.line:
            where += f":{self.line}"
        return where

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "rule_id": self.rule_id,
                "severity": self.severity,
                "function": self.function, "block": self.block,
                "line": self.line, "message": self.message}


@dataclass
class AnalysisReport:
    """All findings for one module, plus summary counters."""

    name: str = "module"
    findings: List[Finding] = field(default_factory=list)
    interproc: Dict[str, int] = field(default_factory=dict)

    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    def counts_by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for f in self.findings:
            counts[f.kind] = counts.get(f.kind, 0) + 1
        return counts

    @property
    def ok(self) -> bool:
        return not self.errors()

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": "repro.analyze/v1",
            "name": self.name,
            "ok": self.ok,
            "counts": self.counts_by_kind(),
            "interproc": dict(sorted(self.interproc.items())),
            "findings": [f.to_dict() for f in self.findings],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def to_sarif(self) -> Dict[str, object]:
        """SARIF 2.1.0 document for CI annotation / IDE import."""
        used = sorted({f.kind for f in self.findings})
        rules = [{
            "id": RULE_IDS.get(kind, "REPRO-MS-" + kind.upper()),
            "name": kind,
            "shortDescription": {
                "text": _RULE_DESCRIPTIONS.get(kind, kind)},
        } for kind in used]
        rule_index = {r["id"]: i for i, r in enumerate(rules)}
        results = []
        for f in self.findings:
            region = {"startLine": f.line} if f.line else {}
            results.append({
                "ruleId": f.rule_id,
                "ruleIndex": rule_index[f.rule_id],
                "level": _SARIF_LEVELS[f.severity],
                "message": {"text": f.message},
                "locations": [{
                    "physicalLocation": {
                        "artifactLocation": {"uri": self.name},
                        **({"region": region} if region else {}),
                    },
                    "logicalLocations": [{
                        "name": f.function,
                        "kind": "function",
                    }],
                }],
            })
        return {
            "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
            "version": "2.1.0",
            "runs": [{
                "tool": {"driver": {
                    "name": "repro-analyze",
                    "informationUri":
                        "https://example.invalid/repro",
                    "rules": rules,
                }},
                "results": results,
            }],
        }

    def text(self) -> str:
        if not self.findings:
            return f"{self.name}: clean (no findings)"
        lines = []
        for f in sorted(self.findings,
                        key=lambda f: (SEVERITIES.index(f.severity),
                                       f.function, f.line)):
            lines.append(f"{f.severity:7s} {f.location():24s} "
                         f"[{f.kind}] {f.message}")
        counts = self.counts_by_kind()
        summary = ", ".join(f"{counts[k]} {k}" for k in sorted(counts))
        lines.append(f"{self.name}: {len(self.findings)} finding"
                     f"{'s' if len(self.findings) != 1 else ''} "
                     f"({summary})")
        return "\n".join(lines)


def analyze_module(module: Module,
                   config: Optional[HwstConfig] = None,
                   stamp: bool = False) -> AnalysisReport:
    """Run the interprocedural memory-safety analysis over a module."""
    config = config or HwstConfig()
    report = AnalysisReport(name=module.name)
    by_fn: Dict[str, List[Finding]] = {
        name: [] for name in module.functions}

    def recorder_factory(fn):
        # Per-function instruction -> block index, built once: keeps
        # finding attribution O(1) instead of scanning every block
        # per finding.
        index = {id(ins): blk.label
                 for blk in fn.blocks for ins in blk.instrs}
        seen = set()
        sink = by_fn[fn.name]

        def record(ins, kind, severity, message, _fn=fn):
            dedup = (id(ins), kind, message)
            if dedup in seen:
                return
            seen.add(dedup)
            sink.append(Finding(
                kind=kind, severity=severity, function=_fn.name,
                block=index.get(id(ins), "?"),
                line=getattr(ins, "line", 0), message=message))

        return record

    per_function, stats = analyze_module_interproc(
        module, config, recorder_factory, stamp=stamp)
    # Emit findings in module order regardless of analysis order, so
    # reports stay stable under call-graph shape changes.
    for name, fn in module.functions.items():
        report.findings.extend(by_fn[name])
        fa = per_function.get(name)
        if fa is not None:
            _dead_code_findings(fn, fa.result.cfg, report)
    report.interproc = {
        "functions": stats.functions,
        "sccs": stats.sccs,
        "scc_iterations": stats.scc_iterations,
        "callsites_refined": stats.callsites_refined,
        "contexts_applied": stats.contexts_applied,
    }
    return report


def _dead_code_findings(fn, cfg: CFG, report: AnalysisReport):
    """Unreachable ``dead.N`` blocks are statements irgen parked after
    a terminator — user code that can never run."""
    for label in cfg.unreachable_blocks():
        if not label.startswith("dead."):
            continue
        blk = cfg.blocks[label]
        # A dead block holding only its closing jump is a structural
        # artifact (e.g. the empty fallthrough of `if (...) return;`),
        # not user code — only real parked statements are worth a note.
        body = [ins for ins in blk.instrs if not ins.is_terminator()]
        if not body:
            continue
        line = next((ins.line for ins in body
                     if getattr(ins, "line", 0)), 0)
        report.findings.append(Finding(
            kind="dead-code", severity="info", function=fn.name,
            block=label, line=line,
            message="statement is unreachable (follows a return or "
                    "unconditional jump)"))


def analyze_source(source: str, name: str = "program",
                   config: Optional[HwstConfig] = None,
                   cache=None) -> AnalysisReport:
    """Front-end + analysis for mini-C source (no instrumentation).

    The module comes from :func:`repro.schemes.compile.compile_unit`,
    the front end ``compile_source`` runs, so with ``cache`` (a
    :class:`repro.harness.compile_cache.CompileCache`) a source that
    was just compiled is linted from the unit tier instead of being
    lexed, parsed and lowered again. The report is named ``name``.
    """
    from repro.schemes.compile import compile_unit

    report = analyze_module(compile_unit(source, "program", cache=cache),
                            config)
    report.name = name
    return report
