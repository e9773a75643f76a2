"""Span tracing for the end-to-end benchmark, wrapped from outside ``src/``.

The benchmark does not instrument the program. Instead, a traced pass
temporarily replaces each layer's public entry point *at the module
where it is called* with a wrapper that records a span: layer name,
start, end, parent span and the unit of work (pass or request) it
belongs to. Spans stay in memory; self time (a span's duration minus
its children's) is folded per layer as the spans close, so

    sum(self time of every layer) + unattributed == traced wall time

holds by construction, where ``unattributed`` is the part of the traced
region that no root span covers (the benchmark's own loop).

Every boundary is resolved when the tracer installs; a renamed or moved
function raises :class:`BoundaryError` instead of silently dropping a
layer from the budget.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Boundary:
    """One wrapped call site: ``module``'s attribute ``qualname``.

    ``count`` names a per-layer counter and ``measure`` maps the
    wrapped call's return value to the amount added to it (default:
    one per call).
    """

    layer: str
    module: str
    qualname: str
    count: Optional[str] = None
    measure: Optional[Callable[[object], float]] = None


def _one(_result) -> float:
    return 1


#: Layer boundaries, wrapped where each layer is called. A function
#: imported by name (``from X import f``) is bound in the importing
#: module, so it is wrapped there; functions imported lazily inside a
#: function body, and methods, are wrapped on their defining module or
#: class. The front end is wrapped twice because the linter
#: (``repro.analyze.linter``) imports it lazily from its home modules.
BOUNDARIES: Tuple[Boundary, ...] = (
    Boundary("minic.lex", "repro.schemes.compile", "tokenize",
             "minic.tokens", len),
    Boundary("minic.lex", "repro.minic.lexer", "tokenize",
             "minic.tokens", len),
    Boundary("minic.parse", "repro.minic.parser",
             "Parser.parse_translation_unit"),
    Boundary("minic.sema", "repro.schemes.compile", "analyze"),
    Boundary("minic.sema", "repro.minic.sema", "analyze"),
    Boundary("ir.irgen", "repro.schemes.compile", "lower_unit"),
    Boundary("ir.irgen", "repro.ir.irgen", "lower_unit"),
    Boundary("ir.instrument", "repro.ir.instrument", "instrument_module"),
    Boundary("ir.verify", "repro.schemes.compile", "verify_module"),
    Boundary("analyze", "repro.analyze.interproc",
             "analyze_module_interproc"),
    Boundary("analyze", "repro.analyze.elide", "hoist_loop_checks"),
    Boundary("analyze", "repro.analyze.elide", "elide_module"),
    Boundary("analyze", "repro.analyze", "analyze_source"),
    Boundary("analyze", "repro.analyze.linter", "analyze_source"),
    Boundary("codegen.lower", "repro.codegen.link", "compile_function",
             "codegen.functions"),
    Boundary("codegen.link", "repro.schemes.compile", "build_program"),
    Boundary("compile", "repro.harness.runner", "compile_source",
             "compile.programs"),
    Boundary("compile", "repro.schemes", "compile_source",
             "compile.programs"),
    Boundary("compile_cache", "repro.harness.compile_cache",
             "CompileCache.compile"),
    # The front-end unit tier is consulted from inside compile_source.
    Boundary("compile_cache", "repro.harness.compile_cache",
             "CompileCache.load_unit"),
    Boundary("compile_cache", "repro.harness.compile_cache",
             "CompileCache.store_unit"),
    # FastMachine inherits run() from Machine, so both engines pass here.
    Boundary("sim.run", "repro.sim.machine", "Machine.run", "sim.runs"),
    Boundary("harness.sweep", "repro.harness.parallel", "SweepExecutor.run",
             "harness.cells", len),
    Boundary("harness.experiment", "repro.harness.experiments",
             "fig4_overhead"),
    Boundary("harness.experiment", "repro.harness.coverage",
             "evaluate_coverage"),
    Boundary("fuzz", "repro.fuzz.campaign", "run_fuzz"),
    Boundary("fuzz", "repro.fuzz.campaign", "probe_program"),
    Boundary("fuzz.gen", "repro.fuzz.campaign", "generate_program",
             "fuzz.programs"),
    Boundary("fuzz.gen", "repro.fuzz.gen", "generate_program",
             "fuzz.programs"),
    Boundary("faultinject", "repro.faultinject.campaign", "run_campaign"),
    Boundary("faultinject", "repro.faultinject.campaign",
             "InjectionCell.execute", "faultinject.cells"),
    Boundary("conform", "repro.harness.conform", "run_conform"),
    Boundary("spec", "repro.harness.conform", "run_lockstep"),
    Boundary("spec", "repro.harness.conform", "run_mnemonic"),
    Boundary("serve.protocol", "repro.serve.protocol", "parse_request"),
    Boundary("serve.protocol", "repro.serve.protocol", "evaluate"),
)

#: Every layer that owns self time, in report order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(b.layer for b in BOUNDARIES))


class BoundaryError(LookupError):
    """A boundary no longer resolves at its call-site module."""


def resolve(boundary: Boundary):
    """``(owner, attribute, original)`` for one boundary, or raise."""
    try:
        owner = importlib.import_module(boundary.module)
    except ImportError as err:
        raise BoundaryError(f"{boundary.module}: {err}") from None
    *path, attr = boundary.qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            break
    # Look in the owner's own namespace: an inherited or missing name
    # would make the wrapper shadow the wrong function.
    namespace = vars(owner) if owner is not None else {}
    if attr not in namespace or not callable(namespace[attr]):
        raise BoundaryError(
            f"layer {boundary.layer!r}: {boundary.module}."
            f"{boundary.qualname} does not resolve; the call site moved "
            "or was renamed, update benchmarks/e2e/layers.py")
    return owner, attr, namespace[attr]


def resolve_all() -> List[Tuple[Boundary, object]]:
    """Resolve every boundary; raise on the first one that is gone."""
    return [(b, resolve(b)[2]) for b in BOUNDARIES]


class Tracer:
    """In-memory span recorder over :data:`BOUNDARIES`.

    Use :meth:`region` around the work to trace: it installs the
    wrappers, times the region and restores the originals. Spans are
    recorded for the calling thread only (every workload runs its
    cells inline, ``jobs=1``).
    """

    def __init__(self):
        self.self_ns: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.counts: Dict[str, float] = {}
        self.spans: List[tuple] = []   # (id, layer, start, end, parent, unit)
        self.wall_ns = 0
        self.root_ns = 0
        self.units = 0                 # passes or requests traced
        self.unit: object = None       # id stamped on new spans
        self._stack: List[list] = []   # [span id, child ns] per open span

    @contextmanager
    def region(self):
        patches = [(resolve(b), b) for b in BOUNDARIES]
        for (owner, attr, original), boundary in patches:
            setattr(owner, attr, self._wrap(original, boundary))
        start = time.perf_counter_ns()
        try:
            yield self
        finally:
            self.wall_ns += time.perf_counter_ns() - start
            for (owner, attr, original), _ in reversed(patches):
                setattr(owner, attr, original)

    def _wrap(self, fn, boundary: Boundary):
        layer = boundary.layer
        count = boundary.count
        measure = boundary.measure or _one
        # Guest work per Machine.run comes from its RunResult.
        is_run = boundary.qualname == "Machine.run"
        stack = self._stack
        spans = self.spans
        self_ns = self.self_ns
        counts = self.counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1] if stack else None
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_ns[layer] += duration - frame[1]
                if parent is None:
                    self.root_ns += duration
                else:
                    parent[1] += duration
                spans.append((span_id, layer, start, end,
                              parent[0] if parent else None, self.unit))
            if count is not None:
                counts[count] = counts.get(count, 0) + measure(result)
            if is_run:
                counts["sim.guest_instret"] = \
                    counts.get("sim.guest_instret", 0) + result.instret
                counts["sim.guest_cycles"] = \
                    counts.get("sim.guest_cycles", 0) + result.cycles
            return result

        return wrapper

    # -- results -----------------------------------------------------------

    @property
    def unattributed_ns(self) -> int:
        return self.wall_ns - self.root_ns

    def span_cost_ns(self, calls: int = 20000) -> float:
        """Measured cost of one wrapped call over a bare call."""
        probe = Tracer()
        wrapped = probe._wrap(_one, Boundary(LAYERS[0], "", ""))
        timings = []
        for fn in (_one, wrapped, _one, wrapped):
            start = time.perf_counter_ns()
            for _ in range(calls):
                fn(None)
            timings.append(time.perf_counter_ns() - start)
        bare = min(timings[0], timings[2])
        traced = min(timings[1], timings[3])
        return max(0.0, (traced - bare) / calls)

    def layer_table(self) -> str:
        """Human-readable per-layer self-time table."""
        wall = self.wall_ns or 1
        rows = sorted(self.self_ns.items(), key=lambda kv: -kv[1])
        rows.append(("unattributed", self.unattributed_ns))
        lines = [f"{'layer':<20}{'self ms':>12}{'share':>9}"]
        for layer, ns in rows:
            lines.append(f"{layer:<20}{ns / 1e6:>12.1f}"
                         f"{100.0 * ns / wall:>8.1f}%")
        lines.append(f"{'traced wall':<20}{self.wall_ns / 1e6:>12.1f}")
        return "\n".join(lines)

    def chrome_trace(self) -> dict:
        """Chrome ``trace_event`` document (open in chrome://tracing)."""
        origin = min((span[2] for span in self.spans), default=0)
        events = [{
            "name": layer, "cat": layer.split(".")[0], "ph": "X",
            "ts": (start - origin) / 1e3, "dur": (end - start) / 1e3,
            "pid": 1, "tid": 1,
            "args": {"span": span_id, "parent": parent, "unit": unit},
        } for span_id, layer, start, end, parent, unit in self.spans]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)


class NullTracer:
    """Stand-in for untraced runs: regions cost nothing."""

    units = 0
    unit = None

    @contextmanager
    def region(self):
        yield self
