"""Profile a workload end to end with the repro.obs telemetry stack.

One Observers value carries a shared MetricsRegistry, a CycleProfiler
and a Tracer through compile + simulation, so the compile-phase wall clocks, the instruction-class counters, the
keybuffer/D-cache hit rates and the per-cause cycle breakdown all land
in a single snapshot. A CycleProfiler attributes every modelled cycle
to a function, and a Tracer records structured events that export to
the Chrome trace_event format (load at https://ui.perfetto.dev).

Run:  python examples/profile_workload.py
"""

import json

from repro.obs import CycleProfiler, MetricsRegistry, Observers, Tracer
from repro.obs.metrics import format_tree
from repro.obs.stats import derived_rates
from repro.pipeline.timing import InOrderPipeline
from repro.schemes import compile_source
from repro.sim.machine import Machine
from repro.workloads import WORKLOADS

WORKLOAD = "treeadd"
SCHEME = "hwst128_tchk"


def main():
    observers = Observers(metrics=MetricsRegistry(),
                          tracer=Tracer(capacity=16384),
                          profiler=CycleProfiler())
    metrics, tracer = observers.metrics, observers.tracer

    # Compiling and running explicitly (rather than run_workload) keeps
    # the Program around — the profiler needs its symbol table to fold
    # PCs onto functions.
    source = WORKLOADS[WORKLOAD].source("small")
    program = compile_source(source, SCHEME, observers=observers)
    machine = Machine(timing=InOrderPipeline(metrics=metrics),
                      observers=observers)
    result = machine.run(program)
    if not result.ok:
        raise SystemExit(f"{WORKLOAD}/{SCHEME}: {result.status}")

    print(f"=== {WORKLOAD} under {SCHEME}: "
          f"{result.instret} instructions, {result.cycles} cycles ===")

    # 1. Hotspots: which functions burn the cycles?
    report = observers.profiler.report(program)
    print()
    print("hotspot table (per-PC cycle attribution, "
          f"{100 * report.attributed_fraction:.0f}% mapped):")
    print(report.table(limit=8, show_pcs=False))

    # 2. The metric tree with the derived rates the paper quotes.
    print()
    print("metric tree:")
    rates = derived_rates(result.stats, instret=result.instret,
                          cycles=result.cycles)
    print(format_tree(metrics.tree(), derived=rates))

    # 3. The trace exports as Chrome trace_event JSON.
    doc = tracer.to_chrome_dict()
    spans = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
    cats = sorted({e["cat"] for e in doc["traceEvents"] if "cat" in e})
    print()
    print(f"trace: {len(tracer)} events kept ({tracer.dropped} dropped "
          f"from the ring), categories: {', '.join(cats)}")
    print(f"  {len(spans)} duration spans; first retire span: "
          f"{json.dumps(next(e for e in spans if e['cat'] == 'retire'))}")

    # 4. Snapshots are plain dicts — compare, diff, aggregate.
    snap = result.metrics
    assert snap["sim.kb.hits"] == result.stats["kb_hits"]
    kb_rate = rates["kb_hit_rate"]
    print()
    print(f"keybuffer: {snap['sim.kb.hits']} hits / "
          f"{snap['sim.kb.misses']} misses ({100 * kb_rate:.1f}% hit "
          f"rate), {snap['sim.kb.evictions']} evictions")
    compile_ms = sum(value["sum"] for name, value in snap.items()
                     if name.startswith("compile.") and
                     isinstance(value, dict))
    print(f"compile: {compile_ms:.1f} ms across "
          f"{sum(1 for n in snap if n.startswith('compile.'))} phases")


if __name__ == "__main__":
    main()
