"""``repro.obs`` — unified telemetry for the HWST128 reproduction.

Cooperating pieces (see docs/observability.md for the catalogue):

* :mod:`repro.obs.metrics` — hierarchical :class:`MetricsRegistry`
  with typed :class:`Counter`/:class:`Gauge`/:class:`Histogram`,
  snapshot/delta/merge and JSON export;
* :mod:`repro.obs.tracing` — bounded-ring structured event
  :class:`Tracer` with Chrome ``trace_event`` and JSONL exporters;
* :mod:`repro.obs.profiler` — :class:`CycleProfiler`, per-PC /
  per-function cycle attribution on the timing model, plus a
  collapsed-stack (folded) exporter for flamegraph/speedscope;
* :mod:`repro.obs.observers` — :class:`Observers`, the one value that
  carries a registry, tracer, profiler and trace-ring depth through a
  compile and a run, and times the compile pipeline's phases;
* :mod:`repro.obs.host` — host-process gauges (peak RSS, GC);
* :mod:`repro.obs.heartbeat` — :class:`Heartbeat`, rate-limited
  structured progress events for long campaigns;
* :mod:`repro.obs.bench` / :mod:`repro.obs.compare` — the
  performance-trajectory bench: ``repro.bench/v1`` envelopes
  (``BENCH_SIM.json``) and the regression gate with differential
  profiling (``repro bench --against``).

Everything is off by default: :data:`NULL_OBSERVERS` attaches nothing,
so an unobserved compile and run take the null-sink fast paths.
"""

from repro.obs.heartbeat import Heartbeat
from repro.obs.host import gc_collections, observe_host, peak_rss_kb
from repro.obs.metrics import (
    Counter, Gauge, Histogram, MetricsRegistry, Scope, format_tree,
    merge_snapshots,
)
from repro.obs.observers import COMPILE_PHASES, NULL_OBSERVERS, Observers
from repro.obs.profiler import CycleProfiler, FunctionProfile, ProfileReport
from repro.obs.stats import HitMissStats, derived_rates
from repro.obs.tracing import TRACE_CATEGORIES, TraceEvent, Tracer

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "Scope",
    "format_tree", "merge_snapshots",
    "COMPILE_PHASES", "NULL_OBSERVERS", "Observers",
    "CycleProfiler", "FunctionProfile", "ProfileReport",
    "HitMissStats", "derived_rates",
    "TRACE_CATEGORIES", "TraceEvent", "Tracer",
    "Heartbeat", "gc_collections", "observe_host", "peak_rss_kb",
]
