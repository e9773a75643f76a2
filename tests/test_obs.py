"""Tests for the unified telemetry layer (repro.obs).

Covers the metric primitives (counter/gauge/histogram, including the
percentile edge cases), registry snapshot/delta/merge semantics, the
trace ring buffer and its Chrome ``trace_event`` export, compile phase
timers, the cycle-attribution profiler, and the integration contract:
metric snapshots must agree with the legacy ``RunResult.stats`` keys.
"""

import json
import time

import pytest

from repro.obs import (
    COMPILE_PHASES, CycleProfiler, MetricsRegistry, NULL_PHASES,
    NULL_TRACER, PhaseTimers, TRACE_CATEGORIES, Tracer,
)
from repro.obs.metrics import (
    Counter, Gauge, Histogram, format_tree, merge_snapshots,
)
from repro.obs.stats import HitMissStats, derived_rates


# ---------------------------------------------------------------------------
# Metric primitives
# ---------------------------------------------------------------------------

class TestCounter:
    def test_inc_and_direct_bump(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        c.value += 2          # the hot-path idiom
        assert c.value == 7
        assert c.snapshot() == 7

    def test_negative_inc_rejected(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)

    def test_reset(self):
        c = Counter("x")
        c.inc(5)
        c.reset()
        assert c.value == 0


class TestGauge:
    def test_last_write_wins(self):
        g = Gauge("g")
        g.set(10)
        g.set(3)
        assert g.snapshot() == 3


class TestHistogram:
    def test_empty_percentiles_are_zero(self):
        h = Histogram("h")
        assert h.count == 0
        assert h.percentile(50) == 0.0
        assert h.percentile(99) == 0.0
        assert h.mean == 0.0
        snap = h.snapshot()
        assert snap["count"] == 0 and snap["p50"] == 0.0

    def test_single_sample_every_percentile(self):
        h = Histogram("h")
        h.observe(42.0)
        for p in (0, 50, 95, 99, 100):
            assert h.percentile(p) == 42.0
        assert h.mean == 42.0

    def test_nearest_rank(self):
        h = Histogram("h")
        for value in range(1, 101):       # 1..100
            h.observe(value)
        assert h.percentile(50) == 50
        assert h.percentile(95) == 95
        assert h.percentile(99) == 99
        assert h.percentile(100) == 100

    def test_percentile_range_checked(self):
        with pytest.raises(ValueError):
            Histogram("h").percentile(101)

    def test_sample_bound_keeps_moments(self):
        h = Histogram("h", max_samples=4)
        for value in (1, 2, 3, 4, 100, 200):
            h.observe(value)
        assert h.count == 6
        assert h.max == 200
        assert h.total == 310
        # percentiles approximate over the stored prefix
        assert h.percentile(100) == 4

    def test_merge_from_including_overflow(self):
        a = Histogram("a", max_samples=2)
        for value in (1, 2, 30):
            a.observe(value)
        b = Histogram("b")
        b.merge_from(a)
        assert b.count == 3
        assert b.max == 30
        assert b.total == pytest.approx(a.total)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a.b") is reg.counter("a.b")

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_scope_prefixes(self):
        reg = MetricsRegistry()
        kb = reg.scope("sim").scope("kb")
        kb.counter("hits").inc(3)
        assert reg.counter("sim.kb.hits").value == 3
        assert reg.names("sim") == ["sim.kb.hits"]

    def test_reset_prefix_zeroes_in_place(self):
        reg = MetricsRegistry()
        hits = reg.counter("sim.kb.hits")
        other = reg.counter("pipeline.cycles.base")
        hits.inc(5)
        other.inc(7)
        reg.reset(prefix="sim")
        assert hits.value == 0          # same object, zeroed
        assert other.value == 7
        assert reg.counter("sim.kb.hits") is hits

    def test_snapshot_and_delta(self):
        reg = MetricsRegistry()
        c = reg.counter("n")
        c.inc(10)
        before = reg.snapshot()
        c.inc(5)
        assert reg.delta(before)["n"] == 5

    def test_merge_registries(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(1)
        b.counter("c").inc(2)
        a.gauge("g").set(1)
        b.gauge("g").set(9)
        b.histogram("h").observe(3.0)
        a.merge(b)
        assert a.counter("c").value == 3
        assert a.gauge("g").value == 9
        assert a.histogram("h").count == 1

    def test_merge_snapshots_adds_scalars(self):
        merged = merge_snapshots({"a": 1, "h": {"count": 2, "sum": 4.0}},
                                 {"a": 2, "h": {"count": 1, "sum": 1.0}})
        assert merged["a"] == 3
        assert merged["h"]["count"] == 3

    def test_merge_snapshots_histogram_moments_exact(self):
        """Regression: the merge must combine min/max/sum, not let the
        last snapshot's values clobber the accumulated ones."""
        a = {"h": {"count": 2, "sum": 10.0, "min": 1.0, "max": 9.0,
                   "mean": 5.0, "p50": 5.0, "p95": 9.0, "p99": 9.0}}
        b = {"h": {"count": 2, "sum": 6.0, "min": 2.0, "max": 4.0,
                   "mean": 3.0, "p50": 3.0, "p95": 4.0, "p99": 4.0}}
        merged = merge_snapshots(a, b)["h"]
        assert merged["count"] == 4
        assert merged["sum"] == 16.0
        assert merged["min"] == 1.0          # not b's 2.0
        assert merged["max"] == 9.0          # not b's 4.0
        assert merged["mean"] == 4.0         # recomputed from moments
        assert merged["p50"] == 4.0          # count-weighted average

    def test_merge_snapshots_order_independent(self):
        """Snapshots arrive in worker-completion order under --jobs N;
        the merged summary must not depend on that order."""
        snaps = [
            {"c": 5, "h": {"count": 1, "sum": 2.0, "min": 2.0,
                           "max": 2.0, "mean": 2.0, "p50": 2.0,
                           "p95": 2.0, "p99": 2.0}},
            {"c": 7, "h": {"count": 3, "sum": 30.0, "min": 5.0,
                           "max": 20.0, "mean": 10.0, "p50": 5.0,
                           "p95": 20.0, "p99": 20.0}},
            {"c": 1, "h": {"count": 2, "sum": 8.0, "min": 1.0,
                           "max": 7.0, "mean": 4.0, "p50": 4.0,
                           "p95": 7.0, "p99": 7.0}},
        ]
        import itertools
        reference = merge_snapshots(*snaps)
        for perm in itertools.permutations(snaps):
            merged = merge_snapshots(*perm)
            assert merged["c"] == reference["c"]
            for key in ("count", "sum", "min", "max"):
                assert merged["h"][key] == reference["h"][key]
            for key in ("mean", "p50", "p95", "p99"):
                assert merged["h"][key] == \
                    pytest.approx(reference["h"][key])

    def test_merge_snapshots_associative(self):
        a = {"h": {"count": 1, "sum": 2.0, "min": 2.0, "max": 2.0,
                   "mean": 2.0, "p50": 2.0}}
        b = {"h": {"count": 3, "sum": 30.0, "min": 5.0, "max": 20.0,
                   "mean": 10.0, "p50": 5.0}}
        c = {"h": {"count": 2, "sum": 8.0, "min": 1.0, "max": 7.0,
                   "mean": 4.0, "p50": 4.0}}
        left = merge_snapshots(merge_snapshots(a, b), c)["h"]
        right = merge_snapshots(a, merge_snapshots(b, c))["h"]
        for key in ("count", "sum", "min", "max"):
            assert left[key] == right[key]
        for key in ("mean", "p50"):
            assert left[key] == pytest.approx(right[key])

    def test_merge_snapshots_empty_histogram_identity(self):
        empty = {"h": {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                       "mean": 0.0, "p50": 0.0}}
        full = {"h": {"count": 2, "sum": 6.0, "min": 2.0, "max": 4.0,
                      "mean": 3.0, "p50": 3.0}}
        assert merge_snapshots(empty, full)["h"] == full["h"]
        assert merge_snapshots(full, empty)["h"] == full["h"]

    def test_tree_and_format(self):
        reg = MetricsRegistry()
        reg.counter("sim.kb.hits").inc(2)
        reg.gauge("sim.cycles").set(100)
        reg.histogram("compile.lex.ms").observe(1.5)
        tree = reg.tree()
        assert tree["sim"]["kb"]["hits"] == 2
        text = format_tree(tree, derived={"cpi": 1.5})
        assert "hits" in text and "cpi" in text

    def test_metric_named_like_namespace(self):
        reg = MetricsRegistry()
        reg.gauge("pipeline.cycles").set(10)
        reg.counter("pipeline.cycles.base").inc(4)
        tree = reg.tree()
        assert tree["pipeline"]["cycles"][""] == 10
        assert tree["pipeline"]["cycles"]["base"] == 4

    def test_to_json_schema(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("sim.instret").inc(12)
        path = tmp_path / "m.json"
        reg.to_json(path, extra={"scheme": "baseline"})
        doc = json.load(open(path))
        assert doc["schema"] == "repro.obs.metrics/v1"
        assert doc["scheme"] == "baseline"
        assert doc["metrics"]["sim.instret"] == 12


# ---------------------------------------------------------------------------
# Hit/miss mixin
# ---------------------------------------------------------------------------

class _FakeCache(HitMissStats):
    def __init__(self, metrics=None):
        self._init_hit_miss(metrics)
        self._evictions = self._stat_counter("evictions")


class TestHitMissStats:
    def test_rates(self):
        cache = _FakeCache()
        cache._hits.value += 3
        cache._misses.value += 1
        assert cache.hits == 3 and cache.misses == 1
        assert cache.accesses == 4
        assert cache.hit_rate == 0.75

    def test_empty_hit_rate(self):
        assert _FakeCache().hit_rate == 0.0

    def test_reset_covers_extras(self):
        cache = _FakeCache()
        cache._hits.value += 1
        cache._evictions.value += 2
        cache.reset_stats()
        assert cache.hits == 0 and cache._evictions.value == 0

    def test_registry_backed(self):
        reg = MetricsRegistry()
        cache = _FakeCache(metrics=reg.scope("pipeline.dcache"))
        cache._hits.value += 2
        assert reg.snapshot()["pipeline.dcache.hits"] == 2

    def test_derived_rates(self):
        stats = {"kb_hits": 3, "kb_misses": 1, "dcache_hits": 0,
                 "dcache_misses": 0, "loads": 10, "stores": 10}
        rates = derived_rates(stats, instret=100, cycles=250)
        assert rates["kb_hit_rate"] == 0.75
        assert rates["dcache_hit_rate"] == 0.0
        assert rates["cpi"] == 2.5
        assert rates["mem_ops_per_kinstr"] == 200.0


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

class TestTracer:
    def test_emit_and_filter(self):
        tracer = Tracer(categories=("kb",))
        assert tracer.wants("kb") and not tracer.wants("retire")
        tracer.emit("kb", "fill", ts=1, args={"lock": 7})
        tracer.emit("retire", "add", ts=2)     # filtered out
        assert tracer.emitted == 1
        assert tracer.events("kb")[0].args == {"lock": 7}

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError):
            Tracer(categories=("bogus",))

    def test_ring_overflow_drops_oldest(self):
        tracer = Tracer(capacity=8)
        for i in range(20):
            tracer.emit("sim", f"e{i}", ts=i)
        assert len(tracer) == 8
        assert tracer.emitted == 20
        assert tracer.dropped == 12
        names = [e.name for e in tracer.events()]
        assert names == [f"e{i}" for i in range(12, 20)]

    def test_chrome_roundtrip(self, tmp_path):
        tracer = Tracer()
        tracer.emit("retire", "add", ts=0, dur=1, args={"pc": 0x10000})
        tracer.emit("kb", "fill", ts=5)
        tracer.emit("compile", "lex", ts=0.0, dur=12.5)
        path = tmp_path / "trace.json"
        tracer.to_chrome_json(path)
        doc = json.load(open(path))
        events = [e for e in doc["traceEvents"] if e.get("ph") != "M"]
        cats = {e["cat"] for e in events}
        assert cats == {"retire", "kb", "compile"}
        span = next(e for e in events if e["name"] == "add")
        assert span["ph"] == "X" and span["dur"] == 1
        instant = next(e for e in events if e["name"] == "fill")
        assert instant["ph"] == "i"
        compile_span = next(e for e in events if e["name"] == "lex")
        assert compile_span["pid"] == 1      # wall clock process
        assert span["pid"] == 0              # simulated cycles process
        assert doc["otherData"]["dropped_events"] == 0

    def test_jsonl_roundtrip(self, tmp_path):
        tracer = Tracer()
        tracer.emit("sim", "run", ts=0, dur=10)
        path = tmp_path / "trace.jsonl"
        tracer.to_jsonl(path)
        lines = [json.loads(line) for line in open(path)]
        assert lines == [{"ts": 0, "cat": "sim", "name": "run",
                          "dur": 10}]

    def test_null_tracer(self):
        NULL_TRACER.emit("sim", "x", ts=0)
        assert len(NULL_TRACER) == 0
        assert not NULL_TRACER.enabled
        assert not NULL_TRACER.wants("sim")


# ---------------------------------------------------------------------------
# Phase timers
# ---------------------------------------------------------------------------

class TestPhaseTimers:
    def test_accumulates_across_spans(self):
        timers = PhaseTimers()
        with timers.phase("lex"):
            pass
        with timers.phase("lex"):
            pass
        assert timers.calls["lex"] == 2
        assert timers.ms("lex") >= 0.0
        assert list(timers.summary()) == ["lex"]

    def test_metrics_and_tracer_attached(self):
        reg = MetricsRegistry()
        tracer = Tracer()
        timers = PhaseTimers(metrics=reg, tracer=tracer)
        with timers.phase("parse"):
            time.sleep(0.001)
        snap = reg.snapshot()
        assert snap["compile.parse.ms"]["count"] == 1
        assert snap["compile.parse.ms"]["mean"] > 0
        spans = tracer.events("compile")
        assert len(spans) == 1 and spans[0].name == "parse"
        assert spans[0].dur > 0

    def test_null_phases_is_noop(self):
        with NULL_PHASES.phase("anything"):
            pass
        assert NULL_PHASES.seconds == {}
        assert not NULL_PHASES.enabled

    def test_known_phase_names(self):
        assert set(COMPILE_PHASES) == {"lex", "parse", "sema", "irgen",
                                       "instrument", "analyze",
                                       "lower", "link"}


# ---------------------------------------------------------------------------
# Profiler
# ---------------------------------------------------------------------------

class TestProfiler:
    def test_per_pc_accumulation(self):
        prof = CycleProfiler()
        prof.record(0x100, 2)
        prof.record(0x100, 3)
        prof.record(0x104, 1)
        assert prof.total_cycles == 6
        assert prof.total_retired == 3
        assert prof.pc_cycles[0x100] == 5

    def test_report_without_program(self):
        prof = CycleProfiler()
        prof.record(0x100, 4)
        report = prof.report()
        assert report.functions[0].name == "?"
        assert report.attributed_fraction == 0.0
        assert "TOTAL" in report.table()

    def test_reset(self):
        prof = CycleProfiler()
        prof.record(0x100, 4)
        prof.reset()
        assert prof.total_cycles == 0 and not prof.pc_cycles

    def test_collapsed_stack_export(self):
        from repro.schemes import compile_source

        program = compile_source(SRC, "baseline")
        prof = CycleProfiler()
        from repro.sim.machine import Machine

        result = Machine(profiler=prof).run(program)
        assert result.ok
        report = prof.report(program)
        folded = report.to_collapsed()
        assert folded.endswith("\n")
        lines = folded.strip().splitlines()
        assert lines == sorted(lines)        # deterministic ordering
        by_name = {}
        for line in lines:
            name, cycles = line.rsplit(" ", 1)
            by_name[name] = int(cycles)
        assert "main" in by_name and by_name["main"] > 0
        # a root prefix produces flamegraph-style frame chains
        rooted = report.to_collapsed(root="all")
        assert all(line.startswith("all;")
                   for line in rooted.strip().splitlines())

    def test_function_summary_matches_report(self):
        prof = CycleProfiler()
        prof.record(0x100, 4)
        summary = prof.report().function_summary()
        assert summary == [{"name": "?", "cycles": 4, "retired": 1}]


# ---------------------------------------------------------------------------
# Host gauges + heartbeats
# ---------------------------------------------------------------------------

class TestHostGauges:
    def test_peak_rss_positive(self):
        from repro.obs import peak_rss_kb

        assert peak_rss_kb() > 0            # linux CI always has rusage

    def test_gc_collections_monotonic(self):
        import gc

        from repro.obs import gc_collections

        before = gc_collections()
        gc.collect()
        assert gc_collections() >= before + 1

    def test_observe_host_sets_gauges(self):
        from repro.obs import observe_host

        reg = MetricsRegistry()
        observe_host(reg.scope("host"))
        snap = reg.snapshot()
        assert snap["host.peak_rss_kb"] > 0
        assert snap["host.gc_collections"] >= 0


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestHeartbeat:
    def _make(self, stream, interval=10.0, metrics=None):
        from repro.obs import Heartbeat

        clock = _Clock()
        hb = Heartbeat(total=100, label="fuzz", interval_s=interval,
                       stream=stream, metrics=metrics, clock=clock)
        return hb, clock

    def test_rate_limited(self):
        import io

        stream = io.StringIO()
        hb, clock = self._make(stream)
        assert not hb.tick(1)               # interval not yet elapsed
        clock.now = 5.0
        assert not hb.tick(2)
        clock.now = 10.0
        assert hb.tick(3)                   # first emission
        assert hb.tick(4) is False          # immediately suppressed again
        assert hb.emitted == 1
        lines = stream.getvalue().strip().splitlines()
        assert len(lines) == 1

    def test_event_payload(self):
        import io

        stream = io.StringIO()
        hb, clock = self._make(stream)
        clock.now = 20.0
        assert hb.tick(40, divergent_programs=2, phase="probe")
        event = json.loads(stream.getvalue())
        assert event["event"] == "heartbeat"
        assert event["label"] == "fuzz"
        assert event["done"] == 40 and event["total"] == 100
        assert event["pct"] == 40.0
        assert event["elapsed_s"] == 20.0
        assert event["rate_per_s"] == 2.0
        assert event["eta_s"] == 30.0       # 60 left at 2/s
        assert event["divergent_programs"] == 2
        assert event["phase"] == "probe"
        assert event["peak_rss_kb"] > 0

    def test_disabled_when_interval_zero(self):
        import io

        stream = io.StringIO()
        hb, clock = self._make(stream, interval=0.0)
        clock.now = 1e9
        assert not hb.enabled
        assert not hb.tick(50)
        assert stream.getvalue() == ""

    def test_campaign_gauges(self):
        import io

        reg = MetricsRegistry()
        hb, clock = self._make(io.StringIO(), metrics=reg)
        clock.now = 10.0
        hb.tick(25)
        snap = reg.snapshot()
        assert snap["obs.campaign.done"] == 25
        assert snap["obs.campaign.total"] == 100
        assert snap["obs.campaign.heartbeats"] == 1

    def test_fuzz_campaign_emits_heartbeats(self):
        """End-to-end: a tiny fuzz campaign with a sub-millisecond
        interval emits progress without changing the report."""
        import io

        from repro.fuzz import run_fuzz
        from repro.obs import Heartbeat

        stream = io.StringIO()
        hb = Heartbeat(total=4, label="fuzz", interval_s=1e-9,
                       stream=stream)
        with_hb = run_fuzz(n=4, seed=3, reduce_divergences=False,
                           heartbeat=hb)
        without = run_fuzz(n=4, seed=3, reduce_divergences=False)
        assert with_hb.to_json() == without.to_json()  # byte-identity
        events = [json.loads(line) for line
                  in stream.getvalue().strip().splitlines()]
        assert events and all(e["event"] == "heartbeat" for e in events)
        assert events[-1]["done"] == 4


# ---------------------------------------------------------------------------
# Integration with the simulator
# ---------------------------------------------------------------------------

SRC = """
int work(int n) {
  int s = 0;
  for (int i = 0; i < n; i = i + 1) s = s + i;
  return s;
}
int main() {
  int *p = (int *)malloc(16);
  p[0] = work(50);
  int out = p[0];
  free(p);
  return out == 1225 ? 0 : 1;
}
"""


class TestIntegration:
    def test_metrics_match_legacy_stats(self):
        from repro.obs import MetricsRegistry
        from repro.harness.runner import run_program

        reg = MetricsRegistry()
        result = run_program(SRC, "hwst128_tchk", metrics=reg)
        assert result.ok
        snap = reg.snapshot()
        stats = result.stats
        assert snap["sim.kb.hits"] == stats["kb_hits"]
        assert snap["sim.kb.misses"] == stats["kb_misses"]
        assert snap["pipeline.dcache.hits"] == stats["dcache_hits"]
        assert snap["pipeline.dcache.misses"] == stats["dcache_misses"]
        assert snap["sim.loads"] == stats["loads"]
        assert snap["sim.stores"] == stats["stores"]
        assert snap["pipeline.dcache.miss_penalty_cycles"] == \
            stats["cyc_dmiss"]
        assert snap["sim.cycles"] == result.cycles
        assert snap["sim.instret"] == result.instret
        # compile phases rode along in the same registry
        for phase in ("lex", "parse", "sema", "irgen", "lower", "link"):
            assert snap[f"compile.{phase}.ms"]["count"] > 0
        # the result carries the same snapshot
        assert result.metrics["sim.kb.hits"] == stats["kb_hits"]

    def test_stats_always_has_dcache_keys(self):
        """Regression: without a timing model the dcache_*/cyc_* keys
        must still be present (zeroed), so downstream consumers never
        KeyError."""
        from repro.pipeline.timing import BREAKDOWN_KEYS
        from repro.harness.runner import run_program

        result = run_program(SRC, "baseline", timing=False)
        assert result.ok
        assert result.stats["dcache_hits"] == 0
        assert result.stats["dcache_misses"] == 0
        for key in BREAKDOWN_KEYS:
            assert result.stats[f"cyc_{key}"] == 0

    def test_trace_categories_from_run(self):
        from repro.harness.runner import run_program

        tracer = Tracer()
        result = run_program(SRC, "hwst128_tchk", tracer=tracer)
        assert result.ok
        cats = {e.cat for e in tracer.events()}
        assert {"retire", "kb", "shadow", "sim"} <= cats
        json.loads(tracer.to_chrome_json())   # exports stay valid JSON

    def test_host_gauges_in_run_result_metrics(self):
        from repro.obs import MetricsRegistry
        from repro.harness.runner import run_program

        reg = MetricsRegistry()
        result = run_program(SRC, "baseline", metrics=reg)
        assert result.ok
        assert result.metrics["host.peak_rss_kb"] > 0
        assert result.metrics["host.gc_collections"] >= 0

    def test_trace_dropped_counter_surfaces_overflow(self):
        from repro.obs import MetricsRegistry
        from repro.harness.runner import run_program

        reg = MetricsRegistry()
        tracer = Tracer(capacity=16)           # far too small
        result = run_program(SRC, "hwst128_tchk", metrics=reg,
                             tracer=tracer)
        assert result.ok
        assert tracer.dropped > 0
        assert result.metrics["obs.trace.dropped"] == tracer.dropped

    def test_trace_dropped_counter_zero_when_roomy(self):
        from repro.obs import MetricsRegistry
        from repro.harness.runner import run_program

        reg = MetricsRegistry()
        tracer = Tracer(capacity=1 << 20)
        result = run_program(SRC, "baseline", metrics=reg,
                             tracer=tracer)
        assert result.ok
        assert result.metrics["obs.trace.dropped"] == 0

    def test_profiler_attribution(self):
        from repro.schemes import compile_source
        from repro.sim.machine import Machine
        from repro.pipeline.timing import InOrderPipeline

        program = compile_source(SRC, "hwst128_tchk")
        prof = CycleProfiler()
        machine = Machine(timing=InOrderPipeline(), profiler=prof)
        result = machine.run(program)
        assert result.ok
        report = prof.report(program)
        assert report.total_cycles == result.cycles
        assert report.attributed_fraction >= 0.90
        names = {fn.name for fn in report.functions}
        assert "main" in names and "work" in names

    def test_disabled_telemetry_smoke_overhead(self):
        """A run without any obs hooks attached must not get grossly
        slower than the instrumented-but-disabled path would allow.
        (Coarse smoke bound — the precise <5 % budget is checked by
        the benchmark suite, not unit CI.)"""
        from repro.schemes import compile_source
        from repro.sim.machine import Machine
        from repro.pipeline.timing import InOrderPipeline

        program = compile_source(SRC, "hwst128_tchk")

        def run_plain():
            machine = Machine(timing=InOrderPipeline())
            return machine.run(program)

        def run_traced():
            machine = Machine(timing=InOrderPipeline(),
                              tracer=Tracer(), profiler=CycleProfiler())
            return machine.run(program)

        run_plain(), run_traced()      # warm caches
        t0 = time.perf_counter()
        base = run_plain()
        t_plain = time.perf_counter() - t0
        t0 = time.perf_counter()
        traced = run_traced()
        t_traced = time.perf_counter() - t0
        assert base.cycles == traced.cycles    # telemetry never skews
        # generous bound: full tracing+profiling < 20x a plain run
        # (catches accidental O(n^2) sinks, tolerates CI jitter)
        assert t_traced < max(t_plain * 20, 0.5), (t_plain, t_traced)
