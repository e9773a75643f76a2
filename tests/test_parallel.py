"""Tests for the sweep executor, compile cache and failure envelopes."""

import os
from dataclasses import dataclass
from typing import Optional

import pytest

from repro.core.config import HwstConfig
from repro.harness.compile_cache import (
    CACHE_FORMAT, CompileCache, config_fingerprint, process_cache,
)
from repro.harness.experiments import fig4_overhead, fig5_speedup, main
from repro.harness.parallel import (
    CellResult, CellSpec, STATUS_WORKER_DIED, SweepExecutor, run_cells,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.observers import Observers
from repro.workloads import WORKLOADS
from repro.workloads.base import Workload, register

GOOD = """
int main() {
  int *p = malloc(32);
  p[0] = 7;
  int v = p[0];
  free(p);
  return v - 7;
}
"""

BROKEN = "int main( {"  # parse error -> infrastructure failure


def _inject_workload(name, source):
    """Register a throwaway workload; caller must pop it."""
    return register(Workload(name=name, group="test",
                             source_template=source))


class TestCellSpec:
    def test_needs_exactly_one_source(self):
        with pytest.raises(ValueError):
            CellSpec(scheme="baseline")
        with pytest.raises(ValueError):
            CellSpec(scheme="baseline", workload="treeadd", source=GOOD)

    def test_group_key_defaults_to_workload(self):
        assert CellSpec(scheme="baseline",
                        workload="treeadd").group_key == "treeadd"
        assert CellSpec(scheme="baseline", source=GOOD,
                        tag="t", group="g").group_key == "g"


class TestFailureEnvelopes:
    def test_crashing_cell_completes_sweep(self):
        """A cell that cannot compile yields an error envelope, and the
        other cells in the sweep still run."""
        cells = [
            CellSpec(scheme="baseline", source=BROKEN, timing=False,
                     tag="broken"),
            CellSpec(scheme="baseline", source=GOOD, timing=False,
                     tag="good"),
        ]
        results = run_cells(cells, jobs=1)
        assert [r.tag for r in results] == ["broken", "good"]
        broken, good = results
        assert not broken.ok
        assert broken.status == "error"
        assert not broken.measured
        assert "Traceback" in broken.error
        assert good.ok and good.measured and good.error == ""

    def test_failure_line_rendering(self):
        cell = CellResult(tag="t", workload="w", scheme="s", ok=False,
                          status="error",
                          error="Traceback ...\nBoom: bad parse")
        assert cell.failure_line() == "w/s: Boom: bad parse"
        trap = CellResult(tag="t", workload="w", scheme="s", ok=False,
                          status="spatial_violation", detail="oob")
        assert trap.measured
        assert "spatial_violation" in trap.failure_line()

    def test_executor_counts_infrastructure_failures_only(self):
        with SweepExecutor(jobs=1) as executor:
            executor.run([
                CellSpec(scheme="baseline", source=BROKEN, timing=False,
                         tag="broken"),
                # hwst128_tchk trap on a use-after-free is a
                # *measurement*, not a failed cell.
                CellSpec(scheme="hwst128_tchk", timing=False, tag="uaf",
                         source="""
                         int main() {
                           int *p = malloc(16);
                           free(p);
                           return p[0];
                         }
                         """),
            ])
            assert executor.cells_run == 2
            assert executor.cells_failed == 1
            assert "failed=1" in executor.summary()

    def test_injected_failing_workload_lands_in_failures(self):
        _inject_workload("crashme", BROKEN)
        try:
            data = fig4_overhead(scale="small",
                                 workloads=["treeadd", "crashme"])
        finally:
            WORKLOADS.pop("crashme")
        assert [row["workload"] for row in data["rows"]] == ["treeadd"]
        assert any("crashme" in line for line in data["failures"])
        assert data["geomean"]["hwst128_tchk"] > 0


class TestDeterminism:
    def test_fig4_jobs4_matches_serial(self):
        serial = fig4_overhead(scale="small",
                               workloads=["treeadd", "sha"])
        with SweepExecutor(jobs=4) as executor:
            parallel = fig4_overhead(scale="small",
                                     workloads=["treeadd", "sha"],
                                     executor=executor)
        assert parallel == serial

    def test_fig5_jobs2_matches_serial(self):
        serial = fig5_speedup(scale="small", workloads=["hmmer"])
        with SweepExecutor(jobs=2) as executor:
            parallel = fig5_speedup(scale="small", workloads=["hmmer"],
                                    executor=executor)
        assert parallel == serial

    def test_all_green_dict_has_no_failures_key(self):
        data = fig4_overhead(scale="small", workloads=["treeadd"])
        assert "failures" not in data


class TestCompileCache:
    def test_program_hit_on_identical_request(self):
        cache = CompileCache()
        config = HwstConfig()
        first = cache.compile(GOOD, "hwst128_tchk", config)
        second = cache.compile(GOOD, "hwst128_tchk", config)
        assert cache.program_hits == 1
        # Programs are immutable, so a hit hands back the cached one.
        assert first is second

    def test_full_tiers_drop_their_oldest_entry(self):
        cache = CompileCache(max_entries=2)
        sources = [f"int main(void) {{ return {n}; }}" for n in range(4)]
        for source in sources:
            cache.compile(source, "baseline")
        assert len(cache._programs) == len(cache._units) == 2
        # The newest programs and units keep hitting: a new config
        # misses the program tier and reloads the front-end unit.
        for source in sources[2:]:
            cache.compile(source, "baseline")
            cache.compile(source, "baseline",
                          HwstConfig(keybuffer_entries=4))
        assert (cache.program_hits, cache.unit_hits) == (2, 2)
        assert cache.runtime_hits == 5
        # The oldest were dropped to make room.
        misses, unit_misses = cache.misses, cache.unit_misses
        cache.compile(sources[0], "baseline")
        assert (cache.misses, cache.unit_misses) == \
            (misses + 1, unit_misses + 1)

    def test_config_change_invalidates_program_tier(self):
        cache = CompileCache()
        cache.compile(GOOD, "hwst128_tchk", HwstConfig())
        cache.compile(GOOD, "hwst128_tchk",
                      HwstConfig(elide_checks=True))
        cache.compile(GOOD, "hwst128_tchk",
                      HwstConfig(keybuffer_entries=4))
        assert cache.program_hits == 0
        assert cache.misses == 3
        # ... but the front-end unit tier is config-independent, so
        # the re-instrumentations reuse the parsed modules.
        assert cache.unit_hits > 0

    def test_fingerprint_distinguishes_configs(self):
        base = config_fingerprint(HwstConfig())
        assert config_fingerprint(HwstConfig(elide_checks=True)) != base
        assert config_fingerprint(HwstConfig(keybuffer_entries=4)) != base
        assert config_fingerprint(HwstConfig()) == base

    def test_scheme_is_part_of_the_key(self):
        cache = CompileCache()
        config = HwstConfig()
        cache.compile(GOOD, "baseline", config)
        cache.compile(GOOD, "hwst128_tchk", config)
        assert cache.program_hits == 0

    def test_source_change_invalidates(self):
        cache = CompileCache()
        config = HwstConfig()
        cache.compile(GOOD, "baseline", config)
        cache.compile(GOOD.replace("32", "64"), "baseline", config)
        assert cache.program_hits == 0

    def test_stats_snapshot_names(self):
        cache = CompileCache()
        cache.compile(GOOD, "baseline", HwstConfig())
        snap = cache.stats_snapshot()
        assert snap["compile.cache.misses"] == 1
        assert snap["compile.cache.hits"] == 0

    def test_cached_program_replays_elision_counters(self):
        """fig4's checks_elided field must survive a cache hit."""
        cache = CompileCache()
        config = HwstConfig(elide_checks=True)
        cache.compile(GOOD, "hwst128_tchk", config)
        registry = MetricsRegistry()
        cache.compile(GOOD, "hwst128_tchk", config,
                      observers=Observers(metrics=registry))
        assert cache.program_hits == 1
        snap = registry.snapshot()
        assert "compile.analyze.checks_total" in snap


class TestCacheReuseAcrossSweep:
    def test_fig4_reuses_frontend_per_workload(self):
        """Acceptance: >= 1 compile reuse per workload within one fig4.

        All five cells of a workload share one front end; grouping
        sends them to one worker, so each workload sees unit-tier hits.
        """
        with SweepExecutor(jobs=1) as executor:
            fig4_overhead(scale="small", workloads=["treeadd", "sha"],
                          executor=executor)
            hits = executor.registry.counter("compile.cache.hits").value
            assert hits >= 2   # >= 1 per workload
            assert executor.obs.get("compile.cache.hits", 0) >= 2

    def test_executor_survives_repeat_runs(self):
        with SweepExecutor(jobs=2) as executor:
            first = fig5_speedup(scale="small", workloads=["hmmer"],
                                 executor=executor)
            before = executor.registry.counter(
                "compile.cache.program_hits").value
            second = fig5_speedup(scale="small", workloads=["hmmer"],
                                  executor=executor)
            after = executor.registry.counter(
                "compile.cache.program_hits").value
        assert first == second
        # Worker-side caches persist across run() calls: the repeat
        # sweep is served from the program tier.
        assert after - before >= 5


class TestProcessCache:
    def test_singleton(self):
        assert process_cache() is process_cache()


class TestCli:
    def test_jobs_flag_round_trip(self, capsys):
        code = main(["fig4", "--scale", "small",
                     "--workloads", "treeadd", "--jobs", "2"])
        captured = capsys.readouterr()
        assert code == 0
        assert "treeadd" in captured.out
        assert "sweep: cells=" in captured.err

    def test_bad_jobs_rejected(self, capsys):
        assert main(["fig4", "--jobs", "0"]) == 2

    def test_unknown_workload_exits_cleanly(self, capsys):
        code = main(["fig4", "--scale", "small",
                     "--workloads", "notathing"])
        captured = capsys.readouterr()
        assert code == 2
        assert "unknown workload" in captured.err

    def test_failing_cell_sets_exit_code(self, capsys):
        _inject_workload("cli_crash", BROKEN)
        try:
            code = main(["fig4", "--scale", "small",
                         "--workloads", "treeadd,cli_crash"])
        finally:
            WORKLOADS.pop("cli_crash")
        captured = capsys.readouterr()
        assert code == 1
        assert "failed cell(s)" in captured.err
        assert "cli_crash" in captured.err


# Module level so ProcessPoolExecutor can pickle it into workers.
@dataclass(frozen=True)
class DyingSpec:
    """Generic cell whose worker process dies until ``sentinel`` exists
    (dies forever when ``always`` is set)."""

    sentinel: str
    always: bool = False
    tag: str = "dying"
    scheme: str = "none"
    workload: Optional[str] = None
    wallclock_budget: Optional[float] = None
    group_key: str = "dying-group"

    def execute(self) -> CellResult:
        if self.always or not os.path.exists(self.sentinel):
            with open(self.sentinel, "w") as fh:
                fh.write("died once\n")
            os._exit(17)  # simulate a segfault/OOM-kill
        return CellResult(tag=self.tag, workload=None, scheme=self.scheme,
                          ok=True, status="exit")


class TestWorkerDeathRetry:
    def test_transient_death_retried_once(self, tmp_path):
        sentinel = str(tmp_path / "died")
        with SweepExecutor(jobs=2) as executor:
            result = executor.run([DyingSpec(sentinel=sentinel)])[0]
            retries = executor.registry.counter(
                "sweep.worker_retries").value
            summary = executor.summary()
        assert result.status == "exit" and result.ok
        assert retries == 1
        assert "worker-retries=1" in summary

    def test_second_death_yields_worker_died_envelope(self, tmp_path):
        sentinel = str(tmp_path / "died")
        with SweepExecutor(jobs=2) as executor:
            result = executor.run(
                [DyingSpec(sentinel=sentinel, always=True)])[0]
        assert result.status == STATUS_WORKER_DIED
        assert not result.measured
        assert "died twice" in result.error

    def test_healthy_groups_unaffected_by_a_dying_one(self, tmp_path):
        sentinel = str(tmp_path / "died")
        cells = [
            CellSpec(scheme="baseline", source=GOOD, timing=False,
                     tag="good", group="good-group"),
            DyingSpec(sentinel=sentinel, always=True),
        ]
        with SweepExecutor(jobs=2) as executor:
            results = executor.run(cells)
        by_tag = {result.tag: result for result in results}
        assert by_tag["good"].ok
        assert by_tag["dying"].status == STATUS_WORKER_DIED


class TestCacheIntegrity:
    """The unit tier stores sealed pickles: a bad seal means recompile.

    Each config below misses the program tier, so its compile reloads
    the front-end unit of ``GOOD``.
    """

    def _prime(self):
        cache = CompileCache()
        cache.compile(GOOD, "baseline", HwstConfig())
        key = cache.unit_key(GOOD, "program")
        assert key in cache._units
        return cache, key

    @staticmethod
    def _repaired(cache):
        """Recompile through the bad entry, then hit the fresh one."""
        unit_misses = cache.unit_misses
        program = cache.compile(GOOD, "baseline",
                                HwstConfig(keybuffer_entries=4))
        assert program is not None
        assert cache.corrupt == 1
        assert cache.stats_snapshot()["compile.cache.corrupt"] == 1
        assert cache.unit_misses == unit_misses + 1
        hits = cache.unit_hits
        cache.compile(GOOD, "baseline", HwstConfig(keybuffer_entries=2))
        assert cache.unit_hits == hits + 1
        assert cache.corrupt == 1

    def test_tampered_blob_recompiles(self):
        cache, key = self._prime()
        version, fingerprint, blob = cache._units[key]
        cache._units[key] = (version, fingerprint,
                             blob[:-4] + b"\x00\x00\x00\x00")
        self._repaired(cache)

    def test_stale_format_version_recompiles(self):
        cache, key = self._prime()
        _, fingerprint, blob = cache._units[key]
        cache._units[key] = (CACHE_FORMAT + 1, fingerprint, blob)
        self._repaired(cache)

    def test_corrupt_entry_is_evicted_then_reseeded(self):
        cache, key = self._prime()
        version, fingerprint, blob = cache._units[key]
        cache._units[key] = (version, "0" * 64, blob)
        self._repaired(cache)

    def test_clean_entries_never_count_corrupt(self):
        cache, _ = self._prime()
        cache.compile(GOOD, "baseline", HwstConfig(keybuffer_entries=4))
        assert cache.unit_hits >= 1
        assert cache.corrupt == 0


class TestProgressCallback:
    def _cells(self, count=4):
        return [CellSpec(scheme="baseline", source=GOOD, timing=False,
                         tag=f"p{i}", group=f"g{i}")
                for i in range(count)]

    def test_inline_progress_reaches_total(self):
        seen = []
        with SweepExecutor(jobs=1) as executor:
            executor.run(self._cells(), progress=lambda d, t:
                         seen.append((d, t)))
        assert seen[-1] == (4, 4)
        dones = [d for d, _ in seen]
        assert dones == sorted(dones)        # monotonic

    def test_pooled_progress_reaches_total(self):
        seen = []
        with SweepExecutor(jobs=2) as executor:
            executor.run(self._cells(), progress=lambda d, t:
                         seen.append((d, t)))
        assert seen[-1][0] == 4
        assert all(t == 4 for _, t in seen)

    def test_callback_cleared_between_runs(self):
        seen = []
        with SweepExecutor(jobs=1) as executor:
            executor.run(self._cells(2), progress=lambda d, t:
                         seen.append(d))
            executor.run(self._cells(2))     # no callback this time
        assert seen == [1, 2]


class TestParallelMergeOrderIndependence:
    def test_jobs1_and_jobs2_merge_to_same_counters(self):
        """Worker snapshots merge in completion order; the merged
        executor.obs counters must agree with a serial run."""
        cells = [CellSpec(scheme="baseline", source=GOOD, timing=False,
                          tag=f"m{i}", group=f"g{i}") for i in range(4)]
        snaps = {}
        for jobs in (1, 2):
            with SweepExecutor(jobs=jobs) as executor:
                executor.run(cells)
                snaps[jobs] = executor.registry.snapshot()
        for name, serial in snaps[1].items():
            if isinstance(serial, dict):     # histogram summary
                assert snaps[2][name]["count"] == serial["count"]
            elif name.startswith(("sim.", "compile.cache.")):
                assert snaps[2][name] == serial, name
