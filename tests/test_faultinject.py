"""Tests for repro.faultinject: injectors, oracle, campaigns, watchdog."""

import json

import pytest

from repro.core.config import HwstConfig
from repro.faultinject import (
    CLASSES, CRASH, DEFAULT_TARGETS, DETECTED, FAMILIES, FaultSpec, HANG,
    MASKED, RUNTIME_KINDS, RunProfile, RuntimeInjector, SILENT_CORRUPTION,
    TARGETS, apply_link_fault, classify, golden_run, kinds_for,
    plan_campaign, profile_run, run_campaign,
)
from repro.faultinject.campaign import _STEP_SLACK
from repro.harness.compile_cache import CompileCache
from repro.errors import EcallExit
from repro.harness.parallel import CellSpec, STATUS_HANG, SweepExecutor
from repro.schemes import compile_source
from repro.sim import make_machine
from repro.sim.machine import Machine, STATUS_LIMIT


class _Spy:
    """A runtime fault that perturbs nothing and records the state it
    fires on: ``(instret, pc, regs)`` per call."""

    def __init__(self, trigger: int):
        self.spec = FaultSpec(kind="srf_bitflip", trigger=trigger)
        self.calls = []

    def fire(self, machine):
        self.calls.append((machine.instret, machine.pc, list(machine.regs)))

    @property
    def fired_at(self):
        return [instret for instret, _, _ in self.calls]


def _profile(**overrides) -> RunProfile:
    base = dict(status="exit", exit_code=0, output=b"42",
                heap_digest="d" * 64, trap_class="", trap_pc=None,
                instret=1000)
    base.update(overrides)
    return RunProfile(**base)


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="cosmic_ray")

    def test_family_mapping(self):
        assert FaultSpec(kind="srf_bitflip").family == "metadata"
        assert FaultSpec(kind="kb_stale").family == "keybuffer"
        assert FaultSpec(kind="check_drop").family == "checks"
        assert FaultSpec(kind="check_drop").is_link_fault
        assert not FaultSpec(kind="kb_alias").is_link_fault

    def test_kinds_for_expands_families(self):
        assert kinds_for(["checks"]) == ["check_drop", "check_dup"]
        kinds = kinds_for(["metadata", "keybuffer", "checks"])
        assert len(kinds) == 7

    def test_kinds_for_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown fault family"):
            kinds_for(["metadata", "gamma"])


class TestClassify:
    def test_identical_is_masked(self):
        golden = _profile()
        assert classify(golden, _profile()) == MASKED

    def test_extra_instructions_alone_still_masked(self):
        # instret is not an architectural observable.
        assert classify(_profile(), _profile(instret=1007)) == MASKED

    def test_new_violation_is_detected(self):
        injected = _profile(status="spatial_violation",
                            trap_class="SpatialViolation", trap_pc=0x100)
        assert classify(_profile(), injected) == DETECTED

    def test_moved_violation_is_detected(self):
        golden = _profile(status="temporal_violation",
                          trap_class="TemporalViolation", trap_pc=0x100)
        moved = _profile(status="temporal_violation",
                         trap_class="TemporalViolation", trap_pc=0x200)
        assert classify(golden, moved) == DETECTED

    def test_wrong_output_is_silent_corruption(self):
        assert classify(_profile(),
                        _profile(output=b"43")) == SILENT_CORRUPTION

    def test_wrong_heap_is_silent_corruption(self):
        assert classify(_profile(), _profile(
            heap_digest="e" * 64)) == SILENT_CORRUPTION

    def test_suppressed_detection_is_silent_corruption(self):
        golden = _profile(status="spatial_violation",
                          trap_class="SpatialViolation", trap_pc=0x100)
        assert classify(golden, _profile()) == SILENT_CORRUPTION

    def test_blown_budget_is_hang(self):
        assert classify(_profile(), _profile(status="limit")) == HANG

    def test_golden_limit_matching_is_masked(self):
        golden = _profile(status="limit")
        assert classify(golden, _profile(status="limit")) == MASKED


class TestRuntimeInjectors:
    def test_srf_bitflip_hits_live_entry(self):
        machine = Machine()
        machine.srf[5] = (0x10, 0, True, False)
        injector = RuntimeInjector(
            FaultSpec(kind="srf_bitflip", trigger=0, bit=0, select=0))
        injector.fire(machine)
        assert injector.fired
        assert machine.srf[5] == (0x11, 0, True, False)
        assert "SRF[5]" in injector.note

    def test_srf_bitflip_upper_word(self):
        machine = Machine()
        machine.srf[3] = (0, 0, False, True)
        injector = RuntimeInjector(
            FaultSpec(kind="srf_bitflip", trigger=0, bit=64, select=0))
        injector.fire(machine)
        assert machine.srf[3] == (0, 1, False, True)

    def test_one_shot(self):
        """A run fires its fault once, however long it runs after."""
        program = compile_source(TARGETS["vecsum"], "hwst128")
        for engine in ("ref", "fast"):
            spy = _Spy(trigger=3)
            assert make_machine(engine).run(program, fault=spy).ok
            assert spy.fired_at == [3], engine

    def test_waits_for_trigger(self):
        """The fault acts on the state after exactly ``trigger``
        retired instructions."""
        program = compile_source(TARGETS["vecsum"], "hwst128")
        machine = make_machine("ref")
        machine.load(program)
        for _ in range(100):
            machine.step()
        for engine in ("ref", "fast"):
            spy = _Spy(trigger=100)
            make_machine(engine).run(program, fault=spy)
            assert spy.calls == [(100, machine.pc, list(machine.regs))], \
                engine

    def test_kb_alias_corrupts_cached_key(self):
        machine = Machine()
        machine.keybuffer.fill(0x2000, 7)
        injector = RuntimeInjector(
            FaultSpec(kind="kb_alias", trigger=0, bit=0, select=0))
        injector.fire(machine)
        assert machine.keybuffer.peek(0x2000) == 6  # 7 ^ 1

    def test_kb_stale_clears_lock_behind_buffer(self):
        machine = Machine()
        machine.memory.map_region(0x2000, 4096, "locks")
        machine.memory.store_u64(0x2000, 7)
        machine.keybuffer.fill(0x2000, 7)
        injector = RuntimeInjector(
            FaultSpec(kind="kb_stale", trigger=0, select=0))
        injector.fire(machine)
        assert machine.memory.load_u64(0x2000) == 0
        assert machine.keybuffer.peek(0x2000) == 7  # still trusted

    def test_kb_faults_on_empty_buffer_land_nowhere(self):
        machine = Machine()
        injector = RuntimeInjector(
            FaultSpec(kind="kb_alias", trigger=0, select=3))
        injector.fire(machine)
        assert injector.fired
        assert "landed nowhere" in injector.note

    def test_codec_corruption_is_one_shot(self):
        machine = Machine()
        inner = machine.compressor
        word = inner.compress_spatial(0x40_0000, 0x40_0040)
        injector = RuntimeInjector(
            FaultSpec(kind="codec_corrupt", trigger=0, bit=3, select=0))
        injector.fire(machine)
        assert machine.compressor is not inner
        first = machine.compressor.decompress_spatial(word)
        second = machine.compressor.decompress_spatial(word)
        assert first != inner.decompress_spatial(word)
        assert second == inner.decompress_spatial(word)
        # attribute delegation keeps the Machine's epilogue working
        assert machine.compressor.max_range_seen == inner.max_range_seen

    def test_runtime_injector_rejects_link_kinds(self):
        with pytest.raises(ValueError, match="not a runtime fault"):
            RuntimeInjector(FaultSpec(kind="check_drop"))


class TestBudgetSplit:
    """``Machine.run(program, budget, fault)`` runs exactly ``trigger``
    instructions on the engine's own loop, fires once and finishes on
    the reference loop, so a faulted run is the same on either
    engine."""

    SCHEME = "hwst128"

    @pytest.fixture(scope="class")
    def programs(self):
        """target -> (program, golden instret)."""
        cache = CompileCache()
        return {name: (cache.compile(TARGETS[name], self.SCHEME,
                                     HwstConfig()),
                       golden_run(TARGETS[name], self.SCHEME,
                                  cache=cache).instret)
                for name in DEFAULT_TARGETS}

    @pytest.mark.parametrize("kind", RUNTIME_KINDS)
    @pytest.mark.parametrize("target", DEFAULT_TARGETS)
    def test_engines_agree(self, programs, target, kind):
        program, golden = programs[target]
        budget = golden * 4 + _STEP_SLACK      # the campaign's budget
        for trigger in (0, 1, golden // 2, golden - 1, golden, budget):
            outcomes = []
            for engine in ("ref", "fast"):
                injector = RuntimeInjector(FaultSpec(
                    kind=kind, trigger=trigger, bit=37, select=5))
                machine = make_machine(engine)
                result = machine.run(program, budget, injector)
                outcomes.append((profile_run(machine, result),
                                 injector.note, injector.fired))
            assert outcomes[0] == outcomes[1], (trigger, outcomes)
            assert outcomes[0][2] == (trigger <= golden), trigger

    def test_late_trigger_runs_blocks_then_fires_once(self, programs):
        program, golden = programs["vecsum"]
        spy = _Spy(trigger=golden - 10)
        machine = make_machine("fast")
        assert machine.run(program, golden * 4, spy).ok
        assert spy.fired_at == [golden - 10]
        assert machine.fast_stats()["block_runs"] > 0

    @pytest.mark.parametrize("engine", ("ref", "fast"))
    def test_never_fires_when_the_run_ends_first(self, programs, engine):
        program, golden = programs["vecsum"]
        spy = _Spy(trigger=golden + 1)
        assert make_machine(engine).run(program, golden * 4, spy).ok
        assert spy.calls == []

    @pytest.mark.parametrize("engine", ("ref", "fast"))
    def test_never_fires_at_or_past_the_budget(self, programs, engine):
        program, _ = programs["vecsum"]
        for trigger, fired_at in ((99, [99]), (100, []), (101, [])):
            spy = _Spy(trigger)
            result = make_machine(engine).run(program, 100, spy)
            assert result.status == STATUS_LIMIT
            assert result.instret == 100
            assert spy.fired_at == fired_at, trigger


class TestCodecFaultSites:
    """``codec_corrupt`` reaches every decode site of the reference loop
    (which runs the rest of every run after its fault fires, on either
    engine): armed just before a ``sd.chk``, ``ld.chk``, ``tchk``, an
    MPX bounds check or a metadata load, the flipped bit turns a clean
    exit into a violation.
    A check traps at that instruction; a metadata load feeds
    ``hwst128``'s software check, whose runtime raises the trap later.
    The first execution of each is armed before its handler is bound;
    the last one after, so a handler that kept the compressor it was
    bound with misses the fault."""

    SOURCE = """
int main() {
    long *p = (long *)malloc(32);
    p[0] = 4;
    p[1] = 5;
    long v = p[0] + p[1];
    free(p);
    return (int)(v - 9);
}
"""

    @pytest.fixture(scope="class")
    def sites(self):
        """scheme -> (program, {op: [(instret, pc), ...]} in execution
        order), traced on first use."""
        traced = {}

        def of(scheme):
            if scheme not in traced:
                program = compile_source(self.SOURCE, scheme, HwstConfig())
                machine = Machine()
                machine.load(program)
                seen = {}
                with pytest.raises(EcallExit):
                    while True:
                        op = program.instr_at(machine.pc).op
                        seen.setdefault(op, []).append(
                            (machine.instret, machine.pc))
                        machine.step()
                traced[scheme] = program, seen
            return traced[scheme]

        return of

    @pytest.mark.parametrize("engine", ("ref", "fast"))
    @pytest.mark.parametrize("nth", (0, -1))
    @pytest.mark.parametrize("scheme, op, select, bit", [
        pytest.param("hwst128_tchk", "sd.chk", 0, 2, id="sd.chk-0"),
        pytest.param("hwst128_tchk", "ld.chk", 0, 2, id="ld.chk-0"),
        pytest.param("hwst128_tchk", "tchk", 1, 2, id="tchk-1"),
        pytest.param("bogo", "bndcl", 0, 2, id="bogo-bndcl"),
        pytest.param("bogo", "bndcu", 0, 37, id="bogo-bndcu"),
        pytest.param("hwst128", "lloc", 1, 2, id="hwst128-lloc"),
        pytest.param("hwst128", "lkey", 1, 20, id="hwst128-lkey"),
    ])
    def test_armed_before_a_check_flips_it(self, sites, engine, nth, scheme,
                                           op, select, bit):
        program, seen = sites(scheme)
        assert len(seen[op]) > 1
        instret, pc = seen[op][nth]
        assert make_machine(engine).run(program).ok
        result = make_machine(engine).run(program, fault=RuntimeInjector(
            FaultSpec(kind="codec_corrupt", trigger=instret, bit=bit,
                      select=select)))
        if op in ("lkey", "lloc"):
            assert result.trap_class == "TemporalViolation", result.status
        else:
            assert result.trap_class in ("SpatialViolation",
                                         "TemporalViolation"), result.status
            assert result.trap_pc == pc


class TestLinkFaults:
    def _program(self, target="overflow", scheme="hwst128"):
        return CompileCache().compile(TARGETS[target], scheme,
                                      HwstConfig())

    def test_check_drop_replaces_a_check(self):
        program = self._program()
        before = [ins.op for ins in program.instrs]
        mutated, note = apply_link_fault(
            program, FaultSpec(kind="check_drop", select=2))
        assert note
        assert [ins.op for ins in program.instrs] == before  # input kept
        after = [ins.op for ins in mutated.instrs]
        assert len(after) == len(before)  # layout preserved
        changed = [i for i, (a, b) in enumerate(zip(before, after))
                   if a != b]
        assert len(changed) == 1
        # Every other instruction is shared, not copied.
        assert all(mutated.instrs[i] is program.instrs[i]
                   for i in range(len(before)) if i not in changed)

    def test_check_dup_adds_a_check(self):
        program = self._program()
        before = [ins.op for ins in program.instrs]
        mutated, note = apply_link_fault(
            program, FaultSpec(kind="check_dup", select=1))
        assert [ins.op for ins in program.instrs] == before
        # "" is allowed (no eligible plain site), but when a site
        # exists the mutation must describe itself.
        if note:
            assert "spurious check" in note
        else:
            assert mutated is program

    def test_link_fault_rejects_runtime_kinds(self):
        with pytest.raises(ValueError, match="not a link-time fault"):
            apply_link_fault(self._program(),
                             FaultSpec(kind="srf_bitflip"))


class TestGoldenProfiles:
    def test_benign_target(self):
        golden = golden_run(TARGETS["vecsum"], "hwst128",
                            cache=CompileCache())
        assert golden.status == "exit"
        assert golden.exit_code == 0
        assert golden.output == b"6048"
        assert golden.trap_class == ""

    def test_buggy_target_records_trap(self):
        golden = golden_run(TARGETS["overflow"], "hwst128",
                            cache=CompileCache())
        assert golden.status == "spatial_violation"
        assert golden.trap_class == "SpatialViolation"
        assert golden.trap_pc is not None

    def test_profile_round_trips_through_json(self):
        golden = golden_run(TARGETS["uaf"], "hwst128",
                            cache=CompileCache())
        assert json.loads(json.dumps(golden.to_dict()))


class TestPlan:
    def _goldens(self):
        return {name: _profile() for name in ("vecsum", "chase")}

    def test_same_seed_same_plan(self):
        kinds = kinds_for(["metadata"])
        targets = ["vecsum", "chase"]
        one = plan_campaign(20, 9, kinds, targets, self._goldens())
        two = plan_campaign(20, 9, kinds, targets, self._goldens())
        assert one == two

    def test_different_seed_different_plan(self):
        kinds = kinds_for(["metadata"])
        targets = ["vecsum", "chase"]
        one = plan_campaign(20, 9, kinds, targets, self._goldens())
        two = plan_campaign(20, 10, kinds, targets, self._goldens())
        assert one != two

    def test_plan_leaves_global_random_alone(self):
        import random

        random.seed(123)
        state = random.getstate()
        plan_campaign(50, 4, kinds_for(["checks"]), ["vecsum"],
                      {"vecsum": _profile()})
        assert random.getstate() == state


class TestCampaign:
    def test_scoreboard_accounts_for_every_injection(self):
        report = run_campaign(n=21, seed=2, jobs=1,
                              wallclock_budget=None)
        assert sum(report.scoreboard.values()) == 21
        assert set(report.scoreboard) == set(CLASSES)

    def test_no_unclassified_crashes_or_hangs(self):
        # Acceptance: every metadata/keybuffer/check fault lands in
        # detected/masked/silent_corruption — never crash, never hang.
        report = run_campaign(n=35, seed=13, jobs=1,
                              wallclock_budget=None)
        assert report.scoreboard[CRASH] == 0
        assert report.scoreboard[HANG] == 0
        assert report.clean

    def test_same_seed_identical_report(self):
        one = run_campaign(n=16, seed=5, jobs=1, wallclock_budget=None)
        two = run_campaign(n=16, seed=5, jobs=1, wallclock_budget=None)
        assert json.dumps(one.to_dict(), sort_keys=True) == \
            json.dumps(two.to_dict(), sort_keys=True)

    def test_parallel_matches_serial(self):
        serial = run_campaign(n=16, seed=5, jobs=1,
                              wallclock_budget=None)
        with SweepExecutor(jobs=2) as executor:
            pooled = run_campaign(n=16, seed=5, executor=executor,
                                  wallclock_budget=30.0)
        assert json.dumps(serial.to_dict(), sort_keys=True) == \
            json.dumps(pooled.to_dict(), sort_keys=True)

    def test_fault_counters_on_executor_registry(self):
        with SweepExecutor(jobs=1) as executor:
            report = run_campaign(n=9, seed=1, executor=executor,
                                  wallclock_budget=None)
        snap = executor.registry.snapshot()
        assert snap["fault.injected"] == 9
        for cls in CLASSES:
            assert snap[f"fault.{cls}"] == report.scoreboard[cls]

    def test_report_is_parallelism_agnostic_json(self):
        report = run_campaign(n=6, seed=3, jobs=1, wallclock_budget=None)
        doc = report.to_dict()
        assert doc["schema"] == "repro.faultinject/v1"
        flat = json.dumps(doc)
        for forbidden in ("jobs", "wallclock", "duration", "time"):
            assert f'"{forbidden}"' not in flat

    def test_table_renders(self):
        report = run_campaign(n=6, seed=3, jobs=1, wallclock_budget=None)
        text = report.table()
        assert "fault campaign" in text
        for cls in CLASSES:
            assert cls in text

    def test_rejects_unknown_family_and_target(self):
        with pytest.raises(ValueError, match="unknown fault family"):
            run_campaign(n=1, families=("nope",))
        with pytest.raises(ValueError, match="unknown target"):
            run_campaign(n=1, targets=("nope",))

    def test_checks_faults_can_suppress_detection(self):
        # Dropping checks on the buggy targets must eventually let a
        # violation escape (silent corruption) — the whole point of
        # running a differential oracle instead of grepping for traps.
        report = run_campaign(n=40, seed=7, families=("checks",),
                              jobs=1, wallclock_budget=None)
        assert report.scoreboard[SILENT_CORRUPTION] > 0
        assert report.scoreboard[CRASH] == 0


class TestWatchdog:
    INFINITE_LOOP = "int main(void) { while (1) {} return 0; }"

    def test_watchdog_fires_on_infinite_loop(self):
        # A huge step budget would spin for minutes; the wallclock
        # watchdog must convert the cell into a hang envelope instead.
        spec = CellSpec(scheme="baseline", source=self.INFINITE_LOOP,
                        timing=False, max_instructions=10**12,
                        wallclock_budget=0.5, tag="spin")
        with SweepExecutor(jobs=1) as executor:
            result = executor.run([spec])[0]
        assert result.status == STATUS_HANG
        assert result.extra.get("watchdog_fired") is True
        assert not result.measured

    def test_step_budget_is_the_deterministic_backstop(self):
        spec = CellSpec(scheme="baseline", source=self.INFINITE_LOOP,
                        timing=False, max_instructions=5000,
                        wallclock_budget=None, tag="spin")
        with SweepExecutor(jobs=1) as executor:
            result = executor.run([spec])[0]
        assert result.status == "limit"
        assert result.trap_class == "SimLimitExceeded"


class TestInterrupt:
    def test_stop_truncates_at_a_chunk_boundary(self):
        polls = []

        def stop():
            polls.append(True)
            return len(polls) > 1    # first chunk runs, then stop

        report = run_campaign(n=40, seed=5, jobs=1,
                              wallclock_budget=None, stop=stop)
        assert report.interrupted
        assert len(report.injections) == 16   # one _STOP_CHUNK
        doc = report.to_dict()
        assert doc["interrupted"] is True
        assert doc["completed"] == 16

    def test_interrupted_prefix_matches_the_full_run(self):
        full = run_campaign(n=40, seed=5, jobs=1,
                            wallclock_budget=None)
        polls = []

        def stop_after_first_chunk():
            polls.append(True)
            return len(polls) > 1

        partial = run_campaign(n=40, seed=5, jobs=1,
                               wallclock_budget=None,
                               stop=stop_after_first_chunk)
        prefix = partial.injections
        assert prefix == full.injections[:len(prefix)]

    def test_uninterrupted_report_bytes_are_unchanged(self):
        plain = run_campaign(n=16, seed=5, jobs=1,
                             wallclock_budget=None)
        polled = run_campaign(n=16, seed=5, jobs=1,
                              wallclock_budget=None,
                              stop=lambda: False)
        assert not plain.interrupted and not polled.interrupted
        assert "interrupted" not in plain.to_dict()
        assert json.dumps(plain.to_dict(), sort_keys=True) == \
            json.dumps(polled.to_dict(), sort_keys=True)
