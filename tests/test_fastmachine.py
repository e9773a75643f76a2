"""Lockstep and engine tests for the fast superblock interpreter.

The fast engine's whole contract is *observational equivalence*: every
architecturally visible outcome — status, exit code, stdout, instret,
cycles, trap class and pc, the sim/pipeline counter census — must be
byte-identical to the reference interpreter's. These tests enforce the
contract over real workloads, fuzz-generated programs (including
planted bugs, which exercise every trap path), and hand-built
instruction sequences that hit the translation cache's edge cases:
stores into text, branches into the middle of a cached block,
superblock extension across ``jal``, traps inside a fused
``tchk``+checked-access pair, and CSR reads of the live instret.

Because the fast engine is the default, three more contracts live
here: the translation cache stays compact and leaves no cyclic garbage
behind, the lockstep oracles keep a real reference side, and the
figure/coverage/serve outputs are byte-identical on either engine.

CI runs the same timed census sweep at 200 programs on every push via
``REPRO_LOCKSTEP_FUZZ_N``; the tier-1 default keeps it small.
"""

import collections
import dataclasses
import gc
import json
import os

import pytest

import repro.sim
from repro.core.config import HwstConfig
from repro.isa import csr as csrdef
from repro.isa.instructions import FMT_I, Instr, SPEC_TABLE, li_sequence
from repro.pipeline.timing import InOrderPipeline
from repro.schemes import compile_source
from repro.sim import DEFAULT_ENGINE, ENGINES, FastMachine, make_machine
from repro.sim.machine import (
    Machine, STATUS_ABORT, STATUS_EXIT, STATUS_FAULT, STATUS_LIMIT,
    STATUS_OOM, STATUS_SPATIAL, STATUS_TEMPORAL,
)
from repro.sim.memory import DEFAULT_LAYOUT
from repro.sim.program import Program
from repro.workloads import WORKLOADS
from repro.workloads.juliet.generator import _build_case

TEXT = DEFAULT_LAYOUT.text_base
#: First byte of the unmapped gap between heap and stack.
UNMAPPED = DEFAULT_LAYOUT.heap_top + 0x1000

#: RunResult fields that must match between engines, bit for bit.
OBSERVABLES = ("status", "exit_code", "detail", "instret", "cycles",
               "output", "trap_class", "trap_pc")


def make_program(instrs, segments=None):
    return Program(instrs=list(instrs), entry=TEXT,
                   segments=segments or [])


def exit_seq():
    return [Instr("addi", rd=17, rs1=0, imm=93), Instr("ecall")]


def assert_results_equal(ref, fast, context=""):
    for key in OBSERVABLES:
        assert getattr(ref, key) == getattr(fast, key), (
            f"{context}: {key} diverged: "
            f"ref={getattr(ref, key)!r} fast={getattr(fast, key)!r}")
    ref_stats = dict(ref.stats or {})
    fast_stats = dict(fast.stats or {})
    # The fast engine adds its own sim.fast.* gauges; everything the
    # reference engine reports must match exactly.
    diffs = {key: (ref_stats[key], fast_stats.get(key))
             for key in ref_stats if fast_stats.get(key) != ref_stats[key]}
    assert not diffs, f"{context}: counter census diverged: {diffs}"


def eager_fast(**kwargs):
    """A FastMachine that translates every block on its first entry, so
    run-once code (most traps, every hand-built sequence here) runs
    translated instead of on the cold-entry reference loop."""
    machine = FastMachine(**kwargs)
    machine.TRANSLATE_ON_VISIT = 1
    return machine


def run_both(instrs, timed=False):
    """Run an instruction sequence on the reference and the (eagerly
    translating) fast engine, each with its own timing model when
    ``timed``; return machines and results after asserting
    observational equivalence."""
    ref = Machine(timing=InOrderPipeline() if timed else None)
    fast = eager_fast(timing=InOrderPipeline() if timed else None)
    a = ref.run(make_program(instrs))
    b = fast.run(make_program(instrs))
    assert_results_equal(a, b)
    assert ref.regs == fast.regs
    assert ref.srf == fast.srf and ref.srf_wide == fast.srf_wide
    return ref, fast, a, b


class TestEngineRegistry:
    def test_registry_contents(self):
        assert ENGINES["ref"] is Machine
        assert ENGINES["fast"] is FastMachine

    def test_make_machine(self):
        assert type(make_machine("ref")) is Machine
        assert type(make_machine("fast")) is FastMachine

    def test_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            make_machine("qemu")

    def test_default_engine_is_fast(self, monkeypatch):
        assert DEFAULT_ENGINE == "fast"
        assert type(make_machine()) is FastMachine
        # Read at call time, so one assignment reroutes every run.
        monkeypatch.setattr(repro.sim, "DEFAULT_ENGINE", "ref")
        assert type(make_machine()) is Machine

    def test_fast_is_drop_in(self):
        # Same constructor surface: FastMachine must accept everything
        # Machine does (make_machine forwards kwargs blindly).
        machine = make_machine("fast", config=HwstConfig(), timing=None)
        assert isinstance(machine, Machine)


def run_on(new_machine, source, scheme, timed, cache=None, **kwargs):
    """Compile ``source`` and run it on ``new_machine(config, timing)``."""
    config = HwstConfig()
    program = cache.compile(source, scheme, config) if cache is not None \
        else compile_source(source, scheme, config)
    machine = new_machine(config=config,
                          timing=InOrderPipeline() if timed else None)
    return machine.run(program, **kwargs)


class TestWorkloadLockstep:
    """Ref-vs-fast over real workload kernels, timed and untimed.

    The software runtimes of ``sbcets`` and ``asan`` reach shadow memory
    through plain ``ld``/``sd``: those accesses must miss the user-page
    TLB and take the checked path, which counts their shadow bytes."""

    @pytest.mark.parametrize("workload", ("sha", "treeadd", "dijkstra"))
    @pytest.mark.parametrize("scheme", ("baseline", "hwst128_tchk", "hwst128",
                                        "bogo", "wdl_wide", "sbcets", "asan"))
    @pytest.mark.parametrize("timed", (False, True),
                             ids=("untimed", "timed"))
    def test_lockstep(self, workload, scheme, timed):
        source = WORKLOADS[workload].source("small")
        ref = run_on(Machine, source, scheme, timed)
        fast = run_on(FastMachine, source, scheme, timed)
        assert ref.status == STATUS_EXIT and ref.exit_code == 0
        assert_results_equal(ref, fast, f"{workload}/{scheme}")


class TestShadowBudgetLockstep:
    """The shadow budget trap (Sec. 5.1's lbm OOM) fires from translated
    code, where the TLB path counts the shadow bytes the budget guard
    reads, with the reference loop's status, trap pc, instret, cycles
    and census."""

    SOURCE = """
    int main(void) {
        long i;
        long *tab[64];
        for (i = 0; i < 64; i++) {
            tab[i] = (long*)malloc(64);
            tab[i][0] = i;
        }
        return 0;
    }"""

    @pytest.mark.parametrize("scheme", ("hwst128_tchk", "bogo"))
    @pytest.mark.parametrize("timed", (False, True),
                             ids=("untimed", "timed"))
    def test_budget_trap_matches(self, scheme, timed):
        config = HwstConfig(shadow_budget=1024)
        program = compile_source(self.SOURCE, scheme, config)
        results = {}
        unwound = []
        for engine, new_machine in (("ref", Machine), ("fast", FastMachine),
                                    ("eager", eager_fast)):
            machine = new_machine(
                config=config, timing=InOrderPipeline() if timed else None)
            if engine != "ref":
                unwind = machine._unwind
                machine._unwind = lambda block, completed, unwind=unwind: (
                    unwound.append(engine), unwind(block, completed))
            results[engine] = machine.run(program)
        assert results["ref"].status == STATUS_OOM
        assert results["ref"].stats["shadow_bytes"] > 1024
        # Each fast run trapped inside a translated block.
        assert unwound == ["fast", "eager"]
        for engine in ("fast", "eager"):
            assert_results_equal(results["ref"], results[engine],
                                 f"{scheme}/{engine}")


class TestBlocksIgnoreTiming:
    """A program translates into the same blocks with and without a
    timing model: no op needs a block of its own to retire timed."""

    @pytest.mark.parametrize("scheme", ("hwst128", "bogo", "wdl_wide"))
    def test_timed_blocks_are_untimed_blocks(self, scheme):
        program = compile_source(WORKLOADS["sha"].source("small"), scheme,
                                 HwstConfig())
        stats = {}
        for timed in (False, True):
            machine = FastMachine(config=HwstConfig(),
                                  timing=InOrderPipeline() if timed else None)
            assert machine.run(program).ok
            stats[timed] = machine.fast_stats()
        assert stats[True] == stats[False]


class TestFuzzLockstep:
    """Ref-vs-fast over generated programs, planted bugs included.

    Planted programs end in spatial/temporal traps, so this sweep
    exercises the fast engine's trap-boundary accounting on every
    violation class the generator can plant — translated, with eager
    translation, or after cold entries on the reference loop, as the
    default engine runs them. Every program runs untimed and timed
    (where a mid-block trap unwinds the block's timing fold) under
    five schemes — ``hwst128_tchk`` adding fused ``tchk`` pairs,
    ``hwst128`` its metadata loads, ``bogo`` and ``wdl_wide`` the MPX
    and AVX ops — and the full counter census must match. CI runs the
    same sweep at 200 programs (REPRO_LOCKSTEP_FUZZ_N=200).
    """

    N = int(os.environ.get("REPRO_LOCKSTEP_FUZZ_N", "20"))

    def test_lockstep_over_generated_corpus(self):
        self._sweep(FastMachine)

    def test_eager_translation_lockstep_over_generated_corpus(self):
        self._sweep(eager_fast)

    def _sweep(self, new_fast):
        from repro.fuzz.gen import generate_program, plan_programs
        from repro.harness.compile_cache import CompileCache

        cache = CompileCache()
        trapping = fused = 0
        for index, kind in plan_programs(seed=29, count=self.N):
            program = generate_program(29, index, kind)
            for scheme in ("hwst128", "hwst128_tchk", "sbcets", "bogo",
                           "wdl_wide"):
                for timed in (False, True):
                    ref = run_on(Machine, program.source, scheme, timed,
                                 cache=cache, max_instructions=2_000_000)
                    fast = run_on(new_fast, program.source, scheme, timed,
                                  cache=cache, max_instructions=2_000_000)
                    if ref.status in (STATUS_SPATIAL, STATUS_TEMPORAL):
                        trapping += 1
                    fused += fast.metrics["sim.fast.fused_pairs"]
                    assert_results_equal(
                        ref, fast, f"{program.name}/{scheme}/"
                        f"{'timed' if timed else 'untimed'}")
        assert trapping > 0, (
            "corpus never trapped — the sweep is not exercising "
            "trap-boundary accounting; regenerate with planted bugs")
        assert fused > 0, "no fused tchk pair was translated"


class TestSelfModifyingStore:
    def test_store_into_text_invalidates_overlapping_block(self):
        # The executing block stores over its own entry instruction:
        # the translation cache must drop it (QEMU-style tb_invalidate)
        # even though this run's closures keep executing.
        seq = li_sequence(5, TEXT)
        seq.append(Instr("sd", rs1=5, rs2=0, imm=0))
        seq += exit_seq()
        ref, fast, a, b = run_both(seq)
        stats = fast.fast_stats()
        assert stats["invalidated_blocks"] == 1
        assert stats["blocks"] == 0          # the only block was dropped
        assert a.status == STATUS_EXIT

    def test_store_outside_text_invalidates_nothing(self):
        heap = DEFAULT_LAYOUT.heap_base
        seq = li_sequence(5, heap)
        seq.append(Instr("sd", rs1=5, rs2=0, imm=0))
        seq += exit_seq()
        _, fast, _, _ = run_both(seq)
        assert fast.fast_stats()["invalidated_blocks"] == 0

    def test_invalidated_block_retranslates_on_reentry(self):
        # A two-iteration loop whose body stores into its own text:
        # iteration 2 must re-enter through a fresh translation.
        patch = li_sequence(5, TEXT)
        head = (len(patch) + 1) * 4          # loop head offset
        body = [
            Instr("addi", rd=5, rs1=5, imm=head),  # x5 = &loop head
            Instr("sd", rs1=5, rs2=0, imm=0),      # clobber own text
            Instr("addi", rd=6, rs1=6, imm=1),
            Instr("addi", rd=7, rs1=0, imm=2),
            Instr("blt", rs1=6, rs2=7, imm=-12),   # back to the sd
        ]
        seq = patch + body + exit_seq()
        _, fast, _, _ = run_both(seq)
        stats = fast.fast_stats()
        assert stats["invalidated_blocks"] >= 2
        assert stats["translations"] >= 2


class TestSuperblockBoundaries:
    def test_branch_into_block_middle(self):
        # The backward branch lands in the *middle* of the entry block:
        # the cache is keyed by entry pc, so a second block must be
        # translated at the branch target and both must retire the
        # same architectural state as the reference loop.
        mid = TEXT + 8                        # the addi x5 += 1
        seq = [
            Instr("addi", rd=6, rs1=0, imm=3),            # counter
            Instr("addi", rd=5, rs1=0, imm=0),
            Instr("addi", rd=5, rs1=5, imm=1),            # mid: x5 += 1
            Instr("addi", rd=6, rs1=6, imm=-1),
            Instr("bne", rs1=6, rs2=0, imm=mid - (TEXT + 16)),
        ] + exit_seq()
        ref, fast, _, _ = run_both(seq)
        assert ref.regs[5] == 3
        assert fast.fast_stats()["translations"] >= 2

    def test_superblock_extends_across_jal(self):
        # jal over a gap: the trace continues at the target, so the
        # whole program is ONE block even though it is discontiguous.
        seq = [
            Instr("addi", rd=5, rs1=0, imm=7),
            Instr("jal", rd=0, imm=12),               # skip 2 instrs
            Instr("addi", rd=5, rs1=0, imm=0),        # dead
            Instr("addi", rd=5, rs1=0, imm=0),        # dead
            Instr("addi", rd=5, rs1=5, imm=1),        # jal target
        ] + exit_seq()
        ref, fast, _, _ = run_both(seq)
        assert ref.regs[5] == 8
        stats = fast.fast_stats()
        assert stats["translations"] == 1
        # Dead instructions are never decoded into the superblock.
        assert stats["translated_instrs"] == 5

    def test_block_cache_reused_across_iterations(self):
        seq = [
            Instr("addi", rd=6, rs1=0, imm=50),
            Instr("addi", rd=5, rs1=0, imm=0),
            Instr("addi", rd=5, rs1=5, imm=2),
            Instr("addi", rd=6, rs1=6, imm=-1),
            Instr("bne", rs1=6, rs2=0, imm=-8),
        ] + exit_seq()
        ref, fast, _, _ = run_both(seq)
        assert ref.regs[5] == 100
        stats = fast.fast_stats()
        # 50 iterations, but each distinct entry pc translates once.
        assert stats["block_runs"] > stats["translations"]


class TestOperandBinding:
    """A translated function binds its operands at translate time, the
    reference handler decodes them per call: both must read the same
    values, a negative immediate included (it binds as a u64)."""

    @pytest.mark.parametrize("op", sorted(
        op for op, spec in SPEC_TABLE.items()
        if spec.fmt == FMT_I and spec.opcode in (0x13, 0x1B)))
    def test_immediate_alu_ops(self, op):
        seq = li_sequence(5, 0x8000_0000_0000_0001) + li_sequence(6, 7)
        rd = 18
        for rs1 in (5, 6):
            for imm in (-2048, -1, 1, 2047):
                seq.append(Instr(op, rd=rd, rs1=rs1, imm=imm))
                rd += 1
        run_both(seq + exit_seq())


class TestTrapAccounting:
    """Satellite: instret/cycle audit at trap boundaries."""

    def test_instret_pinned_on_trapping_program(self):
        # The trapping instruction itself is NOT retired: instret is
        # pinned to exactly the count of completed instructions, and
        # the trap pc to the faulting load.
        setup = li_sequence(5, UNMAPPED)
        setup.append(Instr("addi", rd=6, rs1=0, imm=1))
        seq = setup + [Instr("ld", rd=7, rs1=5, imm=0)]
        pinned = len(setup)
        trap_pc = TEXT + 4 * len(setup)
        for new_machine in (Machine, FastMachine, eager_fast):
            result = new_machine().run(make_program(seq + exit_seq()))
            assert result.status == STATUS_FAULT, new_machine
            assert result.instret == pinned, new_machine
            assert result.trap_pc == trap_pc, new_machine

    def test_instret_pinned_mid_block(self):
        # Same, but the trap fires deep inside one straight-line block
        # (the bulk instret add must be unwound to the trap position).
        seq = li_sequence(5, UNMAPPED)
        seq += [Instr("addi", rd=6, rs1=0, imm=i) for i in range(10)]
        pinned = len(seq)
        seq += [Instr("ld", rd=7, rs1=5, imm=0)] + exit_seq()
        _, _, a, b = run_both(seq)
        assert a.status == STATUS_FAULT
        assert a.instret == pinned
        assert b.instret == pinned

    @pytest.mark.parametrize("source,status", (
        ("""
         int main(void) {
             long *p = (long*)malloc(8);
             free(p);
             return (int)(p[0] & 0);
         }
         """, STATUS_TEMPORAL),
        ("""
         int main(void) {
             long *p = (long*)malloc(8);
             long v = p[20];
             free(p);
             return (int)(v & 0);
         }
         """, STATUS_SPATIAL),
    ), ids=("temporal", "spatial"))
    def test_trap_inside_fused_pair(self, source, status):
        # hwst128_tchk emits tchk immediately before every checked
        # access, which the translator fuses into one function. A UAF
        # traps in the first half (tchk), an OOB in the second (the
        # checked access) — both must report the reference instret,
        # and timed, the cycles and census of the unwound fold.
        config = HwstConfig()
        program = compile_source(source, "hwst128_tchk", config)
        for timed in (False, True):
            results = {}
            for engine, new_machine in (("ref", Machine),
                                        ("fast", eager_fast)):
                machine = new_machine(
                    config=HwstConfig(),
                    timing=InOrderPipeline() if timed else None)
                results[engine] = machine.run(program)
                if engine == "fast":
                    assert machine.fast_stats()["fused_pairs"] > 0
            assert results["ref"].status == status
            assert_results_equal(results["ref"], results["fast"],
                                 f"{status}/timed={timed}")

    def test_csr_instret_read_is_exact(self):
        # A csrrs of instret in the middle of hot code must observe
        # the exact architectural count despite the fast engine's
        # bulk per-block crediting. Timed, a read of cycle must see
        # every cost folded before it (a D-cache miss, a load-use
        # stall, mul latency) and none of its own.
        read_cycle = Instr("csrrs", rd=9, rs1=0, imm=csrdef.CYCLE)
        seq = [
            Instr("addi", rd=6, rs1=0, imm=1),
            Instr("addi", rd=6, rs1=6, imm=1),
            Instr("csrrs", rd=5, rs1=0, imm=csrdef.INSTRET),
            Instr("addi", rd=6, rs1=6, imm=1),
        ] + li_sequence(7, DEFAULT_LAYOUT.heap_base) + [
            Instr("ld", rd=7, rs1=7, imm=0),
            Instr("addi", rd=8, rs1=7, imm=1),
            Instr("mul", rd=8, rs1=8, rs2=8),
            read_cycle,
            Instr("addi", rd=6, rs1=6, imm=1),
        ] + exit_seq()
        before = seq.index(read_cycle)
        cycles = {}
        for timed in (False, True):
            ref, fast, _, _ = run_both(seq, timed)
            assert ref.regs[5] == fast.regs[5] == 2
            cycles[timed] = ref.regs[9]
        miss = InOrderPipeline().params.dcache_miss_penalty
        assert cycles[False] == before       # untimed, cycle is instret
        assert cycles[True] > before + miss

    def test_limit_trap_matches(self):
        # Budget exhaustion mid-loop: the fast engine's budget tail
        # runs on the reference loop and must report the same limit.
        # A budget that ends exactly at the end of text is a limit
        # too, not a fetch outside text: nothing translates past it.
        loop = [Instr("addi", rd=5, rs1=5, imm=1),
                Instr("jal", rd=0, imm=-4)]
        straight = [Instr("addi", rd=5, rs1=5, imm=1)] * 3
        for seq, budget, new_fast in ((loop, 1001, FastMachine),
                                      (straight, 3, eager_fast)):
            ref = Machine().run(make_program(seq), max_instructions=budget)
            fast = new_fast().run(make_program(seq),
                                  max_instructions=budget)
            assert ref.status == STATUS_LIMIT
            assert_results_equal(ref, fast, f"limit {budget}")


HEAP = DEFAULT_LAYOUT.heap_base
#: A 64-byte object, and the lock/key pair of a live allocation.
BASE, BOUND = HEAP + 0x100, HEAP + 0x140
LOCK, KEY = HEAP + 0x300, 0x1234


def bound_srf(rd):
    """SRF[rd] <- the spatial window [BASE, BOUND)."""
    return li_sequence(28, BASE) + li_sequence(29, BOUND) + [
        Instr("bndrs", rd=rd, rs1=28, rs2=29)]


def wide_srf(rd, lock=0):
    """Wide SRF[rd] <- (BASE, BOUND, KEY, lock), through shadow memory
    and ``vld256``; a non-zero ``lock`` holds KEY."""
    container = HEAP + 0x200
    shadow = (container << 2) + HwstConfig().shadow_offset
    seq = li_sequence(6, shadow)
    for i, value in enumerate((BASE, BOUND, KEY, lock)):
        seq += li_sequence(7, value) + [Instr("sd", rs1=6, rs2=7, imm=8 * i)]
    if lock:
        seq += li_sequence(6, lock) + li_sequence(7, KEY) + [
            Instr("sd", rs1=6, rs2=7, imm=0)]
    return seq + li_sequence(6, container) + [
        Instr("vld256", rd=rd, rs1=6, imm=0)]


class TestRareRows:
    """Eagerly translated, timed and untimed: the rows no scheme emits
    (``lbnd``, ``csrrc``, ``fence``, ``ebreak``) or traps on (a failing
    ``bndcl``, ``bndcu`` or ``vchk``), and a ``vchk`` whose in-check
    key load is a second access."""

    CASES = {
        "lbnd": (bound_srf(5) + li_sequence(6, BASE) + [
            Instr("sbdl", rs1=6, rs2=5, imm=0),
            Instr("lbnd", rd=7, rs1=6, imm=0),
            Instr("addi", rd=8, rs1=7, imm=0)], STATUS_EXIT),
        "csrrc": (li_sequence(6, 1) + [
            Instr("csrrc", rd=5, rs1=6, imm=csrdef.HWST_STATUS),
            Instr("csrrc", rd=7, rs1=0, imm=csrdef.HWST_STATUS),
            Instr("csrrs", rd=8, rs1=0, imm=csrdef.HWST_STATUS)],
            STATUS_EXIT),
        "fence": ([Instr("addi", rd=5, rs1=0, imm=1), Instr("fence"),
                   Instr("addi", rd=5, rs1=5, imm=1)], STATUS_EXIT),
        "ebreak": ([Instr("addi", rd=5, rs1=0, imm=1), Instr("ebreak")],
                   STATUS_ABORT),
        "bndcl": (bound_srf(5) + li_sequence(6, BASE - 8) + [
            Instr("bndcl", rs1=5, rs2=6)], STATUS_SPATIAL),
        "bndcu": (bound_srf(5) + li_sequence(6, BOUND) + [
            Instr("bndcu", rs1=5, rs2=6)], STATUS_SPATIAL),
        "vchk": (wide_srf(9) + li_sequence(10, BOUND) + [
            Instr("vchk", rs1=9, rs2=10)], STATUS_SPATIAL),
        "vchk_lock": (wide_srf(9, LOCK) + li_sequence(10, BASE) + [
            Instr("vchk", rs1=9, rs2=10),
            Instr("addi", rd=11, rs1=10, imm=8),
            Instr("vchk", rs1=9, rs2=11)], STATUS_EXIT),
    }

    @pytest.mark.parametrize("timed", (False, True),
                             ids=("untimed", "timed"))
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_lockstep(self, case, timed):
        seq, status = self.CASES[case]
        ref, fast, result, _ = run_both(seq + exit_seq(), timed)
        assert result.status == status, result.detail
        assert fast.fast_stats()["block_runs"] > 0
        if case == "lbnd":
            assert ref.regs[8] == BOUND
        if case == "csrrc":
            assert (ref.regs[5], ref.regs[7], ref.regs[8]) == (3, 2, 2)
        if status != STATUS_EXIT:
            assert result.trap_pc == TEXT + 4 * (len(seq) - 1)


class TestObservedModes:
    """Per-instruction observers route to the reference loop."""

    SOURCE = """
    int main(void) {
        long *p = (long*)malloc(64);
        long i; long s = 0;
        for (i = 0; i < 8; i = i + 1) { p[i] = i * 3; }
        for (i = 0; i < 8; i = i + 1) { s = s + p[i]; }
        free(p);
        print_int(s);
        return 0;
    }
    """

    def test_profiler_lockstep(self):
        from repro.obs import CycleProfiler, Observers

        reports = {}
        for engine in ("ref", "fast"):
            from repro.pipeline.timing import InOrderPipeline

            profiler = CycleProfiler()
            config = HwstConfig()
            program = compile_source(self.SOURCE, "hwst128_tchk", config)
            machine = make_machine(engine, config=config,
                                   timing=InOrderPipeline(),
                                   observers=Observers(profiler=profiler))
            result = machine.run(program)
            assert result.status == STATUS_EXIT
            reports[engine] = (result, profiler.report(program))
        a, ra = reports["ref"]
        b, rb = reports["fast"]
        assert_results_equal(a, b, "profiled")
        # The per-pc cycle attribution itself must agree: a profiled
        # run executes on the reference loop, every retire observed.
        assert ra.to_collapsed() == rb.to_collapsed()


@pytest.fixture
def built(monkeypatch):
    """Count machine constructions by engine class name."""
    counts = collections.Counter()
    init = Machine.__init__

    def counting_init(self, *args, **kwargs):
        counts[type(self).__name__] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Machine, "__init__", counting_init)
    return counts


def _cyclic_garbage(new_machine, program, run: bool) -> int:
    """Objects a dropped machine leaves for the cyclic collector."""
    gc.collect()
    before = len(gc.garbage)
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        machine = new_machine(config=HwstConfig())
        if run:
            machine.run(program)
        del machine
        gc.collect()
        return len(gc.garbage) - before
    finally:
        gc.set_debug(0)
        del gc.garbage[before:]


class TestCompactCache:
    """The translation cache is compact, per run and GC-neutral."""

    def test_run_leaves_no_more_cyclic_garbage_than_reference(self):
        case = _build_case(416, "uaf_fresh", 0)
        program = compile_source(case.bad_source, "hwst128_tchk",
                                 HwstConfig())
        # What run() itself leaves behind (both engines keep the
        # handler-table cycle of an unused machine). Eager translation,
        # so every block of this run-once program is translated.
        left = {name: _cyclic_garbage(new, program, run=True)
                - _cyclic_garbage(new, program, run=False)
                for name, new in (("ref", Machine), ("fast", eager_fast))}
        assert left["fast"] <= left["ref"], left

    def test_tracked_objects_per_translated_instruction(self):
        program = compile_source(WORKLOADS["hmmer"].source("small"),
                                 "sbcets", HwstConfig())
        machine = FastMachine(config=HwstConfig(),
                              timing=InOrderPipeline())
        kept = []
        translate = machine._translate

        def keep(pc):
            block = translate(pc)
            kept.append(block)
            return block

        machine._translate = keep
        machine.run(program)
        # Operands are default arguments, never closure cells.
        assert all(fn is None or fn.__closure__ is None
                   for block in kept
                   for fn in block.body + (block.term, block.fold))
        gc.collect()
        with_blocks = len(gc.get_objects())
        kept.clear()
        gc.collect()
        per_instr = (with_blocks - len(gc.get_objects())) \
            / machine.fast_stats()["translated_instrs"]
        assert per_instr <= 6, per_instr

    def test_stats_survive_the_dropped_cache(self):
        seq = [
            Instr("addi", rd=6, rs1=0, imm=5),
            Instr("addi", rd=6, rs1=6, imm=-1),
            Instr("bne", rs1=6, rs2=0, imm=-4),
        ] + exit_seq()
        machine = eager_fast()
        result = machine.run(make_program(seq))
        assert machine._blocks == {}
        stats = machine.fast_stats()
        assert stats["blocks"] == stats["translations"] == 3
        assert stats["block_runs"] > stats["translations"]
        for name, value in stats.items():
            assert result.metrics[f"sim.fast.{name}"] == value

    def test_callee_is_copied_into_one_superblock_only(self):
        # Three calls to one callee: the first call site's superblock
        # copies it, later ones chain to its own (single) block.
        callee = TEXT + 20
        seq = [Instr("jal", rd=1, imm=callee - (TEXT + 4 * i))
               for i in range(3)]
        seq += exit_seq()
        seq += [Instr("addi", rd=5, rs1=5, imm=1),
                Instr("jalr", rd=0, rs1=1, imm=0)]
        ref, fast, _, _ = run_both(seq)
        assert ref.regs[5] == 3
        stats = fast.fast_stats()
        # [jal, addi, jalr] [jal] [addi, jalr] [jal] [addi, ecall]
        assert stats["translations"] == 5
        assert stats["translated_instrs"] == 9


class TestColdEntries:
    """The default engine runs a block's first entry on the reference
    loop and translates it on the second."""

    def _run(self, seq):
        ref = Machine().run(make_program(seq))
        machine = FastMachine()
        fast = machine.run(make_program(seq))
        assert_results_equal(ref, fast)
        return machine.fast_stats()

    def test_run_once_code_is_never_translated(self):
        stats = self._run(li_sequence(5, 0x12345678) + exit_seq())
        assert stats["translations"] == stats["block_runs"] == 0

    def test_block_translated_on_second_entry(self):
        seq = [
            Instr("addi", rd=6, rs1=0, imm=3),
            Instr("addi", rd=5, rs1=5, imm=1),             # loop head
            Instr("addi", rd=6, rs1=6, imm=-1),
            Instr("bne", rs1=6, rs2=0, imm=-8),
        ] + exit_seq()
        # Entries: TEXT (cold), loop head (cold), loop head (translated
        # and run), exit (cold).
        stats = self._run(seq)
        assert stats["translations"] == stats["block_runs"] == 1
        assert stats["translated_instrs"] == 3

    def test_budget_tail_after_cold_entries(self):
        seq = [Instr("addi", rd=5, rs1=5, imm=1),
               Instr("jal", rd=0, imm=-4)]
        for budget in (1, 2, 3, 4, 5):
            ref = Machine().run(make_program(seq),
                                max_instructions=budget)
            fast = FastMachine().run(make_program(seq),
                                     max_instructions=budget)
            assert ref.status == STATUS_LIMIT
            assert_results_equal(ref, fast, f"budget {budget}")


class TestLockstepOracles:
    """Engine-lockstep oracles build both engines explicitly, so the
    default engine cannot turn them into same-engine checks."""

    SOURCE = TestObservedModes.SOURCE

    @pytest.fixture(params=("ref", "fast"))
    def default_engine(self, request, monkeypatch):
        monkeypatch.setattr(repro.sim, "DEFAULT_ENGINE", request.param)
        return request.param

    @staticmethod
    def _extra_machines(built, run):
        """Machines ``run(True)`` builds beyond ``run(False)``."""
        built.clear()
        run(False)
        without = collections.Counter(built)
        built.clear()
        run(True)
        return dict(built - without)

    def test_fuzz_probe(self, built, default_engine):
        from repro.fuzz.oracle import probe_program

        extra = self._extra_machines(built, lambda lockstep: probe_program(
            self.SOURCE, schemes=("hwst128",), collect_coverage=False,
            engine_lockstep=lockstep))
        assert extra == {"Machine": 1, "FastMachine": 1}

    def test_fault_campaign(self, built, default_engine):
        from repro.faultinject.campaign import run_campaign

        extra = self._extra_machines(built, lambda lockstep: run_campaign(
            "hwst128", n=1, seed=3, targets=["vecsum"],
            wallclock_budget=None, engine_lockstep=lockstep))
        assert extra == {"Machine": 1, "FastMachine": 1}

    def test_conform_lockstep_cell(self, built, default_engine):
        from repro.harness.conform import ConformLockstepCell

        cell = ConformLockstepCell(tag="t", source=self.SOURCE,
                                   scheme="hwst128_tchk")
        assert cell.execute().ok
        assert dict(built) == {"Machine": 1, "FastMachine": 1}


class TestEngineIdentity:
    """Figures, coverage and serve envelopes are the same bytes on
    either default engine."""

    @staticmethod
    def _on_both(monkeypatch, built, produce):
        docs = {}
        for engine in ("ref", "fast"):
            monkeypatch.setattr(repro.sim, "DEFAULT_ENGINE", engine)
            built.clear()
            docs[engine] = json.dumps(produce(), sort_keys=True,
                                      separators=(",", ":"))
            assert set(built) == {ENGINES[engine].__name__}
        assert docs["ref"] == docs["fast"]
        return docs["fast"]

    def test_fig4_rows(self, monkeypatch, built):
        from repro.harness.experiments import fig4_overhead

        doc = self._on_both(monkeypatch, built, lambda: fig4_overhead(
            scale="small", workloads=["treeadd"]))
        assert "sim.fast" not in doc

    def test_fig5_rows(self, monkeypatch, built):
        from repro.harness.experiments import fig5_speedup

        doc = self._on_both(monkeypatch, built, lambda: fig5_speedup(
            scale="small", workloads=["gobmk"]))
        assert "sim.fast" not in doc

    def test_juliet_coverage(self, monkeypatch, built):
        from repro.harness.coverage import evaluate_coverage
        from repro.harness.experiments import FIG6_SCHEMES

        cases = [_build_case(121, "loop_to_canary", 0),
                 _build_case(416, "uaf_fresh", 1),
                 _build_case(761, "free_offset", 2)]
        self._on_both(monkeypatch, built, lambda: {
            scheme: dataclasses.asdict(result)
            for scheme, result in evaluate_coverage(
                FIG6_SCHEMES, cases=cases, check_good=True).items()})

    def test_serve_evaluate(self, monkeypatch, built):
        from repro.serve.protocol import evaluate

        self._on_both(monkeypatch, built,
                      lambda: evaluate(TestObservedModes.SOURCE))
