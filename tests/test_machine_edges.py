"""Edge-case and property tests for the machine and its extensions."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import FieldWidths, HwstConfig
from repro.core.compression import MetadataCompressor, MetadataRangeError
from repro.faultinject import FaultSpec, RuntimeInjector
from repro.isa.instructions import Instr, li_sequence
from repro.isa import csr as csrdef
from repro.obs import Observers
from repro.sim import make_machine
from repro.sim.machine import Machine, SRF_INVALID
from repro.sim.memory import DEFAULT_LAYOUT
from repro.sim.program import Program, Segment

HEAP = DEFAULT_LAYOUT.heap_base


def make_program(instrs, segments=None):
    return Program(instrs=list(instrs), entry=DEFAULT_LAYOUT.text_base,
                   segments=segments or [])


def run(instrs, **kwargs):
    return Machine().run(make_program(instrs), **kwargs)


def exit_with(setup):
    return list(setup) + [Instr("addi", rd=17, rs1=0, imm=93),
                          Instr("ecall")]


class TestSrfPropagation:
    def bind(self, reg=5):
        seq = li_sequence(reg, HEAP) + li_sequence(6, HEAP + 64)
        seq.append(Instr("bndrs", rd=reg, rs1=reg, rs2=6))
        return seq

    def test_propagation_through_add_chain(self):
        machine = Machine()
        seq = self.bind() + [
            Instr("addi", rd=7, rs1=5, imm=8),
            Instr("add", rd=28, rs1=7, rs2=0),
            Instr("addi", rd=29, rs1=28, imm=8),
        ]
        machine.run(make_program(exit_with(seq)))
        base, bound, _, _ = machine.srf_metadata(29)
        assert (base, bound) == (HEAP, HEAP + 64)

    def test_lui_invalidates(self):
        machine = Machine()
        seq = self.bind() + [Instr("lui", rd=5, imm=4)]
        machine.run(make_program(exit_with(seq)))
        assert machine.srf[5] == SRF_INVALID

    def test_csr_read_invalidates(self):
        machine = Machine()
        seq = self.bind() + [
            Instr("csrrs", rd=5, rs1=0, imm=csrdef.CYCLE)]
        machine.run(make_program(exit_with(seq)))
        assert machine.srf[5] == SRF_INVALID

    def test_x0_never_carries_metadata(self):
        machine = Machine()
        seq = li_sequence(5, HEAP) + li_sequence(6, HEAP + 64) + [
            Instr("bndrs", rd=5, rs1=5, rs2=6),
            Instr("add", rd=0, rs1=5, rs2=0),   # write to x0
        ]
        machine.run(make_program(exit_with(seq)))
        assert machine.srf[0] == SRF_INVALID

    def test_second_operand_provides_metadata(self):
        machine = Machine()
        seq = self.bind() + [
            Instr("addi", rd=7, rs1=0, imm=16),   # plain integer
            Instr("add", rd=28, rs1=7, rs2=5),    # int + ptr
        ]
        machine.run(make_program(exit_with(seq)))
        base, bound, _, _ = machine.srf_metadata(28)
        assert (base, bound) == (HEAP, HEAP + 64)


class TestCsrSemantics:
    def test_csrrw_swaps(self):
        machine = Machine()
        seq = li_sequence(5, 0x1234) + [
            Instr("csrrw", rd=6, rs1=5, imm=csrdef.HWST_STATUS),
            Instr("csrrs", rd=10, rs1=0, imm=csrdef.HWST_STATUS),
        ]
        result = machine.run(make_program(exit_with(seq)))
        assert result.exit_code == 0x1234

    def test_csrrs_sets_bits(self):
        machine = Machine()
        seq = [
            Instr("addi", rd=5, rs1=0, imm=0b100),
            Instr("csrrw", rd=0, rs1=5, imm=csrdef.HWST_STATUS),
            Instr("addi", rd=6, rs1=0, imm=0b011),
            Instr("csrrs", rd=0, rs1=6, imm=csrdef.HWST_STATUS),
            Instr("csrrs", rd=10, rs1=0, imm=csrdef.HWST_STATUS),
        ]
        result = run(exit_with(seq))
        assert result.exit_code == 0b111

    def test_csrrc_clears_bits(self):
        seq = [
            Instr("addi", rd=5, rs1=0, imm=0b111),
            Instr("csrrw", rd=0, rs1=5, imm=csrdef.HWST_STATUS),
            Instr("addi", rd=6, rs1=0, imm=0b010),
            Instr("csrrc", rd=0, rs1=6, imm=csrdef.HWST_STATUS),
            Instr("csrrs", rd=10, rs1=0, imm=csrdef.HWST_STATUS),
        ]
        assert run(exit_with(seq)).exit_code == 0b101

    def test_lock_window_updates_snoop(self):
        """Re-programming HWST_LOCK_BASE/LIMIT moves the keybuffer
        snoop window."""
        machine = Machine()
        machine.reset()
        machine._csr_write(csrdef.HWST_LOCK_BASE, 0x2000_0000)
        machine._csr_write(csrdef.HWST_LOCK_LIMIT, 0x2000_1000)
        assert machine._lock_lo == 0x2000_0000
        assert machine._lock_hi == 0x2000_1000

    @pytest.mark.parametrize("engine", ("ref", "fast"))
    def test_reload_restores_the_snoop_window(self, engine):
        """A program that moves the lock-table window, binds a large
        object or runs with a codec fault armed must leak none of it
        into the next program loaded on the same machine: there, a
        zero store to .data is an ordinary store, not a free, and the
        machine's own compressor decodes, its Fig. 2 census from
        zero."""
        machine = make_machine(engine)
        own = machine.compressor
        machine.run(make_program(exit_with(
            li_sequence(6, HEAP) + li_sequence(7, HEAP + 4000) + [
                Instr("bndrs", rd=5, rs1=6, rs2=7),
                Instr("addi", rd=5, rs1=0, imm=0xF0),
                Instr("csrrw", rd=0, rs1=5, imm=csrdef.HWST_LOCK_BASE),
            ])), fault=RuntimeInjector(
                FaultSpec(kind="codec_corrupt", trigger=0, bit=2,
                          select=0)))
        assert machine.compressor is not own
        assert own.max_range_seen == 4000
        store = make_program(exit_with(
            li_sequence(5, DEFAULT_LAYOUT.data_base)
            + [Instr("sd", rs1=5, rs2=0)]))
        reused = machine.run(store)
        fresh = make_machine(engine).run(store)
        assert machine.csrs[csrdef.HWST_LOCK_BASE] == HwstConfig().lock_base
        assert reused.metrics["sim.kb.clears"] == 0
        assert reused.stats == fresh.stats
        assert machine.compressor is own


class TestSegments:
    def test_data_segment_loaded(self):
        data = Segment(addr=DEFAULT_LAYOUT.data_base,
                       data=b"\x2a\x00\x00\x00\x00\x00\x00\x00")
        seq = li_sequence(5, DEFAULT_LAYOUT.data_base) + [
            Instr("ld", rd=10, rs1=5, imm=0)]
        program = make_program(exit_with(seq), segments=[data])
        result = Machine().run(program)
        assert result.exit_code == 42

    def test_program_helpers(self):
        program = make_program([Instr("ecall")])
        assert program.text_size == 4
        assert program.instr_at(program.text_base).op == "ecall"
        assert program.instr_at(program.text_base + 4) is None
        with pytest.raises(KeyError):
            program.pc_of("missing")


class TestTracing:
    def test_trace_ring_buffer(self):
        machine = Machine(observers=Observers(trace_depth=3))
        seq = exit_with([Instr("addi", rd=5, rs1=0, imm=i)
                         for i in range(6)])
        machine.run(make_program(seq))
        text = machine.trace_text()
        assert len(text.splitlines()) == 3
        assert "ecall" in text

    def test_no_trace_by_default(self):
        machine = Machine()
        machine.run(make_program(exit_with([])))
        assert machine.trace_text() == ""

    @pytest.mark.parametrize("engine", ("ref", "fast"))
    def test_reload_restarts_the_ring(self, engine):
        """A reused machine's ring shows only the program loaded last,
        even when the ring could hold both."""
        first = make_program(exit_with(
            [Instr("addi", rd=5, rs1=0, imm=i) for i in range(6)]))
        second = make_program(exit_with([Instr("addi", rd=6, rs1=0,
                                               imm=1)]))
        observers = Observers(trace_depth=4000)
        reused = make_machine(engine, observers=observers)
        reused.run(first)
        reused.run(second)
        fresh = make_machine(engine, observers=observers)
        fresh.run(second)
        assert reused.trace_text() == fresh.trace_text()
        assert len(fresh.trace_text().splitlines()) == 3


class TestCompressionConfigs:
    @given(base_bits=st.integers(min_value=20, max_value=40),
           lock_bits=st.integers(min_value=4, max_value=24))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_under_arbitrary_widths(self, base_bits, lock_bits):
        """Property: any legal width split round-trips aligned metadata."""
        widths = FieldWidths(base=base_bits, range=64 - base_bits,
                             lock=lock_bits, key=64 - lock_bits)
        config = HwstConfig(widths=widths,
                            lock_entries=min(1 << 10,
                                             widths.max_locks() - 1))
        comp = MetadataCompressor(config)
        base = 0x40_0000
        bound = base + 512
        lower = comp.compress_spatial(base, bound)
        assert comp.decompress_spatial(lower) == (base, bound)
        lock = config.lock_base + 8 * 5
        upper = comp.compress_temporal(3, lock)
        assert comp.decompress_temporal(upper) == (3, lock)

    def test_machine_respects_custom_widths(self):
        widths = FieldWidths(base=30, range=34, lock=12, key=52)
        config = HwstConfig(widths=widths, lock_entries=1 << 10)
        machine = Machine(config=config)
        seq = li_sequence(5, HEAP) + li_sequence(6, HEAP + 128) + [
            Instr("bndrs", rd=5, rs1=5, rs2=6),
            Instr("ld.chk", rd=10, rs1=5, imm=120),
        ]
        result = machine.run(make_program(exit_with(seq)))
        assert result.status == "exit"
        seq_bad = li_sequence(5, HEAP) + li_sequence(6, HEAP + 128) + [
            Instr("bndrs", rd=5, rs1=5, rs2=6),
            Instr("ld.chk", rd=10, rs1=5, imm=128),
        ]
        result = Machine(config=config).run(make_program(seq_bad))
        assert result.status == "spatial_violation"

    def test_key_overflow_raises_config_error(self):
        widths = FieldWidths(base=35, range=29, lock=60, key=4)
        config = HwstConfig(widths=widths, lock_entries=4)
        comp = MetadataCompressor(config)
        with pytest.raises(MetadataRangeError):
            comp.compress_temporal(key=16, lock=0)


class TestRunResultPlumbing:
    def test_stats_survive_into_result(self):
        seq = li_sequence(5, HEAP) + [
            Instr("sd", rs1=5, rs2=5, imm=0),
            Instr("ld", rd=6, rs1=5, imm=0),
        ]
        result = run(exit_with(seq))
        assert result.stats["loads"] == 1
        assert result.stats["stores"] == 1

    def test_output_text_replaces_garbage(self):
        from repro.sim.machine import RunResult

        result = RunResult(status="exit", output=b"\xff\xfeok")
        assert "ok" in result.output_text()

    def test_max_instruction_guard(self):
        result = run([Instr("jal", rd=0, imm=0)], max_instructions=50)
        assert result.status == "limit"
