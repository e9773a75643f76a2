"""The semantics table both engines compile their hot handlers from.

Semantics themselves are checked against the independent spec
(tests/test_conform.py); these tests pin the table's shape and how its
variants are compiled: what has a row, laziness, readable tracebacks
and what each variant binds.
"""

import subprocess
import sys
import traceback

import pytest

from repro.errors import MemoryFault
from repro.isa.instructions import Instr, SPEC_TABLE
from repro.sim import semantics
from repro.sim.fastmachine import FastMachine
from repro.sim.machine import Machine
from repro.sim.memory import DEFAULT_LAYOUT
from repro.sim.program import Program

RARE = {"csrrw", "csrrs", "csrrc", "fence", "ecall", "ebreak",
        "lbas", "lbnd", "lkey", "lloc",
        "bndcl", "bndcu", "bndldx", "bndstx", "vld256", "vst256", "vchk"}


def make_program(instrs):
    return Program(instrs=list(instrs), entry=DEFAULT_LAYOUT.text_base)


class TestTable:
    def test_rows_are_every_mnemonic_but_the_rare_ones(self):
        assert len(semantics.ROWS) == 80
        assert set(semantics.ROWS) == set(SPEC_TABLE) - RARE

    def test_every_variant_compiles(self):
        for op in semantics.ROWS:
            assert callable(semantics.reference(op))
            for timed in (False, True):
                assert callable(semantics.translated(op, timed))
        for op, spec in SPEC_TABLE.items():
            if spec.checked:
                assert callable(semantics.fused(op, True))

    def test_nothing_compiles_at_import_or_construction(self):
        code = ("from repro.sim import FastMachine, Machine, semantics\n"
                "Machine(); FastMachine()\n"
                "assert semantics.reference.cache_info().currsize == 0\n"
                "assert semantics.translated.cache_info().currsize == 0\n")
        subprocess.run([sys.executable, "-c", code], check=True)

    def test_handlers_bind_on_first_dispatch(self):
        machine = Machine()
        stub = machine._dispatch["addi"]
        machine.load(make_program([Instr("addi", rd=5, rs1=0, imm=7)]))
        machine.step()
        assert machine.regs[5] == 7
        assert machine._dispatch["addi"] is not stub
        assert machine._dispatch["add"] is stub


class TestVariants:
    def test_reference_reads_replaceable_state_per_call(self):
        # memory, csrs and the compressor are replaced by reset() or a
        # codec fault: never default arguments of a reference handler.
        machine = Machine()
        replaceable = (machine.memory, machine.csrs, machine.compressor)
        for op in semantics.ROWS:
            defaults = semantics.reference(op)(machine).__defaults__
            assert not any(value is state for value in defaults
                           for state in replaceable), op

    def test_translated_functions_have_no_closure_cells(self):
        machine = FastMachine()
        machine.load(make_program([Instr("ld.chk", rd=5, rs1=6, imm=8)]))
        ins = machine.program.instrs[0]
        for op in semantics.ROWS:
            fn = semantics.translated(op, False)(machine, ins, 0)
            assert fn.__closure__ is None, op


class TestTracebacks:
    LOAD = [Instr("ld", rd=5, rs1=0, imm=0)]  # address 0 is unmapped

    def test_reference_frame_shows_its_template_line(self):
        machine = Machine()
        machine.load(make_program(self.LOAD))
        with pytest.raises(MemoryFault) as info:
            machine.step()
        text = "".join(traceback.format_exception(info.value))
        assert 'File "<semantics:ld>"' in text
        assert "value = memory.load_uint(addr, 8)" in text

    def test_translated_frame_shows_its_template_line(self):
        machine = FastMachine()
        machine.TRANSLATE_ON_VISIT = 1
        machine.load(make_program(self.LOAD))
        with pytest.raises(MemoryFault) as info:
            machine._exec_loop(10)
        text = "".join(traceback.format_exception(info.value))
        assert 'File "<semantics:ld:plain>"' in text
        assert "value = memory.load_uint(addr, 8)" in text
