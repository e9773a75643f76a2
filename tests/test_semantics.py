"""The semantics table both engines compile their hot handlers from.

Semantics themselves are checked against the independent spec
(tests/test_conform.py); these tests pin the table's shape and how its
variants are compiled: what has a row, laziness, readable tracebacks
and what each variant binds. The spec has no ``sim.*`` counters and
both engines compile one row, so the census each row bills is pinned
here, literally.
"""

import subprocess
import sys
import traceback

import pytest

from repro.errors import EcallAbort, MemoryFault, SimLimitExceeded
from repro.isa import csr as csrdef
from repro.isa.instructions import Instr, SPEC_TABLE
from repro.pipeline.timing import InOrderPipeline
from repro.sim import semantics
from repro.sim.fastmachine import FastMachine
from repro.sim.machine import Machine
from repro.sim.memory import DEFAULT_LAYOUT
from repro.sim.program import Program

def make_program(instrs):
    return Program(instrs=list(instrs), entry=DEFAULT_LAYOUT.text_base)


class TestTable:
    def test_rows_are_every_mnemonic(self):
        assert set(semantics.ROWS) == set(SPEC_TABLE)

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
        # No hand-written handler: every mnemonic starts as the stub.
        assert set(machine._dispatch) == set(SPEC_TABLE)
        assert all(handler is stub for handler in machine._dispatch.values())
        machine.load(make_program([Instr("addi", rd=5, rs1=0, imm=7)]))
        machine.step()
        assert machine.regs[5] == 7
        assert machine._dispatch["addi"] is not stub
        assert machine._dispatch["add"] is stub


HEAP = DEFAULT_LAYOUT.heap_base

#: The ``sim.*`` counters one step of each mnemonic below changes (as
#: the hand-written handlers the rows replaced billed them); every
#: other counter stays 0. An MPX bound-table walk bills two accesses.
CENSUS = {
    **{op: {"loads": 1, "hwst_ops": 1, "shadow_ops": 1}
       for op in ("lbas", "lbnd", "lkey", "lloc")},
    "bndldx": {"loads": 2, "shadow_ops": 1},
    "bndstx": {"stores": 2, "shadow_ops": 1},
    "vld256": {"loads": 1, "shadow_ops": 1},
    "vst256": {"stores": 1, "shadow_ops": 1},
    **{op: {} for op in ("bndcl", "bndcu", "vchk", "fence", "csrrw",
                         "csrrs", "csrrc", "ecall", "ebreak")},
}


def step_census(machine, op):
    """The non-zero ``sim.*`` counters after one step of ``op`` (with
    operands that do not trap, but for ``ebreak``)."""
    imm = csrdef.HWST_STATUS if op.startswith("csr") else 0
    machine.load(make_program([Instr(op, rd=7, rs1=5, rs2=6, imm=imm)]))
    regs = machine.regs
    regs[5] = regs[6] = regs[11] = HEAP  # container, address, buffer
    regs[17] = semantics.SYS_WRITE       # an ecall writes 0 bytes
    machine.srf[5] = (machine.compressor.compress_spatial(HEAP, HEAP + 64),
                      0, True, False)
    machine.srf_wide[5] = (HEAP, HEAP + 64, 0, 0)
    with pytest.raises(EcallAbort if op == "ebreak" else SimLimitExceeded):
        machine._exec_loop(1)
    return {name: value for name, value in machine.stats.items() if value}


def eager_fast(**kwargs):
    """A FastMachine that translates a block on its first entry."""
    machine = FastMachine(**kwargs)
    machine.TRANSLATE_ON_VISIT = 1
    return machine


class TestCensus:
    @pytest.mark.parametrize("timed", (False, True), ids=("untimed", "timed"))
    @pytest.mark.parametrize("new_machine", (Machine, eager_fast),
                             ids=("ref", "fast"))
    def test_one_step_bills_the_table(self, new_machine, timed):
        wrong = {}
        for op, expected in CENSUS.items():
            census = step_census(
                new_machine(timing=InOrderPipeline() if timed else None), op)
            if census != expected:
                wrong[op] = census
        assert not wrong


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
        machine = eager_fast()
        machine.load(make_program(self.LOAD))
        with pytest.raises(MemoryFault) as info:
            machine._exec_loop(10)
        text = "".join(traceback.format_exception(info.value))
        assert 'File "<semantics:ld:plain>"' in text
        assert "value = memory.load_uint(addr, 8)" in text
