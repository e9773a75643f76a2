"""Cross-layer integration tests.

These exercise paths through several subsystems at once: compiled
programs surviving binary encode/decode round trips, the linker's
memory layout guarantees, CSR programming at startup, shadow-memory
consistency between the compiler's view and the machine's, and the
paper's lbm-OOM reproduction.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import HwstConfig
from repro.errors import LinkError
from repro.isa import csr as csrdef
from repro.isa.encoding import decode_program, encode_program
from repro.harness.runner import run_program
from repro.schemes import compile_source
from repro.sim.machine import Machine
from repro.sim.memory import DEFAULT_LAYOUT

FIB = """
int fib(int n) {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
}
int main(void) { return fib(10) - 55; }
"""


class TestBinaryRoundTrip:
    @pytest.mark.parametrize("scheme", ["baseline", "hwst128_tchk",
                                        "sbcets", "bogo", "wdl_wide"])
    def test_whole_program_encodes_and_decodes(self, scheme):
        """Every instruction codegen can emit must be encodable, and
        decoding the blob reproduces the instruction stream."""
        program = compile_source(FIB, scheme)
        blob = encode_program(program.instrs)
        assert len(blob) == 4 * len(program.instrs)
        back = decode_program(blob, base_pc=program.text_base)
        assert [i.op for i in back] == [i.op for i in program.instrs]
        for original, decoded in zip(program.instrs, back):
            assert (original.rd, original.rs1, original.rs2) == \
                (decoded.rd, decoded.rs1, decoded.rs2)
            assert original.imm == decoded.imm, (original.op, original.imm)

    def test_decoded_program_still_runs(self):
        program = compile_source(FIB, "hwst128_tchk")
        program = replace(program, instrs=decode_program(
            encode_program(program.instrs), base_pc=program.text_base))
        result = Machine().run(program)
        assert result.status == "exit" and result.exit_code == 0


class TestLinker:
    def test_symbols_present(self):
        program = compile_source(FIB, "baseline")
        assert "main" in program.symbols
        assert "_start" in program.symbols
        assert "__rt_init" in program.symbols
        assert program.entry == program.symbols["_start"]

    def test_text_within_window(self):
        program = compile_source(FIB, "hwst128_tchk")
        assert program.text_base == DEFAULT_LAYOUT.text_base
        assert program.text_end <= DEFAULT_LAYOUT.data_base

    def test_globals_eight_aligned(self):
        program = compile_source("""
        char tag = 'x';
        long counter = 7;
        int main(void) { return (int)counter - 7; }
        """, "baseline")
        assert program.symbols["counter"] % 8 == 0

    def test_missing_main_rejected(self):
        with pytest.raises(LinkError):
            compile_source("int helper(void) { return 0; }", "baseline")

    def test_program_listing_renders(self):
        program = compile_source(FIB, "baseline")
        listing = program.listing(0, 24)
        assert "_start:" in listing

    def test_meta_records_scheme(self):
        program = compile_source(FIB, "sbcets")
        assert program.meta["scheme"] == "sbcets"


class TestCsrProgramming:
    def test_start_programs_hwst_csrs(self):
        """_start writes the shadow offset, packed widths and the lock
        window (Section 3.3: 'set at the beginning of a program')."""
        config = HwstConfig()
        program = compile_source(FIB, "hwst128_tchk", config)
        machine = Machine(config=config)
        machine.run(program)
        assert machine.csrs[csrdef.HWST_SM_OFFSET] == \
            config.shadow_offset
        widths = csrdef.unpack_meta_widths(
            machine.csrs[csrdef.HWST_META_WIDTHS])
        assert widths == (35, 29, 20, 44)
        assert machine.csrs[csrdef.HWST_LOCK_BASE] == config.lock_base


class TestShadowConsistency:
    def test_metadata_written_where_smac_maps(self):
        """After a pointer store, the compressed metadata must sit at
        Eq. 1's address for the container."""
        config = HwstConfig()
        source = """
        long *keep;
        int main(void) {
            keep = (long*)malloc(64);
            keep[0] = 1;
            return 0;
        }"""
        program = compile_source(source, "hwst128_tchk", config)
        machine = Machine(config=config)
        result = machine.run(program)
        assert result.ok
        container = program.symbols["keep"]
        shadow_addr = (container << 2) + config.shadow_offset
        lower = machine.memory.load_u64(shadow_addr)
        base, bound = machine.compressor.decompress_spatial(lower)
        pointer = machine.memory.load_u64(container)
        assert base == pointer
        assert bound == pointer + 64

    def test_temporal_half_holds_live_key(self):
        config = HwstConfig()
        source = """
        long *keep;
        int main(void) {
            keep = (long*)malloc(16);
            return 0;
        }"""
        machine = Machine(config=config)
        result = machine.run(compile_source(source, "hwst128_tchk",
                                            config))
        assert result.ok
        container = machine.program.symbols["keep"]
        upper = machine.memory.load_u64(
            (container << 2) + config.shadow_offset + 8)
        key, lock = machine.compressor.decompress_temporal(upper)
        assert lock != 0
        assert machine.memory.load_u64(lock) == key   # still live


class TestShadowBudget:
    def test_lbm_oom_reproduction(self):
        """Paper Sec. 5.1: lbm cannot finish under SBCETS due to
        insufficient memory — reproduced as a shadow budget."""
        config = HwstConfig(shadow_budget=4096)
        result = run_program("""
        int main(void) {
            long i;
            long *tab[64];
            for (i = 0; i < 64; i++) {
                tab[i] = (long*)malloc(64);
                tab[i][0] = i;
            }
            return 0;
        }""", "hwst128_tchk", config=config, timing=False)
        assert result.status == "shadow_oom"

    def test_unlimited_budget_by_default(self):
        result = run_program("""
        int main(void) {
            long *p = (long*)malloc(64);
            p[0] = 1;
            free(p);
            return 0;
        }""", "hwst128_tchk", timing=False)
        assert result.ok


@settings(max_examples=20, deadline=None)
@given(values=st.lists(st.integers(min_value=-1000, max_value=1000),
                       min_size=1, max_size=12))
def test_compiled_sum_matches_python(values):
    """Property: the full toolchain computes the same sum/min/max as
    Python for arbitrary small integer arrays."""
    array = ", ".join(str(v) for v in values)
    source = f"""
    long data[{len(values)}] = {{{array}}};
    int main(void) {{
        long sum = 0;
        long lo = data[0];
        long hi = data[0];
        int i;
        for (i = 0; i < {len(values)}; i++) {{
            sum += data[i];
            if (data[i] < lo) {{ lo = data[i]; }}
            if (data[i] > hi) {{ hi = data[i]; }}
        }}
        print_int(sum);
        print_char(' ');
        print_int(lo);
        print_char(' ');
        print_int(hi);
        return 0;
    }}"""
    result = run_program(source, "hwst128_tchk", timing=False)
    assert result.ok, result.detail
    expected = f"{sum(values)} {min(values)} {max(values)}"
    assert result.output_text() == expected
