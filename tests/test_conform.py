"""Conformance layer: the executable spec vs the ISS engines.

Four contracts:

* **Independence** — ``repro.spec`` imports nothing from the simulator
  (or any other implementation package); the spec is a second opinion,
  not a re-export. The compiler packages import no engine, timing
  model or harness: the ISA is their only contract with the machine.
* **Completeness** — every mnemonic in the encoding tables has a spec
  handler and a per-instruction equivalence battery, and the battery
  finds zero divergences.
* **Agreement** — lockstep co-simulation over real programs (workload
  kernels, fuzz programs) diffs the full architectural state at every
  retire and finds nothing; trap classification (class/pc/instret)
  matches across ref, fast and spec, including traps inside the fast
  engine's fused check pairs. The chunked driver the campaign runs on
  the fast engine returns exactly what the per-retire one returns, and
  a planted divergence comes out of the campaign cell as the per-retire
  record (or, planted in translated code only, as an engine mismatch).
* **Determinism** — the ``repro.spec/v1`` report is byte-identical for
  a fixed seed at any ``--jobs``, and the lockstep mnemonic coverage
  of the pinned corpus never shrinks (``tests/data/spec_coverage.json``).
"""

import ast
import functools
import json
import os
from pathlib import Path

import pytest

import repro.spec
from repro.core.compression import MetadataCompressor, MetadataRangeError
from repro.core.config import FieldWidths, HwstConfig
from repro.errors import MemoryFault, SpatialViolation, TemporalViolation
from repro.harness import conform
from repro.harness.conform import (
    CONFORM_SCHEMES,
    ConformEquivCell,
    ConformLockstepCell,
    EquivBench,
    build_cells,
    report_to_json,
    run_conform,
)
from repro.harness.runner import WORKLOADS
from repro.isa.instructions import Instr, SPEC_TABLE, li_sequence
from repro.obs.metrics import MetricsRegistry
from repro.schemes import compile_source
from repro.sim import make_machine
from repro.sim.fastmachine import FastMachine
from repro.sim.machine import Machine
from repro.sim.memory import DEFAULT_LAYOUT
from repro.sim.program import Program
from repro.spec import geometry
from repro.spec.equiv import (
    all_mnemonics,
    cases_for,
    run_case,
    run_mnemonic,
)
from repro.spec.lockstep import (
    CHUNK,
    run_chunked,
    run_lockstep,
    run_spec,
    snapshot_state,
)
from repro.spec.table import SPEC_EXEC

SPEC_DIR = Path(repro.spec.__file__).resolve().parent
DATA_DIR = Path(__file__).resolve().parent / "data"
SEED = 20260807


def _widths(config):
    w = config.widths
    return (w.base, w.range, w.lock, w.key)


def _lockstep(source, scheme, config=None, **kwargs):
    config = config or HwstConfig()
    program = compile_source(source, scheme, config)
    machine = Machine(config, timing=None)
    return run_lockstep(machine, program, widths=_widths(config),
                        lock_base=config.lock_base,
                        shadow_budget=config.shadow_budget, **kwargs)


# ---------------------------------------------------------------------------
# Independence
# ---------------------------------------------------------------------------

def _imports_of(path: Path):
    """Every absolute module name ``path`` imports, at any depth."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:            # relative import: same package
                continue
            yield node.module or ""


class TestSpecIndependence:
    #: The only first-party packages the spec may touch: its own
    #: modules and the pure encoding tables. Everything else
    #: (simulator, compiler, schemes, core, harness, ...) is an
    #: implementation the spec must stay independent of.
    ALLOWED_PREFIXES = ("repro.spec", "repro.isa")

    def test_spec_never_imports_an_implementation(self):
        violations = []
        for path in sorted(SPEC_DIR.glob("*.py")):
            for module in _imports_of(path):
                if module.split(".")[0] != "repro":
                    continue          # stdlib
                if not module.startswith(self.ALLOWED_PREFIXES):
                    violations.append(f"{path.name}: imports {module}")
        assert violations == [], violations

    def test_the_audit_sees_through_function_level_imports(self):
        # The walker must catch imports hidden inside function bodies,
        # or the independence guarantee is decorative.
        sample = ast.parse("def f():\n    from repro.sim import x\n")
        found = [node.module for node in ast.walk(sample)
                 if isinstance(node, ast.ImportFrom)]
        assert found == ["repro.sim"]

    def test_table_covers_every_encoded_mnemonic(self):
        assert set(SPEC_EXEC) == set(SPEC_TABLE)


class TestCompilerLayering:
    """The compiler stops at the ISA: it builds a ``Program`` and never
    runs one, so it imports no engine, timing model or harness."""

    PACKAGES = ("minic", "ir", "codegen", "schemes", "analyze")
    #: ``repro.sim`` itself and its engines are off limits; the memory
    #: layout, instruction semantics and ``Program`` stay allowed.
    FORBIDDEN_PREFIXES = ("repro.harness", "repro.pipeline",
                          "repro.sim.machine", "repro.sim.fastmachine")

    def test_compiler_imports_no_engine_or_harness(self):
        root = SPEC_DIR.parent
        violations = []
        for package in self.PACKAGES:
            for path in sorted((root / package).rglob("*.py")):
                violations.extend(
                    f"{path.relative_to(root)}: imports {module}"
                    for module in _imports_of(path)
                    if module == "repro.sim"
                    or module.startswith(self.FORBIDDEN_PREFIXES))
        assert violations == [], violations


# ---------------------------------------------------------------------------
# Geometry functions vs the production compressor
# ---------------------------------------------------------------------------

class TestGeometryFunctions:
    @pytest.mark.parametrize("geom", range(len(geometry.GEOMETRIES)))
    def test_matches_metadata_compressor(self, geom):
        import random

        widths = geometry.GEOMETRIES[geom]
        base_b, range_b, lock_b, key_b = widths
        config = HwstConfig(widths=FieldWidths(*widths),
                            lock_entries=min(1 << lock_b, 1 << 20))
        compressor = MetadataCompressor(config)
        rng = random.Random(f"spec-geometry/{geom}")
        lock_base = config.lock_base

        for _ in range(300):
            base = rng.getrandbits(40)
            bound = base + rng.getrandbits(20)
            try:
                expected = compressor.compress_spatial(base, bound)
            except MetadataRangeError:
                with pytest.raises(geometry.GeometryError):
                    geometry.spatial_pack(base, bound, base_b, range_b)
                continue
            lower = geometry.spatial_pack(base, bound, base_b, range_b)
            assert lower == expected
            assert geometry.spatial_unpack(lower, base_b, range_b) == \
                compressor.decompress_spatial(lower)

        for _ in range(300):
            key = rng.getrandbits(key_b + (2 if rng.random() < 0.2 else 0))
            lock = 0 if rng.random() < 0.2 else \
                lock_base + 8 * rng.getrandbits(lock_b + 1)
            try:
                expected = compressor.compress_temporal(key, lock)
            except MetadataRangeError:
                with pytest.raises(geometry.GeometryError):
                    geometry.temporal_pack(key, lock, lock_b, key_b,
                                           lock_base)
                continue
            upper = geometry.temporal_pack(key, lock, lock_b, key_b,
                                           lock_base)
            assert upper == expected
            assert geometry.temporal_unpack(upper, lock_b, key_b,
                                            lock_base) == \
                compressor.decompress_temporal(upper)

    def test_misaligned_and_negative_locks_error(self):
        with pytest.raises(geometry.GeometryError):
            geometry.temporal_pack(1, 0x1000_0004, 20, 44, 0x1000_0000)
        with pytest.raises(geometry.GeometryError):
            geometry.temporal_pack(1, 0x0FFF_FFF8, 20, 44, 0x1000_0000)
        with pytest.raises(geometry.GeometryError):
            geometry.spatial_pack(16, 8, 35, 29)  # bound < base


# ---------------------------------------------------------------------------
# Per-instruction equivalence
# ---------------------------------------------------------------------------

class TestEquivalenceSweep:
    def test_case_generation_is_deterministic(self):
        for mnemonic in ("add", "div", "bndrs", "tchk", "ld.chk",
                         "vchk", "ecall"):
            assert cases_for(mnemonic, SEED) == cases_for(mnemonic, SEED)

    def test_every_mnemonic_has_edge_cases(self):
        for mnemonic in all_mnemonics():
            assert cases_for(mnemonic, SEED), mnemonic

    def test_full_sweep_finds_zero_divergences(self):
        bench = EquivBench()
        total = 0
        for mnemonic in all_mnemonics():
            result = run_mnemonic(mnemonic, SEED, bench)
            assert result["divergences"] == [], \
                f"{mnemonic}: {result['divergences'][:2]}"
            total += result["cases"]
        assert total > 5000
        assert set(all_mnemonics()) == set(SPEC_TABLE)

    def test_metadata_geometry_cases_span_all_four(self):
        geoms = {case.geom for case in cases_for("bndrs", SEED)}
        assert geoms == set(range(len(geometry.GEOMETRIES)))

    @pytest.mark.parametrize("engine", ("ref", "fast"))
    def test_reused_machine_starts_every_case_fresh(self, engine):
        # Cases that write CSRs (the snoop window among them), the lock
        # table, shadow memory, the keybuffer, the console and the
        # compressor's census must leave nothing behind: the next
        # case's machine equals a new one.
        bench = EquivBench(engine)
        probe = Instr("addi", rd=10, rs1=5, imm=1)
        for mnemonic in ("csrrw", "csrrs", "csrrc", "sd", "vst256", "tchk",
                         "ecall", "bndrs", "bndrt"):
            for case in cases_for(mnemonic, SEED):
                run_case(case, bench)
                reused = bench.machine_for(case.geom, probe)
                fresh = EquivBench(engine).machine_for(case.geom, probe)
                assert _pre_state(reused) == _pre_state(fresh), \
                    case.describe()


def _pre_state(machine):
    """Everything a case could leave behind on an equivalence machine."""
    memory = machine.memory
    keybuffer = machine.keybuffer
    codec = machine.compressor
    return (snapshot_state(machine), memory.shadow_bytes_touched,
            memory.pages_allocated, memory.hash_range(0, 1 << 64),
            [(lock, keybuffer.peek(lock)) for lock in keybuffer.locks()],
            (machine._lock_lo, machine._lock_hi),
            machine.metrics.snapshot("sim"),
            (codec.max_range_seen, codec.max_base_seen, codec.max_key_seen,
             codec.max_lock_index_seen))


# ---------------------------------------------------------------------------
# Lockstep over real programs
# ---------------------------------------------------------------------------

TREEADD = WORKLOADS["treeadd"].source("small")

UAF_SOURCE = """
int main(void) {
    long *p = (long*)malloc(8);
    free(p);
    return (int)(p[0] & 0);
}
"""

OOB_SOURCE = """
int main(void) {
    long *p = (long*)malloc(8);
    long v = p[20];
    free(p);
    return (int)(v & 0);
}
"""


def _lockstep_on(machine_cls, source):
    config = HwstConfig()
    program = compile_source(source, "hwst128_tchk", config)
    return run_lockstep(machine_cls(config, timing=None), program,
                        widths=_widths(config), lock_base=config.lock_base)


# Corruptions a planted machine applies after a retire; each returns
# True once it has planted (the store plant waits for an 8-byte store).
def plant_pc(machine, ins):
    machine.pc += 4
    return True


def plant_instret(machine, ins):
    machine.instret += 1
    return True


def plant_srf(machine, ins):
    machine.srf[9] = (0x1234, 0, True, False)
    return True


def plant_srf_wide(machine, ins):
    machine.srf_wide[9] = (1, 2, 3, 4)
    return True


def plant_csr(machine, ins):
    machine.csrs[0x804] ^= 1
    return True


def plant_output(machine, ins):
    machine.output += b"!"
    return True


def plant_stored_word(machine, ins):
    spec = SPEC_TABLE[ins.op]
    if not (spec.is_store and spec.mem_bytes == 8):
        return False
    addr = machine.regs[ins.rs1] + ins.imm
    machine.memory.store_uint(addr, 8,
                              machine.memory.load_uint(addr, 8) ^ 1)
    return True


def plant_several(machine, ins):
    machine.regs[12] ^= 1 << 40
    machine.srf[3] = (7, 8, True, True)
    machine.csrs[0x123] = 5
    machine.output += b"x"
    return True


def _at_lui(*deltas):
    return {"reason": "state mismatch", "retire": 49, "pc": "0x11c30",
            "mnemonic": "lui",
            "deltas": [{"field": field, "spec": spec, "iss": iss}
                       for field, spec, iss in deltas]}


#: (plant, the exact first-divergence record it must produce on
#: treeadd/hwst128_tchk).
PLANTED_STATE = (
    (plant_pc, _at_lui(("pc", "0x11c34", "0x11c38"))),
    (plant_instret, _at_lui(("instret", "0x32", "0x33"))),
    (plant_srf, _at_lui(("srf[9]", "(0, 0, False, False)",
                         "(4660, 0, True, False)"))),
    (plant_srf_wide, _at_lui(("srf_wide[9]", "None", "(1, 2, 3, 4)"))),
    (plant_csr, _at_lui(("csr[0x804]", "0x3", "0x2"))),
    (plant_output, _at_lui(("output", "b''", "b'!'"))),
    (plant_stored_word, {
        "reason": "state mismatch", "retire": 51, "pc": "0x11c38",
        "mnemonic": "sd",
        "deltas": [{"field": "mem[0xefef30:8]", "spec": "0x200020",
                    "iss": "0x200021"}]}),
    (plant_several, _at_lui(
        ("srf[3]", "(0, 0, False, False)", "(7, 8, True, True)"),
        ("x12", "0x0", "0x10000000000"),
        ("csr[0x123]", "None", "0x5"),
        ("output", "b''", "b'x'"))),
)


class TestLockstep:
    @pytest.mark.parametrize("scheme", ("hwst128_tchk", "bogo",
                                        "wdl_wide"))
    def test_workload_agrees(self, scheme):
        result = _lockstep(TREEADD, scheme)
        assert result.divergence is None, result.divergence
        assert result.outcome.status == "exit"
        assert result.retires > 1000

    def test_fuzz_sample_agrees(self):
        from repro.fuzz.gen import generate_program, plan_programs

        for index, kind in plan_programs(SEED, 12):
            generated = generate_program(SEED, index, kind)
            result = _lockstep(generated.source, "hwst128")
            assert result.divergence is None, \
                (generated.name, result.divergence)

    def test_detects_an_injected_state_divergence(self):
        # A machine that silently corrupts x10 mid-run must be caught
        # at exactly the corrupted retire with a field-level delta.
        class Corrupted(Machine):
            def step(self):
                super().step()
                if self.instret == 50:
                    self.regs[10] ^= 1

        config = HwstConfig()
        program = compile_source(TREEADD, "hwst128_tchk", config)
        result = run_lockstep(Corrupted(config, timing=None), program,
                              widths=_widths(config),
                              lock_base=config.lock_base)
        assert result.divergence is not None
        assert result.divergence["reason"] == "state mismatch"
        assert result.divergence["retire"] == 49
        assert any(delta["field"] == "x10"
                   for delta in result.divergence["deltas"])

    @pytest.mark.parametrize("plant,record", PLANTED_STATE,
                             ids=[plant.__name__ for plant, _
                                  in PLANTED_STATE])
    def test_names_every_planted_state_field(self, plant, record):
        # Every field diff_retire can name, planted one at a time (and
        # several at once, pinning the delta order): the whole
        # first-divergence record must come out exactly.
        class Planted(Machine):
            planted = False

            def step(self):
                ins = self.program.instr_at(self.pc)
                super().step()
                if not self.planted and self.instret >= 50:
                    self.planted = plant(self, ins)

        result = _lockstep_on(Planted, TREEADD)
        assert result.divergence == record
        assert result.outcome.status == "divergence"

    def test_names_a_planted_trap_kind(self):
        class WrongKind(Machine):
            def step(self):
                try:
                    super().step()
                except SpatialViolation as exc:
                    raise MemoryFault(exc.addr, "planted") from None

        result = _lockstep_on(WrongKind, OOB_SOURCE)
        assert result.divergence == {
            "reason": "trap mismatch", "retire": 356, "pc": "0x10168",
            "mnemonic": "ld.chk",
            "deltas": [{"field": "trap.kind", "spec": "'spatial'",
                        "iss": "'fault'"}]}

    def test_names_a_planted_trap_pc(self):
        class WrongPc(Machine):
            def step(self):
                try:
                    super().step()
                except TemporalViolation as exc:
                    exc.pc += 4
                    raise

        result = _lockstep_on(WrongPc, UAF_SOURCE)
        assert result.divergence == {
            "reason": "trap mismatch", "retire": 515, "pc": "0x101c4",
            "mnemonic": "tchk",
            "deltas": [{"field": "trap.pc", "spec": "0x101c4",
                        "iss": "0x101c8"}]}

    def test_run_spec_standalone_matches_the_iss(self):
        # The spec executes the whole program with no simulator in the
        # loop (SpecMemory + tables) and must land on the same
        # run-level observables.
        config = HwstConfig()
        program = compile_source(TREEADD, "hwst128_tchk", config)
        iss = Machine(config, timing=None).run(program)
        outcome, _ = run_spec(program, widths=_widths(config),
                              lock_base=config.lock_base,
                              lock_limit=config.lock_limit)
        assert (outcome.status, outcome.exit_code, outcome.instret,
                outcome.output) == \
            (iss.status, iss.exit_code, iss.instret, iss.output)


class TestTrapParity:
    @pytest.mark.parametrize("source,status", (
        (UAF_SOURCE, "temporal_violation"),
        (OOB_SOURCE, "spatial_violation"),
    ), ids=("temporal-first-half", "spatial-second-half"))
    def test_trap_in_fused_pair_is_identical_everywhere(self, source,
                                                        status):
        # hwst128_tchk fuses tchk + checked access in the fast engine;
        # a trap in either half must report identical class, pc and
        # retire count on ref, fast and the spec.
        config = HwstConfig()
        program = compile_source(source, "hwst128_tchk", config)
        ref = make_machine("ref", config=config, timing=None).run(program)
        fast_machine = make_machine("fast", config=config, timing=None)
        # Translate on first entry: the trap is in run-once code.
        fast_machine.TRANSLATE_ON_VISIT = 1
        fast = fast_machine.run(program)
        assert fast_machine.fast_stats()["fused_pairs"] > 0
        spec, _ = run_spec(program, widths=_widths(config),
                           lock_base=config.lock_base,
                           lock_limit=config.lock_limit)
        for name in ("status", "trap_class", "trap_pc", "instret"):
            ref_value = getattr(ref, name)
            assert getattr(fast, name) == ref_value, name
            assert getattr(spec, name) == ref_value, name
        assert ref.status == status
        lockstep = _lockstep(source, "hwst128_tchk")
        assert lockstep.divergence is None
        assert lockstep.outcome.trap_class == ref.trap_class
        assert lockstep.outcome.trap_pc == ref.trap_pc


# ---------------------------------------------------------------------------
# Chunked lockstep: the fast engine a chunk at a time
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _program(source, scheme):
    return compile_source(source, scheme, HwstConfig())


def _per_retire_and_chunked(program, fast=None, **kwargs):
    """``run_lockstep`` on a reference machine and ``run_chunked`` on
    ``fast`` (a new fast machine by default), on one program."""
    config = HwstConfig()
    common = dict(widths=_widths(config), lock_base=config.lock_base,
                  shadow_budget=config.shadow_budget, **kwargs)
    fast = fast or FastMachine(config, timing=None)
    return (run_lockstep(Machine(config, timing=None), program, **common),
            run_chunked(fast, program, **common))


def _assert_same_run(program, fast=None, **kwargs):
    per_retire, chunked = _per_retire_and_chunked(program, fast, **kwargs)
    assert per_retire.divergence is None, per_retire.divergence
    assert chunked.divergence is None, chunked.divergence
    assert chunked.outcome == per_retire.outcome
    assert chunked.retires == per_retire.retires
    assert chunked.mnemonics == per_retire.mnemonics
    return chunked


def _sequence_program(instrs):
    return Program(instrs=list(instrs), entry=DEFAULT_LAYOUT.text_base)


EXIT_SEQ = (Instr("addi", rd=17, rs1=0, imm=93), Instr("ecall"))

#: A loop that reads past its 8-element array: under hwst128_tchk the
#: spatial trap lands in the loop's translated block, mid-chunk.
HOT_OOB_SOURCE = """
int main(void) {
    long *p = (long*)malloc(64);
    long s = 0;
    for (int i = 0; i < 64; i = i + 1) { s = s + p[i]; }
    free(p);
    return (int)(s & 0);
}
"""


class TestChunkedLockstep:
    @pytest.mark.parametrize("scheme", CONFORM_SCHEMES)
    def test_workload_matches_per_retire(self, scheme):
        result = _assert_same_run(_program(TREEADD, scheme))
        assert result.outcome.status == "exit"
        assert result.retires > CHUNK

    def test_fuzz_sample_matches_per_retire(self):
        from repro.fuzz.gen import generate_program, plan_programs

        for index, kind in plan_programs(SEED, 12):
            generated = generate_program(SEED, index, kind)
            _assert_same_run(_program(generated.source, "hwst128"))

    @pytest.mark.parametrize("source,status", (
        (OOB_SOURCE, "spatial_violation"),
        (UAF_SOURCE, "temporal_violation"),
    ), ids=("oob", "uaf"))
    def test_trapping_program_matches_per_retire(self, source, status):
        result = _assert_same_run(_program(source, "hwst128_tchk"))
        assert result.outcome.status == status

    @pytest.mark.parametrize("budget", (1, CHUNK - 1, CHUNK, CHUNK + 1))
    def test_budget_matches_per_retire(self, budget):
        result = _assert_same_run(_program(TREEADD, "hwst128_tchk"),
                                  max_instructions=budget)
        assert result.outcome.status == "limit"
        assert result.retires == budget

    def test_budget_ending_mid_block_matches_per_retire(self):
        # The smallest budget whose run ends in the reference-loop tail
        # of a translated block (the block did not fit the budget left).
        program = _program(TREEADD, "hwst128_tchk")
        for budget in range(200, CHUNK):
            fast = FastMachine(HwstConfig(), timing=None)
            tails = []
            loop = fast._dispatch_loop

            def spy(n, limit, fast=fast, loop=loop, tails=tails):
                block = fast._blocks.get(fast.pc)
                tails.append(block is not None and 0 < n < block.n)
                return loop(n, limit)

            fast._dispatch_loop = spy
            result = _assert_same_run(program, fast,
                                      max_instructions=budget)
            if tails[-1]:
                break
        else:
            pytest.fail("no budget ends inside a translated block")
        assert result.outcome.status == "limit"

    def test_in_chunk_loads_see_in_chunk_stores(self):
        # One chunk, so the machine's memory is still pre-chunk while
        # the spec runs: every load below reads the spec's own stores
        # through its overlay, one of them across a page boundary.
        heap = DEFAULT_LAYOUT.heap_base
        word = 0x1122334455667788
        program = _sequence_program([
            *li_sequence(5, heap),
            Instr("addi", rd=6, rs1=0, imm=0xAB),
            Instr("sb", rs1=5, rs2=6, imm=1),       # byte store ...
            Instr("ld", rd=7, rs1=5, imm=0),        # ... its word
            *li_sequence(8, word),
            Instr("sd", rs1=5, rs2=8, imm=8),       # word store ...
            Instr("lbu", rd=9, rs1=5, imm=8),       # ... its bytes
            Instr("lbu", rd=10, rs1=5, imm=15),
            Instr("lb", rd=11, rs1=5, imm=12),
            *li_sequence(12, heap + 4092),
            Instr("sd", rs1=12, rs2=8, imm=0),      # straddles a page
            Instr("ld", rd=13, rs1=12, imm=0),
            Instr("lbu", rd=14, rs1=12, imm=4),
            *EXIT_SEQ])
        result = _assert_same_run(program)
        regs = result.state.regs
        assert regs[7] == 0xAB00
        assert (regs[9], regs[10], regs[11]) == (0x88, 0x11, 0x44)
        assert (regs[13], regs[14]) == (word, 0x44)

    def test_a_wrong_stored_byte_is_a_page_delta(self, monkeypatch):
        # A reference ``sd`` that also overwrites the second byte it
        # stored: registers agree at the chunk end, so only the page
        # compare sees it; the per-retire driver names the store.
        loop = Machine._dispatch_loop

        def planted(self, budget, limit):
            for _ in range(budget):
                ins = self.program.instr_at(self.pc)
                loop(self, 1, None)
                if ins.op == "sd":
                    addr = self.regs[ins.rs1] + ins.imm
                    self.memory.store_uint(addr + 1, 1, 0x5A)
            loop(self, 0, limit)

        monkeypatch.setattr(Machine, "_dispatch_loop", planted)
        heap = DEFAULT_LAYOUT.heap_base
        body = [*li_sequence(5, heap),
                *li_sequence(8, 0x1122334455667788),
                Instr("sd", rs1=5, rs2=8, imm=0)]
        # The budget ends the chunk right after the store, not a trap.
        per_retire, chunked = _per_retire_and_chunked(
            _sequence_program(body + list(EXIT_SEQ)),
            max_instructions=len(body))
        assert chunked.divergence["reason"] == "chunk mismatch"
        assert chunked.divergence["deltas"] == [
            {"field": f"mem[{heap + 1:#x}:1]", "spec": "0x77",
             "iss": "0x5a"}]
        assert per_retire.divergence["deltas"] == [
            {"field": f"mem[{heap:#x}:8]", "spec": "0x1122334455667788",
             "iss": "0x1122334455665a88"}]

    def test_trap_inside_a_chunk_runs_translated(self):
        # The spec traps mid-chunk; the machine must reach that trap in
        # its translated block, not in a reference-loop tail, or the
        # chunked run would check translated traps against nothing.
        fast = FastMachine(HwstConfig(), timing=None)
        through_loop = []
        loop = fast._dispatch_loop

        def spy(n, limit):
            try:
                return loop(n, limit)
            except Exception as exc:
                through_loop.append(exc)
                raise

        fast._dispatch_loop = spy
        result = _assert_same_run(_program(HOT_OOB_SOURCE, "hwst128_tchk"),
                                  fast)
        assert result.outcome.status == "spatial_violation"
        assert result.retires < CHUNK
        assert fast.fast_stats()["translations"] > 0
        assert through_loop == []

    def test_cache_lives_for_the_run(self):
        fast = FastMachine(HwstConfig(), timing=None)
        cached_at_entry = []
        exec_loop = fast._exec_loop

        def spy(budget, limit):
            cached_at_entry.append(len(fast._blocks))
            return exec_loop(budget, limit)

        fast._exec_loop = spy
        _assert_same_run(_program(TREEADD, "hwst128_tchk"), fast)
        assert cached_at_entry[0] == 0 and max(cached_at_entry) > 0
        assert fast._blocks == {} and fast.memory._store_watch is None


def _planted_loop(plant):
    """A reference ``_dispatch_loop`` that applies ``plant`` once per
    machine, after a retire from the 50th on (the rows of
    ``PLANTED_STATE``). Cold entries and budget tails of the chunked
    run execute it, and so does every step of the per-retire rerun."""
    loop = Machine._dispatch_loop

    def planted(self, budget, limit):
        for _ in range(budget):
            ins = self.program.instr_at(self.pc)
            loop(self, 1, None)
            if not getattr(self, "planted", False) and self.instret >= 50:
                self.planted = plant(self, ins)
        loop(self, 0, limit)

    return planted


def _tp_stuck_in_translated_code(translate):
    """``FastMachine._translate`` whose blocks set x4's bit 0 after
    their body: translated code only, and no program reads x4."""
    def planted(self, pc):
        block = translate(self, pc)
        regs = self.regs

        def tp_bit0_stuck():
            regs[4] |= 1

        block.body += (tp_bit0_stuck,)
        return block

    return planted


ENGINE_MISMATCH = {
    "reason": "engine mismatch", "retire": 0, "pc": "0x10000",
    "mnemonic": "<chunk>", "chunk": CHUNK,
    "deltas": [{"field": "x4", "spec": "0x0", "iss": "0x1"}]}


class TestConformCellPlants:
    def _cell(self):
        return ConformLockstepCell(tag="t", source=TREEADD,
                                   scheme="hwst128_tchk").execute()

    @pytest.mark.parametrize("plant,record", PLANTED_STATE,
                             ids=[plant.__name__ for plant, _
                                  in PLANTED_STATE])
    def test_planted_state_comes_out_as_the_per_retire_record(
            self, monkeypatch, plant, record):
        monkeypatch.setattr(Machine, "_dispatch_loop", _planted_loop(plant))
        result = self._cell()
        assert result.extra["divergence"] == record
        assert result.status == "divergence"

    def test_plant_in_translated_code_is_an_engine_mismatch(self,
                                                            monkeypatch):
        monkeypatch.setattr(FastMachine, "_translate",
                            _tp_stuck_in_translated_code(
                                FastMachine._translate))
        result = self._cell()
        assert result.extra["divergence"] == ENGINE_MISMATCH
        assert result.status == "divergence"
        # The rerun is clean, so the rest of the row is the agreed run.
        assert result.exit_code == 0 and result.instret > CHUNK

    def test_a_wrong_value_dead_by_the_chunk_end_is_the_sweeps(
            self, monkeypatch):
        # A reference ``xori`` that sets bit 20 of its result. The
        # program overwrites that result before its chunk ends, so the
        # chunk-end compare cannot see it and nothing reruns; a
        # per-retire run would see it, and the equivalence sweep — the
        # conform layer that compares after every single instruction —
        # does.
        loop = Machine._dispatch_loop

        def planted(self, budget, limit):
            for _ in range(budget):
                ins = self.program.instr_at(self.pc)
                loop(self, 1, None)
                if ins.op == "xori" and ins.rd:
                    self.regs[ins.rd] ^= 1 << 20
            loop(self, 0, limit)

        monkeypatch.setattr(Machine, "_dispatch_loop", planted)
        program = _sequence_program([
            Instr("xori", rd=5, rs1=0, imm=3),
            Instr("addi", rd=5, rs1=0, imm=0),
            *EXIT_SEQ])
        per_retire, chunked = _per_retire_and_chunked(program)
        assert chunked.divergence is None
        assert conform.run_lockstep(program, HwstConfig()).divergence \
            is None
        assert per_retire.divergence["retire"] == 0
        sweep = ConformEquivCell(mnemonic="xori", seed=SEED).execute()
        assert not sweep.ok and sweep.extra["divergences"]


# ---------------------------------------------------------------------------
# Campaign report: determinism + obs counters
# ---------------------------------------------------------------------------

class TestConformReport:
    def _run(self, jobs, registry=None):
        return run_conform(workloads=["treeadd"],
                           schemes=["hwst128_tchk"],
                           fuzz_count=4, seed=SEED, jobs=jobs,
                           equiv=False, heartbeat_s=0,
                           registry=registry)

    def test_byte_identical_across_jobs_and_reruns(self):
        first = report_to_json(self._run(jobs=1))
        again = report_to_json(self._run(jobs=1))
        pooled = report_to_json(self._run(jobs=2))
        assert first == again
        assert first == pooled

    def test_report_shape_and_obs_counters(self):
        registry = MetricsRegistry()
        report = self._run(jobs=1, registry=registry)
        assert report["schema"] == "repro.spec/v1"
        assert report["totals"]["divergences"] == 0
        assert report["totals"]["retires"] > 0
        assert registry.counter("spec.retires").value == \
            report["totals"]["retires"]
        assert registry.counter("spec.divergences").value == 0
        assert registry.gauge("spec.mnemonics_covered").value == \
            report["totals"]["mnemonics_covered"]
        covered = set(report["coverage"]["exercised"])
        never = set(report["coverage"]["never_exercised"])
        assert covered | never == set(SPEC_TABLE)
        assert not covered & never

    def test_cell_list_is_deterministic(self):
        cells = build_cells(workloads=["treeadd"], fuzz_count=2,
                            seed=SEED)
        again = build_cells(workloads=["treeadd"], fuzz_count=2,
                            seed=SEED)
        assert [cell.tag for cell in cells] == \
            [cell.tag for cell in again]


# ---------------------------------------------------------------------------
# Mnemonic-coverage ratchet (tests/data/spec_coverage.json)
# ---------------------------------------------------------------------------

class TestCoverageRatchet:
    def test_pinned_corpus_coverage_never_shrinks(self):
        with open(DATA_DIR / "spec_coverage.json",
                  encoding="utf-8") as fh:
            ratchet = json.load(fh)
        assert ratchet["schema"] == "repro.spec-coverage/v1"
        corpus = ratchet["corpus"]
        report = run_conform(workloads=corpus["workloads"],
                             schemes=corpus["schemes"],
                             scale=corpus["scale"],
                             fuzz_count=corpus["fuzz_count"],
                             seed=corpus["seed"],
                             equiv=False, jobs=1, heartbeat_s=0)
        assert report["totals"]["divergences"] == 0
        exercised = set(report["coverage"]["exercised"])
        pinned = set(ratchet["mnemonics"])
        missing = sorted(pinned - exercised)
        assert not missing, (
            f"lockstep coverage shrank: {missing} were exercised when "
            "the ratchet was recorded but are no longer; extend the "
            "corpus or regenerate tests/data/spec_coverage.json "
            "consciously")
        assert pinned <= set(SPEC_TABLE)
