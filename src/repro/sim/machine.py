"""Instruction-set simulator for the RV64 subset + HWST128 extension.

Functionally this is the paper's SPIKE-augmented-with-HWST128: it executes
programs, maintains the shadow register file (SRF) with SHORE-style
in-pipeline metadata propagation, performs the fused spatial checks
(SCU), the keybuffer-assisted temporal check (TCU), and the shadow-memory
metadata moves through the SMAC address mapping. A timing model can be
attached to convert the retired instruction stream into cycle counts
(the FPGA role).

SRF propagation rules (Section 3.2 "in-pipeline propagation"):

* ALU register-register ops propagate the metadata of ``rs1`` when bound,
  else of ``rs2`` — pointer arithmetic keeps its object's metadata;
* ALU register-immediate ops propagate ``rs1``;
* everything else that writes ``rd`` (plain loads, ``lui``, ``jal[r]``,
  CSR reads, …) invalidates ``SRF[rd]``; metadata re-enters registers
  only through ``bndr[s/t]`` or the shadow loads ``lbd[l/u]s``.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable, Dict, List, Optional, Tuple

from repro import bits
from repro.core.compression import MetadataCompressor
from repro.core.config import HwstConfig
from repro.core.shadow import ShadowMap
from repro.errors import (
    EcallAbort,
    EcallExit,
    IllegalInstruction,
    MemoryFault,
    ShadowMemoryExhausted,
    SimLimitExceeded,
    SimTrap,
    SpatialViolation,
    TemporalViolation,
)
from repro.isa import csr as csrdef
from repro.isa.instructions import Instr, SPEC_TABLE
from repro.obs.host import observe_host
from repro.obs.metrics import MetricsRegistry
from repro.pipeline.timing import BREAKDOWN_KEYS
from repro.sim.keybuffer import KeyBuffer
from repro.sim.memory import Memory
from repro.sim.program import Program

# Machine-level event counters, in registry order (``sim.<name>``).
# The legacy ``RunResult.stats`` keys are these same short names.
SIM_COUNTERS = ("loads", "stores", "branches", "taken",
                "hwst_ops", "shadow_ops", "tchk", "calls")

# SRF entry: (lower, upper, spatial_valid, temporal_valid)
SRF_INVALID: Tuple[int, int, bool, bool] = (0, 0, False, False)
# Post-reset register files (copied into the machine's lists).
_ZERO_REGS = (0,) * 32
_INVALID_SRF = (SRF_INVALID,) * 32
_NO_WIDE = (None,) * 32

# Syscall numbers (proxy-kernel flavoured).
SYS_WRITE = 64
SYS_EXIT = 93
SYS_ABORT = 1000
# Classified safety traps raised by software protection runtimes
# (SBCETS check failures, ASAN reports, canary smashes).
SYS_TRAP_SPATIAL = 1001
SYS_TRAP_TEMPORAL = 1002
SYS_TRAP_ASAN = 1003
SYS_TRAP_CANARY = 1004

STATUS_EXIT = "exit"
STATUS_SPATIAL = "spatial_violation"
STATUS_TEMPORAL = "temporal_violation"
STATUS_FAULT = "memory_fault"
STATUS_ABORT = "abort"
STATUS_LIMIT = "limit"
STATUS_ILLEGAL = "illegal_instruction"
STATUS_OOM = "shadow_oom"

# Uniform SimTrap -> RunResult.status mapping (looked up through the
# trap's MRO so subclasses inherit their parent's status). EcallExit is
# handled separately — a requested exit is not a trap.
STATUS_BY_TRAP = {
    SpatialViolation: STATUS_SPATIAL,
    TemporalViolation: STATUS_TEMPORAL,
    ShadowMemoryExhausted: STATUS_OOM,
    MemoryFault: STATUS_FAULT,
    EcallAbort: STATUS_ABORT,
    IllegalInstruction: STATUS_ILLEGAL,
    SimLimitExceeded: STATUS_LIMIT,
}


@dataclass
class RunResult:
    """Outcome of one simulated program execution."""

    status: str
    exit_code: int = 0
    detail: str = ""
    instret: int = 0
    cycles: int = 0
    output: bytes = b""
    stats: Dict[str, int] = dc_field(default_factory=dict)
    # Flat metric snapshot (``sim.*`` + ``pipeline.*``) of the run; the
    # legacy ``stats`` dict is a view of the same counters.
    metrics: Dict[str, object] = dc_field(default_factory=dict)
    # Trap classification, populated uniformly for *every* SimTrap
    # subclass: the class name and the faulting pc (the trap's own
    # ``pc`` attribute when it carries one, else the machine pc at the
    # moment the trap fired). Empty/None on a clean exit.
    trap_class: str = ""
    trap_pc: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_EXIT and self.exit_code == 0

    @property
    def detected_violation(self) -> bool:
        """True when a memory-safety check fired (spatial or temporal)."""
        return self.status in (STATUS_SPATIAL, STATUS_TEMPORAL)

    def output_text(self) -> str:
        return self.output.decode("utf-8", errors="replace")


class Machine:
    """Functional RV64 + HWST128 simulator."""

    def __init__(self, config: Optional[HwstConfig] = None, timing=None,
                 trace_depth: int = 0,
                 metrics: Optional[MetricsRegistry] = None,
                 tracer=None, profiler=None):
        self.config = config or HwstConfig()
        self.timing = timing
        # Optional ring buffer of the last N retired (pc, Instr) pairs
        # for post-mortem debugging (see trace_text()).
        self.trace_depth = trace_depth
        self._trace: List[Tuple[int, Instr]] = []
        # Telemetry (repro.obs). Machine counters live under ``sim.*``;
        # handlers capture the Counter objects at dispatch-build time so
        # the hot loop pays one attribute store per event. ``tracer``
        # and ``profiler`` stay None by default — the null-sink fast
        # path is a single ``is not None`` test per retire.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._sim = self.metrics.scope("sim")
        self._ct = {name: self._sim.counter(name) for name in SIM_COUNTERS}
        self.tracer = tracer
        self._tracer_retire = tracer if (
            tracer is not None and tracer.wants("retire")) else None
        self._tracer_kb = tracer if (
            tracer is not None and tracer.wants("kb")) else None
        self._tracer_shadow = tracer if (
            tracer is not None and tracer.wants("shadow")) else None
        self.profiler = profiler
        self.memory = Memory()
        self.keybuffer = KeyBuffer(self.config.keybuffer_entries,
                                   self.config.keybuffer_policy,
                                   metrics=self._sim.scope("kb"))
        self.compressor = MetadataCompressor(self.config)
        self.shadow = ShadowMap.from_config(self.config)
        self.regs: List[int] = list(_ZERO_REGS)
        self.srf: List[Tuple[int, int, bool, bool]] = list(_INVALID_SRF)
        self.srf_wide: List[Optional[Tuple[int, int, int, int]]] = \
            list(_NO_WIDE)
        self.pc = 0
        self.csrs: Dict[int, int] = {}
        # The CSR image reset() restores (docs/isa.md).
        widths = self.config.widths
        self._reset_csrs: Dict[int, int] = {
            csrdef.HWST_SM_OFFSET: self.config.shadow_offset,
            csrdef.HWST_META_WIDTHS: csrdef.pack_meta_widths(
                widths.base, widths.range, widths.lock, widths.key),
            csrdef.HWST_LOCK_BASE: self.config.lock_base,
            csrdef.HWST_LOCK_LIMIT: self.config.lock_limit,
            csrdef.HWST_STATUS: 0x3,
        }
        self.instret = 0
        self.output = bytearray()
        self.program: Optional[Program] = None
        # Fault-injection hook (repro.faultinject): when set, called as
        # ``hook(self)`` once per instruction, before dispatch. The
        # normal path pays one ``is not None`` test per retire.
        self.fault_hook: Optional[Callable[["Machine"], None]] = None
        self._lock_lo = self.config.lock_base
        self._lock_hi = self.config.lock_limit
        self._dispatch: Dict[str, Callable[[Instr], Optional[int]]] = \
            self._build_dispatch()

    @property
    def stats(self) -> Dict[str, int]:
        """Back-compat view of the ``sim.*`` event counters."""
        return {name: counter.value for name, counter in self._ct.items()}

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def reset(self):
        """Return to the post-reset state, in place.

        Restores memory, registers, SRF, pc, instret, output, the CSRs
        together with the keybuffer snoop window they program, the
        keybuffer's contents and the ``sim.*`` metrics. What depends
        only on the config (the CSR image, the keybuffer itself, the
        dispatch table) is built once, in ``__init__``.
        """
        self.memory = Memory()
        # Zero every ``sim.*`` metric in place (handlers hold direct
        # references to the Counter objects, the keybuffer's included).
        self.metrics.reset(prefix="sim")
        self.keybuffer.reset()
        # NB: handlers close over self.regs — mutate it in place.
        self.regs[:] = _ZERO_REGS
        self.srf[:] = _INVALID_SRF
        self.srf_wide[:] = _NO_WIDE
        self.pc = 0
        self.instret = 0
        self.output = bytearray()
        self.csrs = dict(self._reset_csrs)
        self._lock_lo = self.config.lock_base
        self._lock_hi = self.config.lock_limit
        if self.timing is not None:
            self.timing.reset()
        if self.profiler is not None:
            self.profiler.reset()

    def load(self, program: Program):
        """Reset and load ``program`` (segments + registers + pc)."""
        self.reset()
        self.program = program
        program.load_into(self.memory)
        # sp: leave headroom below stack_top so wild stack writes above
        # the frame stay in mapped memory (silent corruption, like a
        # real process), rather than faulting artificially.
        self.regs[2] = program.layout.stack_top - 4096
        self.pc = program.entry

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, program: Program,
            max_instructions: int = 200_000_000) -> RunResult:
        """Execute ``program`` to completion and summarise the outcome."""
        self.load(program)
        status, code, detail = STATUS_EXIT, 0, ""
        trap_class: str = ""
        trap_pc: Optional[int] = None
        try:
            self._exec_loop(max_instructions)
        except EcallExit as trap:
            code = trap.code
        except SimTrap as trap:
            for cls in type(trap).__mro__:
                mapped = STATUS_BY_TRAP.get(cls)
                if mapped is not None:
                    status = mapped
                    break
            else:
                raise  # unknown SimTrap subclass: not a machine outcome
            detail = str(trap)
            trap_class = type(trap).__name__
            pc = getattr(trap, "pc", None)
            trap_pc = pc if pc is not None else self.pc
        stats = self.stats
        stats["kb_hits"] = self.keybuffer.hits
        stats["kb_misses"] = self.keybuffer.misses
        stats["shadow_bytes"] = self.memory.shadow_bytes_touched
        # Eq. 3-6 census (Fig. 2): largest object range and highest
        # lock_location index the compressor packed on this run.
        stats["comp_max_range"] = self.compressor.max_range_seen
        stats["comp_max_lock_index"] = self.compressor.max_lock_index_seen
        cycles = self.timing.cycles if self.timing is not None else self.instret
        # Timing-model keys are always present (zeroed without a timing
        # model) so consumers never need key-existence checks.
        stats["dcache_hits"] = 0
        stats["dcache_misses"] = 0
        for key in BREAKDOWN_KEYS:
            stats[f"cyc_{key}"] = 0
        if self.timing is not None:
            stats.update(self.timing.stats())
        tracer = self.tracer
        if tracer is not None:
            if status != STATUS_EXIT and tracer.wants("trap"):
                tracer.emit("trap", status, ts=cycles,
                            args={"pc": self.pc, "detail": detail})
            if tracer.wants("sim"):
                tracer.emit("sim", "run", ts=0, dur=cycles,
                            args={"status": status,
                                  "instret": self.instret})
            # Surface ring-buffer overflow: a truncated trace silently
            # lies about the run, so the loss count rides in the metric
            # snapshot (and `repro run --trace-out` warns on it).
            self.metrics.counter("obs.trace.dropped").value = \
                tracer.dropped
        sim = self._sim
        sim.gauge("instret").set(self.instret)
        sim.gauge("cycles").set(cycles)
        sim.scope("shadow").gauge("bytes_touched").set(
            self.memory.shadow_bytes_touched)
        sim.scope("mem").gauge("pages_allocated").set(
            self.memory.pages_allocated)
        # Host-side gauges (bench envelopes and campaign heartbeats
        # read the same helpers — one source of truth).
        observe_host(self.metrics.scope("host"))
        return RunResult(
            status=status, exit_code=code, detail=detail,
            instret=self.instret, cycles=cycles,
            output=bytes(self.output), stats=stats,
            metrics=self.metrics_snapshot(),
            trap_class=trap_class, trap_pc=trap_pc,
        )

    def _exec_loop(self, max_instructions: int) -> None:
        """Engine hook: execute the loaded program until a
        :class:`SimTrap` ends the run (``run()``'s epilogue catches it).
        Subclasses (the fast engine) override this — everything outside
        it (load, trap classification, stats, result assembly) is
        engine-independent by construction."""
        self._dispatch_loop(max_instructions, max_instructions)

    def _dispatch_loop(self, budget: int, limit: Optional[int]) -> None:
        """The classic fetch/decode/execute loop — the *reference
        engine*, and the one single-instruction path in the machine.

        Executes at most ``budget`` instructions. On budget exhaustion
        raises :class:`SimLimitExceeded` carrying ``limit`` (the
        run-level budget, so a partial-budget call from the fast
        engine's tail reports the same limit the reference run would),
        or returns when ``limit`` is None (``step()``'s contract).
        """
        program = self.program
        instrs = program.instrs
        text_base = program.text_base
        dispatch = self._dispatch
        fault_hook = self.fault_hook
        trace_depth = self.trace_depth
        remaining = budget
        while True:
            if remaining <= 0:
                if limit is None:
                    return
                raise SimLimitExceeded(limit)
            index = (self.pc - text_base) >> 2
            if index < 0 or index >= len(instrs):
                raise MemoryFault(self.pc, "pc outside text")
            ins = instrs[index]
            handler = dispatch.get(ins.op)
            if handler is None:
                raise IllegalInstruction(self.pc, ins.op)
            if trace_depth:
                self._trace.append((self.pc, ins))
                if len(self._trace) > trace_depth:
                    del self._trace[0]
            if fault_hook is not None:
                fault_hook(self)
            next_pc = handler(ins)
            self.pc = self.pc + 4 if next_pc is None else next_pc
            self.instret += 1
            remaining -= 1

    def metrics_snapshot(self) -> Dict[str, object]:
        """Combined flat snapshot of the machine's registry plus the
        timing model's (when the pipeline keeps its own registry)."""
        snap = self.metrics.snapshot()
        timing = self.timing
        if timing is not None:
            treg = getattr(timing, "metrics", None)
            if treg is not None and treg is not self.metrics:
                snap.update(treg.snapshot())
        return snap

    def trace_text(self) -> str:
        """Render the retired-instruction ring buffer (needs a Machine
        constructed with ``trace_depth > 0``)."""
        lines = []
        symbols = {}
        if self.program is not None:
            symbols = {addr: name for name, addr
                       in self.program.symbols.items()
                       if self.program.instr_at(addr) is not None}
        for pc, ins in self._trace:
            label = symbols.get(pc)
            if label:
                lines.append(f"{label}:")
            lines.append(f"  {pc:#8x}: {ins}")
        return "\n".join(lines)

    def step(self):
        """Execute a single instruction (testing hook).

        Routes through the same :meth:`_dispatch_loop` ``run()`` uses,
        so stepping and running cannot drift apart semantically — the
        lockstep oracle relies on there being exactly one
        single-instruction path.
        """
        assert self.program is not None, "load a program first"
        self._dispatch_loop(1, None)

    # ------------------------------------------------------------------
    # Timing hook
    # ------------------------------------------------------------------

    def _now(self) -> int:
        """Current simulated timestamp (cycles, or instret untimed)."""
        return self.timing.cycles if self.timing is not None \
            else self.instret

    def _retire(self, ins: Instr, mem_addr: Optional[int] = None,
                is_store: bool = False, taken: bool = False,
                kb_hit: Optional[bool] = None,
                mem2: Optional[int] = None):
        timing = self.timing
        if timing is not None:
            cost = timing.retire(ins, mem_addr, is_store, taken, kb_hit,
                                 mem2)
        else:
            cost = 1
        profiler = self.profiler
        if profiler is not None:
            profiler.record(self.pc, cost)
        tracer = self._tracer_retire
        if tracer is not None:
            end = timing.cycles if timing is not None else self.instret
            tracer.emit("retire", ins.op, ts=end - cost, dur=cost,
                        args={"pc": self.pc})

    # ------------------------------------------------------------------
    # SRF helpers
    # ------------------------------------------------------------------

    def _srf_propagate_r(self, rd: int, rs1: int, rs2: int):
        if rd == 0:
            return
        entry = self.srf[rs1]
        if entry[2] or entry[3] or self.srf_wide[rs1] is not None:
            self.srf[rd] = entry
            self.srf_wide[rd] = self.srf_wide[rs1]
            return
        entry = self.srf[rs2]
        if entry[2] or entry[3] or self.srf_wide[rs2] is not None:
            self.srf[rd] = entry
            self.srf_wide[rd] = self.srf_wide[rs2]
            return
        self.srf[rd] = SRF_INVALID
        self.srf_wide[rd] = None

    def _srf_propagate_i(self, rd: int, rs1: int):
        if rd == 0:
            return
        self.srf[rd] = self.srf[rs1]
        self.srf_wide[rd] = self.srf_wide[rs1]

    def _srf_invalidate(self, rd: int):
        if rd == 0:
            return
        self.srf[rd] = SRF_INVALID
        self.srf_wide[rd] = None

    def srf_metadata(self, reg: int):
        """Decompressed metadata bound to ``reg`` (testing/debug hook)."""
        lower, upper, lvalid, uvalid = self.srf[reg]
        base, bound = (self.compressor.decompress_spatial(lower)
                       if lvalid else (0, 0))
        key, lock = (self.compressor.decompress_temporal(upper)
                     if uvalid else (0, 0))
        return base, bound, key, lock

    # ------------------------------------------------------------------
    # Check units
    # ------------------------------------------------------------------

    def _spatial_fail(self, addr: int, base: int, bound: int):
        """The one place a spatial check reports: every checker raises
        through here so the ``(addr, base, bound)`` fields of
        :class:`SpatialViolation` are populated consistently."""
        raise SpatialViolation(self.pc, addr, base, bound)

    def _temporal_fail(self, key: int, stored: int, lock: int):
        """Single raise site for temporal violations (see
        :meth:`_spatial_fail`)."""
        raise TemporalViolation(self.pc, key, stored, lock)

    def _spatial_bounds(self, reg: int, addr: int) -> Tuple[int, int]:
        """Decompressed ``(base, bound)`` window of ``SRF[reg]``; an
        unbound pointer reports a zero-window violation at ``addr``."""
        lower, _, lvalid, _ = self.srf[reg]
        if not lvalid:
            self._spatial_fail(addr, 0, 0)
        return self.compressor.decompress_spatial(lower)

    def _spatial_check(self, reg: int, addr: int, nbytes: int):
        """SCU: fused bounds check of ``addr`` against SRF[reg]."""
        base, bound = self._spatial_bounds(reg, addr)
        if addr < base or addr + nbytes > bound:
            self._spatial_fail(addr, base, bound)

    def _temporal_check(self, reg: int):
        """TCU: keybuffer-assisted key/lock compare. Returns (kb_hit, mem2)."""
        _, upper, _, uvalid = self.srf[reg]
        if not uvalid:
            self._temporal_fail(0, 0, 0)
        key, lock = self.compressor.decompress_temporal(upper)
        if lock == 0:
            self._temporal_fail(key, 0, 0)
        cached = self.keybuffer.lookup(lock)
        if cached is not None:
            if cached != key:
                self._temporal_fail(key, cached, lock)
            return True, None
        stored = self.memory.load_u64(lock)
        evicted = self.keybuffer.fill(lock, stored)
        tracer = self._tracer_kb
        if tracer is not None:
            now = self._now()
            tracer.emit("kb", "fill", ts=now, args={"lock": lock})
            if evicted is not None:
                tracer.emit("kb", "evict", ts=now,
                            args={"lock": evicted})
        if stored != key:
            self._temporal_fail(key, stored, lock)
        return False, lock

    # ------------------------------------------------------------------
    # Shadow memory plumbing
    # ------------------------------------------------------------------

    def _smac(self, container: int) -> int:
        """Shadow-memory address calculation (Eq. 1) + budget guard."""
        addr = (container << 2) + self.csrs[csrdef.HWST_SM_OFFSET]
        budget = self.config.shadow_budget
        if budget and self.memory.shadow_bytes_touched > budget:
            raise ShadowMemoryExhausted(
                self.memory.shadow_bytes_touched, budget)
        return addr

    def _snoop_lock_store(self, addr: int, value: int):
        """Keep the keybuffer coherent with writes to the lock table."""
        if self._lock_lo <= addr < self._lock_hi:
            if value == 0:
                self.keybuffer.clear()      # a pointer was freed
            else:
                self.keybuffer.invalidate(addr)
            tracer = self._tracer_kb
            if tracer is not None:
                tracer.emit("kb", "clear" if value == 0 else "invalidate",
                            ts=self._now(), args={"lock": addr})

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------

    def _build_dispatch(self) -> Dict[str, Callable[[Instr], Optional[int]]]:
        d: Dict[str, Callable[[Instr], Optional[int]]] = {}

        for op in ("add", "sub", "sll", "slt", "sltu", "xor", "srl", "sra",
                   "or", "and", "addw", "subw", "sllw", "srlw", "sraw",
                   "mul", "mulh", "mulhsu", "mulhu", "div", "divu", "rem",
                   "remu", "mulw", "divw", "divuw", "remw", "remuw"):
            d[op] = self._make_alu_r(op)
        for op in ("addi", "slti", "sltiu", "xori", "ori", "andi",
                   "slli", "srli", "srai", "addiw", "slliw", "srliw",
                   "sraiw"):
            d[op] = self._make_alu_i(op)
        for op, spec in SPEC_TABLE.items():
            if spec.is_load and spec.opcode == 0x03:
                d[op] = self._make_load(op, spec.mem_bytes, spec.mem_signed)
            elif spec.is_store and spec.opcode == 0x23:
                d[op] = self._make_store(op, spec.mem_bytes)
            elif spec.checked and spec.is_load:
                d[op] = self._make_checked_load(op, spec.mem_bytes,
                                                spec.mem_signed)
            elif spec.checked and spec.is_store:
                d[op] = self._make_checked_store(op, spec.mem_bytes)
        for op in ("beq", "bne", "blt", "bge", "bltu", "bgeu"):
            d[op] = self._make_branch(op)
        d["jal"] = self._op_jal
        d["jalr"] = self._op_jalr
        d["lui"] = self._op_lui
        d["auipc"] = self._op_auipc
        d["ecall"] = self._op_ecall
        d["ebreak"] = self._op_ebreak
        d["fence"] = self._op_fence
        d["csrrw"] = self._make_csr("w")
        d["csrrs"] = self._make_csr("s")
        d["csrrc"] = self._make_csr("c")
        # HWST128 extension.
        d["bndrs"] = self._op_bndrs
        d["bndrt"] = self._op_bndrt
        d["tchk"] = self._op_tchk
        d["sbdl"] = self._make_sbd(upper=False)
        d["sbdu"] = self._make_sbd(upper=True)
        d["lbdls"] = self._make_lbds(upper=False)
        d["lbdus"] = self._make_lbds(upper=True)
        d["lbas"] = self._make_meta_gpr_load("base")
        d["lbnd"] = self._make_meta_gpr_load("bound")
        d["lkey"] = self._make_meta_gpr_load("key")
        d["lloc"] = self._make_meta_gpr_load("lock")
        # MPX comparator model.
        d["bndcl"] = self._op_bndcl
        d["bndcu"] = self._op_bndcu
        d["bndldx"] = self._op_bndldx
        d["bndstx"] = self._op_bndstx
        # AVX comparator model.
        d["vld256"] = self._op_vld256
        d["vst256"] = self._op_vst256
        d["vchk"] = self._op_vchk
        return d

    # -- ALU -----------------------------------------------------------

    #: Memoized mnemonic -> binary-function table (built on first use;
    #: dispatch/translation factories look ops up per instruction, and
    #: rebuilding the 50-lambda table each time dominated translation).
    _ALU_TABLE: Optional[Dict[str, Callable[[int, int], int]]] = None

    @classmethod
    def _alu_fn(cls, op: str):
        table = cls._ALU_TABLE
        if table is None:
            table = Machine._ALU_TABLE = cls._build_alu_table()
        return table[op]

    @staticmethod
    def _build_alu_table() -> Dict[str, Callable[[int, int], int]]:
        U, S = bits.to_u64, bits.to_s64

        def div64(a, b):
            # RISC-V DIV truncates toward zero; Python // floors, and
            # float division loses precision past 2**53, so negate into
            # the positive quadrant for exact truncating division.
            a, b = S(a), S(b)
            if b == 0:
                return bits.MASK64
            if a == -(1 << 63) and b == -1:
                return U(a)
            q = abs(a) // abs(b)
            return U(-q if (a < 0) != (b < 0) else q)

        def rem64(a, b):
            a, b = S(a), S(b)
            if b == 0:
                return U(a)
            if a == -(1 << 63) and b == -1:
                return 0
            q = abs(a) // abs(b)
            if (a < 0) != (b < 0):
                q = -q
            return U(a - q * b)

        table = {
            "add": lambda a, b: U(a + b),
            "sub": lambda a, b: U(a - b),
            "sll": lambda a, b: U(a << (b & 63)),
            "slt": lambda a, b: int(S(a) < S(b)),
            "sltu": lambda a, b: int(a < b),
            "xor": lambda a, b: a ^ b,
            "srl": lambda a, b: a >> (b & 63),
            "sra": lambda a, b: U(S(a) >> (b & 63)),
            "or": lambda a, b: a | b,
            "and": lambda a, b: a & b,
            "addw": lambda a, b: U(bits.sext(a + b, 32)),
            "subw": lambda a, b: U(bits.sext(a - b, 32)),
            "sllw": lambda a, b: U(bits.sext(a << (b & 31), 32)),
            "srlw": lambda a, b: U(bits.sext((a & bits.MASK32) >> (b & 31), 32)),
            "sraw": lambda a, b: U(bits.to_s32(a) >> (b & 31)),
            "mul": lambda a, b: U(a * b),
            "mulh": lambda a, b: U((S(a) * S(b)) >> 64),
            "mulhu": lambda a, b: (a * b) >> 64,
            "mulhsu": lambda a, b: U((S(a) * b) >> 64),
            "div": div64,
            "divu": lambda a, b: bits.MASK64 if b == 0 else a // b,
            "rem": rem64,
            "remu": lambda a, b: a if b == 0 else a % b,
            "mulw": lambda a, b: U(bits.sext(a * b, 32)),
            "divw": lambda a, b: U(bits.sext(
                div64(U(bits.to_s32(a)), U(bits.to_s32(b))), 32)),
            "divuw": lambda a, b: bits.MASK64 if (b & bits.MASK32) == 0
            else U(bits.sext((a & bits.MASK32) // (b & bits.MASK32), 32)),
            "remw": lambda a, b: U(bits.sext(
                rem64(U(bits.to_s32(a)), U(bits.to_s32(b))), 32)),
            "remuw": lambda a, b: U(bits.sext(a & bits.MASK32, 32))
            if (b & bits.MASK32) == 0
            else U(bits.sext((a & bits.MASK32) % (b & bits.MASK32), 32)),
            # immediate variants share the binary function:
            "addi": lambda a, b: U(a + b),
            "slti": lambda a, b: int(S(a) < S(b)),
            "sltiu": lambda a, b: int(a < b),
            "xori": lambda a, b: a ^ b,
            "ori": lambda a, b: a | b,
            "andi": lambda a, b: a & b,
            "slli": lambda a, b: U(a << (b & 63)),
            "srli": lambda a, b: a >> (b & 63),
            "srai": lambda a, b: U(S(a) >> (b & 63)),
            "addiw": lambda a, b: U(bits.sext(a + b, 32)),
            "slliw": lambda a, b: U(bits.sext(a << (b & 31), 32)),
            "srliw": lambda a, b: U(bits.sext((a & bits.MASK32) >> (b & 31), 32)),
            "sraiw": lambda a, b: U(bits.to_s32(a) >> (b & 31)),
        }
        return table

    def _make_alu_r(self, op: str):
        fn = self._alu_fn(op)
        regs = self.regs

        def handler(ins: Instr):
            rd = ins.rd
            if rd:
                regs[rd] = fn(regs[ins.rs1], regs[ins.rs2])
                self._srf_propagate_r(rd, ins.rs1, ins.rs2)
            self._retire(ins)
            return None

        return handler

    def _make_alu_i(self, op: str):
        fn = self._alu_fn(op)
        regs = self.regs

        def handler(ins: Instr):
            rd = ins.rd
            if rd:
                regs[rd] = fn(regs[ins.rs1], bits.to_u64(ins.imm))
                self._srf_propagate_i(rd, ins.rs1)
            self._retire(ins)
            return None

        return handler

    # -- memory ----------------------------------------------------------

    def _make_load(self, op: str, nbytes: int, signed: bool):
        ct_loads = self._ct["loads"]

        def handler(ins: Instr):
            addr = bits.to_u64(self.regs[ins.rs1] + ins.imm)
            value = self.memory.load_uint(addr, nbytes)
            if signed:
                value = bits.to_u64(bits.sext(value, 8 * nbytes))
            if ins.rd:
                self.regs[ins.rd] = value
                self._srf_invalidate(ins.rd)
            ct_loads.value += 1
            self._retire(ins, mem_addr=addr)
            return None

        return handler

    def _make_store(self, op: str, nbytes: int):
        ct_stores = self._ct["stores"]

        def handler(ins: Instr):
            addr = bits.to_u64(self.regs[ins.rs1] + ins.imm)
            value = self.regs[ins.rs2]
            self.memory.store_uint(addr, nbytes, value)
            if nbytes == 8:
                self._snoop_lock_store(addr, value)
            ct_stores.value += 1
            self._retire(ins, mem_addr=addr, is_store=True)
            return None

        return handler

    def _make_checked_load(self, op: str, nbytes: int, signed: bool):
        ct_loads = self._ct["loads"]
        ct_hwst = self._ct["hwst_ops"]

        def handler(ins: Instr):
            addr = bits.to_u64(self.regs[ins.rs1] + ins.imm)
            self._spatial_check(ins.rs1, addr, nbytes)
            value = self.memory.load_uint(addr, nbytes)
            if signed:
                value = bits.to_u64(bits.sext(value, 8 * nbytes))
            if ins.rd:
                self.regs[ins.rd] = value
                self._srf_invalidate(ins.rd)
            ct_loads.value += 1
            ct_hwst.value += 1
            self._retire(ins, mem_addr=addr)
            return None

        return handler

    def _make_checked_store(self, op: str, nbytes: int):
        ct_stores = self._ct["stores"]
        ct_hwst = self._ct["hwst_ops"]

        def handler(ins: Instr):
            addr = bits.to_u64(self.regs[ins.rs1] + ins.imm)
            self._spatial_check(ins.rs1, addr, nbytes)
            value = self.regs[ins.rs2]
            self.memory.store_uint(addr, nbytes, value)
            if nbytes == 8:
                self._snoop_lock_store(addr, value)
            ct_stores.value += 1
            ct_hwst.value += 1
            self._retire(ins, mem_addr=addr, is_store=True)
            return None

        return handler

    # -- control flow -------------------------------------------------------

    def _make_branch(self, op: str):
        S = bits.to_s64
        compare = {
            "beq": lambda a, b: a == b,
            "bne": lambda a, b: a != b,
            "blt": lambda a, b: S(a) < S(b),
            "bge": lambda a, b: S(a) >= S(b),
            "bltu": lambda a, b: a < b,
            "bgeu": lambda a, b: a >= b,
        }[op]

        ct_branches = self._ct["branches"]
        ct_taken = self._ct["taken"]

        def handler(ins: Instr):
            taken = compare(self.regs[ins.rs1], self.regs[ins.rs2])
            ct_branches.value += 1
            if taken:
                ct_taken.value += 1
            self._retire(ins, taken=taken)
            return bits.to_u64(self.pc + ins.imm) if taken else None

        return handler

    def _op_jal(self, ins: Instr):
        if ins.rd:
            self.regs[ins.rd] = bits.to_u64(self.pc + 4)
            self._srf_invalidate(ins.rd)
        self._ct["calls"].value += 1
        self._retire(ins, taken=True)
        return bits.to_u64(self.pc + ins.imm)

    def _op_jalr(self, ins: Instr):
        target = bits.to_u64(self.regs[ins.rs1] + ins.imm) & ~1
        if ins.rd:
            self.regs[ins.rd] = bits.to_u64(self.pc + 4)
            self._srf_invalidate(ins.rd)
        self._retire(ins, taken=True)
        return target

    def _op_lui(self, ins: Instr):
        if ins.rd:
            self.regs[ins.rd] = bits.to_u64(bits.sext(ins.imm << 12, 32))
            self._srf_invalidate(ins.rd)
        self._retire(ins)
        return None

    def _op_auipc(self, ins: Instr):
        if ins.rd:
            self.regs[ins.rd] = bits.to_u64(
                self.pc + bits.sext(ins.imm << 12, 32))
            self._srf_invalidate(ins.rd)
        self._retire(ins)
        return None

    def _op_fence(self, ins: Instr):
        self._retire(ins)
        return None

    def _op_ebreak(self, ins: Instr):
        raise EcallAbort("ebreak")

    def _op_ecall(self, ins: Instr):
        number = self.regs[17]  # a7
        if number == SYS_EXIT:
            raise EcallExit(bits.to_s64(self.regs[10]))
        if number == SYS_WRITE:
            buf, length = self.regs[11], self.regs[12]
            self.output += self.memory.load_bytes(buf, length)
            self.regs[10] = length
            # Retire only on the path that returns: a trapping ecall is
            # never counted in instret, so the profiler and the timing
            # model must not see it either (retire fires exactly once
            # per *retired* instruction — the fast engine relies on
            # this invariant at trap boundaries).
            self._retire(ins)
            return None
        if number == SYS_ABORT:
            raise EcallAbort("program abort")
        if number == SYS_TRAP_SPATIAL:
            raise SpatialViolation(self.pc, self.regs[10], 0, 0)
        if number == SYS_TRAP_TEMPORAL:
            raise TemporalViolation(self.pc, self.regs[10], 0, 0)
        if number == SYS_TRAP_ASAN:
            raise EcallAbort("asan-report")
        if number == SYS_TRAP_CANARY:
            raise EcallAbort("stack-smashing-detected")
        raise IllegalInstruction(self.pc, f"unknown ecall {number}")

    def _make_csr(self, kind: str):
        def handler(ins: Instr):
            addr = ins.imm
            old = self._csr_read(addr)
            src = self.regs[ins.rs1]
            if kind == "w":
                self._csr_write(addr, src)
            elif kind == "s" and ins.rs1 != 0:
                self._csr_write(addr, old | src)
            elif kind == "c" and ins.rs1 != 0:
                self._csr_write(addr, old & ~src)
            if ins.rd:
                self.regs[ins.rd] = old
                self._srf_invalidate(ins.rd)
            self._retire(ins)
            return None

        return handler

    def _csr_read(self, addr: int) -> int:
        if addr == csrdef.CYCLE:
            return self.timing.cycles if self.timing is not None else self.instret
        if addr in (csrdef.TIME, csrdef.INSTRET):
            return self.instret
        return self.csrs.get(addr, 0)

    def _csr_write(self, addr: int, value: int):
        value = bits.to_u64(value)
        self.csrs[addr] = value
        if addr == csrdef.HWST_LOCK_BASE:
            self._lock_lo = value
        elif addr == csrdef.HWST_LOCK_LIMIT:
            self._lock_hi = value

    # -- HWST128 ---------------------------------------------------------

    def _op_bndrs(self, ins: Instr):
        base, bound = self.regs[ins.rs1], self.regs[ins.rs2]
        lower = self.compressor.compress_spatial(base, bound)
        _, upper, _, uvalid = self.srf[ins.rd]
        self.srf[ins.rd] = (lower, upper, True, uvalid)
        self.srf_wide[ins.rd] = None
        self._ct["hwst_ops"].value += 1
        self._retire(ins)
        return None

    def _op_bndrt(self, ins: Instr):
        key, lock = self.regs[ins.rs1], self.regs[ins.rs2]
        upper = self.compressor.compress_temporal(key, lock)
        lower, _, lvalid, _ = self.srf[ins.rd]
        self.srf[ins.rd] = (lower, upper, lvalid, True)
        self._ct["hwst_ops"].value += 1
        self._retire(ins)
        return None

    def _op_tchk(self, ins: Instr):
        self._ct["tchk"].value += 1
        self._ct["hwst_ops"].value += 1
        kb_hit, mem2 = self._temporal_check(ins.rs1)
        self._retire(ins, kb_hit=kb_hit, mem2=mem2)
        return None

    def _make_sbd(self, upper: bool):
        ct_stores = self._ct["stores"]
        ct_hwst = self._ct["hwst_ops"]
        ct_shadow = self._ct["shadow_ops"]

        def handler(ins: Instr):
            container = bits.to_u64(self.regs[ins.rs1] + ins.imm)
            shadow_addr = self._smac(container) + (8 if upper else 0)
            lower_v, upper_v, lvalid, uvalid = self.srf[ins.rs2]
            if upper:
                value = upper_v if uvalid else 0
            else:
                value = lower_v if lvalid else 0
            self.memory.store_u64(shadow_addr, value)
            ct_stores.value += 1
            ct_hwst.value += 1
            ct_shadow.value += 1
            tracer = self._tracer_shadow
            if tracer is not None:
                tracer.emit("shadow", "store" if value else "clear",
                            ts=self._now(),
                            args={"container": container,
                                  "half": "upper" if upper else "lower"})
            self._retire(ins, mem_addr=shadow_addr, is_store=True)
            return None

        return handler

    def _make_lbds(self, upper: bool):
        ct_loads = self._ct["loads"]
        ct_hwst = self._ct["hwst_ops"]
        ct_shadow = self._ct["shadow_ops"]

        def handler(ins: Instr):
            container = bits.to_u64(self.regs[ins.rs1] + ins.imm)
            shadow_addr = self._smac(container) + (8 if upper else 0)
            value = self.memory.load_u64(shadow_addr)
            lower_v, upper_v, lvalid, uvalid = self.srf[ins.rd]
            if upper:
                self.srf[ins.rd] = (lower_v, value, lvalid, True)
            else:
                self.srf[ins.rd] = (value, upper_v, True, uvalid)
            self.srf_wide[ins.rd] = None
            ct_loads.value += 1
            ct_hwst.value += 1
            ct_shadow.value += 1
            tracer = self._tracer_shadow
            if tracer is not None:
                tracer.emit("shadow", "load", ts=self._now(),
                            args={"container": container,
                                  "half": "upper" if upper else "lower"})
            self._retire(ins, mem_addr=shadow_addr)
            return None

        return handler

    def _make_meta_gpr_load(self, which: str):
        temporal = which in ("key", "lock")
        ct_loads = self._ct["loads"]
        ct_hwst = self._ct["hwst_ops"]
        ct_shadow = self._ct["shadow_ops"]

        def handler(ins: Instr):
            container = bits.to_u64(self.regs[ins.rs1] + ins.imm)
            shadow_addr = self._smac(container) + (8 if temporal else 0)
            value = self.memory.load_u64(shadow_addr)
            if temporal:
                key, lock = self.compressor.decompress_temporal(value)
                result = key if which == "key" else lock
            else:
                base, bound = self.compressor.decompress_spatial(value)
                result = base if which == "base" else bound
            if ins.rd:
                self.regs[ins.rd] = bits.to_u64(result)
                self._srf_invalidate(ins.rd)
            ct_loads.value += 1
            ct_hwst.value += 1
            ct_shadow.value += 1
            self._retire(ins, mem_addr=shadow_addr)
            return None

        return handler

    # -- MPX comparator model ---------------------------------------------

    def _op_bndcl(self, ins: Instr):
        addr = self.regs[ins.rs2]
        base, bound = self._spatial_bounds(ins.rs1, addr)
        if addr < base:
            self._spatial_fail(addr, base, bound)
        self._retire(ins)
        return None

    def _op_bndcu(self, ins: Instr):
        addr = self.regs[ins.rs2]
        base, bound = self._spatial_bounds(ins.rs1, addr)
        if addr >= bound:
            self._spatial_fail(addr, base, bound)
        self._retire(ins)
        return None

    def _op_bndldx(self, ins: Instr):
        container = bits.to_u64(self.regs[ins.rs1] + ins.imm)
        shadow_addr = self._smac(container)
        value = self.memory.load_u64(shadow_addr)
        _, upper_v, _, uvalid = self.srf[ins.rd]
        self.srf[ins.rd] = (value, upper_v, True, uvalid)
        self._ct["loads"].value += 2  # MPX bound-table walk: two accesses
        self._ct["shadow_ops"].value += 1
        self._retire(ins, mem_addr=shadow_addr, mem2=shadow_addr + 8)
        return None

    def _op_bndstx(self, ins: Instr):
        container = bits.to_u64(self.regs[ins.rs1] + ins.imm)
        shadow_addr = self._smac(container)
        lower_v, _, lvalid, _ = self.srf[ins.rs2]
        self.memory.store_u64(shadow_addr, lower_v if lvalid else 0)
        self._ct["stores"].value += 2
        self._ct["shadow_ops"].value += 1
        self._retire(ins, mem_addr=shadow_addr, is_store=True,
                     mem2=shadow_addr + 8)
        return None

    # -- AVX comparator model -----------------------------------------------

    def _op_vld256(self, ins: Instr):
        container = bits.to_u64(self.regs[ins.rs1] + ins.imm)
        shadow_addr = self._smac(container)
        fields = tuple(self.memory.load_u64(shadow_addr + 8 * i)
                       for i in range(4))
        self.srf_wide[ins.rd] = fields  # (base, bound, key, lock)
        self.srf[ins.rd] = SRF_INVALID
        self._ct["loads"].value += 1
        self._ct["shadow_ops"].value += 1
        self._retire(ins, mem_addr=shadow_addr)
        return None

    def _op_vst256(self, ins: Instr):
        container = bits.to_u64(self.regs[ins.rs1] + ins.imm)
        shadow_addr = self._smac(container)
        fields = self.srf_wide[ins.rs2] or (0, 0, 0, 0)
        for i, value in enumerate(fields):
            self.memory.store_u64(shadow_addr + 8 * i, value)
        self._ct["stores"].value += 1
        self._ct["shadow_ops"].value += 1
        self._retire(ins, mem_addr=shadow_addr, is_store=True)
        return None

    def _op_vchk(self, ins: Instr):
        """WDL wide check: spatial + temporal in one vector operation."""
        wide = self.srf_wide[ins.rs1]
        addr = self.regs[ins.rs2]
        if wide is None:
            self._spatial_fail(addr, 0, 0)
        base, bound, key, lock = wide
        if addr < base or addr >= bound:
            self._spatial_fail(addr, base, bound)
        mem2 = None
        if lock:
            stored = self.memory.load_u64(lock)
            mem2 = lock
            if stored != key:
                self._temporal_fail(key, stored, lock)
        self._retire(ins, mem2=mem2)
        return None
