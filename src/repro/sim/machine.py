"""Instruction-set simulator for the RV64 subset + HWST128 extension.

Functionally this is the paper's SPIKE-augmented-with-HWST128: it executes
programs, maintains the shadow register file (SRF) with SHORE-style
in-pipeline metadata propagation, performs the fused spatial checks
(SCU), the keybuffer-assisted temporal check (TCU), and the shadow-memory
metadata moves through the SMAC address mapping. A timing model can be
attached to convert the retired instruction stream into cycle counts
(the FPGA role).

The semantics of all 97 mnemonics are rows of
:mod:`repro.sim.semantics`, which both engines compile: this machine
binds a row's reference handler on the first dispatch of its mnemonic,
and keeps only what the rows call back into (the trap helpers, the CSR
file, the lock-window snoop and ``_retire``). Its single-instruction
loop, ``_dispatch_loop``, is the *reference engine*: it runs
``step()``, observed runs, the rest of a run after a runtime fault
fires, and the fast engine's cold entries and budget tails.

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
from repro.isa.instructions import Instr
from repro.obs.host import observe_host
from repro.obs.metrics import MetricsRegistry
from repro.obs.observers import NULL_OBSERVERS
from repro.pipeline.timing import BREAKDOWN_KEYS
from repro.sim import semantics
from repro.sim.keybuffer import KeyBuffer
from repro.sim.memory import Memory
from repro.sim.program import Program
from repro.sim.semantics import SRF_INVALID

# Machine-level event counters, in registry order (``sim.<name>``).
# The legacy ``RunResult.stats`` keys are these same short names.
SIM_COUNTERS = ("loads", "stores", "branches", "taken",
                "hwst_ops", "shadow_ops", "tchk", "calls")

# Post-reset register files (copied into the machine's lists).
_ZERO_REGS = (0,) * 32
_INVALID_SRF = (SRF_INVALID,) * 32
_NO_WIDE = (None,) * 32

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
                 observers=NULL_OBSERVERS):
        self.config = config or HwstConfig()
        self.timing = timing
        # Optional ring buffer of the last N retired (pc, Instr) pairs
        # for post-mortem debugging (see trace_text()).
        self.trace_depth = observers.trace_depth
        self._trace: List[Tuple[int, Instr]] = []
        # Telemetry (a repro.obs.Observers, unpacked into the attributes
        # the hot paths read). Machine counters live under ``sim.*``;
        # handlers capture the Counter objects at dispatch-build time so
        # the hot loop pays one attribute store per event. ``tracer``
        # and ``profiler`` stay None by default — the null-sink fast
        # path is a single ``is not None`` test per retire.
        metrics = observers.metrics
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._sim = self.metrics.scope("sim")
        self._ct = {name: self._sim.counter(name) for name in SIM_COUNTERS}
        self.tracer = tracer = observers.tracer
        self._tracer_retire = tracer if (
            tracer is not None and tracer.wants("retire")) else None
        self._tracer_kb = tracer if (
            tracer is not None and tracer.wants("kb")) else None
        self._tracer_shadow = tracer if (
            tracer is not None and tracer.wants("shadow")) else None
        self.profiler = observers.profiler
        self.memory = Memory()
        self.keybuffer = KeyBuffer(self.config.keybuffer_entries,
                                   self.config.keybuffer_policy,
                                   metrics=self._sim.scope("kb"))
        # ``compressor`` is what the checks decode through; a codec
        # fault may interpose on it mid-run, reset() restores this one.
        self._compressor = MetadataCompressor(self.config)
        self.compressor = self._compressor
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
        self._lock_lo = self.config.lock_base
        self._lock_hi = self.config.lock_limit
        # mnemonic -> handler: each row's reference handler is bound
        # on the first dispatch of its mnemonic (see _bind_row).
        self._dispatch: Dict[str, Callable[[Instr], Optional[int]]] = \
            dict.fromkeys(semantics.ROWS, self._bind_row)

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
        keybuffer's contents, the compressor (and its Fig. 2 census),
        the ``sim.*`` metrics and the retired-instruction ring, so
        ``trace_text()`` shows only the program loaded last. What depends
        only on the config (the CSR image, the keybuffer itself, the
        dispatch table) is built once, in ``__init__``.
        """
        self.memory = Memory()
        # Zero every ``sim.*`` metric in place (handlers hold direct
        # references to the Counter objects, the keybuffer's included).
        self.metrics.reset(prefix="sim")
        self.keybuffer.reset()
        self.compressor = self._compressor
        self.compressor.reset_census()
        # NB: handlers bind self.regs and the SRF lists once — mutate
        # them in place.
        self.regs[:] = _ZERO_REGS
        self.srf[:] = _INVALID_SRF
        self.srf_wide[:] = _NO_WIDE
        self.pc = 0
        self.instret = 0
        self.output = bytearray()
        self._trace = []
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
            max_instructions: int = 200_000_000,
            fault=None) -> RunResult:
        """Execute ``program`` to completion and summarise the outcome.

        A runtime ``fault`` (a
        :class:`repro.faultinject.RuntimeInjector`) acts once: the run
        executes exactly ``fault.spec.trigger`` instructions on this
        engine's loop, calls ``fault.fire(self)`` and finishes on the
        reference loop, whose handlers read ``compressor`` on every
        call (translated code binds the codec's masks). A run that ends
        first, or a trigger at or past ``max_instructions``, never
        fires.
        """
        self.load(program)
        status, code, detail = STATUS_EXIT, 0, ""
        trap_class: str = ""
        trap_pc: Optional[int] = None
        try:
            if fault is not None and \
                    fault.spec.trigger < max_instructions:
                trigger = fault.spec.trigger
                self._exec_loop(trigger, None)
                self._end_run()     # the rest runs on the reference loop
                fault.fire(self)
                self._dispatch_loop(max_instructions - trigger,
                                    max_instructions)
            else:
                self._exec_loop(max_instructions, max_instructions)
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
        finally:
            self._end_run()
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

    def _exec_loop(self, budget: int, limit: Optional[int]) -> None:
        """Engine hook: execute the loaded program, with
        :meth:`_dispatch_loop`'s budget contract, until a
        :class:`SimTrap` ends the run (``run()``'s epilogue catches it)
        or, with ``limit`` None, ``budget`` instructions have retired;
        a run may take several such calls before :meth:`_end_run`.
        Subclasses (the fast engine) override this — everything outside
        it (load, the fault split, trap classification, stats, result
        assembly) is engine-independent by construction."""
        self._dispatch_loop(budget, limit)

    def _end_run(self) -> None:
        """Engine hook: the run is over — ``run()`` returned or raised,
        or a driver that ran it in budgeted ``_exec_loop`` slices (the
        chunked lockstep) stopped. The reference engine keeps nothing
        per run; the fast engine drops its translation cache here."""

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
            next_pc = handler(ins)
            self.pc = self.pc + 4 if next_pc is None else next_pc
            self.instret += 1
            remaining -= 1

    def _bind_row(self, ins: Instr) -> Optional[int]:
        """First dispatch of a mnemonic: bind its reference handler (the
        row is compiled once per process) in place of this stub, then
        run it."""
        handler = semantics.reference(ins.op)(self)
        self._dispatch[ins.op] = handler
        return handler(ins)

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

    # ------------------------------------------------------------------
    # Lock-window snoop and CSR file (the rows call these)
    # ------------------------------------------------------------------

    def _snoop_lock_store(self, addr: int, value: int):
        """Keep the keybuffer coherent with a pointer-sized store into
        the lock table (the store tested ``_lock_lo <= addr <
        _lock_hi``)."""
        if value == 0:
            self.keybuffer.clear()      # a pointer was freed
        else:
            self.keybuffer.invalidate(addr)
        tracer = self._tracer_kb
        if tracer is not None:
            tracer.emit("kb", "clear" if value == 0 else "invalidate",
                        ts=self._now(), args={"lock": addr})

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
