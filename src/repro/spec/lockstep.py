"""Lockstep co-simulation: the spec against an ISS engine, per retire.

The harness drives an *injected* machine object (any engine exposing
the reference stepping surface: ``load``/``step``/``pc``/``regs``/
``srf``/``srf_wide``/``csrs``/``instret``/``output``/``memory``) and
the specification side by side, one instruction at a time:

1. the spec executes first, against the *pre-state* of the machine's
   memory (observed through a side-effect-free peek that bypasses the
   shadow-traffic counters);
2. the machine steps;
3. the full architectural state is diffed — pc, x-regs, SRF, wide SRF,
   CSRs, instret, console output — and every memory-effect event the
   spec emitted is checked against the machine's post-state memory.

The first divergence stops the run and is reported with pc, mnemonic
and field-level delta. This module imports nothing from ``repro.sim``:
machines are opaque duck-typed objects, and ISS traps are classified by
exception *class name* so no simulator types are needed.

For spec-only execution (no ISS at all) the module provides
:class:`SpecMemory` and :func:`run_spec` — a complete, standalone
interpreter over the spec tables, used by the ISA-semantics tests to
give hand-written expectation cases a second, independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.spec.state import (
    CLASS_BY_KIND,
    KIND_EXIT,
    KIND_LIMIT,
    STATUS_BY_KIND,
    SpecEnv,
    SpecState,
    SpecTrap,
    init_state,
    reset_csrs,
)
from repro.spec.table import spec_step

_PAGE_SHIFT = 12
_PAGE_SIZE = 1 << _PAGE_SHIFT

#: ISS trap class name -> spec trap kind (looked up along the MRO so
#: subclasses inherit their parent's classification).
KIND_BY_CLASS: Dict[str, str] = {
    "EcallExit": "exit",
    "SpatialViolation": "spatial",
    "TemporalViolation": "temporal",
    "MemoryFault": "fault",
    "EcallAbort": "abort",
    "IllegalInstruction": "illegal",
    "ShadowMemoryExhausted": "shadow_oom",
    "MetadataRangeError": "meta_range",
    "SimLimitExceeded": "limit",
}


def classify_trap(exc: BaseException) -> Optional[str]:
    """Spec trap kind of an ISS exception, or None when unknown."""
    for cls in type(exc).__mro__:
        kind = KIND_BY_CLASS.get(cls.__name__)
        if kind is not None:
            return kind
    return None


# ---------------------------------------------------------------------------
# Side-effect-free memory observation
# ---------------------------------------------------------------------------

def peek_bytes(memory, addr: int, size: int) -> bytes:
    """Read ``size`` bytes at ``addr`` from a paged memory without
    touching access counters or MRU state (missing pages read as 0)."""
    pages = memory._pages
    out = bytearray()
    remaining = size
    while remaining:
        page = pages.get(addr >> _PAGE_SHIFT)
        offset = addr & (_PAGE_SIZE - 1)
        take = min(remaining, _PAGE_SIZE - offset)
        if page is None:
            out += b"\x00" * take
        else:
            out += page[offset:offset + take]
        addr += take
        remaining -= take
    return bytes(out)


def peek_uint(memory, addr: int, size: int) -> int:
    return int.from_bytes(peek_bytes(memory, addr, size), "little")


def make_env(memory, widths: Tuple[int, int, int, int], lock_base: int,
             shadow_lo: int, shadow_hi: int,
             shadow_budget: int = 0) -> SpecEnv:
    """A :class:`SpecEnv` observing ``memory`` (ISS ``Memory`` or
    :class:`SpecMemory`) without side effects."""
    is_mapped = memory.is_mapped

    def load(addr: int, size: int) -> Optional[int]:
        if not is_mapped(addr, size):
            return None
        return peek_uint(memory, addr, size)

    def load_bytes(addr: int, size: int) -> Optional[bytes]:
        if not is_mapped(addr, size):
            return None
        return peek_bytes(memory, addr, size)

    return SpecEnv(load=load, load_bytes=load_bytes, is_mapped=is_mapped,
                   widths=widths, lock_base=lock_base,
                   shadow_lo=shadow_lo, shadow_hi=shadow_hi,
                   shadow_budget=shadow_budget)


class SpecMemory:
    """Standalone paged memory for spec-only runs.

    Mirrors the platform's mapping discipline (coalesced spans, zero
    fill) with none of the ISS's accounting; shares the ``_pages``
    layout so :func:`peek_bytes` works on both.
    """

    def __init__(self):
        self._pages: Dict[int, bytearray] = {}
        self._spans: List[Tuple[int, int]] = []

    def map_region(self, start: int, size: int):
        self._spans.append((start, start + size))
        merged: List[Tuple[int, int]] = []
        for lo, hi in sorted(self._spans):
            if merged and lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        self._spans = merged

    def is_mapped(self, addr: int, size: int = 1) -> bool:
        for lo, hi in self._spans:
            if lo <= addr and addr + size <= hi:
                return True
        return False

    def store_bytes(self, addr: int, data: bytes):
        remaining = len(data)
        taken = 0
        while taken < remaining:
            index = addr >> _PAGE_SHIFT
            page = self._pages.get(index)
            if page is None:
                page = bytearray(_PAGE_SIZE)
                self._pages[index] = page
            offset = addr & (_PAGE_SIZE - 1)
            take = min(remaining - taken, _PAGE_SIZE - offset)
            page[offset:offset + take] = data[taken:taken + take]
            addr += take
            taken += take

    def apply(self, event):
        """Perform one spec :class:`MemEvent` store."""
        self.store_bytes(event.addr,
                         event.value.to_bytes(event.size, "little"))

    @classmethod
    def from_program(cls, program) -> "SpecMemory":
        """Map the program's layout and copy its data segments (the
        spec-side twin of ``Program.load_into``)."""
        layout = program.layout
        mem = cls()
        mem.map_region(layout.text_base,
                       layout.data_base - layout.text_base)
        mem.map_region(layout.data_base,
                       layout.heap_base - layout.data_base)
        mem.map_region(layout.heap_base, layout.heap_top - layout.heap_base)
        mem.map_region(layout.stack_top - layout.stack_size,
                       layout.stack_size)
        mem.map_region(layout.shadow_offset,
                       layout.shadow_top - layout.shadow_offset)
        for segment in program.segments:
            mem.store_bytes(segment.addr, segment.data)
        return mem


# ---------------------------------------------------------------------------
# Outcomes and diffing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpecOutcome:
    """Run-level observables of a spec execution (the spec's twin of
    the ISS RunResult surface the conformance layer compares)."""

    status: str
    exit_code: int = 0
    detail: str = ""
    instret: int = 0
    output: bytes = b""
    trap_class: str = ""
    trap_pc: Optional[int] = None


def outcome_of(trap: SpecTrap, instret: int, output: bytes) -> SpecOutcome:
    if trap.kind == KIND_EXIT:
        return SpecOutcome(status="exit", exit_code=trap.exit_code,
                           instret=instret, output=output)
    return SpecOutcome(status=STATUS_BY_KIND[trap.kind],
                       detail=trap.detail, instret=instret, output=output,
                       trap_class=CLASS_BY_KIND[trap.kind],
                       trap_pc=trap.pc)


def _hx(value) -> str:
    if isinstance(value, bool) or value is None:
        return repr(value)
    if isinstance(value, int):
        return hex(value)
    return repr(value)


def _delta(field: str, spec_value, iss_value) -> dict:
    return {"field": field, "spec": _hx(spec_value), "iss": _hx(iss_value)}


def diff_retire(state: SpecState, machine) -> List[dict]:
    """Field-level delta between the spec state after a retire and the
    machine's architectural state (empty = equivalent).

    Whole values are compared first — the common, equal case costs one
    comparison per state component. The field-by-field walk that names
    each delta runs only when something differs.
    """
    if state.pc != machine.pc or state.instret != machine.instret \
            or state.regs != tuple(machine.regs) \
            or state.srf != tuple(machine.srf) \
            or state.srf_wide != tuple(machine.srf_wide) \
            or state.csrs != machine.csrs \
            or state.output != machine.output:
        return _field_deltas(state, machine)
    for event in state.events:
        if peek_uint(machine.memory, event.addr, event.size) != event.value:
            return _field_deltas(state, machine)
    return []


def _field_deltas(state: SpecState, machine) -> List[dict]:
    deltas: List[dict] = []
    if state.pc != machine.pc:
        deltas.append(_delta("pc", state.pc, machine.pc))
    if state.instret != machine.instret:
        deltas.append(_delta("instret", state.instret, machine.instret))
    for i in range(32):
        if state.regs[i] != machine.regs[i]:
            deltas.append(_delta(f"x{i}", state.regs[i], machine.regs[i]))
        if state.srf[i] != tuple(machine.srf[i]):
            deltas.append(_delta(f"srf[{i}]", state.srf[i],
                                 tuple(machine.srf[i])))
        spec_wide = state.srf_wide[i]
        iss_wide = machine.srf_wide[i]
        if spec_wide != (tuple(iss_wide) if iss_wide is not None else None):
            deltas.append(_delta(f"srf_wide[{i}]", spec_wide, iss_wide))
    if dict(state.csrs) != dict(machine.csrs):
        for addr in sorted(set(state.csrs) | set(machine.csrs)):
            sv = state.csrs.get(addr)
            mv = machine.csrs.get(addr)
            if sv != mv:
                deltas.append(_delta(f"csr[{addr:#x}]", sv, mv))
    if state.output != bytes(machine.output):
        deltas.append(_delta("output", state.output,
                             bytes(machine.output)))
    for event in state.events:
        stored = peek_uint(machine.memory, event.addr, event.size)
        if stored != event.value:
            deltas.append(_delta(f"mem[{event.addr:#x}:{event.size}]",
                                 event.value, stored))
    return deltas


def diff_trap(spec_trap: SpecTrap, exc: BaseException,
              machine_pc: int) -> List[dict]:
    """Field-level delta between a spec trap and an ISS exception."""
    deltas: List[dict] = []
    kind = classify_trap(exc)
    if kind != spec_trap.kind:
        deltas.append(_delta("trap.kind", spec_trap.kind, kind))
        return deltas
    iss_pc = getattr(exc, "pc", None)
    if iss_pc is None:
        iss_pc = machine_pc
    if spec_trap.kind != KIND_EXIT and spec_trap.pc != iss_pc:
        deltas.append(_delta("trap.pc", spec_trap.pc, iss_pc))
    if spec_trap.kind == KIND_EXIT:
        code = getattr(exc, "code", None)
        if code != spec_trap.exit_code:
            deltas.append(_delta("trap.exit_code", spec_trap.exit_code,
                                 code))
    for name, value in spec_trap.fields:
        iss_value = getattr(exc, name, None)
        if iss_value is not None and iss_value != value:
            deltas.append(_delta(f"trap.{name}", value, iss_value))
    return deltas


@dataclass
class LockstepResult:
    """Outcome of one lockstep run."""

    outcome: SpecOutcome
    divergence: Optional[dict]
    retires: int
    mnemonics: Tuple[str, ...]  # sorted set of retired mnemonics
    state: Optional[SpecState] = None


def _divergence(reason: str, retire: int, pc: int, op: Optional[str],
                deltas: List[dict]) -> dict:
    return {"reason": reason, "retire": retire, "pc": hex(pc),
            "mnemonic": op or "<fetch>", "deltas": deltas}


def run_lockstep(machine, program, widths: Tuple[int, int, int, int],
                 lock_base: int, shadow_budget: int = 0,
                 max_instructions: int = 2_000_000) -> LockstepResult:
    """Run ``program`` on the injected ``machine`` and the spec in
    lockstep, diffing at every retire; stops at the first divergence,
    a matching trap, or the instruction budget (status ``limit``)."""
    machine.load(program)
    layout = program.layout
    state = snapshot_state(machine)
    env = make_env(machine.memory, widths, lock_base,
                   layout.shadow_offset, layout.shadow_top, shadow_budget)
    mnemonics = set()
    retires = 0
    while retires < max_instructions:
        ins = program.instr_at(state.pc)
        spec_out = spec_step(state, ins, env)
        exc: Optional[BaseException] = None
        try:
            machine.step()
        except Exception as caught:  # noqa: BLE001 — classified below
            if classify_trap(caught) is None:
                raise
            exc = caught
        op = ins.op if ins is not None else None
        if isinstance(spec_out, SpecTrap):
            if exc is None:
                div = _divergence("spec trapped, iss retired", retires,
                                  spec_out.pc, op,
                                  [_delta("trap.kind", spec_out.kind,
                                          None)])
            else:
                deltas = diff_trap(spec_out, exc, machine.pc)
                div = _divergence("trap mismatch", retires, spec_out.pc,
                                  op, deltas) if deltas else None
            return LockstepResult(
                outcome=outcome_of(spec_out, state.instret, state.output),
                divergence=div, retires=retires,
                mnemonics=tuple(sorted(mnemonics)), state=state)
        if exc is not None:
            kind = classify_trap(exc)
            div = _divergence("iss trapped, spec retired", retires,
                              state.pc, op,
                              [_delta("trap.kind", None, kind)])
            return LockstepResult(
                outcome=outcome_of(
                    SpecTrap(kind, machine.pc, detail=str(exc)),
                    state.instret, state.output),
                divergence=div, retires=retires,
                mnemonics=tuple(sorted(mnemonics)), state=state)
        deltas = diff_retire(spec_out, machine)
        if deltas:
            div = _divergence("state mismatch", retires, state.pc, op,
                              deltas)
            return LockstepResult(
                outcome=SpecOutcome(status="divergence", instret=retires),
                divergence=div, retires=retires,
                mnemonics=tuple(sorted(mnemonics)), state=spec_out)
        mnemonics.add(op)
        retires += 1
        state = spec_out
    return LockstepResult(
        outcome=SpecOutcome(status=STATUS_BY_KIND[KIND_LIMIT],
                            detail=f"budget {max_instructions}",
                            instret=state.instret, output=state.output,
                            trap_class=CLASS_BY_KIND[KIND_LIMIT],
                            trap_pc=state.pc),
        divergence=None, retires=retires,
        mnemonics=tuple(sorted(mnemonics)), state=state)


def snapshot_state(machine) -> SpecState:
    """The machine's architectural state as an immutable SpecState."""
    return SpecState(
        pc=machine.pc,
        regs=tuple(machine.regs),
        srf=tuple(map(tuple, machine.srf)),
        srf_wide=tuple(tuple(w) if w is not None else None
                       for w in machine.srf_wide),
        csrs=dict(machine.csrs),
        instret=machine.instret,
        output=bytes(machine.output),
        shadow_touched=machine.memory.shadow_bytes_touched,
    )


# ---------------------------------------------------------------------------
# Standalone spec execution (no ISS involved)
# ---------------------------------------------------------------------------

def run_spec(program, widths: Tuple[int, int, int, int], lock_base: int,
             lock_limit: int, shadow_budget: int = 0,
             max_instructions: int = 2_000_000,
             ) -> Tuple[SpecOutcome, SpecState]:
    """Execute ``program`` purely on the spec tables.

    Returns the run-level outcome plus the final architectural state —
    a complete third implementation path (spec tables + SpecMemory)
    with no simulator in the loop.
    """
    layout = program.layout
    memory = SpecMemory.from_program(program)
    state = init_state(program.entry, layout.stack_top - 4096,
                       reset_csrs(widths, layout.shadow_offset,
                                  lock_base, lock_limit))
    env = make_env(memory, widths, lock_base, layout.shadow_offset,
                   layout.shadow_top, shadow_budget)
    retired = 0
    while retired < max_instructions:
        ins = program.instr_at(state.pc)
        result = spec_step(state, ins, env)
        if isinstance(result, SpecTrap):
            return (outcome_of(result, state.instret, state.output),
                    state)
        for event in result.events:
            memory.apply(event)
        state = result
        retired += 1
    return (SpecOutcome(status=STATUS_BY_KIND[KIND_LIMIT],
                        detail=f"budget {max_instructions}",
                        instret=state.instret, output=state.output,
                        trap_class=CLASS_BY_KIND[KIND_LIMIT],
                        trap_pc=state.pc),
            state)
