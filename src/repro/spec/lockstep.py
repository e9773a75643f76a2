"""Lockstep co-simulation: the spec against an ISS engine.

The harness drives an *injected* machine object (any engine exposing
the reference stepping surface: ``load``/``step``/``pc``/``regs``/
``srf``/``srf_wide``/``csrs``/``instret``/``output``/``memory``, plus
the engine hooks ``_exec_loop``/``_end_run`` for :func:`run_chunked`)
and the specification side by side. :func:`run_lockstep` goes one
instruction at a time:

1. the spec executes first, against the *pre-state* of the machine's
   memory (observed through a side-effect-free peek that bypasses the
   shadow-traffic counters);
2. the machine steps;
3. the full architectural state is diffed — pc, x-regs, SRF, wide SRF,
   CSRs, instret, console output — and every memory-effect event the
   spec emitted is checked against the machine's post-state memory.

The first divergence stops the run and is reported with pc, mnemonic
and field-level delta. :func:`run_chunked` checks the same run a chunk
at a time: the spec steps up to :data:`CHUNK` instructions against the
machine's pre-chunk memory plus an overlay of its own stores, the
machine runs them in one budgeted ``_exec_loop`` call (its block loop,
on the fast engine), and the whole state — every byte the spec stored
included — is compared at the chunk end. It names only the chunk; a
caller reruns :func:`run_lockstep` to name the retire.

This module imports nothing from ``repro.sim``: machines are opaque
duck-typed objects, and ISS traps are classified by exception *class
name* so no simulator types are needed.

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
_ZERO_PAGE = bytes(_PAGE_SIZE)

#: Retires per :func:`run_chunked` chunk. On treeadd's three lockstep
#: cells, comparing every 8 retires took 1.7x as long as every 1024,
#: and every 64 retires 1.1x (docs/conformance.md, "Cost").
CHUNK = 1024

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

def peek_bytes(memory, addr: int, size: int,
               overlay: Optional[Dict[int, bytearray]] = None) -> bytes:
    """Read ``size`` bytes at ``addr`` from a paged memory without
    touching access counters or MRU state (missing pages read as 0).
    A page of ``overlay`` (page index -> page) hides the memory's."""
    pages = memory._pages
    out = bytearray()
    remaining = size
    while remaining:
        index = addr >> _PAGE_SHIFT
        page = overlay.get(index) if overlay else None
        if page is None:
            page = pages.get(index)
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
             shadow_budget: int = 0,
             overlay: Optional[Dict[int, bytearray]] = None) -> SpecEnv:
    """A :class:`SpecEnv` observing ``memory`` (ISS ``Memory`` or
    :class:`SpecMemory`) without side effects, through ``overlay``'s
    pages where it has one (see :func:`overlay_store`)."""
    is_mapped = memory.is_mapped

    def load(addr: int, size: int) -> Optional[int]:
        if not is_mapped(addr, size):
            return None
        return int.from_bytes(peek_bytes(memory, addr, size, overlay),
                              "little")

    def load_bytes(addr: int, size: int) -> Optional[bytes]:
        if not is_mapped(addr, size):
            return None
        return peek_bytes(memory, addr, size, overlay)

    return SpecEnv(load=load, load_bytes=load_bytes, is_mapped=is_mapped,
                   widths=widths, lock_base=lock_base,
                   shadow_lo=shadow_lo, shadow_hi=shadow_hi,
                   shadow_budget=shadow_budget)


def overlay_store(overlay: Dict[int, bytearray], memory, event) -> None:
    """Perform one spec :class:`MemEvent` store on ``overlay``, leaving
    ``memory`` untouched: the first store to a page copies the page in."""
    pages = memory._pages
    addr = event.addr
    data = event.value.to_bytes(event.size, "little")
    while data:
        index = addr >> _PAGE_SHIFT
        offset = addr & (_PAGE_SIZE - 1)
        take = min(len(data), _PAGE_SIZE - offset)
        page = overlay.get(index)
        if page is None:
            page = overlay[index] = bytearray(pages.get(index, _ZERO_PAGE))
        page[offset:offset + take] = data[:take]
        addr += take
        data = data[take:]


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
    if not _same_registers(state, machine):
        return _field_deltas(state, machine)
    for event in state.events:
        if peek_uint(machine.memory, event.addr, event.size) != event.value:
            return _field_deltas(state, machine)
    return []


def _same_registers(state: SpecState, machine) -> bool:
    """Everything but memory, compared as whole values."""
    return state.pc == machine.pc and state.instret == machine.instret \
        and state.regs == tuple(machine.regs) \
        and state.srf == tuple(machine.srf) \
        and state.srf_wide == tuple(machine.srf_wide) \
        and state.csrs == machine.csrs \
        and state.output == machine.output


def _field_deltas(state: SpecState, machine) -> List[dict]:
    deltas = _register_deltas(state, machine)
    for event in state.events:
        stored = peek_uint(machine.memory, event.addr, event.size)
        if stored != event.value:
            deltas.append(_delta(f"mem[{event.addr:#x}:{event.size}]",
                                 event.value, stored))
    return deltas


def _register_deltas(state: SpecState, machine) -> List[dict]:
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
    return deltas


def _page_deltas(overlay: Dict[int, bytearray], memory) -> List[dict]:
    """``mem[addr:len]`` deltas, one per run of differing bytes, where
    the machine's pages differ from the spec's ``overlay`` pages."""
    pages = memory._pages
    deltas: List[dict] = []
    for index in sorted(overlay):
        spec_page = overlay[index]
        iss_page = pages.get(index, _ZERO_PAGE)
        if spec_page == iss_page:
            continue
        offset = 0
        while offset < _PAGE_SIZE:
            if spec_page[offset] == iss_page[offset]:
                offset += 1
                continue
            end = offset
            while end < _PAGE_SIZE and spec_page[end] != iss_page[end]:
                end += 1
            addr = (index << _PAGE_SHIFT) + offset
            deltas.append(_delta(
                f"mem[{addr:#x}:{end - offset}]",
                int.from_bytes(spec_page[offset:end], "little"),
                int.from_bytes(iss_page[offset:end], "little")))
            offset = end
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
        outcome=_limit_outcome(state, max_instructions),
        divergence=None, retires=retires,
        mnemonics=tuple(sorted(mnemonics)), state=state)


def run_chunked(machine, program, widths: Tuple[int, int, int, int],
                lock_base: int, shadow_budget: int = 0,
                max_instructions: int = 2_000_000) -> LockstepResult:
    """:func:`run_lockstep`'s run, compared at chunk ends.

    Per chunk of up to :data:`CHUNK` retires, the spec steps first —
    reading the machine's pre-chunk memory through an overlay of its
    own stores — and stops early at a trap; the machine then runs the
    chunk in one ``_exec_loop(budget, None)`` call, raising at the
    spec's trap if it agrees, and the whole state is compared: pc,
    instret, x-regs, SRF, wide SRF, CSRs, output, every page the spec
    stored to, and the trap. A clean run returns what
    :func:`run_lockstep` returns. A mismatch returns a ``"chunk
    mismatch"`` record naming the chunk — its first retire and pc,
    ``"chunk"``: its retire budget, and the chunk-end deltas — which a
    caller turns into a retire by rerunning :func:`run_lockstep`.
    ``machine._end_run()`` ends the run either way.
    """
    machine.load(program)
    layout = program.layout
    memory = machine.memory
    overlay: Dict[int, bytearray] = {}
    env = make_env(memory, widths, lock_base, layout.shadow_offset,
                   layout.shadow_top, shadow_budget, overlay)
    instr_at = program.instr_at
    state = snapshot_state(machine)
    mnemonics = set()
    retires = 0
    try:
        while retires < max_instructions:
            budget = min(CHUNK, max_instructions - retires)
            first, entry = retires, state.pc
            overlay.clear()
            trap: Optional[SpecTrap] = None
            for _ in range(budget):
                ins = instr_at(state.pc)
                spec_out = spec_step(state, ins, env)
                if isinstance(spec_out, SpecTrap):
                    trap = spec_out
                    break
                for event in spec_out.events:
                    overlay_store(overlay, memory, event)
                mnemonics.add(ins.op)
                retires += 1
                state = spec_out
            exc: Optional[BaseException] = None
            try:
                machine._exec_loop(budget, None)
            except Exception as caught:  # noqa: BLE001 — classified below
                if classify_trap(caught) is None:
                    raise
                # Without its traceback: the frames it holds (this one,
                # and the block loop's with its cache) would otherwise
                # form a cycle with it and outlive the run.
                exc = caught.with_traceback(None)
            deltas = _chunk_deltas(state, machine, overlay, trap, exc)
            if deltas:
                return LockstepResult(
                    outcome=SpecOutcome(status="divergence",
                                        instret=first),
                    divergence={"reason": "chunk mismatch",
                                "retire": first, "pc": hex(entry),
                                "mnemonic": "<chunk>", "chunk": budget,
                                "deltas": deltas},
                    retires=first, mnemonics=tuple(sorted(mnemonics)),
                    state=state)
            if trap is not None:
                return LockstepResult(
                    outcome=outcome_of(trap, state.instret, state.output),
                    divergence=None, retires=retires,
                    mnemonics=tuple(sorted(mnemonics)), state=state)
    finally:
        machine._end_run()
    return LockstepResult(
        outcome=_limit_outcome(state, max_instructions),
        divergence=None, retires=retires,
        mnemonics=tuple(sorted(mnemonics)), state=state)


def _chunk_deltas(state: SpecState, machine,
                  overlay: Dict[int, bytearray],
                  trap: Optional[SpecTrap],
                  exc: Optional[BaseException]) -> List[dict]:
    """Deltas between the spec's state at a chunk end (``trap`` stopped
    it there, or None) and the machine's (``exc`` stopped it, or None);
    empty when they agree."""
    if trap is None and exc is None and _same_registers(state, machine):
        pages = machine.memory._pages
        if all(pages.get(index, _ZERO_PAGE) == page
               for index, page in overlay.items()):
            return []
    if trap is not None and exc is not None:
        deltas = diff_trap(trap, exc, machine.pc)
    elif trap is not None:
        deltas = [_delta("trap.kind", trap.kind, None)]
    elif exc is not None:
        deltas = [_delta("trap.kind", None, classify_trap(exc))]
    else:
        deltas = []
    return deltas + _register_deltas(state, machine) \
        + _page_deltas(overlay, machine.memory)


def _limit_outcome(state: SpecState, max_instructions: int) -> SpecOutcome:
    return SpecOutcome(status=STATUS_BY_KIND[KIND_LIMIT],
                       detail=f"budget {max_instructions}",
                       instret=state.instret, output=state.output,
                       trap_class=CLASS_BY_KIND[KIND_LIMIT],
                       trap_pc=state.pc)


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
    return _limit_outcome(state, max_instructions), state
