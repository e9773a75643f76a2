"""Program assembly: lay out globals, emit stubs, resolve symbols.

``build_program`` turns a (possibly instrumented) IR module plus the
runtime library, lowered once by :func:`lower_runtime` into a
:class:`RuntimeImage`, into a loadable :class:`Program`:

1. globals (user + runtime + string literals) are placed in the data
   segment with their alignment;
2. every IR function is lowered by :mod:`repro.codegen.lower`;
3. assembly stubs provide the ecall veneers and platform constants
   (heap window, lock table window, shadow offset) that the mini-C
   runtime cannot express;
4. ``_start`` programs the HWST128 CSRs (the paper: field widths and
   the shadow offset are set at the beginning of the program), calls
   ``__rt_init`` then ``main``, and exits with main's return value;
5. call/hi/lo relocations are patched: the image's recorded sites,
   ``_start``'s and the freshly lowered user functions', in text order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro import bits
from repro.core.config import HwstConfig
from repro.errors import LinkError
from repro.isa import csr as csrdef
from repro.isa.instructions import Instr, SPEC_TABLE, li_sequence
from repro.isa.registers import A0, A7, RA, T0, ZERO
from repro.ir.ir import GlobalData, Module
from repro.ir.verify import Interface, interface
from repro.codegen.lower import CodegenOptions, compile_function
from repro.obs.observers import NULL_OBSERVERS
from repro.sim.memory import DEFAULT_LAYOUT, MemoryLayout
from repro.sim.semantics import (
    SYS_ABORT,
    SYS_EXIT,
    SYS_TRAP_ASAN,
    SYS_TRAP_CANARY,
    SYS_TRAP_SPATIAL,
    SYS_TRAP_TEMPORAL,
    SYS_WRITE,
)


# ---------------------------------------------------------------------------
# Check-op mutation (repro.faultinject)
# ---------------------------------------------------------------------------
#
# Fault models for "a check instruction went missing / appeared where it
# should not": both substitute one instruction in a copy of the program,
# so the text layout (and every already-patched relative branch) is
# untouched. The checked fused accesses and their plain twins follow
# the ``<op>.chk`` naming convention; the table below is derived from
# SPEC_TABLE rather than hard-coded so new checked ops join for free.

PLAIN_OF_CHECKED = {
    name: name[:-len(".chk")]
    for name, spec in SPEC_TABLE.items()
    if spec.checked and name.endswith(".chk")
    and name[:-len(".chk")] in SPEC_TABLE
}
CHECKED_OF_PLAIN = {plain: chk for chk, plain in PLAIN_OF_CHECKED.items()}


def mutate_check_ops(program, kind: str, select: int):
    """Return ``(copy, description)``: ``program`` with one HWST128
    check op mutated.

    ``kind`` is ``"check_drop"`` (a check instruction is lost: ``tchk``
    becomes a nop, a fused checked access becomes its unchecked twin)
    or ``"check_dup"`` (a spurious check appears: a plain access becomes
    its checked twin, which will consult whatever — likely invalid —
    metadata sits in SRF[rs1]). ``select`` picks the site
    deterministically. The copy is a new ``Program`` that shares every
    other instruction; ``program`` itself is never changed. With no
    eligible site the fault lands nowhere (a masked outcome by
    construction): the result is ``(program, "")``.
    """
    instrs = program.instrs
    if kind == "check_drop":
        sites = [i for i, ins in enumerate(instrs)
                 if ins.op == "tchk" or ins.op in PLAIN_OF_CHECKED]
    elif kind == "check_dup":
        sites = [i for i, ins in enumerate(instrs)
                 if ins.op in CHECKED_OF_PLAIN]
    else:
        raise ValueError(f"unknown check mutation kind {kind!r}")
    if not sites:
        return program, ""
    index = sites[select % len(sites)]
    ins = instrs[index]
    pc = program.text_base + 4 * index
    old = ins.op
    if kind == "check_dup":
        mutated = Instr(CHECKED_OF_PLAIN[old], rd=ins.rd, rs1=ins.rs1,
                        rs2=ins.rs2, imm=ins.imm,
                        comment=f"faultinject: spurious check on {old}")
        note = f"added spurious check to {old} at {pc:#x}"
    elif old == "tchk":
        mutated = Instr("addi", rd=0, rs1=0, imm=0,
                        comment="faultinject: dropped tchk")
        note = f"dropped tchk at {pc:#x}"
    else:
        mutated = Instr(PLAIN_OF_CHECKED[old], rd=ins.rd, rs1=ins.rs1,
                        rs2=ins.rs2, imm=ins.imm,
                        comment=f"faultinject: unchecked {old}")
        note = f"dropped check of {old} at {pc:#x}"
    text = instrs[:index] + (mutated,) + instrs[index + 1:]
    return replace(program, instrs=text), note


def _stub_ret() -> Instr:
    return Instr("jalr", rd=ZERO, rs1=RA, imm=0)


def _const_stub(value: int) -> Tuple[Instr, ...]:
    return (*li_sequence(A0, value), _stub_ret())


def _ecall_stub(number: int, returns: bool = True) -> Tuple[Instr, ...]:
    out = li_sequence(A7, number) + [Instr("ecall")]
    if returns:
        out.append(_stub_ret())
    return tuple(out)


@lru_cache(maxsize=32)
def asm_stubs(config: HwstConfig,
              layout: MemoryLayout) -> Mapping[str, Tuple[Instr, ...]]:
    """Hand-written assembly functions linked into every program.

    Built once per ``(config, layout)`` and shared read-only by every
    program linked with them; none carries a relocation.
    """
    return MappingProxyType({
        "exit": _ecall_stub(SYS_EXIT, returns=False),
        "abort": _ecall_stub(SYS_ABORT, returns=False),
        "__ecall_write": _ecall_stub(SYS_WRITE),
        "__trap_spatial": _ecall_stub(SYS_TRAP_SPATIAL, returns=False),
        "__trap_temporal": _ecall_stub(SYS_TRAP_TEMPORAL, returns=False),
        "__trap_asan": _ecall_stub(SYS_TRAP_ASAN, returns=False),
        "__trap_canary": _ecall_stub(SYS_TRAP_CANARY, returns=False),
        "__heap_base": _const_stub(layout.heap_base),
        "__heap_end": _const_stub(layout.heap_top),
        "__lock_table_base": _const_stub(config.lock_base),
        "__lock_table_end": _const_stub(config.lock_limit),
        "__shadow_offset": _const_stub(config.shadow_offset),
        "__cycles": (Instr("csrrs", rd=A0, rs1=ZERO, imm=csrdef.CYCLE),
                     _stub_ret()),
    })


@lru_cache(maxsize=32)
def _start_code(config: HwstConfig) -> Tuple[Instr, ...]:
    """Entry stub: program the HWST128 CSRs, init the runtime, run main.

    Built once per ``config``; its two calls are relocation sites.
    """
    widths = config.widths
    packed = csrdef.pack_meta_widths(widths.base, widths.range,
                                     widths.lock, widths.key)
    out: List[Instr] = []
    for csr_addr, value in (
        (csrdef.HWST_SM_OFFSET, config.shadow_offset),
        (csrdef.HWST_META_WIDTHS, packed),
        (csrdef.HWST_LOCK_BASE, config.lock_base),
        (csrdef.HWST_LOCK_LIMIT, config.lock_limit),
    ):
        out += li_sequence(T0, value)
        out.append(Instr("csrrw", rd=ZERO, rs1=T0, imm=csr_addr))
    out.append(Instr("jal", rd=RA, sym="__rt_init", sym_kind="call"))
    out.append(Instr("jal", rd=RA, sym="main", sym_kind="call"))
    out += li_sequence(A7, SYS_EXIT)
    out.append(Instr("ecall"))
    return tuple(out)


def _sites(code: Iterable[Instr], offset: int = 0) -> List[int]:
    """Indices (plus ``offset``) of ``code``'s open relocations."""
    return [offset + index for index, ins in enumerate(code)
            if ins.sym is not None]


@dataclass(frozen=True)
class RuntimeImage:
    """A runtime library lowered once, to be linked into many programs.

    It keeps only what linking needs: the globals in layout order, the
    call :class:`~repro.ir.verify.Interface`, each function's RV64 body
    with its ``call``/``hi``/``lo`` relocations still open, the same
    bodies back to back as ``text`` (their placement order), and
    ``relocs``, the indices into ``text`` of the open relocations. The
    IR is dropped. :func:`build_program` places ``text`` in one piece,
    patches a copy of each instruction at ``relocs`` and never mutates
    the image, so one image serves every program built from it.
    """

    globals: Mapping[str, GlobalData]
    bodies: Mapping[str, Tuple[Instr, ...]]
    interface: Interface
    text: Tuple[Instr, ...]
    relocs: Tuple[int, ...]


def lower_runtime(module: Module, options: CodegenOptions,
                  observers=NULL_OBSERVERS) -> RuntimeImage:
    """Lower a verified runtime-library ``module`` into an image."""
    with observers.phase("lower"):
        bodies = {name: tuple(compile_function(fn, options))
                  for name, fn in module.functions.items()}
    text = tuple(ins for body in bodies.values() for ins in body)
    return RuntimeImage(globals=dict(module.globals), bodies=bodies,
                        interface=interface(module), text=text,
                        relocs=tuple(_sites(text)))


def _check_no_clash(module: Module, runtime: RuntimeImage) -> None:
    """A program may not define what the runtime library defines."""
    for kind, ours, theirs in (("function", module.functions,
                                runtime.bodies),
                               ("global", module.globals,
                                runtime.globals)):
        for name in theirs:
            if name in ours:
                raise LinkError(
                    f"{kind} {name!r} is defined by both the program "
                    f"and the runtime library")


def build_program(module: Module, runtime: RuntimeImage,
                  config: Optional[HwstConfig] = None,
                  layout: MemoryLayout = DEFAULT_LAYOUT,
                  options: Optional[CodegenOptions] = None,
                  meta: Optional[dict] = None,
                  observers=NULL_OBSERVERS):
    """Link ``module`` against ``runtime`` into a :class:`Program`.

    The runtime's functions and globals are placed after the module's.
    A module may not define a name the runtime defines (``LinkError``);
    it may override an assembly stub.

    Only recorded relocation sites are patched: the image's
    ``relocs``, ``_start``'s and those of the user functions lowered
    here, in text order, so the first bad one raises its ``LinkError``.
    ``_start`` and the stubs are built once per ``config`` and
    ``layout`` and carry no other site.

    ``observers`` (a :class:`repro.obs.observers.Observers`) splits the
    backend wall time into the per-function ``lower`` phase and the
    surrounding ``link`` work (layout, placement, relocation).
    """
    from repro.sim.program import Program, Segment

    config = config or HwstConfig()
    options = options or CodegenOptions()

    _check_no_clash(module, runtime)
    if "main" not in module.functions:
        raise LinkError("no main() in module")
    if "__rt_init" not in runtime.bodies:
        raise LinkError("no __rt_init() in the runtime library")

    # 1. Data segment layout.
    with observers.phase("link"):
        global_addr: Dict[str, int] = {}
        cursor = layout.data_base
        blob = bytearray()
        for data in (*module.globals.values(), *runtime.globals.values()):
            align = max(data.align, 8 if not data.is_string else 1)
            aligned = bits.align_up(cursor, align)
            blob += b"\x00" * (aligned - cursor)
            cursor = aligned
            global_addr[data.name] = cursor
            chunk = data.data.ljust(data.size, b"\x00")
            blob += chunk
            cursor += data.size
        if cursor > layout.heap_base:
            raise LinkError(
                f"data segment overflows into the heap "
                f"({cursor:#x} > {layout.heap_base:#x})")

    # 2. Compile the user's functions.
    with observers.phase("lower"):
        user = [(name, compile_function(fn, options))
                for name, fn in module.functions.items()]

    with observers.phase("link"):
        # 3. Place sequentially: _start, the stubs no definition
        # overrides, the user's functions, then the runtime's text in
        # one piece. Record the relocation sites in text order.
        text_base = layout.text_base
        start = _start_code(config)
        func_addr: Dict[str, int] = {"_start": text_base}
        instrs: List[Instr] = list(start)
        sites = _sites(start)
        for name, code in asm_stubs(config, layout).items():
            if name in module.functions or name in runtime.bodies:
                continue  # a runtime/user definition overrides the stub
            func_addr[name] = text_base + 4 * len(instrs)
            instrs += code
        for name, code in user:
            func_addr[name] = text_base + 4 * len(instrs)
            sites += _sites(code, len(instrs))
            instrs += code
        offset = len(instrs)
        for name, body in runtime.bodies.items():
            func_addr[name] = text_base + 4 * offset
            offset += len(body)
        sites += [len(instrs) + index for index in runtime.relocs]
        instrs += runtime.text
        text_end = text_base + 4 * len(instrs)
        if text_end > layout.data_base:
            raise LinkError(f"text overflows data base ({text_end:#x})")

        # 4. Patch relocations. A patched instruction is a new object:
        # the original may belong to a runtime image that every
        # program linked against it shares.
        for index in sites:
            ins = instrs[index]
            sym, kind = ins.sym, ins.sym_kind
            if kind == "call":
                target = func_addr.get(sym)
                if target is None:
                    raise LinkError(f"undefined function {sym!r}")
                imm = target - (text_base + 4 * index)
                if not bits.fits_signed(imm, 21):
                    raise LinkError(f"call to {sym!r} out of jal range")
            elif kind == "hi" or kind == "lo":
                addr = global_addr.get(sym)
                if addr is None:
                    raise LinkError(f"undefined global {sym!r}")
                hi = (addr + 0x800) >> 12
                imm = hi & 0xFFFFF if kind == "hi" else addr - (hi << 12)
            else:
                raise LinkError(
                    f"unresolved local label {sym!r} escaped codegen")
            # Positional: a keyword argument costs half as much again.
            instrs[index] = Instr(ins.op, ins.rd, ins.rs1, ins.rs2, imm,
                                  None, "", ins.comment)

    symbols = dict(func_addr)
    symbols.update(global_addr)
    program_meta = dict(module.meta)
    if meta:
        program_meta.update(meta)
    return Program(
        instrs=tuple(instrs),
        entry=func_addr["_start"],
        text_base=layout.text_base,
        segments=[Segment(addr=layout.data_base, data=bytes(blob),
                          name="data")],
        symbols=symbols,
        layout=layout,
        meta=program_meta,
    )
