"""IR definitions: a register-based, block-structured IR.

Design points (all enforced by :mod:`repro.ir.verify`):

* virtual registers (plain ints) are assigned exactly once and every
  use is inside the defining basic block — expression-tree discipline,
  which lets the -O0 code generator run a trivial per-block register
  allocator while still modelling the register pressure a real -O0
  compiler produces;
* control flow transfers only at block terminators (``Br``/``Jmp``/``Ret``);
* values crossing statements or blocks live in stack slots (locals),
  matching -O0 spill behaviour — this is what makes the shadow-memory
  metadata traffic of the safety schemes realistic.

Instrumentation-only opcodes (``Hw*``, ``Mpx*``, ``Avx*``) map 1:1 to
the HWST128 / comparator ISA extensions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.minic.types import CType


@dataclass
class IRInstr:
    """Base class. ``uses()``/``defs()`` drive liveness and verification."""

    # Source line for diagnostics. Deliberately *not* a dataclass field
    # (un-annotated class attribute): subclasses keep their positional
    # constructors, and irgen stamps the attribute after construction.
    line = 0

    def uses(self) -> Tuple[int, ...]:
        return ()

    def defs(self) -> Tuple[int, ...]:
        return ()

    def is_terminator(self) -> bool:
        return False


# -- values -----------------------------------------------------------------

@dataclass
class IConst(IRInstr):
    dst: int
    value: int

    def defs(self):
        return (self.dst,)


@dataclass
class BinOp(IRInstr):
    """ops: add sub mul sdiv udiv srem urem and or xor shl lshr ashr
    eq ne slt sle sgt sge ult ule ugt uge"""

    dst: int
    op: str
    a: int
    b: int
    # When nonzero, the operation is a C int-width op whose result must
    # be renormalised to `width` bytes with `signed`ness (addw-style).
    width: int = 0
    signed: bool = True

    def uses(self):
        return (self.a, self.b)

    def defs(self):
        return (self.dst,)


@dataclass
class UnOp(IRInstr):
    """ops: neg, not (bitwise), lognot (C !)"""

    dst: int
    op: str
    a: int
    width: int = 0
    signed: bool = True

    def uses(self):
        return (self.a,)

    def defs(self):
        return (self.dst,)


@dataclass
class Conv(IRInstr):
    """Renormalise ``a`` to a ``width``-byte integer (sign/zero extend)."""

    dst: int
    a: int
    width: int
    signed: bool

    def uses(self):
        return (self.a,)

    def defs(self):
        return (self.dst,)


# -- memory --------------------------------------------------------------

@dataclass
class Load(IRInstr):
    dst: int
    addr: int
    size: int
    signed: bool = True
    checked: bool = False       # lower to .chk form (HWST128 scheme)
    ptr_result: bool = False    # the loaded value is a pointer
    needs_check: bool = False   # address derives from user pointer data

    def uses(self):
        return (self.addr,)

    def defs(self):
        return (self.dst,)


@dataclass
class Store(IRInstr):
    addr: int
    src: int
    size: int
    checked: bool = False
    ptr_value: bool = False
    needs_check: bool = False

    def uses(self):
        return (self.addr, self.src)


@dataclass
class GetParam(IRInstr):
    """Read the N-th incoming argument register (entry block only)."""

    dst: int
    index: int

    def defs(self):
        return (self.dst,)


@dataclass
class AddrLocal(IRInstr):
    dst: int
    name: str

    def defs(self):
        return (self.dst,)


@dataclass
class AddrGlobal(IRInstr):
    dst: int
    name: str

    def defs(self):
        return (self.dst,)


# -- control -------------------------------------------------------------

@dataclass
class Call(IRInstr):
    dst: Optional[int]
    name: str
    args: List[int] = field(default_factory=list)
    # Pointer-typed argument positions / pointer-typed result (for the
    # schemes that must ferry metadata across calls).
    ptr_args: Tuple[int, ...] = ()
    ptr_result: bool = False

    def uses(self):
        return tuple(self.args)

    def defs(self):
        return (self.dst,) if self.dst is not None else ()


@dataclass
class TrapIf(IRInstr):
    """Raise a classified safety trap when ``cond`` is non-zero.

    Lowered to a compare-and-skip branch over a jump to the trap stub —
    the shape of the inline checks SBCETS emits at -O0."""

    cond: int
    kind: str  # "spatial" | "temporal" | "asan" | "canary"

    def uses(self):
        return (self.cond,)


@dataclass
class Ret(IRInstr):
    value: Optional[int] = None
    ptr_value: bool = False

    def uses(self):
        return (self.value,) if self.value is not None else ()

    def is_terminator(self):
        return True


@dataclass
class Br(IRInstr):
    cond: int
    then_label: str
    else_label: str

    def uses(self):
        return (self.cond,)

    def is_terminator(self):
        return True


@dataclass
class Jmp(IRInstr):
    label: str

    def is_terminator(self):
        return True


# -- HWST128 instrumentation ops -------------------------------------------

@dataclass
class HwBndrs(IRInstr):
    """Bind spatial metadata: SRF[ptr] <- compress(base, bound)."""

    ptr: int
    base: int
    bound: int

    def uses(self):
        return (self.ptr, self.base, self.bound)


@dataclass
class HwBndrt(IRInstr):
    """Bind temporal metadata: SRF[ptr] <- compress(key, lock)."""

    ptr: int
    key: int
    lock: int

    def uses(self):
        return (self.ptr, self.key, self.lock)


@dataclass
class HwTchk(IRInstr):
    """Keybuffer-assisted temporal check of SRF[ptr]."""

    ptr: int

    def uses(self):
        return (self.ptr,)


@dataclass
class HwSbd(IRInstr):
    """Store SRF[ptr] halves to the shadow of ``container + offset``."""

    container: int
    ptr: int
    offset: int = 0
    which: str = "both"   # "lower" | "upper" | "both"

    def uses(self):
        return (self.container, self.ptr)


@dataclass
class HwLbds(IRInstr):
    """Load SRF[ptr] halves from the shadow of ``container + offset``."""

    ptr: int
    container: int
    offset: int = 0
    which: str = "both"

    def uses(self):
        return (self.ptr, self.container)


@dataclass
class HwMetaGpr(IRInstr):
    """Decompressing metadata load into a GPR (lbas/lbnd/lkey/lloc)."""

    dst: int
    container: int
    field_name: str       # "base" | "bound" | "key" | "lock"
    offset: int = 0

    def uses(self):
        return (self.container,)

    def defs(self):
        return (self.dst,)


# -- MPX (BOGO) ops -----------------------------------------------------------

@dataclass
class MpxBndcl(IRInstr):
    ptr: int
    addr: int

    def uses(self):
        return (self.ptr, self.addr)


@dataclass
class MpxBndcu(IRInstr):
    ptr: int
    addr: int

    def uses(self):
        return (self.ptr, self.addr)


@dataclass
class MpxBndldx(IRInstr):
    ptr: int
    container: int
    offset: int = 0

    def uses(self):
        return (self.ptr, self.container)


@dataclass
class MpxBndstx(IRInstr):
    container: int
    ptr: int
    offset: int = 0

    def uses(self):
        return (self.container, self.ptr)


# -- AVX (WatchdogLite wide) ops --------------------------------------------

@dataclass
class AvxVld(IRInstr):
    ptr: int
    container: int
    offset: int = 0

    def uses(self):
        return (self.ptr, self.container)


@dataclass
class AvxVst(IRInstr):
    container: int
    ptr: int
    offset: int = 0

    def uses(self):
        return (self.container, self.ptr)


@dataclass
class AvxVchk(IRInstr):
    ptr: int
    addr: int

    def uses(self):
        return (self.ptr, self.addr)


# -- containers ------------------------------------------------------------

@dataclass
class BasicBlock:
    label: str
    instrs: List[IRInstr] = field(default_factory=list)

    def terminated(self) -> bool:
        return bool(self.instrs) and self.instrs[-1].is_terminator()


@dataclass
class LocalSlot:
    """One stack-frame object."""

    name: str
    ctype: CType
    size: int
    align: int
    is_object: bool = False      # array/struct or address-taken
    is_param: bool = False


class Function:
    """IR function: ordered blocks + frame layout + value metadata."""

    def __init__(self, name: str, ret_ctype: CType,
                 param_names: List[str]):
        self.name = name
        self.ret_ctype = ret_ctype
        self.param_names = list(param_names)
        self.blocks: List[BasicBlock] = []
        self.locals: Dict[str, LocalSlot] = {}
        self.vreg_types: List[Optional[CType]] = []
        # Pointer provenance per vreg — the SBCETS pointer analysis:
        #   ("local", name)   address rooted at local object `name`
        #   ("global", name)  address rooted at global `name`
        #   ("loaded", None)  pointer value loaded from memory
        #   ("call", fname)   pointer returned by a call
        #   ("param", name)   pointer argument (metadata on shadow stack)
        #   None              not a pointer / unknown
        self.prov: Dict[int, Optional[Tuple[str, Optional[str]]]] = {}
        # Sub-object windows per vreg: a pointer produced by member
        # lowering points into a struct field of this byte size. Used
        # only by the static analyzer (intra-object overflow linting);
        # codegen and instrumentation ignore it.
        self.subobj: Dict[int, int] = {}
        self.uses_frame_lock = False   # set by instrumentation

    def new_vreg(self, ctype: Optional[CType] = None) -> int:
        self.vreg_types.append(ctype)
        return len(self.vreg_types) - 1

    def block(self, label: str) -> BasicBlock:
        for blk in self.blocks:
            if blk.label == label:
                return blk
        raise KeyError(f"no block {label!r} in {self.name}")

    def add_block(self, label: str) -> BasicBlock:
        blk = BasicBlock(label)
        self.blocks.append(blk)
        return blk

    def add_local(self, name: str, ctype: CType, *,
                  is_object: bool = False, is_param: bool = False) -> LocalSlot:
        if name in self.locals:
            raise ValueError(f"duplicate local {name!r} in {self.name}")
        size = max(ctype.size, 1)
        slot = LocalSlot(name=name, ctype=ctype, size=size,
                         align=max(ctype.align, 1),
                         is_object=is_object, is_param=is_param)
        self.locals[name] = slot
        return slot

    def instr_count(self) -> int:
        return sum(len(blk.instrs) for blk in self.blocks)

    def __repr__(self):
        return f"<Function {self.name}: {len(self.blocks)} blocks>"


@dataclass
class GlobalData:
    """One linked data object (global variable or string literal)."""

    name: str
    size: int
    align: int
    data: bytes = b""            # initialiser (may be shorter than size)
    ctype: Optional[CType] = None
    is_string: bool = False


class Module:
    """A compiled translation unit (pre-link)."""

    def __init__(self, name: str = "module"):
        self.name = name
        self.functions: Dict[str, Function] = {}
        self.globals: Dict[str, GlobalData] = {}
        self.meta: Dict[str, object] = {}

    def add_function(self, func: Function):
        if func.name in self.functions:
            raise ValueError(f"duplicate function {func.name!r}")
        self.functions[func.name] = func

    def add_global(self, data: GlobalData):
        if data.name in self.globals:
            raise ValueError(f"duplicate global {data.name!r}")
        self.globals[data.name] = data

    def dump(self) -> str:
        lines = []
        for func in self.functions.values():
            lines.append(f"func {func.name}:")
            for blk in func.blocks:
                lines.append(f"  {blk.label}:")
                for ins in blk.instrs:
                    lines.append(f"    {ins}")
        return "\n".join(lines)
