"""Instruction semantics, once: one source template per mnemonic.

:data:`ROWS` holds one :class:`Row` for each of the 97 mnemonics in
``SPEC_TABLE``. A row states what the instruction does as Python source
over named operands, the ``sim.*`` census it bills and what the timing
model reads of it. Both engines compile their code from it:

* :func:`reference` gives the reference engine's handler
  (``Machine._dispatch``): an operand prologue that reads ``ins``, the
  body, the census and ``m._retire(...)``;
* :func:`translated` gives the fast engine's per-instruction function:
  operands bound as default arguments, the body, then only the dynamic
  charges (D-cache outcome, keybuffer miss, second access, taken-branch
  redirect) — the census and every static cost go to the block's fold;
* :func:`fused` composes the ``tchk`` row with a checked access into one
  translated function that still retires as two instructions.

The fast engine translates every row but ``ecall`` and ``ebreak``: those
two terminators can trap after the block's fold has run, so it runs
their reference handler, which retires (and bills) itself.

A body is a block of statements. It reads the names below, and nothing
else of the machine:

* the instruction fields ``rd``, ``rs1``, ``rs2``, ``imm``, ``pc`` and
  the row's own ``decode`` operands (expressions over ``ins`` and
  ``pc``): decoded per call by the reference handler, evaluated once at
  translate time by the fast engine;
* ``regs``, ``srf``, ``srf_wide``, ``kb``, ``budget`` and the counters
  ``ct_<name>``: state ``reset()`` mutates in place (or config), bound
  once per machine;
* ``memory``, ``csrs`` and ``comp`` (the compressor): state ``reset()``
  — or a ``codec_corrupt`` fault, mid-run — replaces, so the reference
  handler reads them through ``m`` on every call;
* ``m``, the machine, for the trap helpers, the CSR file, the output
  stream and the lock-window snoop;
* in ``fast:`` lines only, ``tlb`` and ``stlb`` (the memory's software
  TLB page maps, see :mod:`repro.sim.memory`) and the precompiled
  ``struct`` helpers ``unpack1``/``2``/``4``/``8`` and
  ``pack1``/``2``/``4``/``8`` (little-endian unsigned words), bound at
  translate time like the compressor's masks.

Some lines differ per variant. A line starting ``ref:`` is only in the
reference handler: tracer hooks (the fast engine never runs with a
tracer), metadata decoding through ``comp``, which a codec fault may
have replaced, and the ``Memory`` calls of the scalar accesses. A line
starting ``fast:`` is only in the translated function, and has two
uses: the same decoding with the compressor's masks bound inline, so
the fast path stays call-free, and the TLB path of every scalar
memory access — a ``struct`` unpack or pack on a page the TLB lists,
falling back to the reference's ``load_uint``/``store_uint`` when it
does not (:func:`_load`, :func:`_store`). The reference keeps the
``Memory`` calls on purpose, as it keeps the compressor decode: engine
lockstep then compares the TLB path against the checked path on every
observable (shadow bytes, pages allocated, faults, text-store
invalidation). A line starting ``timed:`` is only in a translated
function compiled for a timing model.

Each variant is compiled on first use and cached per process; its
source is registered in :mod:`linecache`, so tracebacks through it show
template lines.
"""

from __future__ import annotations

import functools
import keyword
import linecache
import re
import struct
from typing import Callable, Dict, NamedTuple, Tuple

from repro import bits
from repro.core.config import ALIGN_SHIFT
from repro.errors import (
    EcallAbort,
    EcallExit,
    IllegalInstruction,
    ShadowMemoryExhausted,
)
from repro.isa import csr as csrdef
from repro.isa.instructions import SPEC_TABLE
from repro.sim.memory import PAGE_MASK, PAGE_SHIFT, PAGE_SIZE

__all__ = ["Row", "ROWS", "SRF_INVALID", "reference", "translated",
           "fused", "SYS_WRITE", "SYS_EXIT", "SYS_ABORT", "SYS_TRAP_SPATIAL",
           "SYS_TRAP_TEMPORAL", "SYS_TRAP_ASAN", "SYS_TRAP_CANARY"]

# SRF entry: (lower, upper, spatial_valid, temporal_valid)
SRF_INVALID = (0, 0, False, False)

M64 = bits.MASK64


class Row(NamedTuple):
    """One mnemonic's semantics."""

    body: str                 # statements over the names above (may be empty)
    census: Tuple[str, ...]   # sim.* counters billed per retire (may repeat)
    #: What the timing model reads (a ``_CHARGES`` key): nothing, the
    #: ``addr`` of a "load" or "store", that ``addr`` and the bound-table
    #: walk's second word ``addr + 8`` of a "walk load" or "walk store",
    #: the ``taken`` outcome and ``target`` of a "branch", the ``target``
    #: of a "jump", the keybuffer-miss lock ``mem2`` of a "tchk", or the
    #: in-check key load from ``lock`` of a "vchk".
    charge: str = ""
    decode: Tuple[Tuple[str, str], ...] = ()  # row-specific operands
    rd_only: bool = False     # the body only writes x[rd] (a nop for x0)
    traps: bool = False       # the body may raise
    early_census: bool = False  # census billed before the body can trap


# ----------------------------------------------------------------------
# Helpers the bodies call (rare ops only: the hot paths are call-free)
# ----------------------------------------------------------------------

def sext32(x: int) -> int:
    """The low 32 bits of ``x`` sign-extended, as a u64."""
    return bits.to_u64(bits.sext(x, 32))


def div64(a: int, b: int) -> int:
    """RISC-V ``div`` of two u64 register values. It truncates toward
    zero: Python's ``//`` floors, and float division loses precision
    past 2**53, so the quotient is taken in the positive quadrant."""
    a, b = bits.to_s64(a), bits.to_s64(b)
    if b == 0:
        return M64
    if a == -(1 << 63) and b == -1:
        return bits.to_u64(a)
    q = abs(a) // abs(b)
    return bits.to_u64(-q if (a < 0) != (b < 0) else q)


def rem64(a: int, b: int) -> int:
    """RISC-V ``rem`` of two u64 register values (sign of the dividend)."""
    a, b = bits.to_s64(a), bits.to_s64(b)
    if b == 0:
        return bits.to_u64(a)
    if a == -(1 << 63) and b == -1:
        return 0
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        q = -q
    return bits.to_u64(a - q * b)


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------
#
# ALU results over the u64 operands ``a`` and ``b``. ``(x ^ SIGN) - SIGN``
# is sign extension; signed compares drop the common ``- SIGN`` term.

_ALU_EXPR = {
    "add": "(a + b) & 0xFFFFFFFFFFFFFFFF",
    "sub": "(a - b) & 0xFFFFFFFFFFFFFFFF",
    "sll": "(a << (b & 63)) & 0xFFFFFFFFFFFFFFFF",
    "slt": "1 if (a ^ 0x8000000000000000) < (b ^ 0x8000000000000000)"
           " else 0",
    "sltu": "1 if a < b else 0",
    "xor": "a ^ b",
    "srl": "a >> (b & 63)",
    "sra": "(((a ^ 0x8000000000000000) - 0x8000000000000000)"
           " >> (b & 63)) & 0xFFFFFFFFFFFFFFFF",
    "or": "a | b",
    "and": "a & b",
    "addw": "((((a + b) & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000)"
            " & 0xFFFFFFFFFFFFFFFF",
    "subw": "((((a - b) & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000)"
            " & 0xFFFFFFFFFFFFFFFF",
    "sllw": "((((a << (b & 31)) & 0xFFFFFFFF) ^ 0x80000000)"
            " - 0x80000000) & 0xFFFFFFFFFFFFFFFF",
    "srlw": "((((a & 0xFFFFFFFF) >> (b & 31)) ^ 0x80000000)"
            " - 0x80000000) & 0xFFFFFFFFFFFFFFFF",
    "sraw": "((((a & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000)"
            " >> (b & 31)) & 0xFFFFFFFFFFFFFFFF",
    "mul": "(a * b) & 0xFFFFFFFFFFFFFFFF",
    "mulh": "((((a ^ 0x8000000000000000) - 0x8000000000000000)"
            " * ((b ^ 0x8000000000000000) - 0x8000000000000000)) >> 64)"
            " & 0xFFFFFFFFFFFFFFFF",
    "mulhsu": "((((a ^ 0x8000000000000000) - 0x8000000000000000) * b)"
              " >> 64) & 0xFFFFFFFFFFFFFFFF",
    "mulhu": "(a * b) >> 64",
    "div": "div64(a, b)",
    "divu": "0xFFFFFFFFFFFFFFFF if b == 0 else a // b",
    "rem": "rem64(a, b)",
    "remu": "a if b == 0 else a % b",
    "mulw": "((((a * b) & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000)"
            " & 0xFFFFFFFFFFFFFFFF",
    "divw": "sext32(div64(sext32(a), sext32(b)))",
    "divuw": "0xFFFFFFFFFFFFFFFF if (b & 0xFFFFFFFF) == 0"
             " else sext32((a & 0xFFFFFFFF) // (b & 0xFFFFFFFF))",
    "remw": "sext32(rem64(sext32(a), sext32(b)))",
    "remuw": "sext32(a) if (b & 0xFFFFFFFF) == 0"
             " else sext32((a & 0xFFFFFFFF) % (b & 0xFFFFFFFF))",
}

#: Immediate forms compute their register form's result, with ``b`` the
#: immediate as a u64.
_IMMEDIATE_OF = {
    "addi": "add", "slti": "slt", "sltiu": "sltu", "xori": "xor",
    "ori": "or", "andi": "and", "slli": "sll", "srli": "srl",
    "srai": "sra", "addiw": "addw", "slliw": "sllw", "srliw": "srlw",
    "sraiw": "sraw",
}

# SRF propagation (the machine module docstring states the rules).
_PROPAGATE_R = """
e1 = srf[rs1]
w1 = srf_wide[rs1]
if e1[2] or e1[3] or w1 is not None:
    srf[rd] = e1
    srf_wide[rd] = w1
else:
    e2 = srf[rs2]
    w2 = srf_wide[rs2]
    if e2[2] or e2[3] or w2 is not None:
        srf[rd] = e2
        srf_wide[rd] = w2
    else:
        srf[rd] = INVALID
        srf_wide[rd] = None
"""
_PROPAGATE_I = """
srf[rd] = srf[rs1]
srf_wide[rd] = srf_wide[rs1]
"""
_WRITE_RD = """
regs[rd] = {value}
srf[rd] = INVALID
srf_wide[rd] = None
"""
_WRITE_RD_UNLESS_X0 = """
if rd:
    regs[rd] = {value}
    srf[rd] = INVALID
    srf_wide[rd] = None
"""

_BRANCH_COND = {
    "beq": "regs[rs1] == regs[rs2]",
    "bne": "regs[rs1] != regs[rs2]",
    "blt": "(regs[rs1] ^ 0x8000000000000000)"
           " < (regs[rs2] ^ 0x8000000000000000)",
    "bge": "(regs[rs1] ^ 0x8000000000000000)"
           " >= (regs[rs2] ^ 0x8000000000000000)",
    "bltu": "regs[rs1] < regs[rs2]",
    "bgeu": "regs[rs1] >= regs[rs2]",
}


def _indent(source: str) -> str:
    return "".join("    " + line for line in source.splitlines(True))


# Scalar memory accesses: every one a row makes is one of these two
# fragments. The translated function reads or writes a page the
# software TLB lists (``tlb`` for user pages, ``stlb`` for shadow pages,
# see repro.sim.memory) with a precompiled ``struct`` unpack or pack,
# and an ``stlb`` access adds its size to the shadow bytes touched. An
# access no map serves (its page not listed, or straddled) takes
# ``load_uint``/``store_uint``, the reference's path, which checks,
# counts, allocates and watches. ``addr`` and ``value`` name locals.
def _load(value: str, addr: str, nbytes: int, shadow: bool = False) -> str:
    """``value`` = the unsigned ``nbytes``-byte word at ``addr``, through
    ``stlb`` when ``shadow`` (a shadow-region access), else ``tlb``."""
    return _tlb_access(
        addr, nbytes, shadow,
        f"{value} = unpack{nbytes}(page, {addr} & {PAGE_MASK:#x})[0]",
        f"{value} = memory.load_uint({addr}, {nbytes})")


def _store(addr: str, nbytes: int, value: str, shadow: bool = False) -> str:
    """Store the low ``nbytes`` bytes of ``value`` at ``addr``."""
    mask = (1 << (8 * nbytes)) - 1
    return _tlb_access(
        addr, nbytes, shadow,
        f"pack{nbytes}(page, {addr} & {PAGE_MASK:#x}, {value} & {mask:#x})",
        f"memory.store_uint({addr}, {nbytes}, {value})")


def _tlb_access(addr: str, nbytes: int, shadow: bool, hit: str,
                checked: str) -> str:
    """``fast:`` lines that run ``hit`` when the map lists the page of
    ``addr`` and the access stays inside it, else ``checked``; and the
    ``ref:`` line, ``checked``."""
    in_page = f" and {addr} & {PAGE_MASK:#x} <= {PAGE_SIZE - nbytes}" \
        if nbytes > 1 else ""
    count = (f"fast:     memory.shadow_bytes_touched += {nbytes}\n"
             if shadow else "")
    table = "stlb" if shadow else "tlb"
    return (f"fast: page = {table}.get({addr} >> {PAGE_SHIFT})\n"
            f"fast: if page is not None{in_page}:\n"
            f"{count}"
            f"fast:     {hit}\n"
            f"fast: else:\n"
            f"fast:     {checked}\n"
            f"ref: {checked}\n")


# Metadata decoding: through the compressor ``comp`` in the reference
# (a codec fault may replace it mid-run), with its masks inline in the
# translated function. ``lower`` -> ``base``/``bound``, ``upper`` ->
# ``key``/``lock``.
_SPATIAL_DECODE = """
ref: base, bound = comp.decompress_spatial(lower)
fast: base = (lower & base_mask) << ALIGN_SHIFT
fast: bound = base + (((lower >> base_w) & range_mask) << ALIGN_SHIFT)
"""
_TEMPORAL_DECODE = """
ref: key, lock = comp.decompress_temporal(upper)
fast: lock = upper & lock_mask
fast: key = (upper >> lock_w) & key_mask
fast: if lock:
fast:     lock = lock_base + ((lock - 1) << 3)
"""

# The window SRF[rs1] bounds ``addr`` to; an unbound pointer fails.
_SPATIAL_BOUNDS = """
e = srf[rs1]
if not e[2]:
    m._spatial_fail(addr, 0, 0)
lower = e[0]
""" + _SPATIAL_DECODE

# SCU: the fused bounds check of ``addr`` against SRF[rs1].
_SPATIAL_CHECK = _SPATIAL_BOUNDS + """
if addr < base or addr + {nbytes} > bound:
    m._spatial_fail(addr, base, bound)
"""

# SMAC: shadow address of the container (Eq. 1) + the budget guard.
_SMAC = """
container = (regs[rs1] + imm) & 0xFFFFFFFFFFFFFFFF
addr = (container << 2) + csrs[SM_OFFSET]{off}
if budget and memory.shadow_bytes_touched > budget:
    raise ShadowMemoryExhausted(memory.shadow_bytes_touched, budget)
"""
_TRACE_SHADOW = """
ref: tracer = m._tracer_shadow
ref: if tracer is not None:
ref:     tracer.emit("shadow", {kind}, ts=m._now(),
ref:                 args={{"container": container, "half": "{half}"}})
"""

# TCU: keybuffer-assisted key/lock compare of SRF[rs1]; ``mem2`` is the
# lock on a keybuffer miss (the key load timing charges), else None.
_TCHK = """
e = srf[rs1]
if not e[3]:
    m._temporal_fail(0, 0, 0)
upper = e[1]
""" + _TEMPORAL_DECODE + """
if lock == 0:
    m._temporal_fail(key, 0, 0)
cached = kb.lookup(lock)
if cached is not None:
    if cached != key:
        m._temporal_fail(key, cached, lock)
    mem2 = None
else:
""" + _indent(_load("stored", "lock", 8, shadow=True)) + """
    evicted = kb.fill(lock, stored)
    ref: tracer = m._tracer_kb
    ref: if tracer is not None:
    ref:     now = m._now()
    ref:     tracer.emit("kb", "fill", ts=now, args={"lock": lock})
    ref:     if evicted is not None:
    ref:         tracer.emit("kb", "evict", ts=now, args={"lock": evicted})
    if stored != key:
        m._temporal_fail(key, stored, lock)
    mem2 = lock
"""

_LINK = ("link", "(pc + 4) & 0xFFFFFFFFFFFFFFFF")
_TARGET = ("target", "(pc + ins.imm) & 0xFFFFFFFFFFFFFFFF")
_HI20 = "((((ins.imm << 12) & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000)"


def _alu(op: str) -> Row:
    if op in _IMMEDIATE_OF:
        body = f"a = regs[rs1]\nregs[rd] = {_ALU_EXPR[_IMMEDIATE_OF[op]]}\n"
        return Row(body + _PROPAGATE_I, (), rd_only=True,
                   decode=(("b", "ins.imm & 0xFFFFFFFFFFFFFFFF"),))
    body = f"a = regs[rs1]\nb = regs[rs2]\nregs[rd] = {_ALU_EXPR[op]}\n"
    return Row(body + _PROPAGATE_R, (), rd_only=True)


def _access(spec) -> Row:
    nbytes = spec.mem_bytes
    body = "addr = (regs[rs1] + imm) & 0xFFFFFFFFFFFFFFFF\n"
    if spec.checked:
        body += _SPATIAL_CHECK.format(nbytes=nbytes)
    census = ("loads",) if spec.is_load else ("stores",)
    if spec.checked:
        census += ("hwst_ops",)
    if spec.is_load:
        body += _load("value", "addr", nbytes)
        if spec.mem_signed and nbytes < 8:
            sign = 1 << (8 * nbytes - 1)
            body += f"value = ((value ^ {sign:#x}) - {sign:#x})" \
                " & 0xFFFFFFFFFFFFFFFF\n"
        body += _WRITE_RD_UNLESS_X0.format(value="value")
        return Row(body, census, "load", traps=True)
    body += "value = regs[rs2]\n" + _store("addr", nbytes, "value")
    if nbytes == 8:
        # a pointer-sized store into the lock table: keybuffer snoop
        body += "if m._lock_lo <= addr < m._lock_hi:\n" \
            "    m._snoop_lock_store(addr, value)\n"
    return Row(body, census, "store", traps=True)


def _shadow(upper: bool, store: bool) -> Row:
    half = "upper" if upper else "lower"
    body = _SMAC.format(off=" + 8" if upper else "")
    if store:
        # sbdl/sbdu: an SRF half of rs2 -> shadow memory (no lock snoop)
        body += "e = srf[rs2]\n" + (
            "value = e[1] if e[3] else 0\n" if upper
            else "value = e[0] if e[2] else 0\n")
        body += _store("addr", 8, "value", shadow=True)
        kind = '"store" if value else "clear"'
    else:
        # lbdls/lbdus: shadow memory -> an SRF half of rd, undecoded
        body += _load("value", "addr", 8, shadow=True) + "e = srf[rd]\n" + (
            "srf[rd] = (e[0], value, e[2], True)\n" if upper
            else "srf[rd] = (value, e[1], True, e[3])\n")
        body += "srf_wide[rd] = None\n"
        kind = '"load"'
    body += _TRACE_SHADOW.format(kind=kind, half=half)
    census = ("stores" if store else "loads", "hwst_ops", "shadow_ops")
    return Row(body, census, "store" if store else "load", traps=True)


def _meta_load(field: str) -> Row:
    """lbas/lbnd/lkey/lloc: one field of a shadow half, decoded, -> x[rd]."""
    if field in ("key", "lock"):
        body = _SMAC.format(off=" + 8") \
            + _load("upper", "addr", 8, shadow=True) + _TEMPORAL_DECODE
    else:
        body = _SMAC.format(off="") \
            + _load("lower", "addr", 8, shadow=True) + _SPATIAL_DECODE
    body += _WRITE_RD_UNLESS_X0.format(value=f"{field} & 0xFFFFFFFFFFFFFFFF")
    return Row(body, ("loads", "hwst_ops", "shadow_ops"), "load", traps=True)


def _bndc(test: str) -> Row:
    """bndcl/bndcu: one side of SRF[rs1]'s window against x[rs2]."""
    body = "addr = regs[rs2]\n" + _SPATIAL_BOUNDS \
        + f"if {test}:\n    m._spatial_fail(addr, base, bound)\n"
    return Row(body, (), traps=True)


# WDL wide check: spatial and temporal in one vector compare of the
# (base, bound, key, lock) fields; the key load is inside the check.
_VCHK = """
wide = srf_wide[rs1]
addr = regs[rs2]
if wide is None:
    m._spatial_fail(addr, 0, 0)
base, bound, key, lock = wide
if addr < base or addr >= bound:
    m._spatial_fail(addr, base, bound)
if lock:
""" + _indent(_load("stored", "lock", 8, shadow=True)) + """
    if stored != key:
        m._temporal_fail(key, stored, lock)
"""

# CSR ops read the old value (m._csr_read knows cycle/instret) and write
# through m._csr_write (which moves the keybuffer's lock window).
_CSR_WRITE = {
    "csrrw": "m._csr_write(imm, regs[rs1])\n",
    "csrrs": "if rs1:\n    m._csr_write(imm, old | regs[rs1])\n",
    "csrrc": "if rs1:\n    m._csr_write(imm, old & ~regs[rs1])\n",
}

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

# Only SYS_WRITE returns (and retires): a trapping ecall is never
# counted, so neither the profiler nor the timing model may see it.
_ECALL = """
number = regs[17]
if number == SYS_EXIT:
    raise EcallExit((regs[10] ^ 0x8000000000000000) - 0x8000000000000000)
if number == SYS_WRITE:
    length = regs[12]
    m.output += memory.load_bytes(regs[11], length)
    regs[10] = length
elif number == SYS_ABORT:
    raise EcallAbort("program abort")
elif number == SYS_TRAP_SPATIAL:
    m._spatial_fail(regs[10], 0, 0)
elif number == SYS_TRAP_TEMPORAL:
    m._temporal_fail(regs[10], 0, 0)
elif number == SYS_TRAP_ASAN:
    raise EcallAbort("asan-report")
elif number == SYS_TRAP_CANARY:
    raise EcallAbort("stack-smashing-detected")
else:
    raise IllegalInstruction(m.pc, f"unknown ecall {number}")
"""


def _build_rows() -> Dict[str, Row]:
    rows: Dict[str, Row] = {}
    for op, spec in SPEC_TABLE.items():
        if op in _ALU_EXPR or op in _IMMEDIATE_OF:
            rows[op] = _alu(op)
        elif spec.checked or (spec.is_load and spec.opcode == 0x03) \
                or (spec.is_store and spec.opcode == 0x23):
            rows[op] = _access(spec)
        elif spec.is_branch:
            rows[op] = Row(f"taken = {_BRANCH_COND[op]}\n", ("branches",),
                           "branch", decode=(_TARGET,))
    rows["jal"] = Row(_WRITE_RD.format(value="link"), ("calls",), "jump",
                      decode=(_LINK, _TARGET), rd_only=True)
    rows["jalr"] = Row(
        "target = (regs[rs1] + imm) & 0xFFFFFFFFFFFFFFFE\n"
        + _WRITE_RD_UNLESS_X0.format(value="link"),
        (), "jump", decode=(_LINK,))
    rows["lui"] = Row(_WRITE_RD.format(value="value"), (), rd_only=True,
                      decode=(("value", _HI20 + " & 0xFFFFFFFFFFFFFFFF"),))
    rows["auipc"] = Row(
        _WRITE_RD.format(value="value"), (), rd_only=True,
        decode=(("value", f"(pc + {_HI20}) & 0xFFFFFFFFFFFFFFFF"),))
    # HWST128: binds compress into the SRF (the compressor keeps the
    # Fig. 2 census, and raises on a field that does not fit).
    rows["bndrs"] = Row(
        "packed = comp.compress_spatial(regs[rs1], regs[rs2])\n"
        "e = srf[rd]\nsrf[rd] = (packed, e[1], True, e[3])\n"
        "srf_wide[rd] = None\n", ("hwst_ops",), traps=True)
    rows["bndrt"] = Row(
        "packed = comp.compress_temporal(regs[rs1], regs[rs2])\n"
        "e = srf[rd]\nsrf[rd] = (e[0], packed, e[2], True)\n",
        ("hwst_ops",), traps=True)
    # A tchk counts before it can trap (a trapping tchk is still one).
    rows["tchk"] = Row(_TCHK, ("tchk", "hwst_ops"), "tchk", traps=True,
                       early_census=True)
    rows["sbdl"] = _shadow(upper=False, store=True)
    rows["sbdu"] = _shadow(upper=True, store=True)
    rows["lbdls"] = _shadow(upper=False, store=False)
    rows["lbdus"] = _shadow(upper=True, store=False)
    # Decompressing metadata loads (the wrapper/library path).
    for op, field in (("lbas", "base"), ("lbnd", "bound"),
                      ("lkey", "key"), ("lloc", "lock")):
        rows[op] = _meta_load(field)
    # MPX comparator model: the bound-table walk accesses two words.
    rows["bndcl"] = _bndc("addr < base")
    rows["bndcu"] = _bndc("addr >= bound")
    smac = _SMAC.format(off="")
    rows["bndldx"] = Row(
        smac + _load("value", "addr", 8, shadow=True)
        + "e = srf[rd]\nsrf[rd] = (value, e[1], True, e[3])\n",
        ("loads", "loads", "shadow_ops"), "walk load", traps=True)
    rows["bndstx"] = Row(
        smac + "e = srf[rs2]\nvalue = e[0] if e[2] else 0\n"
        + _store("addr", 8, "value", shadow=True),
        ("stores", "stores", "shadow_ops"), "walk store", traps=True)
    # AVX comparator model: four metadata words per 256-bit access.
    rows["vld256"] = Row(
        smac + _load("w0", "addr", 8, shadow=True)
        + "".join(f"word = addr + {8 * i}\n"
                  + _load(f"w{i}", "word", 8, shadow=True)
                  for i in (1, 2, 3))
        + "srf_wide[rd] = (w0, w1, w2, w3)\nsrf[rd] = INVALID\n",
        ("loads", "shadow_ops"), "load", traps=True)
    rows["vst256"] = Row(
        smac + "fields = srf_wide[rs2] or (0, 0, 0, 0)\n"
        "for i in range(4):\n"
        + _indent("word = addr + 8 * i\nvalue = fields[i]\n"
                  + _store("word", 8, "value", shadow=True)),
        ("stores", "shadow_ops"), "store", traps=True)
    rows["vchk"] = Row(_VCHK, (), "vchk", traps=True)
    rows["fence"] = Row("", ())
    for op, write in _CSR_WRITE.items():
        rows[op] = Row("old = m._csr_read(imm)\n" + write
                       + _WRITE_RD_UNLESS_X0.format(value="old"), ())
    rows["ecall"] = Row(_ECALL, (), traps=True)
    rows["ebreak"] = Row('raise EcallAbort("ebreak")\n', (), traps=True)
    return rows


#: mnemonic -> Row, for every mnemonic of ``SPEC_TABLE``.
ROWS: Dict[str, Row] = _build_rows()


# ----------------------------------------------------------------------
# Compiling the variants
# ----------------------------------------------------------------------

#: What each charge kind ends with: ``(reference, translated)``. The
#: reference hands ``m._retire`` the address or outcome the timing
#: model reads; a translated function charges only what the fold cannot
#: (lines marked ``timed:`` exist only with a timing model attached).
_CHARGES = {
    "": ("m._retire(ins)", ""),
    "load": ("m._retire(ins, addr)", """
timed: if not dcache.access(addr, False):
timed:     pl.dcache_miss()
"""),
    "store": ("m._retire(ins, addr, True)", """
timed: if not dcache.access(addr, True):
timed:     pl.dcache_miss()
"""),
    "branch": ("""
if taken:
    ct_taken.value += 1
m._retire(ins, None, False, taken)
return target if taken else None
""", """
if taken:
    ct_taken.value += 1
    timed: pl.cycles += penalty
    timed: bk_redirect.value += penalty
    return target
"""),
    "jump": ("m._retire(ins, None, False, True)\nreturn target",
             "return target"),
    "tchk": ("m._retire(ins, None, False, False, mem2 is None, mem2)", """
timed: if mem2 is not None:
timed:     pl.key_load(mem2)
"""),
    "walk load": ("m._retire(ins, addr, False, False, None, addr + 8)", """
timed: if not dcache.access(addr, False):
timed:     pl.dcache_miss()
timed: pl.second_access(addr + 8)
"""),
    "walk store": ("m._retire(ins, addr, True, False, None, addr + 8)", """
timed: if not dcache.access(addr, True):
timed:     pl.dcache_miss()
timed: pl.second_access(addr + 8)
"""),
    "vchk": ("m._retire(ins, None, False, False, None, lock or None)", """
timed: if lock:
timed:     pl.second_access(lock)
"""),
}

_FIELDS = {"rd": "ins.rd", "rs1": "ins.rs1", "rs2": "ins.rs2",
           "imm": "ins.imm"}
#: State bound once per machine in both variants.
_BOUND = {"regs": "m.regs", "srf": "m.srf", "srf_wide": "m.srf_wide",
          "kb": "m.keybuffer", "budget": "m.config.shadow_budget"}
#: State the reference handler reads through ``m`` on every call.
_PER_CALL = {"memory": "m.memory", "csrs": "m.csrs",
             "comp": "m.compressor"}
#: The little-endian unsigned word of each access size, precompiled.
_WORD = {n: struct.Struct("<" + code)
         for n, code in ((1, "B"), (2, "H"), (4, "I"), (8, "Q"))}

#: Translate-time constants of the fast variant's inline decoding, its
#: TLB accesses and its dynamic timing charges.
_FAST_ONLY = {
    "base_mask": "m.compressor._base_mask",
    "base_w": "m.compressor._widths.base",
    "range_mask": "m.compressor._range_mask",
    "lock_mask": "m.compressor._lock_mask",
    "lock_w": "m.compressor._widths.lock",
    "key_mask": "m.compressor._key_mask",
    "lock_base": "m.config.lock_base",
    "tlb": "m.memory.tlb", "stlb": "m.memory.stlb",
    **{f"unpack{n}": f"WORD[{n}].unpack_from" for n in _WORD},
    **{f"pack{n}": f"WORD[{n}].pack_into" for n in _WORD},
    "pl": "m.timing", "dcache": "m.timing.dcache",
    "penalty": "m.timing.redirect[0]",
    "bk_redirect": "m.timing.redirect[1]",
}

_NAMESPACE = {
    "INVALID": SRF_INVALID, "ALIGN_SHIFT": ALIGN_SHIFT, "WORD": _WORD,
    "SM_OFFSET": csrdef.HWST_SM_OFFSET,
    "ShadowMemoryExhausted": ShadowMemoryExhausted, "EcallAbort": EcallAbort,
    "EcallExit": EcallExit, "IllegalInstruction": IllegalInstruction,
    "sext32": sext32, "div64": div64, "rem64": rem64,
    **{name: value for name, value in globals().items()
       if name.startswith("SYS_")},
}


_MARKERS = ("ref: ", "fast: ", "timed: ")


def _variant(source: str, *markers: str) -> str:
    """``source`` with the lines marked for ``markers`` unmarked and the
    lines marked for any other variant dropped."""
    keep = tuple(marker + ": " for marker in markers)
    lines = []
    for line in source.splitlines():
        text = line.lstrip()
        marker = text[:text.find(" ") + 1]
        if marker in keep:
            lines.append(line[:len(line) - len(text)] + text[len(marker):])
        elif text and marker not in _MARKERS:
            lines.append(line)
    return "".join(line + "\n" for line in lines)


def _census(row: Row) -> str:
    return "".join(f"ct_{name}.value += 1\n" for name in row.census)


_IDENTIFIER = re.compile(r"(?<![.\w])[A-Za-z_]\w*")
_STRING = re.compile(r'"[^"]*"')


def _names(source: str, decode: Dict[str, str]) -> Dict[str, str]:
    """The machine and operand names ``source`` uses, in a fixed order,
    each with the expression (over ``m``, ``ins`` and ``pc``) it binds
    to."""
    reads = set(_IDENTIFIER.findall(_STRING.sub("", source)))
    vocabulary = {"m": "m", "pc": "pc", **_FIELDS, **decode, **_BOUND,
                  **_PER_CALL, **_FAST_ONLY}
    names = {name: expr for name, expr in vocabulary.items()
             if name in reads}
    names.update((name, f"m._ct[{name[3:]!r}]") for name in sorted(reads)
                 if name.startswith("ct_"))
    return names


def _compile(name: str, params: str, function: str, binds: Dict[str, str],
             statements: str) -> Callable:
    """Compile ``make(params)``, which returns ``function``: parameters
    ``binds`` (name -> default), body ``statements``."""
    args = ", ".join(f"{arg}={default}" if default else arg
                     for arg, default in binds.items())
    source = (f"def make({params}):\n"
              f"    def {function}({args}):\n"
              + _indent(_indent(statements or "pass\n"))
              + f"    return {function}\n")
    filename = f"<semantics:{name}>"
    linecache.cache[filename] = (len(source), None,
                                 source.splitlines(True), filename)
    namespace = dict(_NAMESPACE)
    exec(compile(source, filename, "exec"), namespace)
    return namespace["make"]


def _function_name(op: str) -> str:
    name = op.replace(".", "_")
    return name + "_" if keyword.iskeyword(name) else name


@functools.lru_cache(maxsize=None)
def reference(op: str) -> Callable:
    """``make(m)`` -> the reference handler of ``op`` on machine ``m``:
    ``handler(ins)`` returns the next pc of a control transfer (None to
    fall through)."""
    row = ROWS[op]
    body = _variant(row.body, "ref")
    tail = _variant(_CHARGES[row.charge][0])
    if row.early_census:
        body = _census(row) + body
    else:
        tail = _census(row) + tail
    decode = dict(row.decode)
    names = _names(body + tail, decode)
    binds = {"ins": ""}
    binds.update((name, expr) for name, expr in names.items()
                 if name == "m" or name in _BOUND or name.startswith("ct_"))
    operands = {name: expr for name, expr in names.items()
                if name in _FIELDS or name in decode or name in _PER_CALL}
    # The decode expressions read ``pc``: it comes first.
    uses_pc = "pc" in _names(" ".join(operands.values()), {})
    prologue = "pc = m.pc\n" if uses_pc else ""
    # An rd-only body runs behind ``if rd:`` and decodes its operands
    # there; what the tail reads (jal's target) is decoded ahead.
    ahead = _names(tail, decode) if row.rd_only else operands
    behind = ""
    for name, expr in operands.items():
        if name == "rd" or name in ahead:
            prologue += f"{name} = {expr}\n"
        else:
            behind += f"{name} = {expr}\n"
    if row.rd_only:
        body = "if rd:\n" + _indent(behind + body)
    return _compile(op, "m", _function_name(op), binds,
                    prologue + body + tail)


def _statements(row: Row, timed: bool) -> str:
    """A translated function's statements: the body and the dynamic
    charges (``tchk`` also bills its census, ahead of its trap point)."""
    census = _census(row) if row.early_census else ""
    markers = ("fast", "timed") if timed else ("fast",)
    return census + _variant(row.body + _CHARGES[row.charge][1], *markers)


@functools.lru_cache(maxsize=None)
def translated(op: str, timed: bool) -> Callable:
    """``make(m, ins, pc)`` -> the fast engine's function for ``ins`` at
    ``pc`` on machine ``m``: no arguments, returns the next pc of a
    control transfer (None to fall through). ``timed`` adds the dynamic
    timing charges."""
    row = ROWS[op]
    statements = _statements(row, timed)
    if row.traps:
        statements = "m.pc = pc\n" + statements
    mode = "timed" if timed else "plain"
    return _compile(f"{op}:{mode}", "m, ins, pc", _function_name(op),
                    _names(statements, dict(row.decode)), statements)


@functools.lru_cache(maxsize=None)
def fused(op: str, timed: bool) -> Callable:
    """``make(m, tchk, pc, ins)`` -> one function for ``tchk`` at ``pc``
    followed by the checked access ``ins``. It retires as two
    instructions: ``m.pc`` steps to the access between them, so a trap
    in either half reports its own pc."""
    check = _statements(ROWS["tchk"], timed)
    # The tchk's fields, renamed apart from the access's.
    fields = [name for name in _names(check, {}) if name in _FIELDS]
    for name in fields:
        check = re.sub(rf"(?<![\w.]){name}(?!\w)", f"{name}_t", check)
    statements = "m.pc = pc\n" + check + "m.pc = pc + 4\n" \
        + _statements(ROWS[op], timed)
    decode = dict(ROWS[op].decode)
    decode.update((f"{name}_t", f"tchk.{name}") for name in fields)
    mode = "timed" if timed else "plain"
    return _compile(f"tchk+{op}:{mode}", "m, tchk, pc, ins",
                    "tchk_" + _function_name(op),
                    _names(statements, decode), statements)
