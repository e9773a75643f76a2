"""Instruction container and spec table for the RV64 subset + HWST128.

Every mnemonic the simulator understands is described by an
:class:`InstrSpec` row carrying its encoding format and behavioural
classification (reads/writes, memory access width, branch-ness, which
extension it belongs to). The ISS, the timing model, the encoder and the
assembler all key off this single table.

Extensions
----------
``base``
    RV64I plus the M multiply/divide extension and Zicsr.
``hwst``
    The HWST128 instructions from the paper: metadata bind (``bndrs``,
    ``bndrt``), the temporal check (``tchk``), shadow-memory metadata
    stores/loads (``sbdl``, ``sbdu``, ``lbdls``, ``lbdus``), decompressing
    GPR loads for wrapper code (``lbas``, ``lbnd``, ``lkey``, ``lloc``)
    and the fused-check memory accesses (``ld.chk`` …).
``mpx``
    The MPX-style bound instructions used by the BOGO comparator model.
``avx``
    The 256-bit vector metadata instructions used by the WatchdogLite
    comparator model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

# Encoding formats (RISC-V standard nomenclature).
FMT_R = "R"
FMT_I = "I"
FMT_S = "S"
FMT_B = "B"
FMT_U = "U"
FMT_J = "J"
FMT_SYS = "SYS"   # ecall/ebreak/fence: no operands
FMT_CSR = "CSR"   # csrrw/csrrs/csrrc: rd, csr(imm), rs1


@dataclass(frozen=True)
class InstrSpec:
    """Static description of one mnemonic."""

    mnemonic: str
    fmt: str
    opcode: int
    funct3: int = 0
    funct7: int = 0
    ext: str = "base"
    reads_rs1: bool = False
    reads_rs2: bool = False
    writes_rd: bool = False
    is_load: bool = False
    is_store: bool = False
    is_branch: bool = False
    is_jump: bool = False
    mem_bytes: int = 0
    mem_signed: bool = True
    # HWST semantics hooks consumed by the ISS:
    checked: bool = False        # fused spatial check against SRF[rs1]
    shadow_access: bool = False  # targets shadow memory via the SMAC
    srf_write: bool = False      # writes the shadow register file
    mul_like: bool = False
    div_like: bool = False


@dataclass(slots=True)
class Instr:
    """One instruction instance.

    ``imm`` holds the numeric immediate; when codegen emits a reference to
    a not-yet-placed symbol it stores the name in ``sym`` and the linker
    patches ``imm`` later. ``comment`` is assembly-listing chrome only.

    Slotted but not frozen (docs/parallel.md says why): nothing may
    change an ``Instr`` once ``compile_function`` has returned it.
    """

    op: str
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0
    sym: Optional[str] = None
    sym_kind: str = ""   # "", "call", "branch", "hi", "lo", "abs"
    comment: str = ""

    def spec(self) -> InstrSpec:
        return SPEC_TABLE[self.op]

    def __str__(self) -> str:  # assembly-ish rendering for listings
        from repro.isa.registers import reg_name

        s = SPEC_TABLE.get(self.op)
        if s is None:
            return f"<unknown {self.op}>"
        target = self.sym if self.sym is not None else self.imm
        if self.op == "tchk":
            body = f"tchk {reg_name(self.rs1)}"
        elif s.fmt == FMT_R:
            body = f"{self.op} {reg_name(self.rd)}, {reg_name(self.rs1)}, {reg_name(self.rs2)}"
        elif s.fmt == FMT_I and s.is_load:
            body = f"{self.op} {reg_name(self.rd)}, {target}({reg_name(self.rs1)})"
        elif s.fmt == FMT_I:
            body = f"{self.op} {reg_name(self.rd)}, {reg_name(self.rs1)}, {target}"
        elif s.fmt == FMT_S:
            body = f"{self.op} {reg_name(self.rs2)}, {target}({reg_name(self.rs1)})"
        elif s.fmt == FMT_B:
            body = f"{self.op} {reg_name(self.rs1)}, {reg_name(self.rs2)}, {target}"
        elif s.fmt == FMT_U:
            body = f"{self.op} {reg_name(self.rd)}, {target}"
        elif s.fmt == FMT_J:
            body = f"{self.op} {reg_name(self.rd)}, {target}"
        elif s.fmt == FMT_CSR:
            body = f"{self.op} {reg_name(self.rd)}, {self.imm:#x}, {reg_name(self.rs1)}"
        else:
            body = self.op
        if self.comment:
            return f"{body}  # {self.comment}"
        return body


def _r(mnemonic, funct3, funct7, *, ext="base", opcode=0x33, **kw) -> InstrSpec:
    fields = dict(reads_rs1=True, reads_rs2=True, writes_rd=True)
    fields.update(kw)
    return InstrSpec(mnemonic, FMT_R, opcode, funct3, funct7, ext=ext, **fields)


def _i(mnemonic, funct3, *, opcode=0x13, ext="base", **kw) -> InstrSpec:
    return InstrSpec(mnemonic, FMT_I, opcode, funct3, ext=ext,
                     reads_rs1=True, writes_rd=True, **kw)


def _load(mnemonic, funct3, nbytes, signed, *, opcode=0x03, ext="base", **kw) -> InstrSpec:
    return InstrSpec(mnemonic, FMT_I, opcode, funct3, ext=ext,
                     reads_rs1=True, writes_rd=True, is_load=True,
                     mem_bytes=nbytes, mem_signed=signed, **kw)


def _store(mnemonic, funct3, nbytes, *, opcode=0x23, ext="base", **kw) -> InstrSpec:
    return InstrSpec(mnemonic, FMT_S, opcode, funct3, ext=ext,
                     reads_rs1=True, reads_rs2=True, is_store=True,
                     mem_bytes=nbytes, **kw)


def _branch(mnemonic, funct3) -> InstrSpec:
    return InstrSpec(mnemonic, FMT_B, 0x63, funct3,
                     reads_rs1=True, reads_rs2=True, is_branch=True)


_SPECS = [
    # --- RV64I register-register ---------------------------------------
    _r("add", 0x0, 0x00), _r("sub", 0x0, 0x20),
    _r("sll", 0x1, 0x00), _r("slt", 0x2, 0x00), _r("sltu", 0x3, 0x00),
    _r("xor", 0x4, 0x00), _r("srl", 0x5, 0x00), _r("sra", 0x5, 0x20),
    _r("or", 0x6, 0x00), _r("and", 0x7, 0x00),
    _r("addw", 0x0, 0x00, opcode=0x3B), _r("subw", 0x0, 0x20, opcode=0x3B),
    _r("sllw", 0x1, 0x00, opcode=0x3B), _r("srlw", 0x5, 0x00, opcode=0x3B),
    _r("sraw", 0x5, 0x20, opcode=0x3B),
    # --- M extension -----------------------------------------------------
    _r("mul", 0x0, 0x01, mul_like=True), _r("mulh", 0x1, 0x01, mul_like=True),
    _r("mulhsu", 0x2, 0x01, mul_like=True), _r("mulhu", 0x3, 0x01, mul_like=True),
    _r("div", 0x4, 0x01, div_like=True), _r("divu", 0x5, 0x01, div_like=True),
    _r("rem", 0x6, 0x01, div_like=True), _r("remu", 0x7, 0x01, div_like=True),
    _r("mulw", 0x0, 0x01, opcode=0x3B, mul_like=True),
    _r("divw", 0x4, 0x01, opcode=0x3B, div_like=True),
    _r("divuw", 0x5, 0x01, opcode=0x3B, div_like=True),
    _r("remw", 0x6, 0x01, opcode=0x3B, div_like=True),
    _r("remuw", 0x7, 0x01, opcode=0x3B, div_like=True),
    # --- register-immediate ---------------------------------------------
    _i("addi", 0x0), _i("slti", 0x2), _i("sltiu", 0x3),
    _i("xori", 0x4), _i("ori", 0x6), _i("andi", 0x7),
    _i("slli", 0x1, funct7=0x00), _i("srli", 0x5, funct7=0x00),
    _i("srai", 0x5, funct7=0x20),
    _i("addiw", 0x0, opcode=0x1B),
    _i("slliw", 0x1, opcode=0x1B, funct7=0x00),
    _i("srliw", 0x5, opcode=0x1B, funct7=0x00),
    _i("sraiw", 0x5, opcode=0x1B, funct7=0x20),
    # --- loads / stores ---------------------------------------------------
    _load("lb", 0x0, 1, True), _load("lh", 0x1, 2, True),
    _load("lw", 0x2, 4, True), _load("ld", 0x3, 8, True),
    _load("lbu", 0x4, 1, False), _load("lhu", 0x5, 2, False),
    _load("lwu", 0x6, 4, False),
    _store("sb", 0x0, 1), _store("sh", 0x1, 2),
    _store("sw", 0x2, 4), _store("sd", 0x3, 8),
    # --- control flow ------------------------------------------------------
    _branch("beq", 0x0), _branch("bne", 0x1), _branch("blt", 0x4),
    _branch("bge", 0x5), _branch("bltu", 0x6), _branch("bgeu", 0x7),
    InstrSpec("jal", FMT_J, 0x6F, writes_rd=True, is_jump=True),
    InstrSpec("jalr", FMT_I, 0x67, 0x0, reads_rs1=True, writes_rd=True,
              is_jump=True),
    InstrSpec("lui", FMT_U, 0x37, writes_rd=True),
    InstrSpec("auipc", FMT_U, 0x17, writes_rd=True),
    # --- system -------------------------------------------------------------
    InstrSpec("ecall", FMT_SYS, 0x73, 0x0),
    InstrSpec("ebreak", FMT_SYS, 0x73, 0x0, funct7=0x01),
    InstrSpec("fence", FMT_SYS, 0x0F, 0x0),
    InstrSpec("csrrw", FMT_CSR, 0x73, 0x1, reads_rs1=True, writes_rd=True),
    InstrSpec("csrrs", FMT_CSR, 0x73, 0x2, reads_rs1=True, writes_rd=True),
    InstrSpec("csrrc", FMT_CSR, 0x73, 0x3, reads_rs1=True, writes_rd=True),
    # =====================================================================
    # HWST128 extension (custom-0 / custom-1 opcode space)
    # =====================================================================
    # Metadata bind: compress and write the SRF entry of rd.
    _r("bndrs", 0x0, 0x00, ext="hwst", opcode=0x0B, srf_write=True),
    _r("bndrt", 0x1, 0x00, ext="hwst", opcode=0x0B, srf_write=True),
    # Temporal check of SRF[rs1] against the key stored at its lock.
    InstrSpec("tchk", FMT_I, 0x0B, 0x2, ext="hwst", reads_rs1=True),
    # Shadow metadata store: SRF[rs2] halves -> LMSM(rs1 + imm).
    _store("sbdl", 0x0, 8, opcode=0x2B, ext="hwst", shadow_access=True),
    _store("sbdu", 0x1, 8, opcode=0x2B, ext="hwst", shadow_access=True),
    # Shadow metadata load into SRF (no decompression, memcpy-friendly).
    _load("lbdls", 0x2, 8, False, opcode=0x2B, ext="hwst",
          shadow_access=True, srf_write=True),
    _load("lbdus", 0x3, 8, False, opcode=0x2B, ext="hwst",
          shadow_access=True, srf_write=True),
    # Shadow metadata load + decompress into a GPR (wrapper/library path).
    _load("lbas", 0x4, 8, False, opcode=0x2B, ext="hwst", shadow_access=True),
    _load("lbnd", 0x5, 8, False, opcode=0x2B, ext="hwst", shadow_access=True),
    _load("lkey", 0x6, 8, False, opcode=0x2B, ext="hwst", shadow_access=True),
    _load("lloc", 0x7, 8, False, opcode=0x2B, ext="hwst", shadow_access=True),
    # Fused-check loads/stores: address computed from rs1 is checked
    # against the decompressed spatial metadata in SRF[rs1] by the SCU.
    _load("lb.chk", 0x0, 1, True, opcode=0x5B, ext="hwst", checked=True),
    _load("lh.chk", 0x1, 2, True, opcode=0x5B, ext="hwst", checked=True),
    _load("lw.chk", 0x2, 4, True, opcode=0x5B, ext="hwst", checked=True),
    _load("ld.chk", 0x3, 8, True, opcode=0x5B, ext="hwst", checked=True),
    _load("lbu.chk", 0x4, 1, False, opcode=0x5B, ext="hwst", checked=True),
    _load("lhu.chk", 0x5, 2, False, opcode=0x5B, ext="hwst", checked=True),
    _load("lwu.chk", 0x6, 4, False, opcode=0x5B, ext="hwst", checked=True),
    _store("sb.chk", 0x0, 1, opcode=0x7B, ext="hwst", checked=True),
    _store("sh.chk", 0x1, 2, opcode=0x7B, ext="hwst", checked=True),
    _store("sw.chk", 0x2, 4, opcode=0x7B, ext="hwst", checked=True),
    _store("sd.chk", 0x3, 8, opcode=0x7B, ext="hwst", checked=True),
    # =====================================================================
    # Comparator modelling extensions (BOGO / WatchdogLite)
    # =====================================================================
    # MPX-style: bound registers are modelled as the SRF spatial half.
    _r("bndcl", 0x0, 0x00, ext="mpx", opcode=0x6B, writes_rd=False),
    _r("bndcu", 0x1, 0x00, ext="mpx", opcode=0x6B, writes_rd=False),
    _load("bndldx", 0x2, 8, False, opcode=0x6B, ext="mpx",
          shadow_access=True, srf_write=True),
    _store("bndstx", 0x3, 8, opcode=0x6B, ext="mpx", shadow_access=True),
    # AVX-style 256-bit metadata moves/checks for the WDL wide mode.
    _load("vld256", 0x6, 32, False, opcode=0x0B, ext="avx",
          shadow_access=True, srf_write=True),
    _store("vst256", 0x7, 32, opcode=0x0B, ext="avx", shadow_access=True),
    _r("vchk", 0x3, 0x02, ext="avx", opcode=0x0B, writes_rd=False),
]

SPEC_TABLE: Dict[str, InstrSpec] = {s.mnemonic: s for s in _SPECS}

if len(SPEC_TABLE) != len(_SPECS):  # pragma: no cover - table sanity
    raise RuntimeError("duplicate mnemonic in SPEC_TABLE")

LOAD_MNEMONICS = frozenset(m for m, s in SPEC_TABLE.items() if s.is_load)
STORE_MNEMONICS = frozenset(m for m, s in SPEC_TABLE.items() if s.is_store)
BRANCH_MNEMONICS = frozenset(m for m, s in SPEC_TABLE.items() if s.is_branch)
HWST_MNEMONICS = frozenset(m for m, s in SPEC_TABLE.items() if s.ext == "hwst")


def spec_for(mnemonic: str) -> InstrSpec:
    """Look up the spec row for ``mnemonic`` (raises KeyError if unknown)."""
    return SPEC_TABLE[mnemonic]


def is_hwst_mnemonic(mnemonic: str) -> bool:
    """True for instructions added by the HWST128 extension."""
    return mnemonic in HWST_MNEMONICS


# Handy factory helpers used throughout codegen and tests -----------------

def nop() -> Instr:
    return Instr("addi", rd=0, rs1=0, imm=0)


def mv(rd: int, rs1: int) -> Instr:
    """Register move; in hardware this also propagates SRF[rs1] -> SRF[rd]."""
    return Instr("addi", rd=rd, rs1=rs1, imm=0)


def li_sequence(rd: int, value: int):
    """Materialise a 64-bit constant into ``rd``.

    Returns a list of instructions: ``lui+addiw`` fast path for 32-bit
    values, shift/or chains otherwise (what -O0 compilers emit).
    """
    from repro import bits

    value = bits.to_s64(bits.to_u64(value))
    out = []
    if -2048 <= value < 2048:
        out.append(Instr("addi", rd=rd, rs1=0, imm=value))
        return out
    if -(1 << 31) <= value < (1 << 31):
        hi = (value + 0x800) >> 12
        lo = value - (hi << 12)
        out.append(Instr("lui", rd=rd, imm=hi & 0xFFFFF))
        if lo:
            out.append(Instr("addiw", rd=rd, rs1=rd, imm=lo))
        else:
            # lui sign-extends bit 31; normalise through addiw anyway.
            out.append(Instr("addiw", rd=rd, rs1=rd, imm=0))
        return out
    # Wide constant: build the upper 32 bits then shift+or the lower part
    # in 11-bit chunks, the standard li expansion shape.
    upper = value >> 32
    lower = value & 0xFFFF_FFFF
    out.extend(li_sequence(rd, upper))
    out.append(Instr("slli", rd=rd, rs1=rd, imm=11))
    out.append(Instr("addi", rd=rd, rs1=rd, imm=(lower >> 21) & 0x7FF))
    out.append(Instr("slli", rd=rd, rs1=rd, imm=11))
    out.append(Instr("addi", rd=rd, rs1=rd, imm=(lower >> 10) & 0x7FF))
    out.append(Instr("slli", rd=rd, rs1=rd, imm=10))
    out.append(Instr("addi", rd=rd, rs1=rd, imm=lower & 0x3FF))
    return out
