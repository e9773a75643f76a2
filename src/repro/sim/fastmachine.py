"""Translation-cached fast engine for the RV64 + HWST128 simulator.

:class:`FastMachine` is the QEMU-style dynamic-binary-translation
answer to the classic fetch/decode/execute loop in
:class:`~repro.sim.machine.Machine` (which stays untouched as the
golden reference engine): the second time execution enters a pc, the
basic block starting there is decoded **once** into a list of Python
functions with every static operand (pc, rd, rs1, rs2, imm, branch
targets, link values) pre-bound as a default argument, and the block is
cached by entry pc. Later visits replay the functions with no
per-instruction fetch, dispatch-dict lookup, operand decoding, or budget
bookkeeping — instret advances in one bulk add per block.

It is the default engine (:data:`repro.sim.DEFAULT_ENGINE`). Design
points (docs/fast-iss.md covers the full contract):

* **Cold entries.** The first entry at a pc runs its basic block on
  the reference ``_dispatch_loop``: decoding code that runs once costs
  more than interpreting it, and most of a short program (a Juliet
  case) runs once. Blocks and reference-loop stretches interleave
  exactly, as they already do for budget tails and wrapped ops.
* **Superblocks.** Traces extend across unconditional direct jumps
  (``jal``): a call or a ``j`` does not end the trace, so a hot
  caller+callee sequence becomes one block (bounded by
  :data:`MAX_TRACE`, and a trace never revisits a pc — loops translate
  once, not unrolled). A jump target that already heads a block, or was
  already copied into another trace, ends the trace instead: a callee
  is translated at most twice, not once per call site. Conditional
  branches, ``jalr``, ``ecall`` and ``ebreak`` terminate a trace; their
  successors chain through the pc-indexed block cache.
* **Fusion.** The instrumentation idiom ``tchk rs1`` followed by a
  fused-check access (``ld.chk``/``sd.chk`` …) is translated into a
  *single* function — one Python call performs the temporal check, the
  spatial check and the memory access, while still retiring as two
  instructions with two distinct trap pcs.
* **Exactness.** Every architecturally visible observable is
  bit-identical with the reference engine: registers, memory, SRF,
  stdout, instret (including at trap boundaries — a mid-block trap
  credits exactly the instructions that completed before it), trap
  class/pc/detail, ``sim.*`` counters, keybuffer and shadow statistics,
  and — when a timing model is attached — cycles and the full
  ``cyc_*``/dcache breakdown. The timing model is read at *translate
  time*: each instruction's static cost comes from the pipeline's
  per-mnemonic cost rows (the table ``retire()`` reads), plus the
  intra-block interlocks, and is summed into one per-block **fold**
  applied once per replay; a mid-block trap recomputes and applies the
  fold of the completed prefix. Only the D-cache outcome, the tchk
  keybuffer miss and taken-branch redirects stay in the
  per-instruction functions, charged through the same pipeline
  methods and rows. Reference-wrapped ops self-account through the
  real ``retire()`` and therefore occupy a block alone in timed mode,
  reading interlock state the fold materialises at block boundaries.
* **Compact, GC-quiet cache.** Operands are default arguments, not
  closure cells, so a translated instruction costs about two
  GC-tracked objects (the function and its defaults tuple); no
  per-position cost records outlive translation; and the cache is
  dropped when ``run()`` returns, so the function → machine references
  never form a cycle that only a full collection could reclaim.
* **Invalidation.** While blocks execute, a store watch covers the text
  window; any store overlapping a translated block drops that block
  from the cache. (Instruction *semantics* cannot change — both
  engines fetch from the decoded ``Program.instrs`` tuple, not from
  memory bytes — so this is cache hygiene plus honest statistics, and
  the contract a future fetch-from-memory engine will need.)
* **Fallbacks.** Per-instruction observers — a fault-injection hook,
  a trace ring buffer, an event tracer, a cycle profiler (whose
  ``record`` must fire exactly once per retired pc) — cold entries and
  the budget tail (fewer remaining instructions than the next block
  retires) all run on the reference ``_dispatch_loop``, which is also what
  ``step()`` uses: semantics cannot drift because there is only one
  single-instruction path, and observed runs pay zero translation
  overhead on top of what the reference engine costs.
"""

from __future__ import annotations

import functools
from itertools import islice
from typing import Callable, Dict, List, Optional

from repro import bits
from repro.core.config import ALIGN_SHIFT
from repro.errors import (
    IllegalInstruction, MemoryFault, ReproError, ShadowMemoryExhausted,
)
from repro.isa import csr as csrdef
from repro.isa.instructions import Instr, SPEC_TABLE
from repro.sim.machine import Machine, SRF_INVALID
from repro.sim.program import Program

__all__ = ["FastMachine", "MAX_TRACE"]

#: Upper bound on instructions per translated trace. Superblock
#: extension across ``jal`` stops here so a call-heavy region cannot
#: translate into one giant block (which would defeat the budget tail
#: and bloat retranslation after an invalidation).
MAX_TRACE = 64

_ALU_R_OPS = frozenset((
    "add", "sub", "sll", "slt", "sltu", "xor", "srl", "sra", "or", "and",
    "addw", "subw", "sllw", "srlw", "sraw",
    "mul", "mulh", "mulhsu", "mulhu", "div", "divu", "rem", "remu",
    "mulw", "divw", "divuw", "remw", "remuw",
))
_ALU_I_OPS = frozenset((
    "addi", "slti", "sltiu", "xori", "ori", "andi",
    "slli", "srli", "srai", "addiw", "slliw", "srliw", "sraiw",
))
_BRANCH_OPS = frozenset(("beq", "bne", "blt", "bge", "bltu", "bgeu"))
#: Instructions that end a basic block on the reference loop.
_BLOCK_ENDS = _BRANCH_OPS | {"jal", "jalr", "ecall", "ebreak"}

_M64 = bits.MASK64

# Translation modes, decided per run from the attached timing model.
# (Per-instruction observers never reach translated code at all: they
# run on the reference _dispatch_loop, see _exec_loop.)
_PLAIN = "plain"   # no timing model
_TIMED = "timed"   # timing model attached

#: ``fast_stats()`` keys, published as ``sim.fast.*`` gauges.
FAST_STATS = ("blocks", "translations", "translated_instrs", "fused_pairs",
              "invalidated_blocks", "block_runs")


# ----------------------------------------------------------------------
# Specialised function makers (exec-compiled once per mnemonic)
# ----------------------------------------------------------------------
#
# The generic reference path costs three calls per ALU instruction
# (handler -> _alu_fn lambda -> bits helper). These templates inline the
# operation *expression* into the function body, so the hot ops are one
# call with only arithmetic inside. Semantics are forced equal by
# construction: every expression below is the reference _alu_table
# lambda with bits.to_u64/to_s64/sext unfolded (``(x ^ SIGN) - SIGN`` is
# sign extension; signed compares drop the common ``- SIGN`` term).
# mulh*/div*/rem* call the reference lambda ``fn`` instead: rare, and
# their latency dwarfs a function call anyway.

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
    "mulw": "((((a * b) & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000)"
            " & 0xFFFFFFFFFFFFFFFF",
    # immediate variants share the R expressions (b = u64 immediate):
    "addi": "(a + b) & 0xFFFFFFFFFFFFFFFF",
    "slti": "1 if (a ^ 0x8000000000000000) < (b ^ 0x8000000000000000)"
            " else 0",
    "sltiu": "1 if a < b else 0",
    "xori": "a ^ b",
    "ori": "a | b",
    "andi": "a & b",
    "slli": "(a << (b & 63)) & 0xFFFFFFFFFFFFFFFF",
    "srli": "a >> (b & 63)",
    "srai": "(((a ^ 0x8000000000000000) - 0x8000000000000000)"
            " >> (b & 63)) & 0xFFFFFFFFFFFFFFFF",
    "addiw": "((((a + b) & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000)"
             " & 0xFFFFFFFFFFFFFFFF",
    "slliw": "((((a << (b & 31)) & 0xFFFFFFFF) ^ 0x80000000)"
             " - 0x80000000) & 0xFFFFFFFFFFFFFFFF",
    "srliw": "((((a & 0xFFFFFFFF) >> (b & 31)) ^ 0x80000000)"
             " - 0x80000000) & 0xFFFFFFFFFFFFFFFF",
    "sraiw": "((((a & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000)"
             " >> (b & 31)) & 0xFFFFFFFFFFFFFFFF",
}

_TPL_R = """\
def _mk(regs, srf, srf_wide, rd, rs1, rs2, fn):
    def run(regs=regs, srf=srf, srf_wide=srf_wide, rd=rd, rs1=rs1,
            rs2=rs2, fn=fn, INVALID=INVALID):
        a = regs[rs1]; b = regs[rs2]
        regs[rd] = {expr}
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
    return run
"""

_TPL_I = """\
def _mk(regs, srf, srf_wide, rd, rs1, b, fn):
    def run(regs=regs, srf=srf, srf_wide=srf_wide, rd=rd, rs1=rs1, b=b):
        a = regs[rs1]
        regs[rd] = {expr}
        srf[rd] = srf[rs1]
        srf_wide[rd] = srf_wide[rs1]
    return run
"""

# Branch conditions over u64 register values; signed compares flip the
# sign bit instead of calling bits.to_s64.
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

# ct_branches, the base cost and the interlock are static (the fold);
# only the taken-path redirect (the pipeline's ``redirect`` charge) is
# dynamic (timed mode).
_TPL_BRANCH = """\
def _mk(regs, rs1, rs2, taken_pc, ct_taken, pl, bk_redirect, penalty):
    def run(regs=regs, rs1=rs1, rs2=rs2, taken_pc=taken_pc,
            ct_taken=ct_taken{timed_args}):
        if {cond}:
            ct_taken.value += 1{timed_body}
            return taken_pc
        return None
    return run
"""
_BRANCH_TIMED_ARGS = ", pl=pl, bk_redirect=bk_redirect, penalty=penalty"
_BRANCH_TIMED_BODY = """
            pl.cycles += penalty
            bk_redirect.value += penalty"""


def _compile_maker(name: str, source: str):
    ns = {"INVALID": SRF_INVALID}
    exec(compile(source, f"<fastmachine:{name}>", "exec"), ns)
    return ns["_mk"]


# Makers compile on first use (a process that never translates, or
# never meets a mnemonic, pays nothing at import).

@functools.lru_cache(maxsize=None)
def _alu_maker(op: str):
    """One (semantics-only) ALU maker per mnemonic: timed blocks use the
    same functions — every cycle an ALU op costs is static and lives in
    the block's timing fold, not in the per-instruction function."""
    tpl = _TPL_I if op in _ALU_I_OPS else _TPL_R
    return _compile_maker(op, tpl.format(expr=_ALU_EXPR.get(op, "fn(a, b)")))


@functools.lru_cache(maxsize=None)
def _branch_maker(op: str, timed: bool):
    return _compile_maker(op, _TPL_BRANCH.format(
        cond=_BRANCH_COND[op],
        timed_args=_BRANCH_TIMED_ARGS if timed else "",
        timed_body=_BRANCH_TIMED_BODY if timed else ""))

_SPECIALISED_OPS = frozenset(
    ("tchk", "lui", "auipc", "bndrs", "bndrt",
     "sbdl", "sbdu", "lbdls", "lbdus", "jal", "jalr"),
) | _ALU_R_OPS | _ALU_I_OPS | _BRANCH_OPS


def _is_specialised(op: str, spec) -> bool:
    """True when the op has a dedicated emitter (its full static cost
    is known at translate time); False for reference-wrapped ops."""
    if op in _SPECIALISED_OPS:
        return True
    if spec is None:
        return False
    if spec.is_load and spec.opcode == 0x03:
        return True
    if spec.is_store and spec.opcode == 0x23:
        return True
    return spec.checked and (spec.is_load or spec.is_store)


class _Block:
    """One translated trace: straight-line functions + terminator."""

    __slots__ = ("body", "term", "n", "pos", "end_pc", "lo", "hi", "fold")

    def __init__(self, body, term, n, pos, end_pc, lo, hi, fold):
        self.body = body      # tuple of 0-arg functions (returns ignored)
        self.term = term      # 0-arg function -> next pc | None, or None
        self.n = n            # instructions this block retires
        self.pos = pos        # pc -> instructions completed before it,
        #                       in retire order
        self.end_pc = end_pc  # successor pc when term falls through
        self.lo = lo          # lowest pc in the trace (invalidation)
        self.hi = hi          # one past the highest pc in the trace
        self.fold = fold      # applies the block's static costs, or None


class FastMachine(Machine):
    """Machine with a translation-cached superblock execution engine.

    Drop-in replacement for :class:`Machine` — construction arguments,
    ``run()``/``step()`` signatures and :class:`RunResult` contents are
    identical; only the execution core differs.
    """

    MAX_TRACE = MAX_TRACE
    #: Entry count at which a block is translated; the entries before
    #: run its basic block on the reference loop. Translating code that
    #: runs once costs more than interpreting it (most of a Juliet
    #: case, a fifth to two fifths of a Fig. 4 workload).
    TRANSLATE_ON_VISIT = 2

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._blocks: Dict[int, _Block] = {}
        # Per run: entries of not-yet-translated pcs, and jump targets
        # already copied into some superblock.
        self._visits: Dict[int, int] = {}
        self._inlined: set = set()
        self._mode = _PLAIN
        self._stats = dict.fromkeys(FAST_STATS, 0)
        scope = self._sim.scope("fast")
        self._gauges = tuple(scope.gauge(name) for name in FAST_STATS)

    # ------------------------------------------------------------------
    # Cache management
    # ------------------------------------------------------------------

    def load(self, program: Program):
        super().load(program)
        self._stats = dict.fromkeys(FAST_STATS, 0)
        self._mode = _TIMED if self.timing is not None else _PLAIN

    def _on_text_store(self, addr: int, size: int):
        """Store into the text window: drop every overlapping block."""
        end = addr + size
        stale = [entry for entry, block in self._blocks.items()
                 if addr < block.hi and end > block.lo]
        for entry in stale:
            del self._blocks[entry]
        self._stats["invalidated_blocks"] += len(stale)

    def fast_stats(self) -> Dict[str, int]:
        """Translation-cache statistics of the last run (deterministic
        per run); ``blocks`` is the cache size when the run ended."""
        return dict(self._stats)

    # ------------------------------------------------------------------
    # Execution engine
    # ------------------------------------------------------------------

    def _exec_loop(self, max_instructions: int) -> None:
        if self.fault_hook is not None or self.trace_depth \
                or self.tracer is not None or self.profiler is not None \
                or self._tracer_retire is not None:
            # Per-instruction observation (fault hooks, trace ring,
            # event tracers stamping ``_now()`` timestamps, cycle
            # profilers recording every retired pc): the reference
            # loop is the only honest way to run these — and it is
            # also *faster* than wrapping reference handlers in block
            # functions, so observed runs skip translation entirely.
            self._dispatch_loop(max_instructions, max_instructions)
            return
        program = self.program
        self.memory.watch_stores(program.text_base, program.text_end,
                                 self._on_text_store)
        blocks = self._blocks
        visits = self._visits
        translate = self._translate
        hot = self.TRANSLATE_ON_VISIT
        remaining = max_instructions
        pc = self.pc
        runs = 0
        try:
            while True:
                self.pc = pc
                block = blocks.get(pc)
                if block is None:
                    seen = visits.get(pc, 0) + 1
                    if seen < hot:
                        # Cold entry: run the basic block on the
                        # reference loop, which keeps the same pipeline
                        # and counter state a block's fold reads.
                        visits[pc] = seen
                        n = self._basic_block_length(pc)
                        if remaining < n:
                            break
                        self._dispatch_loop(n, None)
                        remaining -= n
                        pc = self.pc
                        continue
                    block = translate(pc)
                n = block.n
                if remaining < n:
                    break
                runs += 1
                try:
                    for fn in block.body:
                        fn()
                except ReproError:
                    # Credit exactly the instructions that completed
                    # before the trapping one (which set self.pc).
                    # ReproError, not just SimTrap: compression range
                    # errors (bndrs/bndrt) must leave the same instret
                    # the reference loop would. The unwind applies the
                    # same prefix of the block's folded static costs.
                    completed = block.pos[self.pc]
                    self.instret += completed
                    self._unwind(block, completed)
                    raise
                # The fold (block-level static cycles/counters and the
                # end-of-block interlock state) applies after the body
                # but before the terminator: a wrapped terminator
                # (ecall) runs the reference retire, which must read
                # the post-body pipeline state — and must not be
                # double-counted if it traps.
                fold = block.fold
                if fold is not None:
                    fold()
                term = block.term
                if term is not None:
                    try:
                        tpc = term()
                    except ReproError:
                        self.instret += block.pos[self.pc]
                        raise
                else:
                    tpc = None
                self.instret += n
                remaining -= n
                pc = block.end_pc if tpc is None else tpc
            # Budget tail: fewer instructions left than the next block
            # retires — finish (and overrun-trap) on the reference
            # loop, reporting the run-level limit.
            self._dispatch_loop(remaining, max_instructions)
        finally:
            # Drop the cache with the run: its functions reference the
            # machine, so a cache that outlived run() would keep a
            # machine -> block -> function -> machine cycle (and every
            # translated function) alive until a full collection.
            stats = self._stats
            stats["block_runs"] += runs
            stats["blocks"] = len(self._blocks)
            self._blocks = {}
            self._visits = {}
            self._inlined = set()
            self.memory.watch_stores(0, 0, None)
            for gauge, name in zip(self._gauges, FAST_STATS):
                gauge.set(stats[name])

    def _basic_block_length(self, pc: int) -> int:
        """Instructions from ``pc`` through the first control transfer
        (at most :attr:`MAX_TRACE`, and at least one, so a pc outside
        text or an illegal opcode traps on the reference loop exactly
        as the translator would raise)."""
        program = self.program
        instrs = program.instrs
        index = program.index_of(pc)
        n = 0
        while 0 <= index < len(instrs) and n < self.MAX_TRACE:
            n += 1
            if instrs[index].op in _BLOCK_ENDS:
                break
            index += 1
        return max(n, 1)

    # ------------------------------------------------------------------
    # Translation
    # ------------------------------------------------------------------

    def _translate(self, entry_pc: int) -> _Block:
        """Decode the trace starting at ``entry_pc`` into a block.

        Called exactly at execution time (the block cache missed), so
        raising here — pc outside text, unknown opcode — is observably
        identical to the reference loop raising at the same pc.
        """
        program = self.program
        index = program.index_of(entry_pc)
        if index < 0:
            raise MemoryFault(entry_pc, "pc outside text")
        instrs = program.instrs
        dispatch = self._dispatch
        timed = self._mode is _TIMED
        blocks = self._blocks
        inlined = self._inlined
        body: List[Callable] = []
        term: Optional[Callable] = None
        pos: Dict[int, int] = {}
        count = 0
        pc = entry_pc
        end_pc = entry_pc
        lo, hi = entry_pc, entry_pc
        while True:
            idx = program.index_of(pc)
            if idx < 0 or (count and pc in pos) or count >= self.MAX_TRACE:
                # Ran off text / joined this trace (loop) / trace full:
                # fall through to pc; the next block starts there.
                end_pc = pc
                break
            ins = instrs[idx]
            op = ins.op
            if dispatch.get(op) is None:
                if count == 0:
                    raise IllegalInstruction(pc, op)
                end_pc = pc
                break
            if pc < lo:
                lo = pc
            if pc + 4 > hi:
                hi = pc + 4
            if op in ("csrrw", "csrrs", "csrrc") or (
                    timed and op not in ("ecall", "ebreak")
                    and not _is_specialised(op, SPEC_TABLE.get(op))):
                # CSR reads of instret/cycle must see the exact
                # architectural count, but the block loop bulk-adds
                # instret after the block — so a CSR op is always the
                # sole instruction of its own block, where the count is
                # exact at entry (every prior block fully retired). In
                # timed mode every other reference-wrapped op joins
                # them: its handler runs the full reference retire(),
                # which must read interlock state the fold only
                # materialises at block boundaries.
                if count:
                    end_pc = pc
                    break
                pos[pc] = 0
                count = 1
                body.append(self._emit_wrapped(ins, pc))
                end_pc = pc + 4
                break
            # tchk + fused-check access -> one fused function.
            if op == "tchk" and idx + 1 < len(instrs) \
                    and count + 2 <= self.MAX_TRACE \
                    and (pc + 4) not in pos:
                nxt = instrs[idx + 1]
                nspec = SPEC_TABLE.get(nxt.op)
                if nspec is not None and nspec.checked \
                        and dispatch.get(nxt.op) is not None:
                    pos[pc] = count
                    pos[pc + 4] = count + 1
                    body.append(self._emit_fused(ins, pc, nxt, nspec))
                    count += 2
                    if pc + 8 > hi:
                        hi = pc + 8
                    pc += 8
                    self._stats["fused_pairs"] += 1
                    continue
            pos[pc] = count
            count += 1
            if op in _BRANCH_OPS:
                term = self._emit_branch(ins, pc)
                end_pc = pc + 4
                break
            if op == "jal":
                target = (pc + ins.imm) & _M64
                if program.index_of(target) >= 0 and target not in pos \
                        and count < self.MAX_TRACE \
                        and target not in blocks \
                        and target not in inlined:
                    # Superblock extension: the jump does not end the
                    # trace — translation continues at its target. A
                    # target already translated elsewhere chains
                    # through the cache instead of being copied again.
                    inlined.add(target)
                    fn = self._emit_jal(ins, pc, target, terminator=False)
                    if fn is not None:
                        body.append(fn)
                    pc = target
                    continue
                term = self._emit_jal(ins, pc, target, terminator=True)
                end_pc = target
                break
            if op == "jalr":
                term = self._emit_jalr(ins, pc)
                end_pc = pc + 4  # unused: jalr always returns a target
                break
            if op in ("ecall", "ebreak"):
                # May raise or (SYS_WRITE) fall through; rare enough
                # that the reference handler is the right tool. Its
                # retire self-accounts *after* the fold ran (the term
                # slot runs post-fold).
                term = self._emit_wrapped(ins, pc)
                end_pc = pc + 4
                break
            fn = self._emit_straightline(ins, pc)
            if fn is not None:
                body.append(fn)
            pc += 4
        block = _Block(tuple(body), term, count, pos, end_pc, lo, hi,
                       self._make_fold(self._static_records(pos)))
        blocks[entry_pc] = block
        self._stats["translations"] += 1
        self._stats["translated_instrs"] += count
        return block

    # -- block-level static cost fold ----------------------------------

    def _static_records(self, pcs):
        """Static cost records of one trace's instructions at ``pcs``
        (in retire order): ``(ins, cycles, counter pairs, state)`` per
        specialised instruction — the sim census plus, timed, the
        pipeline's :meth:`~repro.pipeline.timing.InOrderPipeline.static_cost`
        (``state`` being the load-producer state after it).
        Reference-wrapped instructions (ecall/ebreak included) account
        for themselves: no record."""
        program = self.program
        instrs = program.instrs
        pl = self.timing if self._mode is _TIMED else None
        state = None
        records = []
        for pc in pcs:
            ins = instrs[program.index_of(pc)]
            op = ins.op
            spec = SPEC_TABLE.get(op)
            if op in ("ecall", "ebreak") or not _is_specialised(op, spec):
                continue
            pairs = self._static_counters(ins, spec)
            cycles = 0
            if pl is not None:
                cycles, deltas, state = pl.static_cost(ins, state)
                pairs += deltas
            records.append((ins, cycles, pairs, state))
        return records

    def _unwind(self, block: _Block, completed: int) -> None:
        """Apply the static costs of the first ``completed`` instructions
        of ``block`` after a trap stopped it there. Traps are rare, so
        the prefix is recomputed from the program instead of keeping
        per-position records alive for every block."""
        fold = self._make_fold(
            self._static_records(islice(block.pos, completed)))
        if fold is not None:
            fold()

    def _static_counters(self, ins: Instr, spec):
        """The sim-census increments of one specialised instruction, as
        ``(counter, delta)`` pairs — everything the reference handler
        counts unconditionally *after* its last possible trap point.
        ``tchk`` is the exception (counted before a temporal trap can
        raise) and stays inline; ``taken`` is data-dependent and stays
        in the branch terminator."""
        ct = self._ct
        op = ins.op
        if op == "tchk":
            return []
        if op in ("sbdl", "sbdu"):
            return [(ct["stores"], 1), (ct["hwst_ops"], 1),
                    (ct["shadow_ops"], 1)]
        if op in ("lbdls", "lbdus"):
            return [(ct["loads"], 1), (ct["hwst_ops"], 1),
                    (ct["shadow_ops"], 1)]
        if spec.is_load:
            pairs = [(ct["loads"], 1)]
        elif spec.is_store:
            pairs = [(ct["stores"], 1)]
        elif op in ("bndrs", "bndrt"):
            return [(ct["hwst_ops"], 1)]
        elif spec.is_branch:
            return [(ct["branches"], 1)]
        elif op == "jal":
            return [(ct["calls"], 1)]
        else:
            return []
        if spec.checked:
            pairs.append((ct["hwst_ops"], 1))
        return pairs

    def _make_fold(self, records):
        """Compile the ``fold()`` of a run of static records.

        ``fold()`` applies all of their static costs in one shot: the
        merged counter deltas, the static cycle total plus the
        dynamically resolved first-instruction boundary interlock, and
        the end-of-run producer state. Returns ``None`` when there is
        nothing to fold (reference-wrapped sole blocks self-account)."""
        if not records:
            return None
        merged: Dict[object, int] = {}
        total = 0
        for _, cycles, pairs, _ in records:
            total += cycles
            for counter, delta in pairs:
                merged[counter] = merged.get(counter, 0) + delta
        counters = tuple(merged.items())
        if self._mode is not _TIMED:
            if not counters:
                return None

            def fold_plain(counters=counters):
                for counter, delta in counters:
                    counter.value += delta

            return fold_plain
        pl = self.timing
        a, b, srf_c = pl.operands(records[0][0])
        gpr_stall, srf_stall, bk_lu = pl.stalls
        end_load, end_srf_load = records[-1][3]

        def fold(pl=pl, bk_lu=bk_lu, gpr_stall=gpr_stall,
                 srf_stall=srf_stall, a=a, b=b, srf_c=srf_c,
                 counters=counters, total=total, end_load=end_load,
                 end_srf_load=end_srf_load):
            extra = 0
            last = pl.last_load_rd
            if last > 0 and (a == last or b == last):
                extra = gpr_stall
                bk_lu.value += gpr_stall
            last = pl.last_srf_load_rd
            if last >= 0 and srf_c == last:
                extra += srf_stall
                bk_lu.value += srf_stall
            for counter, delta in counters:
                counter.value += delta
            pl.cycles += total + extra
            pl.last_load_rd = end_load
            pl.last_srf_load_rd = end_srf_load

        return fold

    # ------------------------------------------------------------------
    # Function emitters — straight-line ops
    # ------------------------------------------------------------------
    #
    # Every emitted function binds its operands as default arguments:
    # no closure cells (``LOAD_FAST`` on replay, and one defaults tuple
    # instead of a cell per operand), and shared machine objects are
    # passed whole — never as per-instruction bound methods.

    def _emit_straightline(self, ins: Instr, pc: int):
        """Function for one non-control-flow instruction (or None when
        the instruction is architecturally dead, e.g. a plain-mode
        nop: it still counts in instret via the block's bulk add)."""
        op = ins.op
        if op in _ALU_R_OPS or op in _ALU_I_OPS:
            return self._emit_alu(ins)
        spec = SPEC_TABLE[op]
        if spec.is_load and (spec.opcode == 0x03 or spec.checked):
            return self._emit_load(ins, pc, spec)
        if spec.is_store and (spec.opcode == 0x23 or spec.checked):
            return self._emit_store(ins, pc, spec)
        if op == "tchk":
            return self._emit_tchk(ins, pc)
        if op in ("lui", "auipc"):
            return self._emit_const_write(ins, pc)
        if op in ("bndrs", "bndrt"):
            return self._emit_bind(ins, pc, temporal=(op == "bndrt"))
        if op in ("sbdl", "sbdu"):
            return self._emit_sbd(ins, pc, upper=(op == "sbdu"))
        if op in ("lbdls", "lbdus"):
            return self._emit_lbds(ins, pc, upper=(op == "lbdus"))
        # CSR ops, decompressing metadata loads, MPX/AVX model ops,
        # fences: rare — reference handlers keep them exact.
        return self._emit_wrapped(ins, pc)

    def _emit_wrapped(self, ins: Instr, pc: int):
        """Reference handler pre-bound to its operands. Used for every
        op without a specialised emitter."""
        def run(m=self, pc=pc, handler=self._dispatch[ins.op], ins=ins):
            m.pc = pc
            return handler(ins)

        return run

    def _spatial_consts(self):
        """Translate-time constants for an inlined decompress_spatial.

        The compressor object lives for the machine's lifetime and its
        field widths are fixed at construction, so the masks can be
        burned into functions. Returns ``(base_mask, base_width,
        range_mask)``; the inline expansion is exactly
        :meth:`MetadataCompressor.decompress_spatial`.
        """
        comp = self.compressor
        return comp._base_mask, comp._widths.base, comp._range_mask

    def _temporal_consts(self):
        """Translate-time constants for an inlined ``_temporal_check``:
        ``(lock_mask, lock_width, key_mask, lock_base)``.

        Valid only on the fast block path, which never runs with a
        tracer attached (``_exec_loop`` falls back to the reference
        dispatch loop then), so the kb-trace emission in the reference
        helper is unreachable here by construction.
        """
        comp = self.compressor
        return (comp._lock_mask, comp._widths.lock, comp._key_mask,
                comp._config.lock_base)

    def _timed_refs(self):
        """``(pipeline, dcache)`` for the dynamic timing fragments, or
        ``(None, None)`` untimed. The functions charge a miss through
        the same pipeline methods the reference ``retire()`` calls, so
        specialised and reference-handled instructions interleave with
        exact cycle accounting."""
        pl = self.timing
        if self._mode is not _TIMED:
            return None, None
        return pl, pl.dcache

    def _emit_alu(self, ins: Instr):
        """Semantics-only in both modes: every cycle an ALU op costs
        (base, mul/div latency, the intra-block interlock) is static
        and lives in the block's timing fold."""
        if ins.rd == 0:
            return None  # architectural nop (the fold still bills it)
        op = ins.op
        operand = ins.imm & _M64 if op in _ALU_I_OPS else ins.rs2
        fn = None if op in _ALU_EXPR else self._alu_fn(op)
        return _alu_maker(op)(self.regs, self.srf, self.srf_wide, ins.rd,
                              ins.rs1, operand, fn)

    def _emit_load(self, ins: Instr, pc: int, spec):
        nbytes = spec.mem_bytes
        base_mask, base_w, range_mask = self._spatial_consts()
        # Only the D-cache outcome is dynamic: base cost, interlocks
        # and the sim counters are static per block (the timing fold).
        pl, dcache = self._timed_refs()

        # Sign extension is the identity for 8-byte loads; for narrower
        # loads ``((v ^ sb) - sb) & M64`` is bits.sext unfolded (the
        # loaded value is already < 2**width).
        def run(m=self, pc=pc, regs=self.regs, srf=self.srf,
                srf_wide=self.srf_wide, rd=ins.rd, rs1=ins.rs1,
                imm=ins.imm, nbytes=nbytes, memory=self.memory,
                checked=spec.checked,
                signed=spec.mem_signed and nbytes < 8,
                sb=1 << (8 * nbytes - 1), base_mask=base_mask,
                base_w=base_w, range_mask=range_mask, pl=pl,
                dcache=dcache):
            m.pc = pc
            addr = (regs[rs1] + imm) & _M64
            if checked:
                e = srf[rs1]
                if not e[2]:
                    m._spatial_fail(addr, 0, 0)
                lower = e[0]
                base = (lower & base_mask) << ALIGN_SHIFT
                bound = base + \
                    (((lower >> base_w) & range_mask) << ALIGN_SHIFT)
                if addr < base or addr + nbytes > bound:
                    m._spatial_fail(addr, base, bound)
            value = memory.load_uint(addr, nbytes)
            if signed:
                value = ((value ^ sb) - sb) & _M64
            if rd:
                regs[rd] = value
                srf[rd] = SRF_INVALID
                srf_wide[rd] = None
            if pl is not None and not dcache.access(addr, False):
                pl.dcache_miss()

        return run

    def _emit_store(self, ins: Instr, pc: int, spec):
        nbytes = spec.mem_bytes
        base_mask, base_w, range_mask = self._spatial_consts()
        pl, dcache = self._timed_refs()

        def run(m=self, pc=pc, regs=self.regs, srf=self.srf,
                rs1=ins.rs1, rs2=ins.rs2, imm=ins.imm, nbytes=nbytes,
                memory=self.memory, checked=spec.checked,
                snoop=nbytes == 8, base_mask=base_mask, base_w=base_w,
                range_mask=range_mask, pl=pl, dcache=dcache):
            m.pc = pc
            addr = (regs[rs1] + imm) & _M64
            if checked:
                e = srf[rs1]
                if not e[2]:
                    m._spatial_fail(addr, 0, 0)
                lower = e[0]
                base = (lower & base_mask) << ALIGN_SHIFT
                bound = base + \
                    (((lower >> base_w) & range_mask) << ALIGN_SHIFT)
                if addr < base or addr + nbytes > bound:
                    m._spatial_fail(addr, base, bound)
            value = regs[rs2]
            memory.store_uint(addr, nbytes, value)
            if snoop and m._lock_lo <= addr < m._lock_hi:
                m._snoop_lock_store(addr, value)
            if pl is not None and not dcache.access(addr, True):
                pl.dcache_miss()

        return run

    def _emit_tchk(self, ins: Instr, pc: int):
        lock_mask, lock_w, key_mask, lock_base = self._temporal_consts()
        # ct_tchk/ct_hwst stay inline (not folded): the reference
        # handler counts a tchk *before* a temporal trap can raise.
        # Base cost, occupancy and interlocks are static (the fold);
        # only the keybuffer-miss beat — the secondary key load through
        # the D-cache — is dynamic.
        pl, _ = self._timed_refs()

        def run(m=self, pc=pc, srf=self.srf, rs1=ins.rs1,
                ct_tchk=self._ct["tchk"], ct_hwst=self._ct["hwst_ops"],
                lock_mask=lock_mask, lock_w=lock_w, key_mask=key_mask,
                lock_base=lock_base, kb=self.keybuffer,
                memory=self.memory, pl=pl):
            m.pc = pc
            ct_tchk.value += 1
            ct_hwst.value += 1
            e = srf[rs1]
            if not e[3]:
                m._temporal_fail(0, 0, 0)
            upper = e[1]
            lock_idx = upper & lock_mask
            key = (upper >> lock_w) & key_mask
            if lock_idx == 0:
                m._temporal_fail(key, 0, 0)
            lock = lock_base + ((lock_idx - 1) << 3)
            cached = kb.lookup(lock)
            if cached is not None:
                if cached != key:
                    m._temporal_fail(key, cached, lock)
            else:
                stored = memory.load_u64(lock)
                kb.fill(lock, stored)
                if stored != key:
                    m._temporal_fail(key, stored, lock)
                if pl is not None:
                    pl.key_load(lock)

        return run

    def _emit_bind(self, ins: Instr, pc: int, temporal: bool):
        """bndrs/bndrt: compress + SRF write (census side effects stay
        in the compressor). The SRF write is unguarded — the reference
        handlers write ``srf[0]`` too."""
        def run(m=self, pc=pc, regs=self.regs, srf=self.srf,
                srf_wide=self.srf_wide, rd=ins.rd, rs1=ins.rs1,
                rs2=ins.rs2, comp=self.compressor, temporal=temporal):
            m.pc = pc  # compress may raise MetadataRangeError
            if temporal:
                packed = comp.compress_temporal(regs[rs1], regs[rs2])
                e = srf[rd]
                srf[rd] = (e[0], packed, e[2], True)
            else:
                packed = comp.compress_spatial(regs[rs1], regs[rs2])
                e = srf[rd]
                srf[rd] = (packed, e[1], True, e[3])
                srf_wide[rd] = None

        return run

    def _emit_sbd(self, ins: Instr, pc: int, upper: bool):
        """sbdl/sbdu: SRF half -> shadow memory (Eq. 1 address). The
        SMAC budget guard is inlined; like the reference handler, the
        shadow store does not snoop the lock window."""
        pl, dcache = self._timed_refs()

        # ``csrs`` is mutated in place by csrrw — read per access.
        def run(m=self, pc=pc, regs=self.regs, srf=self.srf, rs1=ins.rs1,
                rs2=ins.rs2, imm=ins.imm, off=8 if upper else 0,
                upper=upper, csrs=self.csrs, sm_key=csrdef.HWST_SM_OFFSET,
                budget=self.config.shadow_budget, memory=self.memory,
                pl=pl, dcache=dcache):
            m.pc = pc
            container = (regs[rs1] + imm) & _M64
            sa = (container << 2) + csrs[sm_key] + off
            if budget and memory.shadow_bytes_touched > budget:
                raise ShadowMemoryExhausted(
                    memory.shadow_bytes_touched, budget)
            e = srf[rs2]
            if upper:
                value = e[1] if e[3] else 0
            else:
                value = e[0] if e[2] else 0
            memory.store_u64(sa, value)
            if pl is not None and not dcache.access(sa, True):
                pl.dcache_miss()

        return run

    def _emit_lbds(self, ins: Instr, pc: int, upper: bool):
        """lbdls/lbdus: shadow memory -> SRF half (no decompression).
        Writes ``srf[rd]`` unguarded, exactly like the reference."""
        pl, dcache = self._timed_refs()

        def run(m=self, pc=pc, regs=self.regs, srf=self.srf,
                srf_wide=self.srf_wide, rd=ins.rd, rs1=ins.rs1,
                imm=ins.imm, off=8 if upper else 0, upper=upper,
                csrs=self.csrs, sm_key=csrdef.HWST_SM_OFFSET,
                budget=self.config.shadow_budget, memory=self.memory,
                pl=pl, dcache=dcache):
            m.pc = pc
            container = (regs[rs1] + imm) & _M64
            sa = (container << 2) + csrs[sm_key] + off
            if budget and memory.shadow_bytes_touched > budget:
                raise ShadowMemoryExhausted(
                    memory.shadow_bytes_touched, budget)
            value = memory.load_u64(sa)
            e = srf[rd]
            if upper:
                srf[rd] = (e[0], value, e[2], True)
            else:
                srf[rd] = (value, e[1], True, e[3])
            srf_wide[rd] = None
            if pl is not None and not dcache.access(sa, False):
                pl.dcache_miss()

        return run

    def _emit_fused(self, tchk_ins: Instr, pc: int, acc: Instr, aspec):
        """One function for a ``tchk`` + fused-check access pair.

        Retires as two instructions: ``self.pc`` steps from the tchk to
        the access before the spatial check, so a trap in either half
        reports its own pc and the block's position map credits the
        completed half (the unwind then bills exactly the completed
        half's static costs — the access half's never stall, because
        the tchk clears both interlock producers). Only the tchk census
        counters and the two dynamic D-cache beats stay in the
        function.
        """
        nbytes = aspec.mem_bytes
        is_load = aspec.is_load
        base_mask, base_w, range_mask = self._spatial_consts()
        lock_mask, lock_w, key_mask, lock_base = self._temporal_consts()
        pl, dcache = self._timed_refs()

        def run(m=self, pc=pc, pc_acc=pc + 4, regs=self.regs, srf=self.srf,
                srf_wide=self.srf_wide, rs1_t=tchk_ins.rs1, rd=acc.rd,
                rs1=acc.rs1, rs2=acc.rs2, imm=acc.imm, nbytes=nbytes,
                is_load=is_load, signed=aspec.mem_signed and nbytes < 8,
                sb=1 << (8 * nbytes - 1), memory=self.memory,
                snoop=(not is_load) and nbytes == 8,
                ct_tchk=self._ct["tchk"], ct_hwst=self._ct["hwst_ops"],
                base_mask=base_mask, base_w=base_w, range_mask=range_mask,
                lock_mask=lock_mask, lock_w=lock_w, key_mask=key_mask,
                lock_base=lock_base, kb=self.keybuffer, pl=pl,
                dcache=dcache):
            m.pc = pc
            ct_tchk.value += 1
            ct_hwst.value += 1
            et = srf[rs1_t]
            if not et[3]:
                m._temporal_fail(0, 0, 0)
            upper = et[1]
            lock_idx = upper & lock_mask
            key = (upper >> lock_w) & key_mask
            if lock_idx == 0:
                m._temporal_fail(key, 0, 0)
            lock = lock_base + ((lock_idx - 1) << 3)
            cached = kb.lookup(lock)
            if cached is not None:
                if cached != key:
                    m._temporal_fail(key, cached, lock)
            else:
                stored = memory.load_u64(lock)
                kb.fill(lock, stored)
                if stored != key:
                    m._temporal_fail(key, stored, lock)
                if pl is not None:
                    pl.key_load(lock)
            m.pc = pc_acc
            addr = (regs[rs1] + imm) & _M64
            e = srf[rs1]
            if not e[2]:
                m._spatial_fail(addr, 0, 0)
            lower = e[0]
            base = (lower & base_mask) << ALIGN_SHIFT
            bound = base + \
                (((lower >> base_w) & range_mask) << ALIGN_SHIFT)
            if addr < base or addr + nbytes > bound:
                m._spatial_fail(addr, base, bound)
            if is_load:
                value = memory.load_uint(addr, nbytes)
                if signed:
                    value = ((value ^ sb) - sb) & _M64
                if rd:
                    regs[rd] = value
                    srf[rd] = SRF_INVALID
                    srf_wide[rd] = None
            else:
                value = regs[rs2]
                memory.store_uint(addr, nbytes, value)
                if snoop and m._lock_lo <= addr < m._lock_hi:
                    m._snoop_lock_store(addr, value)
            if pl is not None and not dcache.access(addr, not is_load):
                pl.dcache_miss()

        return run

    def _emit_const_write(self, ins: Instr, pc: int):
        """lui/auipc: the written value is a translate-time constant."""
        if ins.rd == 0:
            return None
        value = bits.sext(ins.imm << 12, 32) & _M64
        if ins.op == "auipc":
            value = (pc + value) & _M64

        def run(regs=self.regs, srf=self.srf, srf_wide=self.srf_wide,
                rd=ins.rd, value=value):
            regs[rd] = value
            srf[rd] = SRF_INVALID
            srf_wide[rd] = None

        return run

    # ------------------------------------------------------------------
    # Function emitters — control flow
    # ------------------------------------------------------------------

    def _emit_branch(self, ins: Instr, pc: int):
        pl, _ = self._timed_refs()
        penalty, bk_redirect = pl.redirect if pl is not None else (0, None)
        return _branch_maker(ins.op, pl is not None)(
            self.regs, ins.rs1, ins.rs2, (pc + ins.imm) & _M64,
            self._ct["taken"], pl, bk_redirect, penalty)

    def _emit_jal(self, ins: Instr, pc: int, target: int,
                  terminator: bool):
        # ct_calls and the full cost (a jal always redirects) are
        # static — a plain ``j`` inside a superblock costs nothing at
        # run time.
        if not terminator and ins.rd == 0:
            return None

        def run(regs=self.regs, srf=self.srf, srf_wide=self.srf_wide,
                rd=ins.rd, link=(pc + 4) & _M64,
                target=target if terminator else None):
            if rd:
                regs[rd] = link
                srf[rd] = SRF_INVALID
                srf_wide[rd] = None
            return target

        return run

    def _emit_jalr(self, ins: Instr, pc: int):
        def run(regs=self.regs, srf=self.srf, srf_wide=self.srf_wide,
                rd=ins.rd, rs1=ins.rs1, imm=ins.imm,
                link=(pc + 4) & _M64):
            target = ((regs[rs1] + imm) & _M64) & ~1
            if rd:
                regs[rd] = link
                srf[rd] = SRF_INVALID
                srf_wide[rd] = None
            return target

        return run
