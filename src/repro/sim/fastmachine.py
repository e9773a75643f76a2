"""Translation-cached fast engine for the RV64 + HWST128 simulator.

:class:`FastMachine` is the QEMU-style dynamic-binary-translation
answer to the classic fetch/decode/execute loop in
:class:`~repro.sim.machine.Machine` (the reference engine): the second
time execution enters a pc, the basic block starting there is decoded
**once** into a list of Python functions with every static operand (pc,
rd, rs1, rs2, imm, branch targets, link values) pre-bound as a default
argument, and the block is cached by entry pc. Later visits replay the
functions with no per-instruction fetch, dispatch-dict lookup, operand
decoding, or budget bookkeeping — instret advances in one bulk add per
block.

It is the default engine (:data:`repro.sim.DEFAULT_ENGINE`). Design
points (docs/fast-iss.md covers the full contract):

* **One semantics.** Each function is compiled from the instruction's
  row in :mod:`repro.sim.semantics` — the row the reference handler is
  compiled from — with metadata decoding inlined and only the dynamic
  timing charges appended. ``ecall`` and ``ebreak``, the terminators
  that can trap after the fold, run their reference handler instead.
  Engine lockstep therefore tests what only this engine has
  (translation, superblocks, fusion, fold, unwind, invalidation);
  ``repro conform`` tests the semantics themselves against
  :mod:`repro.spec`.
* **Software TLB.** A translated load or store reads or writes a
  resident page straight from the memory's ``tlb``/``stlb`` page maps
  with a ``struct`` unpack or pack, and falls back to the reference's
  checked ``load_uint``/``store_uint`` for anything the maps cannot
  serve (:mod:`repro.sim.memory` states the maps' invariant).
* **Cold entries.** The first entry at a pc runs its basic block on
  the reference ``_dispatch_loop``: decoding code that runs once costs
  more than interpreting it, and most of a short program (a Juliet
  case) runs once. Blocks and reference-loop stretches interleave
  exactly, as they already do for budget tails.
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
  *single* function, the two rows composed — one Python call performs
  the temporal check, the spatial check and the memory access, while
  still retiring as two instructions with two distinct trap pcs.
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
  keybuffer miss, the second access of an MPX walk or a ``vchk`` and
  taken-branch redirects stay in the per-instruction functions,
  charged through the same pipeline methods and rows. A wrapped
  ``ecall``/``ebreak`` self-accounts through the real ``retire()``
  after the fold, so a program's blocks are the same with and without
  a timing model.
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
* **Fallbacks.** Per-instruction observers — a trace ring buffer, an
  event tracer, a cycle profiler (whose ``record`` must fire exactly
  once per retired pc) — cold entries and the budget tail (fewer
  remaining instructions than the next block retires) all run on the
  reference ``_dispatch_loop``, which is also what ``step()`` uses:
  semantics cannot drift because there is only one single-instruction
  path, and observed runs pay zero translation overhead on top of what
  the reference engine costs. A runtime fault runs blocks up to its
  trigger and the reference loop after it (``Machine.run`` splits the
  budget there).
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Dict, List, Optional

from repro import bits
from repro.errors import IllegalInstruction, MemoryFault, ReproError
from repro.isa.instructions import FMT_CSR, Instr, SPEC_TABLE
from repro.sim import semantics
from repro.sim.machine import Machine
from repro.sim.program import Program

__all__ = ["FastMachine", "MAX_TRACE"]

#: Upper bound on instructions per translated trace. Superblock
#: extension across ``jal`` stops here so a call-heavy region cannot
#: translate into one giant block (which would defeat the budget tail
#: and bloat retranslation after an invalidation).
MAX_TRACE = 64

#: Terminators that run their reference handler after the fold: they
#: can trap, and a trapping one retires nothing, so the fold must not
#: bill them — the handler's own retire() does, on the path that returns.
_WRAPPED = frozenset({"ecall", "ebreak"})

#: Instructions that end a basic block on the reference loop.
_BLOCK_ENDS = frozenset(
    op for op, spec in SPEC_TABLE.items() if spec.is_branch or spec.is_jump
) | _WRAPPED

_M64 = bits.MASK64

# Translation modes, decided per run from the attached timing model.
# (Per-instruction observers never reach translated code at all: they
# run on the reference _dispatch_loop, see _exec_loop.)
_PLAIN = "plain"   # no timing model
_TIMED = "timed"   # timing model attached

#: ``fast_stats()`` keys, published as ``sim.fast.*`` gauges.
FAST_STATS = ("blocks", "translations", "translated_instrs", "fused_pairs",
              "invalidated_blocks", "block_runs")


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

    def _exec_loop(self, budget: int, limit: Optional[int]) -> None:
        if self.trace_depth or self.tracer is not None \
                or self.profiler is not None:
            # Per-instruction observation (trace ring, event tracers
            # stamping ``_now()`` timestamps, cycle profilers recording
            # every retired pc): the reference loop is the only honest
            # way to run these — and it is also *faster* than wrapping
            # reference handlers in block functions, so observed runs
            # skip translation entirely.
            self._dispatch_loop(budget, limit)
            return
        program = self.program
        self.memory.watch_stores(program.text_base, program.text_end,
                                 self._on_text_store)
        blocks = self._blocks
        visits = self._visits
        translate = self._translate
        hot = self.TRANSLATE_ON_VISIT
        remaining = budget
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
                    if not remaining:
                        # A spent budget fetches nothing (the tail
                        # reports the limit): translating could raise a
                        # fetch fault past the end of text first.
                        break
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
                # the post-body pipeline state — and bills nothing if
                # it traps.
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
            # retires — finish (and overrun-trap, reporting the
            # run-level limit, unless ``limit`` is None) on the
            # reference loop.
            self._dispatch_loop(remaining, limit)
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
        rows = semantics.ROWS
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
            if op not in rows:
                if count == 0:
                    raise IllegalInstruction(pc, op)
                end_pc = pc
                break
            if pc < lo:
                lo = pc
            if pc + 4 > hi:
                hi = pc + 4
            if SPEC_TABLE[op].fmt == FMT_CSR:
                # CSR reads of instret/cycle must see the exact
                # architectural count, but the block loop bulk-adds
                # instret and folds cycles after the block — so a CSR
                # op is always the sole instruction of its own block,
                # where both are exact at entry (every prior block fully
                # retired) and its own fold runs after the read, as the
                # reference retires after it.
                if count:
                    end_pc = pc
                    break
                pos[pc] = 0
                count = 1
                body.append(self._emit(ins, pc))
                end_pc = pc + 4
                break
            # tchk + fused-check access -> one fused function.
            if op == "tchk" and idx + 1 < len(instrs) \
                    and count + 2 <= self.MAX_TRACE \
                    and (pc + 4) not in pos:
                nxt = instrs[idx + 1]
                if nxt.op in rows and SPEC_TABLE[nxt.op].checked:
                    pos[pc] = count
                    pos[pc + 4] = count + 1
                    body.append(semantics.fused(nxt.op, timed)(
                        self, ins, pc, nxt))
                    count += 2
                    if pc + 8 > hi:
                        hi = pc + 8
                    pc += 8
                    self._stats["fused_pairs"] += 1
                    continue
            pos[pc] = count
            count += 1
            if SPEC_TABLE[op].is_branch:
                term = self._emit(ins, pc)
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
                    fn = self._emit(ins, pc)
                    if fn is not None:
                        body.append(fn)
                    pc = target
                    continue
                term = self._emit(ins, pc)
                end_pc = target
                break
            if op == "jalr":
                term = self._emit(ins, pc)
                end_pc = pc + 4  # unused: jalr always returns a target
                break
            if op in _WRAPPED:
                # May raise or (SYS_WRITE) fall through: the reference
                # handler retires only on the path that returns, *after*
                # the fold ran (the term slot runs post-fold).
                term = self._emit_wrapped(ins, pc)
                end_pc = pc + 4
                break
            fn = self._emit(ins, pc)
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
        translated instruction — its census plus, timed, the pipeline's
        :meth:`~repro.pipeline.timing.InOrderPipeline.static_cost`
        (``state`` being the load-producer state after it). A wrapped
        ``ecall``/``ebreak`` accounts for itself: no record."""
        program = self.program
        instrs = program.instrs
        pl = self.timing if self._mode is _TIMED else None
        state = None
        records = []
        for pc in pcs:
            ins = instrs[program.index_of(pc)]
            if ins.op in _WRAPPED:
                continue
            row = semantics.ROWS[ins.op]
            pairs = [] if row.early_census \
                else [(self._ct[name], 1) for name in row.census]
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

    def _make_fold(self, records):
        """Compile the ``fold()`` of a run of static records.

        ``fold()`` applies all of their static costs in one shot: the
        merged counter deltas, the static cycle total plus the
        dynamically resolved first-instruction boundary interlock, and
        the end-of-run producer state. Returns ``None`` when there is
        nothing to fold (an untimed block without census, or a block of
        one wrapped ``ecall``/``ebreak``, which self-accounts)."""
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
    # Function emitters
    # ------------------------------------------------------------------
    #
    # Every emitted function binds its operands as default arguments:
    # no closure cells (``LOAD_FAST`` on replay, and one defaults tuple
    # instead of a cell per operand), and shared machine objects are
    # passed whole — never as per-instruction bound methods.

    def _emit(self, ins: Instr, pc: int):
        """Function for one instruction: its semantics row compiled with
        the operands bound. None when the instruction does nothing
        architectural (an empty body, or an rd-only op writing x0): it
        still counts in instret via the block's bulk add, and the fold
        bills it."""
        row = semantics.ROWS[ins.op]
        if not row.body or (row.rd_only and not ins.rd):
            return None
        return semantics.translated(ins.op, self._mode is _TIMED)(
            self, ins, pc)

    def _emit_wrapped(self, ins: Instr, pc: int):
        """The reference handler of an ``ecall``/``ebreak``, pre-bound
        to its operands (bound here: ``_dispatch`` may still hold the
        binding stub)."""
        def run(m=self, pc=pc, handler=semantics.reference(ins.op)(self),
                ins=ins):
            m.pc = pc
            return handler(ins)

        return run
