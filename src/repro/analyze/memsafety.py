"""Interval/provenance dataflow for memory safety over the IR.

One :class:`MemSafety` instance analyzes one function. The state maps
stack slots (and module globals) to abstract values (:class:`AVal`),
tracks one :class:`HeapRegion` per allocation site, and carries the
set of slots whose pointer value has already passed a temporal check
on every path (``checked`` — the dominance fact behind temporal-check
elision). Virtual registers never cross blocks in this IR, so the
vreg environment is rebuilt inside each block transfer.

Soundness posture (documented in docs/analysis.md):

* ``spatial_ok`` on an access means: on every path, the address lies
  inside a known-size region at a non-negative offset, the access end
  stays at or below the region's *minimum* possible size, and the
  pointer is definitely non-null. Only then may an elision client
  drop the spatial check.
* ``temporal_ok`` means the region is a local/global (live for the
  whole function) or a heap site that is definitely not freed yet on
  every path. ``temporal_dom`` means a kept temporal check on the
  same slot's unchanged pointer value dominates this access.
* Error findings are emitted only for *must* or *reachable-must*
  facts (an interval that provably exceeds the region on some
  iteration, a definitely-null or definitely-freed pointer), so every
  error finding corresponds to a dynamically trapping execution.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, FrozenSet, Optional, Tuple

from repro.analyze.cfg import CFG
from repro.analyze.dataflow import EdgeStates, ForwardAnalysis
from repro.analyze.domain import (FREED, INF, LIVE, MAYBE_FREED, AVal,
                                  HeapRegion, Interval)
from repro.analyze.summaries import (PURE_FNS, WRITE_THROUGH_ARG0,
                                     FnContext, FunctionSummary,
                                     ParamCtx)
from repro.core.config import HwstConfig
from repro.ir.instrument import ALLOC_FNS, WRAPPED_RANGE_FNS
from repro.ir.ir import (AddrGlobal, AddrLocal, BinOp, Br, Call, Conv,
                         Function, GetParam, IConst, Jmp, Load, Module,
                         Ret, Store, UnOp)

__all__ = ["MemSafety", "AccessFacts"]

CMP_OPS = frozenset({"eq", "ne", "slt", "sle", "sgt", "sge",
                     "ult", "ule", "ugt", "uge"})
CMP_NEG = {"eq": "ne", "ne": "eq", "slt": "sge", "sge": "slt",
           "sle": "sgt", "sgt": "sle", "ult": "uge", "uge": "ult",
           "ule": "ugt", "ugt": "ule"}
CMP_SWAP = {"eq": "eq", "ne": "ne", "slt": "sgt", "sgt": "slt",
            "sle": "sge", "sge": "sle", "ult": "ugt", "ugt": "ult",
            "ule": "uge", "uge": "ule"}

class AccessFacts:
    """Per-access conclusions, stamped on the Load/Store instruction."""

    __slots__ = ("spatial_ok", "temporal_ok", "temporal_dom",
                 "cross_call", "origin", "target")

    _UNSET = "\0unset"

    def __init__(self):
        self.spatial_ok = True   # AND-accumulated over report visits
        self.temporal_ok = True
        self.temporal_dom = True
        # OR-accumulated: some proof leaned on a call-site context
        # (param region) — used to attribute cross-call elisions.
        self.cross_call = False
        # Slot the pointer was loaded from, when consistent across
        # every visit (None otherwise) — the loop-hoist transform key.
        self.origin = AccessFacts._UNSET
        # For stores: the region written through, when consistent
        # (None otherwise) — the loop-hoist clobber check.
        self.target = AccessFacts._UNSET

    def origin_slot(self):
        return None if self.origin is AccessFacts._UNSET \
            else self.origin

    def note_origin(self, origin):
        if self.origin is AccessFacts._UNSET:
            self.origin = origin
        elif self.origin != origin:
            self.origin = None

    def target_region(self):
        return None if self.target is AccessFacts._UNSET \
            else self.target

    def note_target(self, region):
        if self.target is AccessFacts._UNSET:
            self.target = region
        elif self.target != region:
            self.target = None

    def __repr__(self):
        return (f"AccessFacts(sp={self.spatial_ok}, "
                f"tp={self.temporal_ok}, dom={self.temporal_dom})")


class MState:
    """Slots + heap regions + temporally-checked slot set."""

    __slots__ = ("slots", "heap", "checked")

    def __init__(self, slots: Dict[str, AVal],
                 heap: Dict[tuple, HeapRegion],
                 checked: FrozenSet[str]):
        self.slots = slots
        self.heap = heap
        self.checked = checked

    def copy(self) -> "MState":
        return MState(dict(self.slots), dict(self.heap), self.checked)

    def __eq__(self, other):
        return (isinstance(other, MState)
                and self.slots == other.slots
                and self.heap == other.heap
                and self.checked == other.checked)

    def __repr__(self):
        return (f"MState(slots={self.slots}, heap={self.heap}, "
                f"checked={sorted(self.checked)})")


def _is_param_site(site) -> bool:
    """True for the abstract caller-provided region behind a pointer
    parameter (``("param", name)``; own allocation sites are
    ``(fn, label, idx)`` triples)."""
    return isinstance(site, tuple) and len(site) == 2 and \
        site[0] == "param"


def _strip(av: AVal) -> AVal:
    return replace(av, origin=None, pred=None)


def _same_value(a: AVal, b: AVal) -> bool:
    return _strip(a) == _strip(b)


# Recorder: (ins, kind, severity, message)
Recorder = Callable[[object, str, str, str], None]


class MemSafety(ForwardAnalysis):
    """The memory-safety dataflow client for one function, driven by
    :func:`repro.analyze.interproc.analyze_module_interproc`: calls to
    in-module functions apply their ``summaries``, and each pointer
    parameter starts as a caller-provided region shaped by the
    call-site ``context``."""

    def __init__(self, module: Module, fn: Function,
                 config: Optional[HwstConfig],
                 summaries: Dict[str, FunctionSummary],
                 context: Optional[FnContext] = None):
        self.module = module
        self.fn = fn
        self.config = config or HwstConfig()
        self.summaries = summaries
        self.context = context
        # Call-site context contributions, collected during the report
        # pass: (callee name, ((param, ParamCtx), ...)).
        self.callsites: list = []
        self.callsites_refined = 0
        self._record: Optional[Recorder] = None
        self._stamp = False

    def _param_site(self, name: str):
        return ("heap", ("param", name))

    def _ptr_params(self):
        from repro.minic.types import PointerType

        out = []
        for p in self.fn.param_names:
            slot = self.fn.locals.get(p)
            if slot is not None and \
                    isinstance(slot.ctype, PointerType):
                out.append(p)
        return out

    # -- lattice -----------------------------------------------------------

    def initial_state(self, cfg: CFG) -> MState:
        slots: Dict[str, AVal] = {}
        for name in self.fn.locals:
            slots["l:" + name] = AVal.uninit()
        for name, data in self.module.globals.items():
            slots["g:" + name] = self._global_initial(data)
        heap: Dict[tuple, HeapRegion] = {}
        # Each pointer parameter gets an abstract caller-provided
        # region. Size/liveness come from the call-site context (the
        # checked-on-entry lattice); without a context the region has
        # unknown size and maybe-freed status, which still enables
        # must-facts (UAF after the function's own free, double-free)
        # inside the callee.
        for pname in self._ptr_params():
            ctx = self.context.get(pname) if self.context else None
            avail = ctx.avail if ctx is not None else 0
            live = ctx.live if ctx is not None else False
            heap[self._param_site(pname)[1]] = HeapRegion(
                Interval(max(avail, 0), INF),
                LIVE if live else MAYBE_FREED)
        return MState(slots, heap, frozenset())

    def _global_initial(self, data) -> AVal:
        from repro.minic.types import PointerType

        if data.is_string or data.size > 8:
            return AVal.top()
        raw = bytes(data.data[:data.size]).ljust(max(data.size, 1),
                                                 b"\0")
        value = int.from_bytes(raw, "little", signed=True)
        if isinstance(data.ctype, PointerType):
            return AVal.null() if value == 0 else AVal.top()
        return AVal.int_const(value)

    def copy(self, state: MState) -> MState:
        return state.copy()

    def join(self, a: MState, b: MState) -> MState:
        slots = {}
        for key in a.slots.keys() | b.slots.keys():
            va, vb = a.slots.get(key), b.slots.get(key)
            slots[key] = va.join(vb) if va is not None and \
                vb is not None else AVal.top()
        heap = dict(a.heap)
        for site, region in b.heap.items():
            cur = heap.get(site)
            heap[site] = region if cur is None else cur.join(region)
        return MState(slots, heap, a.checked & b.checked)

    def widen(self, old: MState, new: MState) -> MState:
        slots = {}
        for key in old.slots.keys() | new.slots.keys():
            va, vb = old.slots.get(key), new.slots.get(key)
            slots[key] = va.widen(vb) if va is not None and \
                vb is not None else AVal.top()
        heap = dict(old.heap)
        for site, region in new.heap.items():
            cur = heap.get(site)
            if cur is None:
                heap[site] = region
            else:
                status = cur.status if cur.status == region.status \
                    else MAYBE_FREED
                heap[site] = HeapRegion(cur.size.widen(region.size),
                                        status)
        return MState(slots, heap, old.checked & new.checked)

    # -- transfer ----------------------------------------------------------

    def transfer(self, cfg: CFG, label: str, state: MState):
        return self._walk(cfg.blocks[label], state)

    def report(self, result, recorder: Recorder, stamp: bool = True):
        """Re-walk every feasibly-reachable block from its fixpoint
        in-state, recording findings and stamping AccessFacts."""
        self._record = recorder
        self._stamp = stamp
        try:
            for label, in_state in result.block_in.items():
                self._walk(result.cfg.blocks[label], in_state.copy())
        finally:
            self._record = None
            self._stamp = False

    # -- region plumbing ---------------------------------------------------

    def _slot_key(self, region) -> Optional[str]:
        if region is None:
            return None
        kind, name = region
        if kind == "local":
            return "l:" + str(name)
        if kind == "global":
            return "g:" + str(name)
        return None

    def _region_size(self, state: MState, region) -> Optional[Interval]:
        kind, name = region
        if kind == "local":
            slot = self.fn.locals.get(name)
            return Interval.const(slot.size) if slot else None
        if kind == "global":
            data = self.module.globals.get(name)
            return Interval.const(data.size) if data else None
        if kind == "heap":
            heap = state.heap.get(region[1])
            return heap.size if heap is not None else None
        return None

    def _scalar_slot(self, region, size: int) -> Optional[str]:
        """Slot key if the access reads/writes exactly one tracked
        slot (whole-slot, offset 0)."""
        key = self._slot_key(region)
        if key is None:
            return None
        kind, name = region
        obj_size = (self.fn.locals[name].size if kind == "local"
                    else self.module.globals[name].size)
        return key if obj_size == size else None

    # -- the block walk ----------------------------------------------------

    def _walk(self, blk, state: MState):
        env: Dict[int, AVal] = {}

        def aval(v: Optional[int]) -> AVal:
            if v is None:
                return AVal.top()
            return env.get(v, AVal.top())

        out = state
        for idx, ins in enumerate(blk.instrs):
            if isinstance(ins, IConst):
                if self.fn.prov.get(ins.dst) == ("null", None):
                    env[ins.dst] = AVal.null()
                else:
                    env[ins.dst] = AVal.int_const(ins.value)
            elif isinstance(ins, AddrLocal):
                env[ins.dst] = AVal.ptr(("local", ins.name),
                                        Interval.const(0))
            elif isinstance(ins, AddrGlobal):
                env[ins.dst] = AVal.ptr(("global", ins.name),
                                        Interval.const(0))
            elif isinstance(ins, GetParam):
                prov = self.fn.prov.get(ins.dst)
                pname = self.fn.param_names[ins.index] \
                    if ins.index < len(self.fn.param_names) else None
                if prov and pname:
                    ctx = self.context.get(pname) if self.context \
                        else None
                    nullness = ctx.nullness if ctx is not None \
                        else "maybe"
                    env[ins.dst] = AVal.ptr(
                        self._param_site(pname), Interval.const(0),
                        nullness=nullness)
                elif prov:
                    env[ins.dst] = AVal.unknown_ptr()
                else:
                    ctx = self.context.get(pname) \
                        if self.context and pname else None
                    if ctx is not None and not ctx.rng.is_top:
                        env[ins.dst] = AVal.int_range(ctx.rng)
                    else:
                        env[ins.dst] = AVal.top()
            elif isinstance(ins, Conv):
                env[ins.dst] = self._conv(aval(ins.a), ins.width,
                                          ins.signed)
            elif isinstance(ins, UnOp):
                env[ins.dst] = self._unop(ins.op, aval(ins.a))
            elif isinstance(ins, BinOp):
                env[ins.dst] = self._binop(ins.op, aval(ins.a),
                                           aval(ins.b), ins.width,
                                           ins.signed)
            elif isinstance(ins, Load):
                env[ins.dst] = self._load(ins, aval(ins.addr), out)
            elif isinstance(ins, Store):
                out = self._store(ins, aval(ins.addr),
                                  aval(ins.src), out)
            elif isinstance(ins, Call):
                out = self._call(ins, blk.label, idx, env, out)
            elif isinstance(ins, Ret):
                if ins.ptr_value and ins.value is not None:
                    rv = aval(ins.value)
                    if rv.is_ptr and rv.region is not None and \
                            rv.region[0] == "local":
                        self._emit(ins, "scope-escape", "warning",
                                   f"returning pointer to local "
                                   f"object '{rv.region[1]}'")
                return out
            elif isinstance(ins, Br):
                return self._branch(ins, aval(ins.cond), out)
            elif isinstance(ins, Jmp):
                return out
            else:
                # Instrumentation / hardware ops: defs go to Top.
                for d in ins.defs():
                    env[d] = AVal.top()
            dst = getattr(ins, "dst", None)
            if dst is not None and dst in self.fn.subobj:
                # Member lowering marked this vreg as the start of a
                # struct-field window: anchor the sub-object bounds.
                val = env.get(dst)
                if val is not None and val.is_ptr and \
                        val.nullness != "null":
                    env[dst] = replace(
                        val, sub=(Interval.const(0),
                                  self.fn.subobj[dst]))
        return out

    # -- expression transfer -----------------------------------------------

    def _conv(self, av: AVal, width: int, signed: bool) -> AVal:
        if av.is_ptr and width >= 8:
            return av
        if av.is_int:
            return AVal.int_range(av.rng.clamp_width(8 * width,
                                                     signed))
        return AVal.top()

    def _unop(self, op: str, a: AVal) -> AVal:
        if op == "neg" and a.is_int:
            return AVal.int_range(a.rng.neg())
        if op == "lognot":
            if a.pred is not None:
                pop, pl, pr = a.pred
                flipped = (CMP_NEG[pop], pl, pr)
                rng = _flip_bool(a.rng)
                return AVal(kind="int", rng=rng, pred=flipped)
            if a.is_ptr:
                pred = ("eq", a, AVal.int_const(0))
                if a.nullness == "null":
                    return AVal(kind="int", rng=Interval.const(1),
                                pred=pred)
                if a.nullness == "nonnull":
                    return AVal(kind="int", rng=Interval.const(0),
                                pred=pred)
                return AVal(kind="int", rng=Interval(0, 1), pred=pred)
            if a.is_int:
                pred = ("eq", a, AVal.int_const(0))
                if a.rng.is_const:
                    return AVal(kind="int", rng=Interval.const(
                        0 if a.rng.lo != 0 else 1), pred=pred)
                if not a.rng.contains(0):
                    return AVal(kind="int", rng=Interval.const(0),
                                pred=pred)
                return AVal(kind="int", rng=Interval(0, 1), pred=pred)
        return AVal.top()

    def _binop(self, op: str, a: AVal, b: AVal, width: int,
               signed: bool) -> AVal:
        if op in CMP_OPS:
            return self._compare(op, a, b)
        if op == "add":
            if a.is_ptr and b.is_int:
                return a.shift(b.rng)
            if b.is_ptr and a.is_int:
                return b.shift(a.rng)
            if a.is_int and b.is_int:
                return self._int(a.rng.add(b.rng), width, signed)
        elif op == "sub":
            if a.is_ptr and b.is_int:
                return a.shift(b.rng.neg())
            if a.is_ptr and b.is_ptr:
                if a.region is not None and a.region == b.region:
                    return AVal.int_range(a.offset.sub(b.offset))
                return AVal(kind="int")
            if a.is_int and b.is_int:
                return self._int(a.rng.sub(b.rng), width, signed)
        elif op == "mul":
            if a.is_int and b.is_int:
                return self._int(a.rng.mul(b.rng), width, signed)
        elif op == "shl":
            if a.is_int and b.is_int:
                return self._int(a.rng.shl(b.rng), width, signed)
        elif op == "and":
            if a.is_int and b.is_int:
                return self._int(a.rng.and_mask(b.rng), width, signed)
        elif op in ("sdiv", "udiv"):
            if a.is_int and b.is_int and b.rng.is_const and \
                    b.rng.lo > 0:
                return self._int(_div_const(a.rng, int(b.rng.lo)),
                                 width, signed)
            return AVal(kind="int")
        elif op in ("srem", "urem"):
            if a.is_int and b.is_int and b.rng.is_const and \
                    b.rng.lo > 0 and a.rng.lo >= 0:
                d = int(b.rng.lo)
                hi = min(a.rng.hi, d - 1)
                return AVal.int_range(Interval(0, hi))
            return AVal(kind="int")
        elif op in ("or", "xor", "lshr", "ashr"):
            return AVal(kind="int")
        return AVal.top()

    def _int(self, rng: Interval, width: int, signed: bool) -> AVal:
        if width:
            rng = rng.clamp_width(8 * width, signed)
        return AVal.int_range(rng)

    def _compare(self, op: str, a: AVal, b: AVal) -> AVal:
        pred = (op, a, b)
        verdict: Optional[bool] = None
        if a.is_int and b.is_int:
            verdict = a.rng.definitely(op, b.rng)
        elif a.is_ptr and b.is_ptr:
            if _is_nullish(b) and op in ("eq", "ne"):
                verdict = self._null_verdict(op, a)
            elif _is_nullish(a) and op in ("eq", "ne"):
                verdict = self._null_verdict(op, b)
            elif a.region is not None and a.region == b.region and \
                    a.nullness == "nonnull" and \
                    b.nullness == "nonnull":
                verdict = a.offset.definitely(op, b.offset)
        elif a.is_ptr and b.is_int and b.rng == Interval.const(0) \
                and op in ("eq", "ne"):
            verdict = self._null_verdict(op, a)
        elif b.is_ptr and a.is_int and a.rng == Interval.const(0) \
                and op in ("eq", "ne"):
            verdict = self._null_verdict(op, b)
        if verdict is None:
            return AVal(kind="int", rng=Interval(0, 1), pred=pred)
        return AVal(kind="int",
                    rng=Interval.const(1 if verdict else 0),
                    pred=pred)

    @staticmethod
    def _null_verdict(op: str, p: AVal) -> Optional[bool]:
        if p.nullness == "null":
            return op == "eq"
        if p.nullness == "nonnull":
            return op == "ne"
        return None

    # -- memory transfer ---------------------------------------------------

    def _load(self, ins: Load, addr: AVal, state: MState) -> AVal:
        if ins.needs_check:
            self._classify(ins, addr, Interval.const(ins.size),
                           state, is_store=False)
        value: Optional[AVal] = None
        if addr.is_ptr and addr.offset == Interval.const(0):
            key = self._scalar_slot(addr.region, ins.size) \
                if addr.region is not None else None
            if key is not None and key in state.slots:
                value = replace(state.slots[key], origin=key)
        if value is None:
            value = AVal.unknown_ptr() if ins.ptr_result \
                else AVal.top()
        elif ins.ptr_result and not value.is_ptr and \
                value.kind != "uninit":
            if value.is_int and value.rng == Interval.const(0):
                # `long *p = 0;` stores a plain integer zero; reading
                # it back as a pointer is a definite NULL.
                value = replace(AVal.null(), origin=value.origin)
            else:
                value = replace(AVal.unknown_ptr(),
                                origin=value.origin)
        return value

    def _store(self, ins: Store, addr: AVal, src: AVal,
               state: MState) -> MState:
        if ins.needs_check:
            self._classify(ins, addr, Interval.const(ins.size),
                           state, is_store=True)
        if addr.is_ptr and addr.region is not None:
            key = self._slot_key(addr.region)
            if key is not None:
                new = state.copy()
                exact = self._scalar_slot(addr.region, ins.size)
                if exact is not None and \
                        addr.offset == Interval.const(0):
                    new.slots[exact] = replace(src, origin=None)
                else:
                    new.slots[key] = AVal.top()
                new.checked = new.checked - {key}
                return new
            if addr.region[0] == "heap" and \
                    _is_param_site(addr.region[1]):
                # Caller memory may alias any module global (but not
                # this frame's locals: they did not exist when the
                # caller formed the argument pointer).
                return self._havoc_globals(state)
            return state  # heap store: element values untracked
        # Store through an unknown pointer: it may legally target any
        # address-taken object or global (the access's own check stays,
        # so it cannot stray outside *some* valid object).
        return self._havoc_objects(state)

    def _havoc_objects(self, state: MState) -> MState:
        new = state.copy()
        dropped = set()
        for key in new.slots:
            if key.startswith("g:"):
                new.slots[key] = AVal.top()
                dropped.add(key)
            else:
                slot = self.fn.locals.get(key[2:])
                if slot is not None and slot.is_object:
                    new.slots[key] = AVal.top()
                    dropped.add(key)
        new.checked = new.checked - dropped
        return new

    def _havoc_globals(self, state: MState) -> MState:
        new = state.copy()
        dropped = set()
        for key in new.slots:
            if key.startswith("g:"):
                new.slots[key] = AVal.top()
                dropped.add(key)
        new.checked = new.checked - dropped
        return new

    def _degrade_param_siblings(self, new: MState, site):
        """A param region was freed: any other param region may alias
        it (two caller arguments can point into one object), so their
        liveness and every param-aimed dominance fact degrade."""
        for osite, oreg in list(new.heap.items()):
            if osite != site and _is_param_site(osite) and \
                    oreg.status == LIVE:
                new.heap[osite] = HeapRegion(oreg.size, MAYBE_FREED)
        new.checked = frozenset(
            s for s in new.checked
            if not self._aims_param(new, s))

    def _aims_param(self, state: MState, skey: str) -> bool:
        av = state.slots.get(skey)
        return (av is not None and av.is_ptr
                and av.region is not None
                and av.region[0] == "heap"
                and _is_param_site(av.region[1]))

    # -- calls -------------------------------------------------------------

    def _call(self, ins: Call, label: str, idx: int,
              env: Dict[int, AVal], state: MState) -> MState:
        name = ins.name

        def aval(v):
            return env.get(v, AVal.top()) if v is not None \
                else AVal.top()

        if name in ALLOC_FNS:
            return self._alloc(ins, label, idx, env, state)
        if name == "free":
            return self._free(ins, aval(ins.args[0]), state)

        if name in self.module.functions:
            summary = self.summaries.get(name)
            if summary is not None:
                return self._apply_summary(ins, summary, label, idx,
                                           env, state)

        ranges = WRAPPED_RANGE_FNS.get(name)
        if ranges:
            for ptr_index, len_index in ranges:
                self._classify(ins, aval(ins.args[ptr_index]),
                               aval(ins.args[len_index]).rng
                               if aval(ins.args[len_index]).is_int
                               else Interval.top(),
                               state, is_store=(ptr_index == 0),
                               wrapper=name)

        if ins.dst is not None:
            env[ins.dst] = AVal.unknown_ptr() if ins.ptr_result \
                else AVal.top()

        if name in PURE_FNS:
            return state
        if name in WRITE_THROUGH_ARG0:
            dst = aval(ins.args[0]) if ins.args else AVal.top()
            if dst.is_ptr and dst.region is not None:
                key = self._slot_key(dst.region)
                if key is not None:
                    new = state.copy()
                    new.slots[key] = AVal.top()
                    new.checked = new.checked - {key}
                    return new
                return state
            return self._havoc_objects(state)

        # User-defined or unknown function.
        new = self._havoc_objects(state)
        if name not in self.module.functions:
            heap = {site: HeapRegion(r.size,
                                     FREED if r.status == FREED
                                     else MAYBE_FREED)
                    for site, r in new.heap.items()}
            new = MState(new.slots, heap, frozenset())
        return new

    # -- summary application -----------------------------------------------

    def _apply_summary(self, ins: Call, s: FunctionSummary,
                       label: str, idx: int, env: Dict[int, AVal],
                       state: MState) -> MState:
        """Transfer for a call to a summarized in-module function:
        targeted effects instead of the wholesale havoc, plus (during
        the report pass) call-site findings and context collection."""
        bind: Dict[str, AVal] = {}
        binding: Dict[str, Interval] = {}
        for i, v in enumerate(ins.args):
            av = env.get(v, AVal.top()) if v is not None \
                else AVal.top()
            key = s.params[i] if i < len(s.params) else f"${i}"
            bind[key] = av
            if av.is_int:
                binding[key] = av.rng

        if self._record is not None:
            self._callsite_findings(ins, s, bind, binding, state)
            if not (s.havocs and s.frees_unknown):
                self.callsites_refined += 1
            self._collect_context(s, bind, state)

        new = state.copy()
        new = self._summary_frees(s, bind, new)
        new = self._summary_writes(s, bind, new)
        if ins.dst is not None:
            env[ins.dst] = self._summary_ret(s, bind, binding, label,
                                             idx, ins.ptr_result, new)
        return new

    def _summary_frees(self, s: FunctionSummary,
                       bind: Dict[str, AVal],
                       new: MState) -> MState:
        if s.frees_unknown:
            heap = {site: HeapRegion(r.size,
                                     FREED if r.status == FREED
                                     else MAYBE_FREED)
                    for site, r in new.heap.items()}
            return MState(new.slots, heap, frozenset())
        for p in sorted(s.frees_may):
            av = bind.get(p)
            if av is None or not av.is_ptr or \
                    av.nullness == "null":
                continue
            if av.region is None:
                # Callee frees a pointer we cannot place: anything
                # might have been released.
                heap = {site: HeapRegion(r.size,
                                         FREED if r.status == FREED
                                         else MAYBE_FREED)
                        for site, r in new.heap.items()}
                return MState(new.slots, heap, frozenset())
            if av.region[0] != "heap":
                continue  # invalid-free: reported, state unchanged
            site = av.region[1]
            region = new.heap.get(site)
            size = region.size if region is not None \
                else Interval.top()
            if p in s.frees_must or \
                    (region is not None and region.status == FREED):
                status = FREED
            else:
                status = MAYBE_FREED
            new.heap[site] = HeapRegion(size, status)
            new.checked = frozenset(
                k for k in new.checked
                if not (new.slots.get(k) is not None
                        and new.slots[k].is_ptr
                        and new.slots[k].region == av.region))
            if _is_param_site(site):
                self._degrade_param_siblings(new, site)
        return new

    def _summary_writes(self, s: FunctionSummary,
                        bind: Dict[str, AVal],
                        new: MState) -> MState:
        if s.havocs:
            return self._havoc_objects(new)
        if s.writes_globals:
            new = self._havoc_globals(new)
        for p in sorted(s.writes):
            av = bind.get(p)
            if av is None or not av.is_ptr:
                continue
            if av.region is None:
                return self._havoc_objects(new)
            key = self._slot_key(av.region)
            if key is not None:
                new.slots[key] = AVal.top()
                new.checked = new.checked - {key}
            elif av.region[0] == "heap" and \
                    _is_param_site(av.region[1]):
                # Write through caller memory: may alias globals.
                new = self._havoc_globals(new)
        return new

    def _summary_ret(self, s: FunctionSummary, bind: Dict[str, AVal],
                     binding: Dict[str, Interval], label: str,
                     idx: int, ptr_result: bool,
                     new: MState) -> AVal:
        ret = s.ret
        if ret.kind == "int":
            rng = ret.itv.eval(binding)
            return AVal.top() if rng.is_top else AVal.int_range(rng)
        if ret.kind == "null":
            return AVal.null()
        if ret.kind == "param":
            av = bind.get(ret.param)
            if av is not None and av.is_ptr:
                out = replace(av.shift(ret.off.eval(binding)),
                              origin=None)
                if ret.nullable and out.nullness == "nonnull":
                    out = replace(out, nullness="maybe")
                return out
        if ret.kind == "fresh":
            site = (f"ret:{s.name}", label, idx)
            size = ret.itv.eval(binding)
            old = new.heap.get(site)
            live = ret.fresh_live and not s.frees_unknown
            status = LIVE if live and (old is None or
                                       old.status == LIVE) \
                else MAYBE_FREED
            new.heap[site] = HeapRegion(
                Interval(max(size.lo, 0), size.hi), status)
            return AVal.ptr(("heap", site), Interval.const(0),
                            nullness="maybe")
        if ret.kind == "global":
            if ret.param in self.module.globals:
                return AVal.ptr(("global", ret.param),
                                ret.off.eval(binding),
                                nullness="maybe" if ret.nullable
                                else "nonnull")
        return AVal.unknown_ptr() if ptr_result else AVal.top()

    def _callsite_findings(self, ins: Call, s: FunctionSummary,
                           bind: Dict[str, AVal],
                           binding: Dict[str, Interval],
                           state: MState):
        """Caller-side findings from the callee's summary. Errors are
        claimed only from *definite* callee behaviour over finite
        caller facts, so every one still maps to a trapping run."""
        for p, rec in s.derefs:
            av = bind.get(p)
            if av is None or not av.is_ptr or not rec.definite:
                continue
            if av.nullness == "null":
                self._emit(ins, "null-deref", "error",
                           f"passing NULL as '{p}' to {s.name}(), "
                           f"which dereferences it")
                continue
            if av.region is None:
                continue
            if av.region[0] == "heap":
                hr = state.heap.get(av.region[1])
                if hr is not None and hr.status == FREED:
                    self._emit(ins, "uaf", "error",
                               f"passing freed pointer as '{p}' to "
                               f"{s.name}(), which dereferences it")
                    continue
                if _is_param_site(av.region[1]):
                    # Forwarding our own parameter: its backward
                    # extent is unknown and its forward extent is a
                    # lower bound, so no bounds claim here.
                    continue
            size = self._region_size(state, av.region)
            if size is None:
                continue
            win = rec.itv.eval(binding)
            if win.hi <= win.lo:
                continue  # empty window proves nothing
            under = (win.lo != float("-inf")
                     and av.offset.lo != float("-inf")
                     and av.offset.lo + win.lo < 0)
            over = (win.hi != INF and av.offset.hi != INF
                    and av.offset.hi + win.hi > size.hi)
            if under or over:
                what = "writes" if rec.write else "reads"
                self._emit(ins, "oob", "error",
                           f"{s.name}() {what} bytes {win!r} past "
                           f"argument '{p}', out of bounds of the "
                           f"{av.region[0]} object (size {size!r})")
        for p in sorted(s.frees_must):
            av = bind.get(p)
            if av is None or not av.is_ptr or \
                    av.nullness == "null" or av.region is None:
                continue
            kind = av.region[0]
            if kind in ("local", "global"):
                self._emit(ins, "invalid-free", "error",
                           f"{s.name}() frees its argument '{p}', "
                           f"but the pointer targets {kind} "
                           f"'{av.region[1]}'")
            else:
                hr = state.heap.get(av.region[1])
                if hr is not None and hr.status == FREED:
                    self._emit(ins, "double-free", "error",
                               f"{s.name}() frees its argument "
                               f"'{p}', which is already freed")
                elif not av.offset.contains(0) and \
                        not _is_param_site(av.region[1]):
                    self._emit(ins, "invalid-free", "error",
                               f"{s.name}() frees its argument "
                               f"'{p}', an interior pointer "
                               f"(offset {av.offset!r})")
        for p in sorted(s.escapes):
            av = bind.get(p)
            if av is not None and av.is_ptr and \
                    av.region is not None and \
                    av.region[0] == "local":
                self._emit(ins, "scope-escape", "warning",
                           f"pointer to local '{av.region[1]}' "
                           f"escapes through {s.name}() "
                           f"argument '{p}'")
        if s.ret.kind == "local":
            self._emit(ins, "scope-escape", "warning",
                       f"{s.name}() returns a pointer to its own "
                       f"local '{s.ret.param}'")

    def _collect_context(self, s: FunctionSummary,
                         bind: Dict[str, AVal], state: MState):
        entries = []
        for pname in s.params:
            entries.append((pname,
                            self._param_ctx(bind.get(pname), state)))
        self.callsites.append((s.name, tuple(entries)))

    def _param_ctx(self, av: Optional[AVal],
                   state: MState) -> ParamCtx:
        if av is None:
            return ParamCtx()
        if av.is_int:
            return ParamCtx(rng=av.rng)
        if not av.is_ptr:
            return ParamCtx()
        avail = 0
        live = False
        if av.region is not None:
            size = self._region_size(state, av.region)
            if size is not None and av.offset.lo >= 0 and \
                    av.offset.hi != INF and size.lo != INF:
                avail = max(0, int(size.lo - av.offset.hi))
            kind = av.region[0]
            if kind in ("local", "global"):
                live = True
            elif kind == "heap":
                hr = state.heap.get(av.region[1])
                live = hr is not None and hr.status == LIVE
        if not live and av.origin is not None and \
                av.origin in state.checked:
            live = True   # checked-on-entry: a kept caller check
                          # dominates the call
        return ParamCtx(avail=avail,
                        nullness="nonnull"
                        if av.nullness == "nonnull" else "maybe",
                        live=live)

    def _alloc(self, ins: Call, label: str, idx: int,
               env: Dict[int, AVal], state: MState) -> MState:
        def aval(v):
            return env.get(v, AVal.top())

        if ins.name == "calloc":
            size = aval(ins.args[0]).rng.mul(aval(ins.args[1]).rng) \
                if (aval(ins.args[0]).is_int and
                    aval(ins.args[1]).is_int) else Interval.top()
        else:
            arg = aval(ins.args[0])
            size = arg.rng if arg.is_int else Interval.top()
        site = (self.fn.name, label, idx)
        new = state.copy()
        if ins.dst is not None:
            if size.lo != float("inf") and \
                    size.lo > self.config.user_top:
                # Bigger than the whole user address space: the
                # bump/free-list allocator must return NULL.
                env[ins.dst] = AVal.null()
            else:
                old = new.heap.get(site)
                status = LIVE if old is None or old.status == LIVE \
                    else MAYBE_FREED
                new.heap[site] = HeapRegion(
                    Interval(max(size.lo, 0), size.hi), status)
                env[ins.dst] = AVal.ptr(("heap", site),
                                        Interval.const(0),
                                        nullness="maybe")
        return new

    def _free(self, ins: Call, p: AVal, state: MState) -> MState:
        if p.kind == "uninit":
            self._emit(ins, "uninit-deref", "error",
                       "free() of uninitialized pointer")
            return state
        if not p.is_ptr:
            return state
        if p.nullness == "null":
            return state  # free(NULL) is a no-op in the runtime
        if p.region is None:
            # Unknown provenance: anything might have been freed.
            heap = {site: HeapRegion(r.size,
                                     FREED if r.status == FREED
                                     else MAYBE_FREED)
                    for site, r in state.heap.items()}
            return MState(dict(state.slots), heap, frozenset())
        kind = p.region[0]
        if kind in ("local", "global"):
            self._emit(ins, "invalid-free", "error",
                       f"free() of non-heap pointer to "
                       f"{kind} '{p.region[1]}'")
            return state
        site = p.region[1]
        region = state.heap.get(site)
        new = state.copy()
        if region is not None and region.status == FREED:
            self._emit(ins, "double-free", "error",
                       "free() of an already-freed allocation")
        elif not p.offset.contains(0) and not _is_param_site(site):
            # (For a param region the incoming pointer may itself be
            # interior, so a nonzero offset proves nothing.)
            self._emit(ins, "invalid-free", "error",
                       f"free() of interior pointer "
                       f"(offset {p.offset!r})")
        size = region.size if region is not None else Interval.top()
        new.heap[site] = HeapRegion(size, FREED)
        # Lock died: drop dominance facts for slots aiming at it.
        new.checked = frozenset(
            s for s in new.checked
            if not (new.slots.get(s) is not None
                    and new.slots[s].is_ptr
                    and new.slots[s].region == p.region))
        if _is_param_site(site):
            self._degrade_param_siblings(new, site)
        return new

    # -- access classification ---------------------------------------------

    def _classify(self, ins, addr: AVal, length: Interval,
                  state: MState, is_store: bool,
                  wrapper: Optional[str] = None):
        """Judge one checked access; record findings (report pass) and
        fold the verdict into the instruction's AccessFacts."""
        spatial_ok = False
        temporal_ok = False
        cross_call = False
        what = f"{wrapper}() range" if wrapper else \
            ("store" if is_store else "load")

        if addr.kind == "uninit":
            self._emit(ins, "uninit-deref", "error",
                       f"{what} through uninitialized pointer"
                       + (f" (from '{addr.origin[2:]}')"
                          if addr.origin else ""))
        elif addr.is_ptr:
            if addr.nullness == "null":
                self._emit(ins, "null-deref", "error",
                           f"{what} through NULL pointer")
            elif addr.region is not None:
                spatial_ok, temporal_ok, cross_call = \
                    self._judge_region(ins, addr, length, state,
                                       what)
            self._check_subobj(ins, addr, length, wrapper, what)

        temporal_dom = (addr.origin is not None
                        and addr.origin in state.checked)
        if self._stamp and not wrapper:
            facts = getattr(ins, "_ms_facts", None)
            if facts is None:
                facts = AccessFacts()
                ins._ms_facts = facts
            facts.spatial_ok &= spatial_ok
            facts.temporal_ok &= temporal_ok
            facts.temporal_dom &= temporal_dom
            facts.cross_call |= cross_call
            facts.note_origin(addr.origin)
            if is_store:
                facts.note_target(addr.region if addr.is_ptr
                                  else None)
        # Seed dominance only when this access keeps a temporal check
        # (a fully-proven access's check disappears; a dominated one
        # reuses the earlier check).
        if not wrapper and addr.origin is not None and \
                not temporal_ok and not temporal_dom:
            state.checked = state.checked | {addr.origin}

    def _judge_region(self, ins, addr: AVal, length: Interval,
                      state: MState, what: str
                      ) -> Tuple[bool, bool, bool]:
        region = addr.region
        size = self._region_size(state, region)
        kind = region[0]
        temporal_ok = kind in ("local", "global")
        param = kind == "heap" and _is_param_site(region[1])
        if kind == "heap":
            hr = state.heap.get(region[1])
            if hr is not None and hr.status == FREED:
                self._emit(ins, "uaf", "error",
                           f"{what} through freed heap pointer")
                return False, False, False
            temporal_ok = hr is not None and hr.status == LIVE
        if size is None:
            return False, temporal_ok, param and temporal_ok
        end = addr.offset.add(length)
        if addr.offset.lo < 0 or end.hi > size.hi:
            if param:
                # Behind the incoming pointer: the caller may have
                # passed an interior pointer, so the region's
                # backward extent is unknown — no claim either way.
                return False, temporal_ok, param and temporal_ok
            if length.lo > 0 or not what.endswith("range"):
                name = region[1] if kind != "heap" else "allocation"
                self._emit(ins, "oob", "error",
                           f"{what} out of bounds of {kind} object "
                           f"'{name}': offsets {addr.offset!r}+"
                           f"{length!r} exceed size {size!r}")
            return False, temporal_ok, param and temporal_ok
        spatial_ok = (addr.offset.lo >= 0
                      and end.hi <= size.lo
                      and addr.nullness == "nonnull")
        # A proof that leaned on a parameter region leaned on the
        # call-site context; elision stats attribute it cross-call.
        return spatial_ok, temporal_ok, \
            param and (spatial_ok or temporal_ok)

    def _check_subobj(self, ins, addr: AVal, length: Interval,
                      wrapper: Optional[str], what: str):
        """Intra-object overflow: the access escapes the struct field
        its pointer was formed from. Object-granularity metadata (one
        bound per allocation) cannot trap these, so they are reported
        even when the access stays inside the allocation."""
        if addr.sub is None or addr.nullness == "null":
            return
        if length.lo <= 0 and wrapper is not None:
            return
        rel, sub_size = addr.sub
        end = rel.add(length)
        if rel.lo < 0 or end.hi > sub_size:
            self._emit(ins, "intra-oob", "error",
                       f"{what} overflows the {sub_size}-byte struct "
                       f"field it points into (field-relative "
                       f"offsets {rel!r}+{length!r})")

    def _emit(self, ins, kind: str, severity: str, message: str):
        if self._record is not None:
            self._record(ins, kind, severity, message)

    # -- branches ----------------------------------------------------------

    def _branch(self, ins: Br, cond: AVal, state: MState):
        then_state: Optional[MState] = state
        else_state: Optional[MState] = state.copy()

        if cond.is_int and not cond.rng.is_top:
            if cond.rng == Interval.const(0):
                then_state = None
            elif not cond.rng.contains(0):
                else_state = None
        elif cond.is_ptr:
            if cond.nullness == "null":
                then_state = None
            elif cond.nullness == "nonnull":
                else_state = None

        pred = cond.pred
        if pred is None and cond.is_ptr:
            pred = ("ne", cond, AVal.int_const(0))
        elif pred is None and cond.is_int and cond.origin:
            pred = ("ne", cond, AVal.int_const(0))
        if pred is not None:
            op, la, lb = pred
            if then_state is not None:
                then_state = self._apply_pred(then_state, op, la, lb)
            if else_state is not None:
                else_state = self._apply_pred(else_state,
                                              CMP_NEG[op], la, lb)
        if ins.then_label == ins.else_label:
            if then_state is None:
                return else_state
            if else_state is None:
                return then_state
            return self.join(then_state, else_state)
        return EdgeStates({ins.then_label: then_state,
                           ins.else_label: else_state})

    def _apply_pred(self, state: MState, op: str, la: AVal,
                    lb: AVal) -> Optional[MState]:
        if la.is_int and lb.is_int:
            if la.rng.definitely(op, lb.rng) is False:
                return None
        new = state
        for side, other, sop in ((la, lb, op),
                                 (lb, la, CMP_SWAP[op])):
            key = side.origin
            if key is None:
                continue
            cur = new.slots.get(key)
            if cur is None or not _same_value(cur, side):
                continue
            refined = _refine(side, sop, other)
            if refined is None:
                return None
            if not _same_value(refined, cur):
                if new is state:
                    new = state.copy()
                new.slots[key] = replace(refined, origin=None)
        return new


# -- refinement helpers ----------------------------------------------------

def _is_nullish(av: AVal) -> bool:
    return (av.is_ptr and av.nullness == "null") or \
        (av.is_int and av.rng == Interval.const(0))


def _flip_bool(rng: Interval) -> Interval:
    if rng == Interval.const(0):
        return Interval.const(1)
    if not rng.contains(0):
        return Interval.const(0)
    return Interval(0, 1)


def _div_const(rng: Interval, d: int) -> Interval:
    def trunc(x):
        if x in (float("inf"), float("-inf")):
            return x
        q = abs(int(x)) // d
        return q if x >= 0 else -q
    lo, hi = trunc(rng.lo), trunc(rng.hi)
    return Interval(min(lo, hi), max(lo, hi))


def _refine(av: AVal, op: str, other: AVal) -> Optional[AVal]:
    """Value of ``av`` assuming ``av op other`` holds; None if that is
    impossible (the edge is infeasible)."""
    if av.is_ptr and _is_nullish(other) and op in ("eq", "ne"):
        if op == "eq":
            if av.nullness == "nonnull":
                return None
            return AVal.null()
        if av.nullness == "null":
            return None
        return replace(av, nullness="nonnull")
    if av.is_int and other.is_int:
        rng = _refine_rng(av.rng, op, other.rng)
        if rng is None:
            return None
        return replace(av, rng=rng)
    if av.is_ptr and other.is_ptr and av.region is not None and \
            av.region == other.region:
        rng = _refine_rng(av.offset, op, other.offset)
        if rng is None:
            return None
        return replace(av, offset=rng)
    return av


def _refine_rng(rng: Interval, op: str,
                other: Interval) -> Optional[Interval]:
    if op == "eq":
        return rng.meet(other)
    if op == "ne":
        if other.is_const:
            if rng.is_const and rng.lo == other.lo:
                return None
            if rng.lo == other.lo:
                return Interval(rng.lo + 1, rng.hi)
            if rng.hi == other.hi:
                return Interval(rng.lo, rng.hi - 1)
        return rng
    if op in ("ult", "ule", "ugt", "uge") and \
            (rng.lo < 0 or other.lo < 0):
        return rng  # unsigned view of negatives: no refinement
    if op in ("slt", "ult"):
        return rng.meet(Interval(float("-inf"), other.hi - 1))
    if op in ("sle", "ule"):
        return rng.meet(Interval(float("-inf"), other.hi))
    if op in ("sgt", "ugt"):
        return rng.meet(Interval(other.lo + 1, float("inf")))
    if op in ("sge", "uge"):
        return rng.meet(Interval(other.lo, float("inf")))
    return rng

