"""Bottom-up function summaries for the interprocedural analysis.

A :class:`FunctionSummary` describes one function's externally visible
memory behaviour in terms of its **own parameters**:

* ``derefs`` — byte windows the function reads/writes through each
  pointer parameter, with **affine symbolic bounds** over the integer
  parameters (``fn(p, n)`` accessing ``p[0..8n)`` keeps the ``n``);
* ``writes`` — pointer parameters written through;
* ``frees_must`` / ``frees_may`` — parameters whose region is freed
  on every path / on some path;
* ``escapes`` — parameters whose pointer value is stored somewhere
  that outlives the call (a global, the heap, or an unknown callee);
* ``writes_globals`` / ``havocs`` / ``frees_unknown`` — coarse bits:
  the function may write module globals, may write through pointers
  we cannot identify, or may free regions we cannot identify
  (transitively including calls to unknown code);
* ``ret`` — what the return value is (a parameter passthrough with a
  symbolic offset, a fresh allocation with a symbolic size, null, a
  global, an int range, or unknown).

Summaries are computed bottom-up over the call-graph SCC condensation
(:mod:`repro.analyze.callgraph`); members of a cyclic component are
iterated to a local fixpoint starting from the optimistic empty
summary and fall back to :func:`conservative_summary` if the cap is
hit. The symbolic walker reuses the generic dataflow engine with a
small affine domain (:class:`SymItv` over :data:`SymBound` bounds of
shape ``scale·param + const``).

The module also defines :class:`FnContext` — the *top-down* dual: the
meet over all call sites of the facts the callers establish about a
callee's parameters (int ranges, available bytes behind pointer
arguments, nullness, and the ``checked-on-entry`` liveness bit that
powers cross-call temporal-check elision). Contexts are collected by
``MemSafety`` during its report pass and joined by the interproc
driver; this module only provides the representation and the join.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.analyze.cfg import CFG
from repro.analyze.dataflow import (EdgeStates, ForwardAnalysis,
                                    run_forward)
from repro.analyze.domain import INF, NEG_INF, Interval
from repro.ir.instrument import ALLOC_FNS, WRAPPED_RANGE_FNS
from repro.ir.ir import (AddrGlobal, AddrLocal, BinOp, Br, Call, Conv,
                         Function, GetParam, IConst, Jmp, Load, Module,
                         Ret, Store, UnOp)

__all__ = ["SymBound", "SymItv", "Deref", "RetSummary",
           "FunctionSummary", "ParamCtx", "FnContext",
           "compute_summaries", "conservative_summary",
           "PURE_FNS", "WRITE_THROUGH_ARG0", "KNOWN_RUNTIME"]

# Runtime helpers that neither write user memory nor free anything.
PURE_FNS = frozenset({"print_char", "print_str", "print_int",
                      "print_hex", "rand_seed", "rand_next",
                      "strlen", "strcmp", "strncmp", "memcmp",
                      "__alloc_size"})
# Runtime helpers that write through their first pointer argument.
WRITE_THROUGH_ARG0 = frozenset({"memcpy", "memset", "strncpy",
                                "strcpy", "strcat"})
KNOWN_RUNTIME = (PURE_FNS | WRITE_THROUGH_ARG0 | set(ALLOC_FNS)
                 | {"free"})


# ---------------------------------------------------------------------------
# Affine symbolic bounds: scale·param + const  (param None => plain const)
# ---------------------------------------------------------------------------

SymBound = Tuple[Optional[str], int, float]


def sb_const(c) -> SymBound:
    return (None, 0, c)


def sb_of(param: str) -> SymBound:
    return (param, 1, 0)


def sb_inf(side: int) -> SymBound:
    return (None, 0, INF if side > 0 else NEG_INF)


def sb_is_inf(b: SymBound) -> bool:
    return b[0] is None and b[2] in (INF, NEG_INF)


def sb_add(a: SymBound, b: SymBound, side: int) -> SymBound:
    """a + b; incomparable symbolic mixes collapse to ±inf by
    ``side`` (-1 for a lower bound, +1 for an upper bound)."""
    if a[2] in (INF, NEG_INF) or b[2] in (INF, NEG_INF):
        return sb_inf(side)
    if a[0] is None:
        return (b[0], b[1], a[2] + b[2])
    if b[0] is None:
        return (a[0], a[1], a[2] + b[2])
    if a[0] == b[0]:
        scale = a[1] + b[1]
        if scale == 0:
            return sb_const(a[2] + b[2])
        return (a[0], scale, a[2] + b[2])
    return sb_inf(side)


def sb_mul_const(b: SymBound, k: int) -> SymBound:
    if k == 0:
        return sb_const(0)
    if b[0] is None:
        return sb_const(b[2] * k)
    return (b[0], b[1] * k, b[2] * k)


def _sb_pick(a: SymBound, b: SymBound, side: int,
             widen: bool = False) -> SymBound:
    """Join two bounds for the given side (-1: keep the smaller lower
    bound, +1: keep the larger upper bound); incomparable shapes
    collapse to ±inf."""
    if a == b:
        return a
    if (a[0], a[1]) == (b[0], b[1]):
        if widen and a[0] is None:
            # Const bounds get the same threshold widening Interval
            # uses, so loop counters stay inside C-width limits.
            grown = Interval(a[2], a[2]).widen(Interval(b[2], b[2]))
            c = grown.lo if side < 0 else grown.hi
        else:
            c = min(a[2], b[2]) if side < 0 else max(a[2], b[2])
        return (a[0], a[1], c)
    # One side already infinite in the right direction absorbs.
    if sb_is_inf(a) and ((side < 0) == (a[2] == NEG_INF)):
        return a
    if sb_is_inf(b) and ((side < 0) == (b[2] == NEG_INF)):
        return b
    return sb_inf(side)


def sb_eval(b: SymBound, binding: Dict[str, Interval],
            side: int) -> float:
    """Concretize a bound under ``param -> Interval``; unresolvable
    parameters give ±inf by side."""
    p, s, c = b
    if p is None:
        return c
    rng = binding.get(p)
    if rng is None or rng.is_top or c in (INF, NEG_INF):
        return INF if side > 0 else NEG_INF
    scaled = rng.mul(Interval.const(s)).add(Interval.const(int(c)))
    return scaled.lo if side < 0 else scaled.hi


@dataclass(frozen=True)
class SymItv:
    """Closed symbolic interval [lo, hi]."""

    lo: SymBound = sb_inf(-1)
    hi: SymBound = sb_inf(+1)

    @staticmethod
    def const(v) -> "SymItv":
        return SymItv(sb_const(v), sb_const(v))

    @staticmethod
    def of_param(p: str) -> "SymItv":
        return SymItv(sb_of(p), sb_of(p))

    @staticmethod
    def top() -> "SymItv":
        return SymItv()

    @property
    def is_top(self) -> bool:
        return sb_is_inf(self.lo) and sb_is_inf(self.hi)

    def add(self, other: "SymItv") -> "SymItv":
        return SymItv(sb_add(self.lo, other.lo, -1),
                      sb_add(self.hi, other.hi, +1))

    def mul_const(self, k: int) -> "SymItv":
        lo, hi = sb_mul_const(self.lo, k), sb_mul_const(self.hi, k)
        return SymItv(lo, hi) if k >= 0 else SymItv(hi, lo)

    def join(self, other: "SymItv") -> "SymItv":
        return SymItv(_sb_pick(self.lo, other.lo, -1),
                      _sb_pick(self.hi, other.hi, +1))

    def widen(self, newer: "SymItv") -> "SymItv":
        return SymItv(_sb_pick(self.lo, newer.lo, -1, widen=True),
                      _sb_pick(self.hi, newer.hi, +1, widen=True))

    def eval(self, binding: Dict[str, Interval]) -> Interval:
        return Interval(sb_eval(self.lo, binding, -1),
                        sb_eval(self.hi, binding, +1))

    def subst(self, binding: Dict[str, "SymItv"]) -> "SymItv":
        """Rewrite bounds over a callee's params into the caller's
        namespace given ``callee param -> caller SymItv``."""
        return SymItv(_sb_subst(self.lo, binding, -1),
                      _sb_subst(self.hi, binding, +1))

    def __repr__(self) -> str:
        return f"[{_sb_fmt(self.lo)},{_sb_fmt(self.hi)}]"


def _sb_subst(b: SymBound, binding: Dict[str, "SymItv"],
              side: int) -> SymBound:
    p, s, c = b
    if p is None:
        return b
    itv = binding.get(p)
    if itv is None:
        return sb_inf(side)
    inner = itv.lo if (side < 0) == (s >= 0) else itv.hi
    out = sb_mul_const(inner, s)
    return sb_add(out, sb_const(c), side)


def _sb_fmt(b: SymBound) -> str:
    p, s, c = b
    if p is None:
        if c == INF:
            return "+inf"
        if c == NEG_INF:
            return "-inf"
        return str(int(c))
    head = p if s == 1 else f"{s}*{p}"
    if c == 0:
        return head
    return f"{head}{'+' if c > 0 else ''}{int(c)}"


# ---------------------------------------------------------------------------
# Summary representation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Deref:
    """One byte window [itv.lo, itv.hi) accessed through a pointer
    parameter, relative to the incoming pointer."""

    itv: SymItv
    write: bool
    definite: bool   # executes on every path to a return

    def join(self, other: "Deref") -> "Deref":
        return Deref(self.itv.join(other.itv),
                     self.write or other.write,
                     self.definite and other.definite)


@dataclass(frozen=True)
class RetSummary:
    kind: str = "unknown"   # none|int|param|fresh|null|local|global|unknown
    param: Optional[str] = None   # param name or global name
    off: SymItv = field(default_factory=SymItv.top)
    itv: SymItv = field(default_factory=SymItv.top)  # int value / fresh size
    nullable: bool = True
    # "fresh" only: False when the function also frees heap regions of
    # its own, so the returned allocation may already be dead.
    fresh_live: bool = True


_MAX_DEREFS = 8


@dataclass(frozen=True)
class FunctionSummary:
    name: str
    params: Tuple[str, ...] = ()
    derefs: Tuple[Tuple[str, Deref], ...] = ()
    writes: frozenset = frozenset()
    frees_must: frozenset = frozenset()
    frees_may: frozenset = frozenset()
    escapes: frozenset = frozenset()
    writes_globals: bool = False
    havocs: bool = False
    frees_unknown: bool = False
    ret: RetSummary = field(default_factory=RetSummary)


def conservative_summary(name: str,
                         params: Tuple[str, ...]) -> FunctionSummary:
    """Worst-case summary: behaves like a call into unknown code."""
    return FunctionSummary(name=name, params=params,
                           escapes=frozenset(params),
                           writes=frozenset(params),
                           frees_may=frozenset(params),
                           writes_globals=True, havocs=True,
                           frees_unknown=True)


# Built-in summaries for the runtime helpers, keyed "$<argindex>".
def _rt(name, derefs=(), writes=()):
    return FunctionSummary(
        name=name, params=tuple(sorted({p for p, _ in derefs})),
        derefs=tuple(derefs), writes=frozenset(writes))


def _window(param, lo, hi, write, definite=True):
    return (param, Deref(SymItv(lo, hi), write, definite))


_N = sb_of("$2")
RUNTIME_SUMMARIES: Dict[str, FunctionSummary] = {
    "memcpy": _rt("memcpy",
                  derefs=(_window("$0", sb_const(0), _N, True),
                          _window("$1", sb_const(0), _N, False)),
                  writes=("$0",)),
    "memset": _rt("memset",
                  derefs=(_window("$0", sb_const(0), _N, True),),
                  writes=("$0",)),
    "memcmp": _rt("memcmp",
                  derefs=(_window("$0", sb_const(0), _N, False,
                                  definite=False),
                          _window("$1", sb_const(0), _N, False,
                                  definite=False))),
    "strncpy": _rt("strncpy",
                   derefs=(_window("$0", sb_const(0), _N, True),
                           _window("$1", sb_const(0), _N, False,
                                   definite=False)),
                   writes=("$0",)),
    "strncmp": _rt("strncmp",
                   derefs=(_window("$0", sb_const(0), _N, False,
                                   definite=False),
                           _window("$1", sb_const(0), _N, False,
                                   definite=False))),
    "strcpy": _rt("strcpy",
                  derefs=(_window("$0", sb_const(0), sb_inf(+1),
                                  True, definite=False),
                          _window("$1", sb_const(0), sb_inf(+1),
                                  False, definite=False)),
                  writes=("$0",)),
    "strcat": _rt("strcat",
                  derefs=(_window("$0", sb_const(0), sb_inf(+1),
                                  True, definite=False),
                          _window("$1", sb_const(0), sb_inf(+1),
                                  False, definite=False)),
                  writes=("$0",)),
    "strlen": _rt("strlen",
                  derefs=(_window("$0", sb_const(0), sb_inf(+1),
                                  False, definite=False),)),
    "strcmp": _rt("strcmp",
                  derefs=(_window("$0", sb_const(0), sb_inf(+1),
                                  False, definite=False),
                          _window("$1", sb_const(0), sb_inf(+1),
                                  False, definite=False))),
}
for _p in ("print_char", "print_int", "print_hex", "rand_seed",
           "rand_next", "__alloc_size"):
    RUNTIME_SUMMARIES[_p] = FunctionSummary(name=_p)
RUNTIME_SUMMARIES["print_str"] = _rt(
    "print_str", derefs=(_window("$0", sb_const(0), sb_inf(+1),
                                 False, definite=False),))


# ---------------------------------------------------------------------------
# Top-down contexts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParamCtx:
    """What every call site guarantees about one parameter."""

    rng: Interval = field(default_factory=Interval.top)  # int params
    avail: float = 0        # min bytes from the pointer to region end
    nullness: str = "maybe"
    live: bool = False      # checked-on-entry: region live / checked
                            # at every call site

    def join(self, other: "ParamCtx") -> "ParamCtx":
        nullness = self.nullness if self.nullness == other.nullness \
            else "maybe"
        return ParamCtx(self.rng.join(other.rng),
                        min(self.avail, other.avail),
                        nullness, self.live and other.live)


@dataclass(frozen=True)
class FnContext:
    """Join over all call sites; absence of a context means Top."""

    params: Tuple[Tuple[str, ParamCtx], ...] = ()

    def get(self, name: str) -> Optional[ParamCtx]:
        for p, ctx in self.params:
            if p == name:
                return ctx
        return None

    def join(self, other: "FnContext") -> "FnContext":
        out = []
        mine = dict(self.params)
        for p, ctx in other.params:
            cur = mine.get(p)
            out.append((p, ctx if cur is None else cur.join(ctx)))
        return FnContext(tuple(out))


# ---------------------------------------------------------------------------
# The symbolic walker
# ---------------------------------------------------------------------------

_PTR_UNKNOWN = ("unknown",)
_PTR_NULL = ("null",)

_CMP_OPS = frozenset({"eq", "ne", "slt", "sle", "sgt", "sge",
                      "ult", "ule", "ugt", "uge"})
_CMP_NEG = {"eq": "ne", "ne": "eq", "slt": "sge", "sge": "slt",
            "sle": "sgt", "sgt": "sle", "ult": "uge", "uge": "ult",
            "ule": "ugt", "ugt": "ule"}
_CMP_SWAP = {"eq": "eq", "ne": "ne", "slt": "sgt", "sgt": "slt",
             "sle": "sge", "sge": "sle", "ult": "ugt", "ugt": "ult",
             "ule": "uge", "uge": "ule"}


@dataclass(frozen=True)
class SymVal:
    """Block-local symbolic value: int interval, pointer base+offset,
    uninitialized, or top."""

    kind: str = "top"            # int|ptr|uninit|top
    itv: SymItv = field(default_factory=SymItv.top)
    base: tuple = _PTR_UNKNOWN
    off: SymItv = field(default_factory=SymItv.top)
    origin: Optional[str] = None
    pred: Optional[tuple] = None

    @staticmethod
    def top() -> "SymVal":
        return SymVal()

    @staticmethod
    def uninit() -> "SymVal":
        return SymVal(kind="uninit")

    @staticmethod
    def int_itv(itv: SymItv, pred=None) -> "SymVal":
        return SymVal(kind="int", itv=itv, pred=pred)

    @staticmethod
    def ptr(base, off: SymItv) -> "SymVal":
        return SymVal(kind="ptr", base=base, off=off)

    @property
    def is_int(self) -> bool:
        return self.kind == "int"

    @property
    def is_ptr(self) -> bool:
        return self.kind == "ptr"

    def join(self, other: "SymVal") -> "SymVal":
        if self == other:
            return self
        origin = self.origin if self.origin == other.origin else None
        if self.kind == "uninit" and other.kind == "uninit":
            return SymVal.uninit()
        if self.is_int and other.is_int:
            return SymVal(kind="int", itv=self.itv.join(other.itv),
                          origin=origin)
        if self.is_ptr and other.is_ptr:
            if self.base == _PTR_NULL:
                return replace(other, origin=origin)
            if other.base == _PTR_NULL:
                return replace(self, origin=origin)
            if self.base == other.base:
                return SymVal(kind="ptr", base=self.base,
                              off=self.off.join(other.off),
                              origin=origin)
            return SymVal(kind="ptr", base=_PTR_UNKNOWN,
                          off=SymItv.top(), origin=origin)
        return SymVal.top()

    def widen(self, newer: "SymVal") -> "SymVal":
        if self.is_int and newer.is_int:
            return SymVal(kind="int", itv=self.itv.widen(newer.itv),
                          origin=self.origin
                          if self.origin == newer.origin else None)
        if self.is_ptr and newer.is_ptr and self.base == newer.base:
            return SymVal(kind="ptr", base=self.base,
                          off=self.off.widen(newer.off),
                          origin=self.origin
                          if self.origin == newer.origin else None)
        return self.join(newer)


class _SummaryWalk(ForwardAnalysis):
    """Dataflow client for one function's symbolic walk. State is
    ``slot key -> SymVal`` (same keying as MemSafety)."""

    def __init__(self, module: Module, fn: Function,
                 summaries: Dict[str, FunctionSummary]):
        from repro.minic.types import PointerType

        self.module = module
        self.fn = fn
        self.summaries = summaries
        self._ptr_param = {
            p: isinstance(fn.locals[p].ctype, PointerType)
            for p in fn.param_names if p in fn.locals}
        # effect accumulators, filled by the collect pass
        self.derefs: List[Tuple[str, Deref]] = []
        self.writes: set = set()
        self.free_events: List[Tuple[str, str, bool]] = []
        self.escapes: set = set()
        self.writes_globals = False
        self.havocs = False
        self.frees_unknown = False
        self.rets: List[SymVal] = []
        self.heap_sizes: Dict[tuple, SymItv] = {}
        self.freed_own = False
        self._collect = False
        self._cur_label = ""
        self._definite = lambda label: False

    # -- lattice -----------------------------------------------------------

    def initial_state(self, cfg: CFG):
        state: Dict[str, SymVal] = {}
        for name in self.fn.locals:
            state["l:" + name] = SymVal.uninit()
        for name in self.module.globals:
            state["g:" + name] = SymVal.top()
        return state

    def copy(self, state):
        return dict(state)

    def join(self, a, b):
        out = {}
        for key in a.keys() | b.keys():
            va, vb = a.get(key), b.get(key)
            out[key] = va.join(vb) if va is not None and \
                vb is not None else SymVal.top()
        return out

    def widen(self, old, new):
        out = {}
        for key in old.keys() | new.keys():
            va, vb = old.get(key), new.get(key)
            out[key] = va.widen(vb) if va is not None and \
                vb is not None else SymVal.top()
        return out

    # -- transfer ----------------------------------------------------------

    def transfer(self, cfg: CFG, label: str, state):
        return self._walk(cfg.blocks[label], state)

    def _walk(self, blk, state):
        env: Dict[int, SymVal] = {}

        def aval(v: Optional[int]) -> SymVal:
            if v is None:
                return SymVal.top()
            return env.get(v, SymVal.top())

        out = state
        for idx, ins in enumerate(blk.instrs):
            if isinstance(ins, IConst):
                if self.fn.prov.get(ins.dst) == ("null", None):
                    env[ins.dst] = SymVal.ptr(_PTR_NULL,
                                              SymItv.const(0))
                else:
                    env[ins.dst] = SymVal.int_itv(
                        SymItv.const(ins.value))
            elif isinstance(ins, AddrLocal):
                env[ins.dst] = SymVal.ptr(("local", ins.name),
                                          SymItv.const(0))
            elif isinstance(ins, AddrGlobal):
                env[ins.dst] = SymVal.ptr(("global", ins.name),
                                          SymItv.const(0))
            elif isinstance(ins, GetParam):
                pname = self.fn.param_names[ins.index] \
                    if ins.index < len(self.fn.param_names) else None
                if pname is None:
                    env[ins.dst] = SymVal.top()
                elif self._ptr_param.get(pname):
                    env[ins.dst] = SymVal.ptr(("param", pname),
                                              SymItv.const(0))
                else:
                    env[ins.dst] = SymVal.int_itv(
                        SymItv.of_param(pname))
            elif isinstance(ins, Conv):
                a = aval(ins.a)
                env[ins.dst] = a if a.is_ptr or a.is_int \
                    else SymVal.top()
            elif isinstance(ins, UnOp):
                env[ins.dst] = self._unop(ins.op, aval(ins.a))
            elif isinstance(ins, BinOp):
                env[ins.dst] = self._binop(ins.op, aval(ins.a),
                                           aval(ins.b))
            elif isinstance(ins, Load):
                env[ins.dst] = self._load(ins, aval(ins.addr), out)
            elif isinstance(ins, Store):
                out = self._store(ins, aval(ins.addr),
                                  aval(ins.src), out, blk.label)
            elif isinstance(ins, Call):
                out = self._call(ins, blk.label, idx, env, out)
            elif isinstance(ins, Ret):
                if self._collect:
                    self.rets.append(aval(ins.value)
                                     if ins.value is not None
                                     else SymVal(kind="int"))
                return out
            elif isinstance(ins, Br):
                return self._branch(ins, aval(ins.cond), out)
            elif isinstance(ins, Jmp):
                return out
            else:
                for d in ins.defs():
                    env[d] = SymVal.top()
        return out

    def _unop(self, op: str, a: SymVal) -> SymVal:
        if op == "lognot" and a.pred is not None:
            pop, pl, pr = a.pred
            return SymVal.int_itv(SymItv(sb_const(0), sb_const(1)),
                                  pred=(_CMP_NEG[pop], pl, pr))
        return SymVal(kind="int") if op in ("neg", "not", "lognot") \
            else SymVal.top()

    def _binop(self, op: str, a: SymVal, b: SymVal) -> SymVal:
        if op in _CMP_OPS:
            verdict = None
            if a.is_int and b.is_int:
                ra = a.itv.eval({})
                rb = b.itv.eval({})
                if not ra.is_top and not rb.is_top:
                    verdict = ra.definitely(op, rb)
            itv = SymItv(sb_const(0), sb_const(1)) if verdict is None \
                else SymItv.const(1 if verdict else 0)
            return SymVal.int_itv(itv, pred=(op, a, b))
        if op == "add":
            if a.is_ptr and b.is_int:
                return replace(a, off=a.off.add(b.itv), pred=None)
            if b.is_ptr and a.is_int:
                return replace(b, off=b.off.add(a.itv), pred=None)
            if a.is_int and b.is_int:
                return SymVal.int_itv(a.itv.add(b.itv))
        elif op == "sub":
            if a.is_ptr and b.is_int:
                return replace(a, off=a.off.add(b.itv.mul_const(-1)),
                               pred=None)
            if a.is_int and b.is_int:
                return SymVal.int_itv(
                    a.itv.add(b.itv.mul_const(-1)))
            return SymVal(kind="int")
        elif op in ("mul", "shl"):
            if a.is_int and b.is_int:
                for x, y in ((a, b), (b, a)):
                    const = y.itv.eval({})
                    if const.is_const and op == "mul":
                        return SymVal.int_itv(
                            x.itv.mul_const(int(const.lo)))
                    if const.is_const and op == "shl" and \
                            0 <= const.lo <= 48:
                        return SymVal.int_itv(
                            x.itv.mul_const(1 << int(const.lo)))
                    if op == "shl":
                        break
                return SymVal(kind="int")
        elif op in ("and", "or", "xor", "sdiv", "udiv", "srem",
                    "urem", "lshr", "ashr"):
            return SymVal(kind="int")
        return SymVal.top()

    def _slot_key(self, base) -> Optional[str]:
        if base[0] == "local":
            return "l:" + base[1]
        if base[0] == "global":
            return "g:" + base[1]
        return None

    def _scalar_slot(self, base, size: int) -> Optional[str]:
        key = self._slot_key(base)
        if key is None:
            return None
        if base[0] == "local":
            obj = self.fn.locals.get(base[1])
            return key if obj is not None and obj.size == size \
                else None
        data = self.module.globals.get(base[1])
        return key if data is not None and data.size == size else None

    def _load(self, ins: Load, addr: SymVal, state) -> SymVal:
        if self._collect and ins.needs_check and addr.is_ptr and \
                addr.base[0] == "param":
            self._record_deref(addr.base[1],
                               addr.off.add(SymItv(
                                   sb_const(0), sb_const(ins.size))),
                               write=False, label=self._cur_label)
        if addr.is_ptr and addr.off == SymItv.const(0):
            key = self._scalar_slot(addr.base, ins.size)
            if key is not None and key in state:
                value = replace(state[key], origin=key)
                if ins.ptr_result and not value.is_ptr and \
                        value.kind != "uninit":
                    itv = value.itv.eval({}) if value.is_int else None
                    if itv is not None and itv == Interval.const(0):
                        return SymVal.ptr(_PTR_NULL, SymItv.const(0))
                    return SymVal(kind="ptr", origin=value.origin)
                return value
        return SymVal(kind="ptr") if ins.ptr_result else SymVal.top()

    def _store(self, ins: Store, addr: SymVal, src: SymVal, state,
               label: str):
        if self._collect and ins.needs_check and addr.is_ptr and \
                addr.base[0] == "param":
            self._record_deref(addr.base[1],
                               addr.off.add(SymItv(
                                   sb_const(0), sb_const(ins.size))),
                               write=True, label=label)
        if self._collect and src.is_ptr and src.base[0] == "param" \
                and addr.is_ptr and addr.base[0] in ("global",
                                                     "unknown",
                                                     "param", "heap"):
            # parameter value stored somewhere that outlives the call
            self.escapes.add(src.base[1])
        if addr.is_ptr and addr.base[0] in ("local", "global"):
            if self._collect and addr.base[0] == "global":
                self.writes_globals = True
            key = self._slot_key(addr.base)
            new = dict(state)
            exact = self._scalar_slot(addr.base, ins.size)
            if exact is not None and addr.off == SymItv.const(0):
                new[exact] = replace(src, origin=None)
            elif key is not None:
                new[key] = SymVal.top()
            return new
        if addr.is_ptr and addr.base[0] in ("param", "heap"):
            if self._collect and addr.base[0] == "param":
                self.writes.add(addr.base[1])
            return state
        if self._collect:
            self.havocs = True
        return self._havoc(state)

    def _havoc(self, state):
        new = dict(state)
        for key in new:
            if key.startswith("g:"):
                new[key] = SymVal.top()
            else:
                slot = self.fn.locals.get(key[2:])
                if slot is not None and slot.is_object:
                    new[key] = SymVal.top()
        return new

    def _call(self, ins: Call, label: str, idx: int, env, state):
        name = ins.name

        def aval(v):
            return env.get(v, SymVal.top()) if v is not None \
                else SymVal.top()

        if name in ALLOC_FNS:
            site = (label, idx)
            if name == "calloc":
                a0, a1 = aval(ins.args[0]), aval(ins.args[1])
                c1 = a1.itv.eval({}) if a1.is_int else Interval.top()
                size = a0.itv.mul_const(int(c1.lo)) \
                    if a0.is_int and c1.is_const else SymItv.top()
            else:
                a0 = aval(ins.args[0])
                size = a0.itv if a0.is_int else SymItv.top()
            self.heap_sizes[site] = size
            if ins.dst is not None:
                env[ins.dst] = SymVal.ptr(("heap", site),
                                          SymItv.const(0))
            return state
        if name == "free":
            p = aval(ins.args[0]) if ins.args else SymVal.top()
            if self._collect:
                if p.is_ptr and p.base[0] == "param":
                    self.free_events.append(
                        (label, p.base[1], self._definite(label)))
                elif p.is_ptr and p.base[0] == "heap":
                    self.freed_own = True
                elif not (p.is_ptr and p.base[0] in ("local",
                                                     "global",
                                                     "null")):
                    self.frees_unknown = True
            return state

        summary = self.summaries.get(name)
        if summary is None and name in RUNTIME_SUMMARIES:
            summary = RUNTIME_SUMMARIES[name]
        if summary is None and name in self.module.functions:
            # SCC sibling not yet summarized: optimistic empty.
            summary = FunctionSummary(name=name)
        if summary is None:
            # Truly unknown external code.
            if self._collect:
                self.havocs = True
                self.frees_unknown = True
                self.writes_globals = True
                for v in ins.args:
                    p = aval(v)
                    if p.is_ptr and p.base[0] == "param":
                        self.escapes.add(p.base[1])
                        self.writes.add(p.base[1])
            if ins.dst is not None:
                env[ins.dst] = SymVal(kind="ptr") if ins.ptr_result \
                    else SymVal.top()
            return self._havoc(state)

        argvals = [aval(v) for v in ins.args]
        bind = self._bindings(summary, argvals)
        if self._collect:
            self._compose(summary, argvals, bind, label)
        if ins.dst is not None:
            env[ins.dst] = self._ret_value(summary, bind, label, idx,
                                           ins.ptr_result)
        new = state
        if summary.havocs:
            new = self._havoc(new)
        else:
            if summary.writes_globals:
                new = dict(new)
                for key in new:
                    if key.startswith("g:"):
                        new[key] = SymVal.top()
            for p in summary.writes:
                av = bind.get(p)
                if isinstance(av, SymVal) and av.is_ptr and \
                        av.base[0] in ("local", "global"):
                    key = self._slot_key(av.base)
                    if key is not None:
                        if new is state:
                            new = dict(new)
                        new[key] = SymVal.top()
        return new

    @staticmethod
    def _param_key(summary: FunctionSummary, i: int) -> str:
        if i < len(summary.params):
            return summary.params[i]
        return f"${i}"

    def _bindings(self, summary, argvals) -> Dict[str, SymVal]:
        bind: Dict[str, SymVal] = {}
        for i, av in enumerate(argvals):
            bind[self._param_key(summary, i)] = av
            bind[f"${i}"] = av
        return bind

    def _compose(self, summary, argvals, bind, label):
        """Fold a callee's summarized effects into ours."""
        sym_bind = {p: v.itv for p, v in bind.items() if v.is_int}
        for p, rec in summary.derefs:
            av = bind.get(p)
            if av is None or not av.is_ptr:
                continue
            window = rec.itv.subst(sym_bind)
            definite = rec.definite and self._definite(label)
            if av.base[0] == "param":
                self._record_deref(av.base[1], av.off.add(window),
                                   write=rec.write, label=label,
                                   definite=definite)
            if rec.write and av.base[0] == "param":
                self.writes.add(av.base[1])
        for p in summary.writes:
            av = bind.get(p)
            if av is not None and av.is_ptr and \
                    av.base[0] == "param":
                self.writes.add(av.base[1])
        for kind, names in (("must", summary.frees_must),
                            ("may", summary.frees_may)):
            for p in names:
                av = bind.get(p)
                if av is None:
                    continue
                if av.is_ptr and av.base[0] == "param":
                    definite = kind == "must" and \
                        self._definite(label)
                    self.free_events.append(
                        (label, av.base[1], definite))
                elif av.is_ptr and av.base[0] == "heap":
                    self.freed_own = True
                elif not (av.is_ptr and av.base[0] in ("local",
                                                       "global",
                                                       "null")):
                    self.frees_unknown = True
        for p in summary.escapes:
            av = bind.get(p)
            if av is not None and av.is_ptr and \
                    av.base[0] == "param":
                self.escapes.add(av.base[1])
        self.writes_globals |= summary.writes_globals
        self.havocs |= summary.havocs
        self.frees_unknown |= summary.frees_unknown
        if summary.ret.kind == "fresh" and not summary.ret.fresh_live:
            # The callee hands us a possibly-dead allocation; if we in
            # turn return it, our own callers must not trust it.
            self.freed_own = True

    def _ret_value(self, summary, bind, label, idx,
                   ptr_result) -> SymVal:
        ret = summary.ret
        if ret.kind == "int":
            return SymVal.int_itv(ret.itv.subst(
                {p: v.itv for p, v in bind.items() if v.is_int}))
        if ret.kind == "param":
            av = bind.get(ret.param)
            if av is not None and av.is_ptr:
                sym_bind = {p: v.itv for p, v in bind.items()
                            if v.is_int}
                return replace(av, off=av.off.add(
                    ret.off.subst(sym_bind)), origin=None, pred=None)
        if ret.kind == "fresh":
            sym_bind = {p: v.itv for p, v in bind.items()
                        if v.is_int}
            site = ("ret", label, idx)
            self.heap_sizes[site] = ret.itv.subst(sym_bind)
            return SymVal.ptr(("heap", site), SymItv.const(0))
        if ret.kind == "null":
            return SymVal.ptr(_PTR_NULL, SymItv.const(0))
        if ret.kind == "global":
            sym_bind = {p: v.itv for p, v in bind.items()
                        if v.is_int}
            return SymVal.ptr(("global", ret.param),
                              ret.off.subst(sym_bind))
        return SymVal(kind="ptr") if ptr_result else SymVal.top()

    def _record_deref(self, param: str, window: SymItv, write: bool,
                      label: str, definite: Optional[bool] = None):
        if definite is None:
            definite = self._definite(label)
        rec = Deref(window, write, definite)
        self.derefs.append((param, rec))

    # -- branches ----------------------------------------------------------

    def _branch(self, ins: Br, cond: SymVal, state):
        then_state = state
        else_state = dict(state)
        crng = cond.itv.eval({}) if cond.is_int else None
        if crng is not None and crng.is_const:
            if crng.lo == 0:
                then_state = None
            else:
                else_state = None
        pred = cond.pred
        if pred is not None:
            op, la, lb = pred
            if then_state is not None:
                then_state = self._apply_pred(then_state, op, la, lb)
            if else_state is not None:
                else_state = self._apply_pred(else_state,
                                              _CMP_NEG[op], la, lb)
        if ins.then_label == ins.else_label:
            if then_state is None:
                return else_state
            if else_state is None:
                return then_state
            return self.join(then_state, else_state)
        return EdgeStates({ins.then_label: then_state,
                           ins.else_label: else_state})

    def _apply_pred(self, state, op, la, lb):
        new = state
        for side, other, sop in ((la, lb, op),
                                 (lb, la, _CMP_SWAP[op])):
            key = side.origin
            if key is None or not side.is_int or not other.is_int:
                continue
            cur = new.get(key)
            if cur is None or not cur.is_int or cur.itv != side.itv:
                continue
            refined = _sym_refine(cur.itv, sop, other.itv)
            if refined != cur.itv:
                if new is state:
                    new = dict(state)
                new[key] = SymVal.int_itv(refined)
        return new

    # -- driver ------------------------------------------------------------

    def summarize(self) -> FunctionSummary:
        result = run_forward(self, self.fn)
        cfg = result.cfg
        ret_blocks = [blk.label for blk in self.fn.blocks
                      if blk.label in cfg.reachable and
                      any(isinstance(i, Ret) for i in blk.instrs)]
        dom_cache: Dict[str, bool] = {}

        def definite(label: str) -> bool:
            hit = dom_cache.get(label)
            if hit is None:
                hit = bool(ret_blocks) and all(
                    cfg.dominates(label, rb) for rb in ret_blocks)
                dom_cache[label] = hit
            return hit

        self._definite = definite
        self._collect = True
        try:
            for label, in_state in result.block_in.items():
                self._cur_label = label
                self._walk(cfg.blocks[label], dict(in_state))
        finally:
            self._collect = False
        return self._build_summary()

    def _build_summary(self) -> FunctionSummary:
        # Collapse deref records per param, bounded for determinism.
        grouped: Dict[Tuple[str, bool, bool], Deref] = {}
        order: List[Tuple[str, bool, bool]] = []
        for p, rec in self.derefs:
            key = (p, rec.write, rec.definite)
            cur = grouped.get(key)
            if cur is None:
                grouped[key] = rec
                order.append(key)
            else:
                grouped[key] = cur.join(rec)
        derefs = tuple((key[0], grouped[key])
                       for key in order[:_MAX_DEREFS])

        frees_must = frozenset(p for _, p, definite
                               in self.free_events if definite)
        frees_may = frozenset(p for _, p, _ in self.free_events)

        ret = RetSummary(kind="none")
        for rv in self.rets:
            ret = _join_ret(ret, self._ret_of(rv))

        return FunctionSummary(
            name=self.fn.name,
            params=tuple(self.fn.param_names),
            derefs=derefs,
            writes=frozenset(self.writes),
            frees_must=frees_must,
            frees_may=frees_may,
            escapes=frozenset(self.escapes),
            writes_globals=self.writes_globals,
            havocs=self.havocs,
            frees_unknown=self.frees_unknown,
            ret=ret)

    def _ret_of(self, rv: SymVal) -> RetSummary:
        if rv.is_int:
            return RetSummary(kind="int", itv=rv.itv,
                              nullable=True)
        if rv.is_ptr:
            base = rv.base
            if base == _PTR_NULL:
                return RetSummary(kind="null")
            if base[0] == "param":
                return RetSummary(kind="param", param=base[1],
                                  off=rv.off, nullable=False)
            if base[0] == "heap":
                # The allocator can return NULL, and the callee may
                # have freed its own allocation — callers must treat
                # the region as maybe-null and only maybe-live when
                # the callee frees anything.
                size = self.heap_sizes.get(base[1], SymItv.top())
                return RetSummary(kind="fresh", itv=size,
                                  nullable=True,
                                  fresh_live=not self.freed_own)
            if base[0] == "local":
                return RetSummary(kind="local", param=base[1])
            if base[0] == "global":
                return RetSummary(kind="global", param=base[1],
                                  off=rv.off, nullable=False)
        return RetSummary(kind="unknown")


def _join_ret(a: RetSummary, b: RetSummary) -> RetSummary:
    if a.kind == "none":
        return b
    if b.kind == "none":
        return a
    if a.kind == "null" and b.kind in ("param", "fresh", "global"):
        return replace(b, nullable=True)
    if b.kind == "null" and a.kind in ("param", "fresh", "global"):
        return replace(a, nullable=True)
    if a.kind != b.kind:
        return RetSummary(kind="unknown")
    if a.kind == "int":
        return RetSummary(kind="int", itv=a.itv.join(b.itv))
    if a.kind == "param" and a.param == b.param:
        return RetSummary(kind="param", param=a.param,
                          off=a.off.join(b.off),
                          nullable=a.nullable or b.nullable)
    if a.kind == "fresh":
        return RetSummary(kind="fresh", itv=a.itv.join(b.itv),
                          nullable=a.nullable or b.nullable,
                          fresh_live=a.fresh_live and b.fresh_live)
    if a.kind == "global" and a.param == b.param:
        return RetSummary(kind="global", param=a.param,
                          off=a.off.join(b.off),
                          nullable=a.nullable or b.nullable)
    if a == b:
        return a
    return RetSummary(kind="unknown")


def _sym_refine(itv: SymItv, op: str, other: SymItv) -> SymItv:
    """Value of ``itv`` assuming ``itv op other`` holds (refinement is
    free to keep either the old or the new bound — both are sound
    over-approximations of the intersection; we prefer the symbolic
    one, which is what turns ``i < n`` into ``p[0..n)``)."""
    if op in ("slt", "ult"):
        return SymItv(itv.lo, _prefer(sb_add(other.hi, sb_const(-1),
                                             +1), itv.hi))
    if op in ("sle", "ule"):
        return SymItv(itv.lo, _prefer(other.hi, itv.hi))
    if op in ("sgt", "ugt"):
        return SymItv(_prefer(sb_add(other.lo, sb_const(1), -1),
                              itv.lo), itv.hi)
    if op in ("sge", "uge"):
        return SymItv(_prefer(other.lo, itv.lo), itv.hi)
    if op == "eq":
        return SymItv(_prefer(other.lo, itv.lo),
                      _prefer(other.hi, itv.hi))
    return itv


def _prefer(new: SymBound, old: SymBound) -> SymBound:
    """Pick the more informative of two sound bounds: anything beats
    ±inf; a symbolic bound beats a const (that is the size-relation
    the summaries exist to capture)."""
    if sb_is_inf(new):
        return old
    if sb_is_inf(old):
        return new
    if new[0] is not None and old[0] is None:
        return new
    if old[0] is not None and new[0] is None:
        return old
    return new


# ---------------------------------------------------------------------------
# Bottom-up fixpoint over SCCs
# ---------------------------------------------------------------------------

_SCC_CAP = 4


def compute_summaries(module: Module, callgraph
                      ) -> Tuple[Dict[str, FunctionSummary], int]:
    """Summaries for every in-module function, bottom-up; returns
    ``(summaries, total SCC fixpoint iterations)``."""
    summaries: Dict[str, FunctionSummary] = {}
    iterations = 0
    for comp in callgraph.sccs():
        cyclic = len(comp) > 1 or \
            comp[0] in callgraph.callees[comp[0]]
        if not cyclic:
            name = comp[0]
            walk = _SummaryWalk(module, module.functions[name],
                                summaries)
            summaries[name] = walk.summarize()
            iterations += 1
            continue
        # Optimistic iteration within the cycle.
        stable = False
        for _ in range(_SCC_CAP):
            iterations += 1
            changed = False
            for name in comp:
                walk = _SummaryWalk(module, module.functions[name],
                                    summaries)
                new = walk.summarize()
                if summaries.get(name) != new:
                    summaries[name] = new
                    changed = True
            if not changed:
                stable = True
                break
        if not stable:
            for name in comp:
                fn = module.functions[name]
                summaries[name] = conservative_summary(
                    name, tuple(fn.param_names))
    return summaries, iterations
