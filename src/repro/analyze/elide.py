"""Redundant-check elimination over an instrumented module.

Runs *after* an elidable instrumentation pass. The instrumentation
tagged every op it emitted for a checked access with ``_check_for``
(the guarded Load/Store) and ``_check_part``:

* ``"spatial"``  — bounds materialisation + the fused-check binding
  (HwBndrs / inline compares); dropped when the access is proven
  in-bounds, together with clearing ``checked`` so the lowered access
  becomes a plain load/store.
* ``"temporal"`` — key/lock materialisation + HwBndrt + tchk (or the
  inline key compare); dropped when the region is statically live or
  an equivalent earlier check on the same unchanged pointer
  dominates this one.
* ``"shared"``   — metadata materialisation both halves rely on
  (e.g. SBCETS ``__sb_mload``); dropped only on full elision.

The analysis facts come from ``ins._ms_facts`` stamped by
:func:`repro.analyze.interproc.analyze_module_interproc` (with
``stamp=True``) on the pre-instrumentation module — instrumentation
re-emits the same instruction objects, so the facts ride along.

Soundness is *scheme-relative*: a pass advertises ``elidable = True``
only when dropping a proven check cannot change what the scheme
detects (see docs/analysis.md for the argument, including why a
maybe-null heap pointer still allows temporal elision but never
spatial elision).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.config import HwstConfig
from repro.ir.instrument import PASSES
from repro.ir.ir import (AddrGlobal, AddrLocal, BasicBlock, Br, Call,
                         Jmp, Load, Module, Store)
from repro.minic.types import VOID, PointerType

__all__ = ["ElisionStats", "elide_module", "hoist_loop_checks"]


@dataclass
class ElisionStats:
    """What the pass did, for compile.analyze.* counters."""

    checks_total: int = 0          # tagged check groups seen
    spatial_proven: int = 0        # accesses proven in-bounds
    temporal_proven: int = 0       # accesses with statically-live region
    temporal_dominated: int = 0    # covered by an earlier kept check
    checks_elided: int = 0         # groups fully removed
    spatial_elided: int = 0        # spatial half dropped (incl. full)
    temporal_elided: int = 0       # temporal half dropped (incl. full)
    cross_call_elided: int = 0     # drops that leaned on call-site facts
    ops_removed: int = 0           # IR instructions deleted
    by_function: Dict[str, int] = field(default_factory=dict)

    @property
    def checks_proven(self) -> int:
        """Accesses where at least one half was proven redundant."""
        return self.spatial_elided + self.temporal_elided \
            - self.checks_elided


def elide_module(module: Module,
                 config: Optional[HwstConfig] = None) -> ElisionStats:
    """Drop proven-redundant check ops from an instrumented module."""
    stats = ElisionStats()
    pass_name = module.meta.get("instrumented")
    pass_cls = PASSES.get(pass_name) if pass_name else None
    if pass_cls is None or not getattr(pass_cls, "elidable", False):
        return stats

    for fn in module.functions.values():
        removed = 0
        for blk in fn.blocks:
            decisions = _group_decisions(blk.instrs, stats)
            if not decisions:
                continue
            kept = []
            for ins in blk.instrs:
                target = getattr(ins, "_check_for", None)
                if target is not None:
                    drop_parts = decisions.get(id(target))
                    part = getattr(ins, "_check_part", "shared")
                    if drop_parts and part in drop_parts:
                        removed += 1
                        continue
                kept.append(ins)
            blk.instrs = kept
        if removed:
            stats.by_function[fn.name] = removed
        stats.ops_removed += removed
    return stats


def _group_decisions(instrs, stats: ElisionStats):
    """Per guarded access: which tagged parts to drop. Also flips the
    access's ``checked`` flag off when its spatial half goes away (a
    fused checked load with no bounds bound would trap)."""
    decisions = {}
    seen = set()
    for ins in instrs:
        target = getattr(ins, "_check_for", None)
        if target is None or id(target) in seen:
            continue
        seen.add(id(target))
        stats.checks_total += 1
        facts = getattr(target, "_ms_facts", None)
        if facts is None:
            continue
        spatial = facts.spatial_ok
        temporal_static = facts.temporal_ok
        temporal = temporal_static or facts.temporal_dom
        if facts.spatial_ok:
            stats.spatial_proven += 1
        if temporal_static:
            stats.temporal_proven += 1
        elif facts.temporal_dom:
            stats.temporal_dominated += 1
        if not spatial and not temporal:
            continue
        drop = set()
        if spatial:
            drop.add("spatial")
            stats.spatial_elided += 1
            if isinstance(target, (Load, Store)):
                target.checked = False
        if temporal:
            drop.add("temporal")
            stats.temporal_elided += 1
        if spatial and temporal:
            drop.add("shared")
            stats.checks_elided += 1
        if drop and facts.cross_call:
            stats.cross_call_elided += 1
        decisions[id(target)] = drop
    return decisions


# ===========================================================================
# Loop-invariant temporal-check hoisting
# ===========================================================================
#
# Runs on the *pre-instrumentation* module, between analysis stamping
# and instrumentation. For a natural loop whose body provably executes
# at least once, whose body calls only pure helpers (so no free() can
# run), and where a checked access's pointer is reloaded from the same
# unclobbered slot every iteration, the per-iteration temporal check is
# the same check repeated: hoist one copy into a fresh preheader and
# mark the in-loop accesses ``temporal_dom`` so the eliminator drops
# their temporal half. Soundness argument in docs/analysis.md.

def hoist_loop_checks(module: Module, per_function: Dict) -> int:
    """Hoist loop-invariant temporal checks; returns checks hoisted.

    ``per_function`` is the interprocedural driver's output
    (:class:`repro.analyze.interproc.FunctionAnalysis` per name): the
    fixpoint edge states prove the trip count and the analysis
    instance re-runs block transfers for the proof.
    """
    hoisted = 0
    for fa in per_function.values():
        hoisted += _hoist_function(fa)
    return hoisted


def _hoist_function(fa) -> int:
    fn, result, ms = fa.fn, fa.result, fa.analysis
    cfg = result.cfg
    back = cfg.back_edges()
    if not back:
        return 0
    loops: Dict[str, List[str]] = {}
    for tail, head in back:
        loops.setdefault(head, []).append(tail)
    # Plan against the (immutable) fixpoint CFG first, mutate after.
    plans = []
    for head in sorted(loops):
        plan = _plan_loop(fn, cfg, result, ms, head, loops[head])
        if plan is not None:
            plans.append(plan)
    count = 0
    for n, (head, entry_preds, slots, candidates) in enumerate(plans):
        _apply_hoist(fn, cfg, f"hoist.{n}", head, entry_preds, slots)
        for facts in candidates:
            facts.temporal_dom = True
        count += len(slots)
    return count


def _plan_loop(fn, cfg, result, ms, head: str, tails: List[str]):
    if head == cfg.entry or head not in cfg.reachable:
        return None
    body = _natural_loop(cfg, head, tails)
    # Reducibility guard: a side entry into the body would make the
    # "preds of body are in the body" expansion above pull in blocks
    # outside the loop; require the head to dominate every body block.
    if any(not cfg.dominates(head, label) for label in body):
        return None
    # Canonical shape: the head ends in a two-way branch with exactly
    # one successor inside the loop, and every other block stays
    # inside — a single exit edge, through the head.
    term = cfg.blocks[head].instrs[-1]
    if not isinstance(term, Br) or term.then_label == term.else_label:
        return None
    exits = [s for s in cfg.succs[head] if s not in body]
    if len(exits) != 1:
        return None
    exit_succ = exits[0]
    for label in body:
        for succ in cfg.succs.get(label, ()):
            if succ not in body and not (label == head
                                         and succ == exit_succ):
                return None
    clobbered, param_store, unknown_store = _body_effects(fn, body, cfg)
    if unknown_store:
        return None
    candidates, slots = _loop_candidates(body, cfg, tails, clobbered,
                                         param_store)
    if not candidates:
        return None
    entry_preds = [p for p in cfg.preds.get(head, ())
                   if p not in body]
    if not entry_preds:
        return None
    if not _trip_at_least_once(cfg, result, ms, head, exit_succ,
                               entry_preds):
        return None
    return head, entry_preds, sorted(slots), candidates


def _natural_loop(cfg, head: str, tails: List[str]):
    body = {head}
    stack = [t for t in tails if t != head]
    while stack:
        label = stack.pop()
        if label in body:
            continue
        body.add(label)
        stack.extend(cfg.preds.get(label, ()))
    return body


def _body_effects(fn, body, cfg):
    """(clobbered slot keys, any param-region store?, any store whose
    target the analysis could not pin down?) over the loop body.

    Calls to anything non-pure disqualify outright (reported as an
    unknown store): free()/realloc could kill the checked region, and
    writing helpers could overwrite the pointer slot."""
    from repro.analyze.summaries import PURE_FNS

    clobbered = set()
    param_store = False
    for label in sorted(body):
        addr_slot: Dict[int, str] = {}
        for ins in cfg.blocks[label].instrs:
            if isinstance(ins, AddrLocal):
                addr_slot[ins.dst] = "l:" + ins.name
                continue
            if isinstance(ins, AddrGlobal):
                addr_slot[ins.dst] = "g:" + ins.name
                continue
            if isinstance(ins, Call):
                if ins.name not in PURE_FNS:
                    return clobbered, param_store, True
                continue
            if not isinstance(ins, Store):
                continue
            facts = getattr(ins, "_ms_facts", None)
            region = facts.target_region() if facts is not None \
                else None
            if region is None:
                # Unchecked stores (scalar locals, irgen temps) carry
                # no facts; resolve the block-local address vreg.
                slot = addr_slot.get(ins.addr)
                if slot is None:
                    prov = fn.prov.get(ins.addr)
                    if prov and prov[0] in ("local", "global"):
                        slot = prov[0][0] + ":" + str(prov[1])
                if slot is not None:
                    clobbered.add(slot)
                    continue
                return clobbered, param_store, True
            kind = region[0]
            if kind in ("local", "global"):
                clobbered.add(kind[0] + ":" + str(region[1]))
            elif kind == "heap" and _param_site(region[1]):
                # The analysis models a store through a parameter
                # region as clobbering any global (the caller may
                # alias one) but never this frame's locals.
                param_store = True
    return clobbered, param_store, False


def _param_site(site) -> bool:
    return isinstance(site, tuple) and len(site) == 2 \
        and site[0] == "param"


def _loop_candidates(body, cfg, tails, clobbered, param_store):
    """Checked accesses whose temporal half repeats an identical check
    every iteration: pointer reloaded from one unclobbered slot, in a
    block every iteration passes through (dominates the back edges) —
    a conditionally-executed access may never run at all, and hoisting
    its check could trap where the original program does not."""
    candidates = []
    slots = set()
    for label in sorted(body):
        if any(not cfg.dominates(label, tail) for tail in tails):
            continue
        for ins in cfg.blocks[label].instrs:
            if not isinstance(ins, (Load, Store)) \
                    or not ins.needs_check:
                continue
            facts = getattr(ins, "_ms_facts", None)
            if facts is None or facts.temporal_ok \
                    or facts.temporal_dom:
                continue
            slot = facts.origin_slot()
            if not isinstance(slot, str) or slot[:2] not in \
                    ("l:", "g:") or slot in clobbered:
                continue
            if param_store and slot.startswith("g:"):
                continue
            candidates.append(facts)
            slots.add(slot)
    return candidates, slots


def _trip_at_least_once(cfg, result, ms, head, exit_succ,
                        entry_preds) -> bool:
    """The loop body runs on every feasible path that reaches the
    head from outside: re-running the head's transfer from each entry
    edge's fixpoint state must prove the exit edge infeasible."""
    from repro.analyze.dataflow import EdgeStates

    feasible_entry = False
    for pred in entry_preds:
        state = result.edge_out.get((pred, head))
        if state is None:
            continue  # entry edge itself infeasible
        feasible_entry = True
        out = ms.transfer(cfg, head, ms.copy(state))
        exit_state = out.by_succ.get(exit_succ) \
            if isinstance(out, EdgeStates) else out
        if exit_state is not None:
            return False
    return feasible_entry


def _apply_hoist(fn, cfg, label: str, head: str, entry_preds, slots):
    """Insert the preheader block and retarget the entry edges."""
    instrs: List = []
    for slot in slots:
        addr = fn.new_vreg(PointerType(VOID))
        if slot.startswith("l:"):
            instrs.append(AddrLocal(addr, slot[2:]))
        else:
            instrs.append(AddrGlobal(addr, slot[2:]))
        dst = fn.new_vreg(PointerType(VOID))
        load = Load(dst, addr, 8, signed=False, ptr_result=True)
        load._hoist_temporal = True
        instrs.append(load)
        fn.prov[dst] = ("loaded", None)
    instrs.append(Jmp(head))
    index = next(i for i, blk in enumerate(fn.blocks)
                 if blk.label == head)
    fn.blocks.insert(index, BasicBlock(label, instrs))
    for pred in entry_preds:
        term = cfg.blocks[pred].instrs[-1]
        if isinstance(term, Jmp):
            if term.label == head:
                term.label = label
        elif isinstance(term, Br):
            if term.then_label == head:
                term.then_label = label
            if term.else_label == head:
                term.else_label = label
