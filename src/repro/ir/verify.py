"""IR structural verifier.

Checks the invariants the -O0 code generator relies on:

* every basic block ends in exactly one terminator and contains no
  terminator earlier;
* every vreg is defined exactly once, before all of its uses, and all
  uses are inside the defining block (block-local expression trees);
* branch targets exist;
* block labels are unique, including case-insensitively (codegen and
  ``Function.block`` look labels up by exact string, so two labels that
  differ only by case silently shadow each other);
* locals referenced by AddrLocal exist in the frame;
* calls to in-module functions pass the right number of arguments
  (unknown callees — assembly stubs — are skipped). A unit verified
  on its own (the runtime library) exports an :class:`Interface`, and
  ``verify_module(module, linked=...)`` checks the calls between the
  two units as if they were one module;
* optionally (``allow_unreachable=False``) no block is unreachable
  from the entry block.  The default is permissive because irgen
  deliberately emits ``dead.*`` landing blocks for statements after a
  ``return``; use :func:`unreachable_blocks` to inspect them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.errors import IRError
from repro.ir.ir import AddrLocal, Br, Call, Function, Jmp, Module


@dataclass(frozen=True)
class Interface:
    """The call contract of a separately verified unit.

    ``arities`` maps each function the unit defines to its parameter
    count; ``calls`` lists, in verification order, the unit's calls to
    names it does not define as ``(function/block, callee, argc)``.
    """

    arities: Mapping[str, int]
    calls: Tuple[Tuple[str, str, int], ...]


def _arities(module: Module) -> Dict[str, int]:
    return {name: len(fn.param_names)
            for name, fn in module.functions.items()}


def interface(module: Module) -> Interface:
    """``module``'s :class:`Interface`."""
    calls = []
    for fn in module.functions.values():
        for blk in fn.blocks:
            for ins in blk.instrs:
                if isinstance(ins, Call) and \
                        ins.name not in module.functions:
                    calls.append((f"{fn.name}/{blk.label}", ins.name,
                                  len(ins.args)))
    return Interface(arities=_arities(module), calls=tuple(calls))


def _check_call(where: str, callee: str, passed: int,
                arities: Mapping[str, int]) -> None:
    takes = arities.get(callee)
    if takes is not None and passed != takes:
        raise IRError(
            f"{where}: call to {callee!r} passes {passed} argument(s) "
            f"but its definition takes {takes}")


def unreachable_blocks(fn: Function) -> List[str]:
    """Labels of blocks with no path from the entry block, layout order."""
    if not fn.blocks:
        return []
    succs: Dict[str, tuple] = {}
    for blk in fn.blocks:
        term = blk.instrs[-1] if blk.instrs else None
        if isinstance(term, Br):
            succs[blk.label] = (term.then_label, term.else_label)
        elif isinstance(term, Jmp):
            succs[blk.label] = (term.label,)
        else:
            succs[blk.label] = ()
    entry = fn.blocks[0].label
    seen = {entry}
    stack = [entry]
    while stack:
        for nxt in succs.get(stack.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return [blk.label for blk in fn.blocks if blk.label not in seen]


def verify_function(fn: Function, module: Optional[Module] = None, *,
                    allow_unreachable: bool = True,
                    arities: Optional[Mapping[str, int]] = None):
    """Verify one function; raises IRError on the first violation.

    Call sites are checked against ``arities`` (callee -> parameter
    count), by default the functions of ``module`` when one is given.
    """
    if arities is None:
        arities = _arities(module) if module is not None else {}
    labels = {blk.label for blk in fn.blocks}
    if len(labels) != len(fn.blocks):
        counts: Dict[str, int] = {}
        for blk in fn.blocks:
            counts[blk.label] = counts.get(blk.label, 0) + 1
        dupes = sorted(label for label, n in counts.items() if n > 1)
        raise IRError(f"{fn.name}: duplicate block labels {dupes}")
    folded: Dict[str, str] = {}
    for blk in fn.blocks:
        prev = folded.setdefault(blk.label.casefold(), blk.label)
        if prev != blk.label:
            raise IRError(
                f"{fn.name}: block labels {prev!r} and {blk.label!r} "
                f"differ only by case and would shadow each other")
    defined_in: Dict[int, str] = {}

    for blk in fn.blocks:
        if not blk.instrs:
            raise IRError(f"{fn.name}/{blk.label}: empty block")
        for index, ins in enumerate(blk.instrs):
            last = index == len(blk.instrs) - 1
            if ins.is_terminator() != last:
                raise IRError(
                    f"{fn.name}/{blk.label}: terminator misplaced at "
                    f"{index} ({ins})"
                )
            for v in ins.defs():
                if v in defined_in:
                    raise IRError(
                        f"{fn.name}/{blk.label}: vreg {v} redefined")
                if not 0 <= v < len(fn.vreg_types):
                    raise IRError(f"{fn.name}: vreg {v} never allocated")
                defined_in[v] = blk.label
            if isinstance(ins, AddrLocal) and ins.name not in fn.locals:
                raise IRError(
                    f"{fn.name}/{blk.label}: unknown local {ins.name!r}")
            if isinstance(ins, Call):
                _check_call(f"{fn.name}/{blk.label}", ins.name,
                            len(ins.args), arities)
            if isinstance(ins, Br):
                for target in (ins.then_label, ins.else_label):
                    if target not in labels:
                        raise IRError(
                            f"{fn.name}/{blk.label}: branch to missing "
                            f"block {target!r}")
            if isinstance(ins, Jmp) and ins.label not in labels:
                raise IRError(
                    f"{fn.name}/{blk.label}: jump to missing block "
                    f"{ins.label!r}")

    # Uses: defined earlier in the same block.
    for blk in fn.blocks:
        seen: Set[int] = set()
        for ins in blk.instrs:
            for v in ins.uses():
                if v in seen:
                    continue
                if defined_in.get(v) != blk.label:
                    raise IRError(
                        f"{fn.name}/{blk.label}: vreg {v} used in "
                        f"{blk.label} but defined in "
                        f"{defined_in.get(v)} ({ins})")
                raise IRError(
                    f"{fn.name}/{blk.label}: vreg {v} used before its "
                    f"definition ({ins})")
            for v in ins.defs():
                seen.add(v)
            # A use after the def in the same block is fine; re-walk:
        # Second pass done implicitly: the loop above flags any use whose
        # def has not yet been seen in this block.

    if not allow_unreachable:
        dead = unreachable_blocks(fn)
        if dead:
            raise IRError(
                f"{fn.name}: unreachable block(s) {dead} — no path from "
                f"entry {fn.blocks[0].label!r}")


def verify_module(module: Module, *, allow_unreachable: bool = True,
                  linked: Optional[Interface] = None):
    """Verify every function; raises IRError on the first violation.

    ``linked`` is the :class:`Interface` of a unit verified on its own
    that ``module`` will be linked with. Calls are then checked as in
    the module the two would merge into, ``module``'s functions first:
    its calls into the linked unit, then the linked unit's calls to
    names ``module`` defines.
    """
    arities = _arities(module)
    if linked is not None:
        arities = {**linked.arities, **arities}
    for fn in module.functions.values():
        verify_function(fn, module, allow_unreachable=allow_unreachable,
                        arities=arities)
    if linked is not None:
        for where, callee, passed in linked.calls:
            _check_call(where, callee, passed, arities)
