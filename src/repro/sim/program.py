"""Linked program images for the simulator.

A :class:`Program` is what the codegen/linker produces: a flat list of
instructions placed at ``text_base``, initialised data segments, a symbol
table, and the memory layout it was linked against. The machine loads
segments into memory and starts at ``entry`` (the ``_start`` stub, which
calls ``main`` and issues the exit ecall).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Dict, List, Optional

from repro.isa.instructions import Instr
from repro.sim.memory import DEFAULT_LAYOUT, Memory, MemoryLayout

#: One instruction's fields, in ``Instr`` constructor order.
_INSTR_FIELDS = attrgetter(*(f.name for f in fields(Instr)))


@dataclass
class Segment:
    """One initialised data region."""

    addr: int
    data: bytes
    name: str = "data"

    @property
    def end(self) -> int:
        return self.addr + len(self.data)


@dataclass
class Program:
    """A linked, loadable program."""

    instrs: List[Instr]
    entry: int
    text_base: int = DEFAULT_LAYOUT.text_base
    segments: List[Segment] = field(default_factory=list)
    symbols: Dict[str, int] = field(default_factory=dict)
    layout: MemoryLayout = DEFAULT_LAYOUT
    meta: Dict[str, object] = field(default_factory=dict)

    def __getstate__(self):
        # Pickle each instruction as a plain field tuple: about a third
        # of the time and half the bytes of pickling Instr objects.
        state = dict(self.__dict__)
        state["instrs"] = [_INSTR_FIELDS(ins) for ins in self.instrs]
        return state

    def __setstate__(self, state):
        state["instrs"] = [Instr(*row) for row in state["instrs"]]
        self.__dict__.update(state)

    @property
    def text_size(self) -> int:
        return 4 * len(self.instrs)

    @property
    def text_end(self) -> int:
        return self.text_base + self.text_size

    def pc_of(self, name: str) -> int:
        """Address of a function symbol."""
        try:
            return self.symbols[name]
        except KeyError:
            raise KeyError(f"no symbol named {name!r}") from None

    def index_of(self, pc: int) -> int:
        """Instruction index of ``pc``, or -1 when outside text (the
        translator's fetch primitive — one definition of 'in text')."""
        index = (pc - self.text_base) >> 2
        if 0 <= index < len(self.instrs):
            return index
        return -1

    def instr_at(self, pc: int) -> Optional[Instr]:
        index = self.index_of(pc)
        return self.instrs[index] if index >= 0 else None

    def load_into(self, memory: Memory):
        """Map the layout and copy data segments into ``memory``."""
        memory.map_layout(self.layout)
        for segment in self.segments:
            memory.store_bytes(segment.addr, segment.data)

    def listing(self, start: int = 0, count: Optional[int] = None) -> str:
        """Assembly listing with addresses and symbol markers."""
        addr_to_sym = {}
        for name, addr in self.symbols.items():
            if self.text_base <= addr < self.text_end:
                addr_to_sym.setdefault(addr, []).append(name)
        lines = []
        end = len(self.instrs) if count is None else min(len(self.instrs),
                                                         start + count)
        for index in range(start, end):
            pc = self.text_base + 4 * index
            for name in addr_to_sym.get(pc, ()):
                lines.append(f"{name}:")
            lines.append(f"  {pc:#8x}: {self.instrs[index]}")
        return "\n".join(lines)
