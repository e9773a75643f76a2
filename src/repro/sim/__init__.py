"""Functional simulation substrate: memory, ISS, keybuffer, programs.

* :mod:`repro.sim.memory` — paged byte-addressable memory with mapped
  regions (unmapped access faults, which is how null derefs surface on
  the unprotected baseline);
* :mod:`repro.sim.keybuffer` — the TLB-like lock->key buffer from
  Section 3.5;
* :mod:`repro.sim.program` — linked program images (text + data + symbols);
* :mod:`repro.sim.machine` — the instruction-set simulator executing the
  RV64 subset plus the HWST128/MPX/AVX extensions, in the role the
  augmented SPIKE plays in the paper (the *reference engine*: the
  single-step path and the lockstep oracle);
* :mod:`repro.sim.fastmachine` — the translation-cached superblock
  engine, architecturally identical to the reference but decoding each
  basic block once; the default production engine.
"""

from typing import Optional

from repro.sim.memory import Memory, MemoryLayout
from repro.sim.keybuffer import KeyBuffer
from repro.sim.program import Program, Segment
from repro.sim.machine import Machine, RunResult
from repro.sim.fastmachine import FastMachine

#: Engine registry: name -> Machine class. "ref" is the golden
#: fetch/decode/execute interpreter; "fast" the translation-cached one.
ENGINES = {
    "ref": Machine,
    "fast": FastMachine,
}
#: The engine every run gets unless it names one. Lockstep oracles name
#: ``"ref"`` explicitly, so this default can never turn them into
#: same-engine checks.
DEFAULT_ENGINE = "fast"


def make_machine(engine: Optional[str] = None, **kwargs) -> Machine:
    """Construct a simulator by engine name (``ref`` | ``fast``;
    :data:`DEFAULT_ENGINE` when omitted).

    Every keyword argument is forwarded to the engine's constructor —
    the two engines take identical arguments by design.
    """
    if engine is None:
        engine = DEFAULT_ENGINE
    try:
        cls = ENGINES[engine]
    except KeyError:
        raise ValueError(
            f"unknown engine {engine!r}; choose from "
            f"{', '.join(sorted(ENGINES))}") from None
    return cls(**kwargs)


__all__ = [
    "Memory",
    "MemoryLayout",
    "KeyBuffer",
    "Program",
    "Segment",
    "Machine",
    "FastMachine",
    "RunResult",
    "ENGINES",
    "DEFAULT_ENGINE",
    "make_machine",
]
