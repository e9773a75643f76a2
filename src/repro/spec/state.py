"""Architectural state records for the executable ISA specification.

The spec models one instruction as a pure function
``(SpecState, Instr, SpecEnv) -> SpecState | SpecTrap``:

* :class:`SpecState` is the complete architectural state — pc, the
  32 x-registers, the 32-entry shadow register file (compressed 128-bit
  images plus the wide AVX-comparator slots), CSRs, retired-instruction
  count, accumulated console output — plus the *memory effects* of the
  step as an explicit event list (:class:`MemEvent`). The spec never
  mutates memory itself; the events are what an implementation must
  perform, and the lockstep harness checks them against the ISS.
* :class:`SpecTrap` is the other possible outcome: the architectural
  classification of why execution stopped at this instruction. A
  trapping instruction never retires and produces no effects.
* :class:`SpecEnv` carries the *environment* of a step: side-effect-free
  memory reads (pre-state), the mapping predicate, and the static
  platform geometry (field widths, lock-table base, shadow budget).

Everything is an immutable value; handlers build the successor state
with :meth:`SpecState.evolve`. This module imports nothing from
``repro.sim`` — the spec is an independent implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, NamedTuple, Optional, Tuple

#: SRF entry: (lower, upper, spatial_valid, temporal_valid) — the
#: compressed 128-bit image of one pointer's metadata.
SrfEntry = Tuple[int, int, bool, bool]
SRF_INVALID: SrfEntry = (0, 0, False, False)

#: Trap kinds, in the spec's own vocabulary. STATUS_BY_KIND maps them
#: to the ISS RunResult.status strings, CLASS_BY_KIND to the trap class
#: names the ISS stamps into RunResult.trap_class.
KIND_EXIT = "exit"
KIND_SPATIAL = "spatial"
KIND_TEMPORAL = "temporal"
KIND_FAULT = "fault"
KIND_ABORT = "abort"
KIND_ILLEGAL = "illegal"
KIND_OOM = "shadow_oom"
KIND_META_RANGE = "meta_range"
KIND_LIMIT = "limit"

STATUS_BY_KIND: Dict[str, str] = {
    KIND_EXIT: "exit",
    KIND_SPATIAL: "spatial_violation",
    KIND_TEMPORAL: "temporal_violation",
    KIND_FAULT: "memory_fault",
    KIND_ABORT: "abort",
    KIND_ILLEGAL: "illegal_instruction",
    KIND_OOM: "shadow_oom",
    KIND_META_RANGE: "meta_range",
    KIND_LIMIT: "limit",
}

CLASS_BY_KIND: Dict[str, str] = {
    KIND_SPATIAL: "SpatialViolation",
    KIND_TEMPORAL: "TemporalViolation",
    KIND_FAULT: "MemoryFault",
    KIND_ABORT: "EcallAbort",
    KIND_ILLEGAL: "IllegalInstruction",
    KIND_OOM: "ShadowMemoryExhausted",
    KIND_META_RANGE: "MetadataRangeError",
    KIND_LIMIT: "SimLimitExceeded",
    KIND_EXIT: "",  # a requested exit is not a trap
}


@dataclass(frozen=True)
class MemEvent:
    """One store the instruction performs: ``size`` bytes of ``value``
    (already masked to size) at ``addr``, little-endian."""

    addr: int
    size: int
    value: int


@dataclass(frozen=True)
class SpecTrap:
    """The architectural outcome of an instruction that does not retire."""

    kind: str
    pc: int
    detail: str = ""
    #: Requested exit status (KIND_EXIT only), as a signed value.
    exit_code: int = 0
    #: Check-unit operands, populated for spatial/temporal kinds so the
    #: lockstep diff can compare them against the ISS trap fields.
    fields: Tuple[Tuple[str, int], ...] = ()

    @property
    def status(self) -> str:
        return STATUS_BY_KIND[self.kind]

    @property
    def trap_class(self) -> str:
        return CLASS_BY_KIND[self.kind]


class SpecState(NamedTuple):
    """Complete architectural state between two instructions.

    A named tuple rather than a frozen dataclass: the spec builds one
    per retire, and constructing a named tuple costs a fraction of
    :func:`dataclasses.replace`.
    """

    pc: int
    regs: Tuple[int, ...]                       # 32 x-registers, u64
    srf: Tuple[SrfEntry, ...]                   # 32 compressed images
    srf_wide: Tuple[Optional[Tuple[int, int, int, int]], ...]
    csrs: Dict[int, int]                        # copy-on-write
    instret: int = 0
    output: bytes = b""
    #: Bytes of shadow-region traffic so far (the SMAC budget input).
    shadow_touched: int = 0
    #: Memory effects of the *last* step only.
    events: Tuple[MemEvent, ...] = ()

    def evolve(self, *, pc: int, instret: int,
               events: Tuple[MemEvent, ...],
               regs: Optional[Tuple[int, ...]] = None,
               srf: Optional[Tuple[SrfEntry, ...]] = None,
               srf_wide: Optional[tuple] = None,
               csrs: Optional[Dict[int, int]] = None,
               output: Optional[bytes] = None,
               shadow_touched: Optional[int] = None) -> "SpecState":
        """The successor state of a retire: ``pc``, ``instret`` and the
        step's ``events`` are always new; every other field carries
        over unless given."""
        return SpecState(
            pc,
            self.regs if regs is None else regs,
            self.srf if srf is None else srf,
            self.srf_wide if srf_wide is None else srf_wide,
            self.csrs if csrs is None else csrs,
            instret,
            self.output if output is None else output,
            self.shadow_touched if shadow_touched is None
            else shadow_touched,
            events)


@dataclass(frozen=True)
class SpecEnv:
    """Read-only environment one step executes against.

    ``load``/``load_bytes`` observe the pre-state of memory and return
    ``None`` for an unmapped access (the spec turns that into a
    :data:`KIND_FAULT` trap); ``is_mapped`` is the pure mapping
    predicate used before emitting a store event.
    """

    load: Callable[[int, int], Optional[int]]
    load_bytes: Callable[[int, int], Optional[bytes]]
    is_mapped: Callable[[int, int], bool]
    #: (base_bits, range_bits, lock_bits, key_bits) — the compression
    #: geometry the COMP/DECOMP units are configured with.
    widths: Tuple[int, int, int, int]
    lock_base: int
    #: Shadow-region window [lo, hi) for SMAC traffic accounting, and
    #: the byte budget (0 = unlimited) guarded at each SMAC use.
    shadow_lo: int = 0
    shadow_hi: int = 0
    shadow_budget: int = 0


def init_state(entry: int, sp: int, csrs: Dict[int, int]) -> SpecState:
    """Post-reset architectural state: zero registers except ``sp``,
    invalid SRF, the platform CSR image, pc at ``entry``."""
    regs = [0] * 32
    regs[2] = sp
    return SpecState(
        pc=entry,
        regs=tuple(regs),
        srf=(SRF_INVALID,) * 32,
        srf_wide=(None,) * 32,
        csrs=dict(csrs),
    )


def reset_csrs(widths: Tuple[int, int, int, int], shadow_offset: int,
               lock_base: int, lock_limit: int) -> Dict[int, int]:
    """The CSR image the platform guarantees after reset (docs/isa.md):
    SMAC offset, packed field widths, lock-table window, status=ready."""
    base_b, range_b, lock_b, key_b = widths
    packed = (base_b & 0x3F) | ((range_b & 0x3F) << 6) \
        | ((lock_b & 0x3F) << 12) | ((key_b & 0x3F) << 18)
    return {
        0x800: shadow_offset,
        0x801: packed,
        0x802: lock_base,
        0x803: lock_limit,
        0x804: 0x3,
    }


__all__ = [
    "SRF_INVALID", "SrfEntry", "MemEvent", "SpecTrap", "SpecState",
    "SpecEnv", "init_state", "reset_csrs", "STATUS_BY_KIND",
    "CLASS_BY_KIND", "KIND_EXIT", "KIND_SPATIAL", "KIND_TEMPORAL",
    "KIND_FAULT", "KIND_ABORT", "KIND_ILLEGAL", "KIND_OOM",
    "KIND_META_RANGE", "KIND_LIMIT",
]
