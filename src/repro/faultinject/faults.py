"""Fault models: seeded perturbations of a running machine or program.

Each fault *kind* models one way the HWST128 protection stack can be
undermined in silicon or by a toolchain bug:

==================  =======================================================
kind                what breaks
==================  =======================================================
``srf_bitflip``     a particle flips one bit of a live SRF entry (the
                    compressed lower or upper metadata word)
``shadow_bitflip``  one bit of a resident shadow-memory word flips at rest
``codec_corrupt``   the (de)compression datapath XORs one bit into the next
                    compressed word it decodes (spatial or temporal half)
``kb_alias``        a keybuffer entry's cached key is corrupted — the TCU
                    now trusts a wrong translation
``kb_stale``        the lock word behind a resident keybuffer entry is
                    cleared *without* the snoop seeing it — the classic
                    stale-TLB bug the clear-on-free snoop exists to prevent
``check_drop``      a check instruction is lost at link time (``tchk``
                    becomes a nop; a fused checked access becomes its
                    unchecked twin)
``check_dup``       a spurious check appears on a plain access at link time
==================  =======================================================

Runtime kinds pass a :class:`RuntimeInjector` to ``Machine.run``,
which splits the run's budget at the seeded trigger instret: it runs
that many instructions, fires the injector once, and finishes on the
reference loop. Link kinds run a mutated copy
of the (immutable, possibly cached and shared) ``Program`` (see
:func:`repro.codegen.link.mutate_check_ops`). Everything a fault does
is a pure function of its :class:`FaultSpec`, so a campaign is
replayable from ``(seed, n)`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codegen.link import mutate_check_ops

__all__ = ["FaultSpec", "FAMILIES", "ALL_KINDS", "RUNTIME_KINDS",
           "LINK_KINDS", "RuntimeInjector", "apply_link_fault",
           "kinds_for"]

#: family name -> the fault kinds it expands to (``--faults metadata``).
FAMILIES = {
    "metadata": ("srf_bitflip", "shadow_bitflip", "codec_corrupt"),
    "keybuffer": ("kb_alias", "kb_stale"),
    "checks": ("check_drop", "check_dup"),
}

RUNTIME_KINDS = ("srf_bitflip", "shadow_bitflip", "codec_corrupt",
                 "kb_alias", "kb_stale")
LINK_KINDS = ("check_drop", "check_dup")
ALL_KINDS = RUNTIME_KINDS + LINK_KINDS

_FAMILY_OF = {kind: family
              for family, kinds in FAMILIES.items() for kind in kinds}


def kinds_for(families) -> list:
    """Expand family names to fault kinds (raises on unknown family)."""
    kinds = []
    for family in families:
        expansion = FAMILIES.get(family)
        if expansion is None:
            raise ValueError(
                f"unknown fault family {family!r}; known: "
                f"{sorted(FAMILIES)}")
        kinds.extend(expansion)
    return kinds


@dataclass(frozen=True)
class FaultSpec:
    """One injection, fully determined by four small integers.

    ``trigger`` is the instret at which a runtime fault fires (link
    faults ignore it); ``bit`` picks which bit to flip; ``select``
    picks *which* structure entry / instruction site, reduced modulo
    whatever population exists at fire time.
    """

    kind: str
    trigger: int = 0
    bit: int = 0
    select: int = 0

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {ALL_KINDS}")

    @property
    def family(self) -> str:
        return _FAMILY_OF[self.kind]

    @property
    def is_link_fault(self) -> bool:
        return self.kind in LINK_KINDS


class _CorruptingCompressor:
    """Proxy around :class:`MetadataCompressor` that XORs one bit into
    the next compressed word it is asked to decode (the one-shot
    ``codec_corrupt`` datapath fault). Everything else delegates."""

    def __init__(self, inner, bit: int, temporal: bool):
        self._inner = inner
        self._bit = bit % 64
        self._temporal = temporal
        self._pending = True

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def decompress_spatial(self, lower):
        if self._pending and not self._temporal:
            self._pending = False
            lower ^= 1 << self._bit
        return self._inner.decompress_spatial(lower)

    def decompress_temporal(self, upper):
        if self._pending and self._temporal:
            self._pending = False
            upper ^= 1 << self._bit
        return self._inner.decompress_temporal(upper)


def _flip_srf(machine, spec: FaultSpec) -> str:
    """Flip one bit of a live SRF entry (bit < 64: lower/spatial word,
    else upper/temporal word). Falls back to any register when no
    entry holds valid metadata — the flip then lands in dead state."""
    live = [r for r in range(1, 32)
            if machine.srf[r][2] or machine.srf[r][3]]
    if live:
        reg = live[spec.select % len(live)]
    else:
        reg = 1 + spec.select % 31
    lower, upper, lvalid, uvalid = machine.srf[reg]
    bit = spec.bit % 128
    if bit < 64:
        lower ^= 1 << bit
    else:
        upper ^= 1 << (bit - 64)
    machine.srf[reg] = (lower, upper, lvalid, uvalid)
    word = "lower" if bit < 64 else "upper"
    return (f"flipped SRF[{reg}] {word} bit {bit % 64}"
            f" (live={bool(live)})")


def _flip_shadow(machine, spec: FaultSpec) -> str:
    """Flip one bit of a resident (nonzero) shadow-memory word."""
    layout = machine.program.layout
    words = machine.memory.nonzero_u64_addrs(layout.shadow_offset,
                                             layout.shadow_top)
    if not words:
        return "no resident shadow words; fault landed nowhere"
    addr = words[spec.select % len(words)]
    bit = spec.bit % 64
    value = machine.memory.load_u64(addr)
    machine.memory.store_u64(addr, value ^ (1 << bit))
    return f"flipped shadow word {addr:#x} bit {bit}"


def _corrupt_codec(machine, spec: FaultSpec) -> str:
    """Interpose the corrupting proxy on the machine's compressor."""
    temporal = bool(spec.select % 2)
    machine.compressor = _CorruptingCompressor(machine.compressor,
                                               spec.bit, temporal)
    half = "temporal" if temporal else "spatial"
    return f"armed codec corruption: next {half} decompress, " \
           f"bit {spec.bit % 64}"


def _alias_keybuffer(machine, spec: FaultSpec) -> str:
    """Corrupt the cached key of a resident keybuffer entry."""
    locks = machine.keybuffer.locks()
    if not locks:
        return "keybuffer empty; fault landed nowhere"
    lock = locks[spec.select % len(locks)]
    key = machine.keybuffer.peek(lock)
    machine.keybuffer.poison(lock, key ^ (1 << (spec.bit % 64)))
    return f"aliased keybuffer entry for lock {lock:#x} " \
           f"(key bit {spec.bit % 64})"


def _stale_keybuffer(machine, spec: FaultSpec) -> str:
    """Clear the lock word behind a resident keybuffer entry without
    the clear-on-free snoop seeing it: the buffered key is now stale
    relative to memory (a freed allocation the TCU still trusts)."""
    locks = machine.keybuffer.locks()
    if not locks:
        return "keybuffer empty; fault landed nowhere"
    lock = locks[spec.select % len(locks)]
    machine.memory.store_u64(lock, 0)  # bypasses _snoop_lock_store
    return f"cleared lock word {lock:#x} behind the keybuffer"


_RUNTIME_PERTURB = {
    "srf_bitflip": _flip_srf,
    "shadow_bitflip": _flip_shadow,
    "codec_corrupt": _corrupt_codec,
    "kb_alias": _alias_keybuffer,
    "kb_stale": _stale_keybuffer,
}


class RuntimeInjector:
    """One-shot runtime fault: perturb the machine once at the trigger.

    Pass it as ``Machine.run(program, max_instructions, fault=...)``;
    the run calls :meth:`fire` once ``spec.trigger`` instructions have
    retired. ``note`` records what the perturbation actually did
    (which register/word/lock it hit), "" until fired.
    """

    def __init__(self, spec: FaultSpec):
        if spec.kind not in _RUNTIME_PERTURB:
            raise ValueError(f"{spec.kind!r} is not a runtime fault")
        self.spec = spec
        self.fired = False
        self.note = ""

    def fire(self, machine):
        self.fired = True
        self.note = _RUNTIME_PERTURB[self.spec.kind](machine, self.spec)


def apply_link_fault(program, spec: FaultSpec):
    """Return ``(copy, description)``: ``program`` with one check op
    mutated (see :func:`repro.codegen.link.mutate_check_ops`). The
    description is "" when the program has no eligible site, and
    ``program`` itself is never changed."""
    if not spec.is_link_fault:
        raise ValueError(f"{spec.kind!r} is not a link-time fault")
    return mutate_check_ops(program, spec.kind, spec.select)
