"""Configurable metadata compression (Fig. 2, Eq. 2-6).

The 256-bit metadata (four 64-bit fields) is compressed into 128 bits:

* the **lower half** packs ``base`` (address right-shifted by the 8-byte
  alignment) and ``range = bound - base`` (rounded **up** to the next
  8-byte multiple so legal last-byte accesses never trap — the cost is
  that overflows smaller than the padding escape the spatial check,
  which is exactly why the paper's HWST128 trails SoftboundCETS on a few
  CWE122 heap-overflow cases);
* the **upper half** packs ``lock`` (stored as an index into the lock
  table) and ``key``.

Compression and decompression are performed by the COMP/DECOMP pipeline
units; this module is their functional model and is also used by the
compiler runtime lowering.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import ALIGN_SHIFT, FieldWidths, HwstConfig
from repro.core.metadata import PointerMetadata
from repro.errors import ReproError

MASK64 = (1 << 64) - 1


class MetadataRangeError(ReproError):
    """A metadata field does not fit its configured compressed width."""


@dataclass(frozen=True)
class CompressedMetadata:
    """The 128-bit SRF image of one pointer's metadata."""

    lower: int  # base | range  (spatial half)
    upper: int  # lock | key    (temporal half)

    def __post_init__(self):
        if not 0 <= self.lower <= MASK64:
            raise ValueError(f"lower half not a u64: {self.lower:#x}")
        if not 0 <= self.upper <= MASK64:
            raise ValueError(f"upper half not a u64: {self.upper:#x}")


class MetadataCompressor:
    """Pack/unpack pointer metadata according to a field-width config."""

    def __init__(self, config: HwstConfig):
        self._config = config
        self._widths = config.widths
        self._base_mask = (1 << self._widths.base) - 1
        self._range_mask = (1 << self._widths.range) - 1
        self._lock_mask = (1 << self._widths.lock) - 1
        self._key_mask = (1 << self._widths.key) - 1
        self.reset_census()

    def reset_census(self):
        """Zero the census counters of the Eq. 3-6 width derivation
        (Fig. 2)."""
        self.max_range_seen = 0
        self.max_base_seen = 0
        self.max_key_seen = 0
        self.max_lock_index_seen = 0

    @property
    def widths(self) -> FieldWidths:
        return self._widths

    # -- spatial half -----------------------------------------------------

    def compress_spatial(self, base: int, bound: int) -> int:
        """Compress ``base``/``bound`` into the 64-bit lower half.

        The base is rounded down and the bound rounded up to the 8-byte
        grid, so the represented region always covers the requested one.
        """
        if bound < base:
            raise MetadataRangeError(
                f"bound {bound:#x} precedes base {base:#x}"
            )
        base_c = base >> ALIGN_SHIFT
        aligned_base = base_c << ALIGN_SHIFT
        range_c = (bound - aligned_base + 7) >> ALIGN_SHIFT
        if bound - base > self.max_range_seen:
            self.max_range_seen = bound - base
        if base > self.max_base_seen:
            self.max_base_seen = base
        if base_c > self._base_mask:
            raise MetadataRangeError(
                f"base {base:#x} needs more than {self._widths.base} bits"
            )
        if range_c > self._range_mask:
            raise MetadataRangeError(
                f"object size {bound - base} needs more than "
                f"{self._widths.range} range bits"
            )
        return base_c | (range_c << self._widths.base)

    def decompress_spatial(self, lower: int):
        """Unpack the lower half into ``(base, bound)`` byte addresses."""
        base = (lower & self._base_mask) << ALIGN_SHIFT
        range_c = (lower >> self._widths.base) & self._range_mask
        return base, base + (range_c << ALIGN_SHIFT)

    # -- temporal half ----------------------------------------------------

    def compress_temporal(self, key: int, lock: int) -> int:
        """Compress ``key``/``lock`` into the 64-bit upper half.

        The lock address is stored as an 8-byte index relative to the
        lock-table base; a null lock (no temporal metadata) stays zero.
        """
        if lock == 0:
            lock_idx = 0
        else:
            offset = lock - self._config.lock_base
            if offset < 0 or offset % 8:
                raise MetadataRangeError(
                    f"lock {lock:#x} outside the lock table"
                )
            lock_idx = offset >> 3
            if lock_idx >= self._lock_mask:
                raise MetadataRangeError(
                    f"lock index {lock_idx} needs more than "
                    f"{self._widths.lock} bits"
                )
            lock_idx += 1  # index 0 is reserved for "no lock"
            if lock_idx > self.max_lock_index_seen:
                self.max_lock_index_seen = lock_idx
        if key > self.max_key_seen:
            self.max_key_seen = key
        key_c = key & self._key_mask
        if key != key_c:
            raise MetadataRangeError(
                f"key {key:#x} needs more than {self._widths.key} bits"
            )
        return lock_idx | (key_c << self._widths.lock)

    def decompress_temporal(self, upper: int):
        """Unpack the upper half into ``(key, lock)``."""
        lock_idx = upper & self._lock_mask
        key = (upper >> self._widths.lock) & self._key_mask
        if lock_idx == 0:
            return key, 0
        return key, self._config.lock_base + ((lock_idx - 1) << 3)

    # -- full records -------------------------------------------------------

    def compress(self, meta: PointerMetadata) -> CompressedMetadata:
        """Compress a full metadata record into its 128-bit SRF image."""
        return CompressedMetadata(
            lower=self.compress_spatial(meta.base, meta.bound),
            upper=self.compress_temporal(meta.key, meta.lock),
        )

    def decompress(self, compressed: CompressedMetadata) -> PointerMetadata:
        """Expand a 128-bit SRF image back to the 256-bit record."""
        base, bound = self.decompress_spatial(compressed.lower)
        key, lock = self.decompress_temporal(compressed.upper)
        return PointerMetadata(base=base, bound=bound, key=key, lock=lock)

    # -- analysis helpers ---------------------------------------------------

    def spatial_slack(self, base: int, bound: int) -> int:
        """Bytes of over-approximation introduced by compression.

        This is the padding an overflow can land in without tripping the
        spatial check — the mechanistic source of the paper's CWE122 gap.
        """
        c_base, c_bound = self.decompress_spatial(
            self.compress_spatial(base, bound)
        )
        return (base - c_base) + (c_bound - bound)
