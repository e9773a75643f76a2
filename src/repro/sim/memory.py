"""Byte-addressable paged memory with explicit mapped regions.

Pages are allocated lazily inside mapped regions, so the 4x-sized
linear-mapped shadow region costs nothing until metadata is written.
Accesses outside every mapped region raise :class:`MemoryFault` — the
simulated equivalent of a SIGSEGV, which is what an unprotected baseline
run produces on a null dereference.

:meth:`Memory.load_uint` and :meth:`Memory.store_uint` are the checked
data path: span check, shadow accounting, lazy allocation and the store
watch. Beside the page table, two page maps form a software TLB for the
fast engine's translated code: ``tlb`` for user pages and ``stlb`` for
shadow pages. A map lists a page (the same ``bytearray`` as ``_pages``)
only while the page is resident, lies wholly inside one mapped span,
lies wholly outside (``tlb``) or wholly inside (``stlb``) the shadow
region, and does not overlap the store-watch window. So an in-page
access to a listed page can neither fault, allocate nor trigger the
watch, and the checked path would only have added its size to
``shadow_bytes_touched`` for an ``stlb`` page. Pages enter their map on
allocation; :meth:`Memory._map` clears and refills both maps in place,
and :meth:`Memory.watch_stores` evicts the pages its window overlaps.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import MemoryFault

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_SIZE - 1


@dataclass(frozen=True)
class MemoryLayout:
    """Address-space layout of the simulated machine.

    The lock table overlays the shadow of the .text window (the paper's
    embedded-workload optimisation), so user data segments start above
    ``lock_shadow_guard`` to keep their shadow clear of the lock table.
    """

    text_base: int = 0x0001_0000
    data_base: int = 0x0020_0000
    heap_base: int = 0x0040_0000
    heap_top: int = 0x00D0_0000
    stack_top: int = 0x00F0_0000     # grows down
    stack_size: int = 0x0010_0000
    user_top: int = 0x0100_0000
    shadow_offset: int = 0x1000_0000

    @property
    def stack_base(self) -> int:
        return self.stack_top - self.stack_size

    @property
    def shadow_top(self) -> int:
        return self.shadow_offset + (self.user_top << 2)

    def regions(self) -> Tuple[Tuple[int, int, str], ...]:
        """The named ``(start, end, name)`` regions a loaded program
        maps: text, data, heap, stack and the shadow region."""
        return ((self.text_base, self.data_base, "text"),
                (self.data_base, self.heap_base, "data"),
                (self.heap_base, self.heap_top, "heap"),
                (self.stack_base, self.stack_top, "stack"),
                (self.shadow_offset, self.shadow_top, "shadow"))


DEFAULT_LAYOUT = MemoryLayout()


class Memory:
    """Paged memory. All loads/stores are little-endian."""

    def __init__(self):
        self._pages: Dict[int, bytearray] = {}
        self._regions: List[Tuple[int, int, str]] = []  # (start, end, name)
        # Coalesced union of the mapped regions: adjacent/overlapping
        # regions merge into one span, so an access straddling a
        # text/data or data/heap boundary (every byte mapped) succeeds.
        self._spans: List[Tuple[int, int]] = []
        self.shadow_bytes_touched = 0
        self._shadow_range: Optional[Tuple[int, int]] = None
        # Fast path: the two most recently hit spans (a 2-entry MRU).
        # Instrumented runs alternate between a user segment and its
        # shadow — one hot span would thrash on every metadata access.
        self._hot = (1, 0)  # impossible range -> first access misses
        self._hot2 = (1, 0)
        # Optional store watch: (lo, hi, callback) — the fast engine
        # registers the text window here so stores into it invalidate
        # translated blocks. None keeps the store path at a single
        # attribute test.
        self._store_watch: Optional[Tuple[int, int, object]] = None
        # The software TLB (module docstring): page index -> page.
        self.tlb: Dict[int, bytearray] = {}
        self.stlb: Dict[int, bytearray] = {}

    def watch_stores(self, lo: int, hi: int, callback) -> None:
        """Invoke ``callback(addr, size)`` on every store overlapping
        ``[lo, hi)`` (one watch window; None callback clears it). The
        pages the window overlaps leave the TLB maps, so every store
        into them takes the checked path."""
        if callback is None:
            self._store_watch = None
            return
        self._store_watch = (lo, hi, callback)
        for pages in (self.tlb, self.stlb):
            for index in [index for index in pages
                          if lo < (index + 1) << PAGE_SHIFT
                          and index << PAGE_SHIFT < hi]:
                del pages[index]

    # -- region management --------------------------------------------------

    def map_region(self, start: int, size: int, name: str = ""):
        """Declare ``[start, start+size)`` as accessible."""
        if size <= 0:
            raise ValueError(f"region size must be positive: {size}")
        self._map(((start, start + size, name),))

    def map_layout(self, layout: MemoryLayout):
        """Map the standard user segments + shadow region of ``layout``."""
        self._map(layout.regions())

    def _map(self, regions):
        """Add ``(start, end, name)`` regions, then coalesce the spans
        once for the whole batch."""
        for region in regions:
            self._regions.append(region)
            if region[2] == "shadow":
                self._shadow_range = region[:2]
        spans: List[Tuple[int, int]] = []
        for start, end, _ in sorted(self._regions):
            if spans and start <= spans[-1][1]:
                if end > spans[-1][1]:
                    spans[-1] = (spans[-1][0], end)
            else:
                spans.append((start, end))
        self._spans = spans
        self._hot = (1, 0)
        self._hot2 = (1, 0)
        self.tlb.clear()
        self.stlb.clear()
        for index, page in self._pages.items():
            self._admit(index, page)

    def _admit(self, index: int, page: bytearray) -> None:
        """Enter resident page ``index`` into the TLB map its placement
        allows, if any (see the module docstring)."""
        lo = index << PAGE_SHIFT
        hi = lo + PAGE_SIZE
        watch = self._store_watch
        if watch is not None and lo < watch[1] and hi > watch[0]:
            return
        if not self.is_mapped(lo, PAGE_SIZE):
            return
        shadow = self._shadow_range
        if shadow is None or hi <= shadow[0] or lo >= shadow[1]:
            self.tlb[index] = page
        elif shadow[0] <= lo and hi <= shadow[1]:
            self.stlb[index] = page

    def region_of(self, addr: int) -> Optional[str]:
        """Name of the region containing ``addr`` (None when unmapped)."""
        for start, end, name in self._regions:
            if start <= addr < end:
                return name
        return None

    def is_mapped(self, addr: int, size: int = 1) -> bool:
        """True when every byte of ``[addr, addr+size)`` is mapped
        (spans of adjacent regions count as one)."""
        for start, end in self._spans:
            if start <= addr and addr + size <= end:
                return True
        return False

    def _find_span(self, addr: int, size: int):
        """Both MRU spans missed: full lookup, promoting the hit."""
        for start, end in self._spans:
            if start <= addr and addr + size <= end:
                self._hot2 = self._hot
                self._hot = (start, end)
                return
        raise MemoryFault(addr, f"unmapped {size}-byte access")

    def _check(self, addr: int, size: int):
        hot = self._hot
        if addr < hot[0] or addr + size > hot[1]:
            hot2 = self._hot2
            if hot2[0] <= addr and addr + size <= hot2[1]:
                self._hot = hot2
                self._hot2 = hot
            else:
                self._find_span(addr, size)
        if self._shadow_range and \
                self._shadow_range[0] <= addr < self._shadow_range[1]:
            self.shadow_bytes_touched += size

    def _page(self, page_index: int) -> bytearray:
        page = self._pages.get(page_index)
        if page is None:
            page = self._allocate(page_index)
        return page

    def _allocate(self, page_index: int) -> bytearray:
        page = bytearray(PAGE_SIZE)
        self._pages[page_index] = page
        self._admit(page_index, page)
        return page

    @property
    def pages_allocated(self) -> int:
        return len(self._pages)

    # -- scalar accessors ----------------------------------------------------

    def load_bytes(self, addr: int, size: int) -> bytes:
        self._check(addr, size)
        out = bytearray()
        remaining = size
        while remaining:
            page = self._page(addr >> PAGE_SHIFT)
            offset = addr & PAGE_MASK
            take = min(remaining, PAGE_SIZE - offset)
            out += page[offset:offset + take]
            addr += take
            remaining -= take
        return bytes(out)

    def store_bytes(self, addr: int, data: bytes):
        self._check(addr, len(data))
        watch = self._store_watch
        if watch is not None and addr < watch[1] and \
                addr + len(data) > watch[0]:
            watch[2](addr, len(data))
        pos = 0
        remaining = len(data)
        while remaining:
            page = self._page(addr >> PAGE_SHIFT)
            offset = addr & PAGE_MASK
            take = min(remaining, PAGE_SIZE - offset)
            page[offset:offset + take] = data[pos:pos + take]
            addr += take
            pos += take
            remaining -= take

    def load_uint(self, addr: int, size: int) -> int:
        """Unsigned little-endian load of ``size`` bytes.

        The scalar accessors are the ISS data path — :meth:`_check` and
        :meth:`_page` are inlined here (hot-span hit, resident page) so
        the common access is one call deep.
        """
        hot = self._hot
        if hot[0] > addr or addr + size > hot[1]:
            hot2 = self._hot2
            if hot2[0] <= addr and addr + size <= hot2[1]:
                self._hot = hot2
                self._hot2 = hot
            else:
                self._find_span(addr, size)
        shadow = self._shadow_range
        if shadow is not None and shadow[0] <= addr < shadow[1]:
            self.shadow_bytes_touched += size
        offset = addr & PAGE_MASK
        if offset + size <= PAGE_SIZE:
            index = addr >> PAGE_SHIFT
            page = self._pages.get(index)
            if page is None:
                page = self._allocate(index)
            return int.from_bytes(page[offset:offset + size], "little")
        return int.from_bytes(self.load_bytes(addr, size), "little")

    def store_uint(self, addr: int, size: int, value: int):
        """Little-endian store of the low ``size`` bytes of ``value``."""
        hot = self._hot
        if hot[0] > addr or addr + size > hot[1]:
            hot2 = self._hot2
            if hot2[0] <= addr and addr + size <= hot2[1]:
                self._hot = hot2
                self._hot2 = hot
            else:
                self._find_span(addr, size)
        shadow = self._shadow_range
        if shadow is not None and shadow[0] <= addr < shadow[1]:
            self.shadow_bytes_touched += size
        value &= (1 << (8 * size)) - 1
        offset = addr & PAGE_MASK
        if offset + size <= PAGE_SIZE:
            watch = self._store_watch
            if watch is not None and addr < watch[1] and \
                    addr + size > watch[0]:
                watch[2](addr, size)
            index = addr >> PAGE_SHIFT
            page = self._pages.get(index)
            if page is None:
                page = self._allocate(index)
            page[offset:offset + size] = value.to_bytes(size, "little")
        else:
            self.store_bytes(addr, value.to_bytes(size, "little"))

    def load_u64(self, addr: int) -> int:
        return self.load_uint(addr, 8)

    def store_u64(self, addr: int, value: int):
        self.store_uint(addr, 8, value)

    def store_u32(self, addr: int, value: int):
        self.store_uint(addr, 4, value)

    def load_u8(self, addr: int) -> int:
        return self.load_uint(addr, 1)

    def store_u8(self, addr: int, value: int):
        self.store_uint(addr, 1, value)

    # -- inspection (fault injection / differential oracle) ------------------

    def hash_range(self, start: int, end: int) -> str:
        """Content digest of ``[start, end)``, unallocated bytes = 0.

        Pages that were never touched and pages holding only zeros hash
        identically (both contribute nothing), so the digest depends
        only on the observable memory contents — the differential
        oracle compares final heap images with it.
        """
        hasher = hashlib.sha256()
        first = start >> PAGE_SHIFT
        last = (end - 1) >> PAGE_SHIFT
        for index in sorted(self._pages):
            if index < first or index > last:
                continue
            page_base = index << PAGE_SHIFT
            lo = max(start, page_base)
            hi = min(end, page_base + PAGE_SIZE)
            chunk = self._pages[index][lo - page_base:hi - page_base]
            if chunk.count(0) == len(chunk):
                continue
            hasher.update(lo.to_bytes(8, "little"))
            hasher.update(chunk)
        return hasher.hexdigest()

    def nonzero_u64_addrs(self, start: int, end: int,
                          limit: int = 65536) -> List[int]:
        """Addresses of nonzero 8-byte-aligned words in ``[start, end)``.

        Deterministic (sorted) — fault injectors pick a corruption
        target from this list with a seeded index. Only allocated pages
        are scanned; at most ``limit`` addresses are returned.
        """
        out: List[int] = []
        first = start >> PAGE_SHIFT
        last = (end - 1) >> PAGE_SHIFT
        for index in sorted(self._pages):
            if index < first or index > last:
                continue
            page = self._pages[index]
            if page.count(0) == PAGE_SIZE:
                continue
            page_base = index << PAGE_SHIFT
            lo = max(start, page_base)
            hi = min(end, page_base + PAGE_SIZE)
            for addr in range((lo + 7) & ~7, hi - 7, 8):
                offset = addr - page_base
                if page[offset:offset + 8].count(0) != 8:
                    out.append(addr)
                    if len(out) >= limit:
                        return out
        return out

    #: Marker appended when ``load_cstring(allow_truncated=True)`` hits
    #: its limit before a NUL, so diagnostics never look complete when
    #: they are not.
    TRUNCATION_MARKER = b"...[truncated]"

    def load_cstring(self, addr: int, limit: int = 4096,
                     allow_truncated: bool = False) -> bytes:
        """Read a NUL-terminated byte string (diagnostics/syscalls).

        When no NUL appears within ``limit`` bytes the string is not
        actually terminated: by default that raises
        :class:`MemoryFault` instead of silently returning a prefix;
        with ``allow_truncated`` the prefix comes back with
        :data:`TRUNCATION_MARKER` appended.
        """
        out = bytearray()
        for i in range(limit):
            byte = self.load_u8(addr + i)
            if byte == 0:
                return bytes(out)
            out.append(byte)
        if allow_truncated:
            return bytes(out) + self.TRUNCATION_MARKER
        raise MemoryFault(
            addr, f"unterminated C string: no NUL within {limit} bytes")
