"""Tests for the paged memory model and its software TLB."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MemoryFault
from repro.isa.instructions import Instr
from repro.sim import semantics
from repro.sim.fastmachine import FastMachine
from repro.sim.memory import DEFAULT_LAYOUT, Memory, MemoryLayout, PAGE_SIZE
from repro.sim.program import Program


def small_memory() -> Memory:
    memory = Memory()
    memory.map_region(0x1000, 0x10000, "test")
    return memory


class TestRegions:
    def test_unmapped_access_faults(self):
        memory = small_memory()
        with pytest.raises(MemoryFault):
            memory.load_u8(0x0)
        with pytest.raises(MemoryFault):
            memory.store_u8(0x2_0000, 1)

    def test_null_page_is_unmapped_by_default(self):
        """Page zero stays unmapped so baseline null derefs fault."""
        memory = Memory()
        memory.map_layout(DEFAULT_LAYOUT)
        with pytest.raises(MemoryFault):
            memory.load_u64(0)

    def test_access_straddling_region_end_faults(self):
        memory = small_memory()
        with pytest.raises(MemoryFault):
            memory.load_u64(0x1000 + 0x10000 - 4)

    def test_region_of(self):
        memory = Memory()
        memory.map_layout(DEFAULT_LAYOUT)
        assert memory.region_of(DEFAULT_LAYOUT.text_base) == "text"
        assert memory.region_of(DEFAULT_LAYOUT.heap_base) == "heap"
        assert memory.region_of(DEFAULT_LAYOUT.stack_top - 8) == "stack"
        assert memory.region_of(DEFAULT_LAYOUT.shadow_offset) == "shadow"
        assert memory.region_of(0) is None

    def test_bad_region_size(self):
        with pytest.raises(ValueError):
            Memory().map_region(0, 0)

    def test_access_spanning_adjacent_regions(self):
        """Two back-to-back regions behave as one mapped span."""
        memory = Memory()
        memory.map_region(0x1000, 0x1000, "lo")
        memory.map_region(0x2000, 0x1000, "hi")
        memory.store_u64(0x2000 - 4, 0x1122_3344_5566_7788)
        assert memory.load_u64(0x2000 - 4) == 0x1122_3344_5566_7788
        assert memory.is_mapped(0x2000 - 4, 8)

    def test_text_data_boundary_spans(self):
        """load_u64(data_base - 4): every byte mapped -> no fault."""
        memory = Memory()
        memory.map_layout(DEFAULT_LAYOUT)
        addr = DEFAULT_LAYOUT.data_base - 4
        memory.store_u64(addr, 0xDEAD_BEEF_CAFE_F00D)
        assert memory.load_u64(addr) == 0xDEAD_BEEF_CAFE_F00D

    def test_data_heap_boundary_spans(self):
        memory = Memory()
        memory.map_layout(DEFAULT_LAYOUT)
        addr = DEFAULT_LAYOUT.heap_base - 1
        memory.store_bytes(addr, b"\xAA\xBB")
        assert memory.load_bytes(addr, 2) == b"\xAA\xBB"

    def test_heap_top_edge_still_faults(self):
        """heap_top..stack_base is a hole: spanning it must fault."""
        memory = Memory()
        memory.map_layout(DEFAULT_LAYOUT)
        assert DEFAULT_LAYOUT.heap_top < DEFAULT_LAYOUT.stack_base
        with pytest.raises(MemoryFault):
            memory.load_u64(DEFAULT_LAYOUT.heap_top - 4)
        # The last fully-in-heap access still works.
        assert memory.load_u64(DEFAULT_LAYOUT.heap_top - 8) == 0

    def test_overlapping_regions_coalesce(self):
        memory = Memory()
        memory.map_region(0x1000, 0x2000, "a")
        memory.map_region(0x1800, 0x2000, "b")   # overlaps a
        assert memory.is_mapped(0x1000, 0x2800)
        with pytest.raises(MemoryFault):
            memory.load_u8(0x3800)


class TestScalars:
    def test_u64_roundtrip(self):
        memory = small_memory()
        memory.store_u64(0x1008, 0x1122_3344_5566_7788)
        assert memory.load_u64(0x1008) == 0x1122_3344_5566_7788

    def test_little_endian(self):
        memory = small_memory()
        memory.store_u32(0x1000, 0xAABBCCDD)
        assert memory.load_u8(0x1000) == 0xDD
        assert memory.load_u8(0x1003) == 0xAA

    def test_store_truncates(self):
        memory = small_memory()
        memory.store_u8(0x1000, 0x1FF)
        assert memory.load_u8(0x1000) == 0xFF

    def test_zero_initialised(self):
        memory = small_memory()
        assert memory.load_u64(0x2000) == 0

    def test_page_crossing_access(self):
        memory = Memory()
        memory.map_region(0, 4 * PAGE_SIZE, "span")
        addr = PAGE_SIZE - 3
        memory.store_u64(addr, 0x0102_0304_0506_0708)
        assert memory.load_u64(addr) == 0x0102_0304_0506_0708

    @given(st.integers(min_value=0, max_value=0xFFF8),
           st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_u64_roundtrip_property(self, offset, value):
        memory = small_memory()
        addr = 0x1000 + (offset & ~7)
        memory.store_u64(addr, value)
        assert memory.load_u64(addr) == value


class TestBulk:
    def test_bytes_roundtrip(self):
        memory = small_memory()
        blob = bytes(range(256))
        memory.store_bytes(0x1100, blob)
        assert memory.load_bytes(0x1100, 256) == blob

    def test_cstring(self):
        memory = small_memory()
        memory.store_bytes(0x1200, b"hello\x00world")
        assert memory.load_cstring(0x1200) == b"hello"

    def test_cstring_unterminated_raises(self):
        """No NUL within the limit must not silently truncate."""
        memory = small_memory()
        memory.store_bytes(0x1300, b"a" * 64)
        with pytest.raises(MemoryFault, match="unterminated"):
            memory.load_cstring(0x1300, limit=16)

    def test_cstring_truncation_marker(self):
        memory = small_memory()
        memory.store_bytes(0x1300, b"a" * 64)
        out = memory.load_cstring(0x1300, limit=16, allow_truncated=True)
        assert out == b"a" * 16 + Memory.TRUNCATION_MARKER

    def test_cstring_nul_at_limit_is_complete(self):
        memory = small_memory()
        memory.store_bytes(0x1400, b"abc\x00")
        assert memory.load_cstring(0x1400, limit=4) == b"abc"

    def test_pages_allocated_lazily(self):
        memory = Memory()
        memory.map_region(0, 1 << 20, "big")
        assert memory.pages_allocated == 0
        memory.store_u8(0x8_0000, 1)
        assert memory.pages_allocated == 1


class TestShadowAccounting:
    def test_shadow_bytes_counted(self):
        memory = Memory()
        memory.map_layout(DEFAULT_LAYOUT)
        before = memory.shadow_bytes_touched
        memory.store_u64(DEFAULT_LAYOUT.shadow_offset + 64, 1)
        assert memory.shadow_bytes_touched == before + 8

    def test_user_bytes_not_counted(self):
        memory = Memory()
        memory.map_layout(DEFAULT_LAYOUT)
        memory.store_u64(DEFAULT_LAYOUT.heap_base, 1)
        assert memory.shadow_bytes_touched == 0


class TestLayout:
    def test_default_layout_is_consistent(self):
        layout = DEFAULT_LAYOUT
        assert layout.text_base < layout.data_base < layout.heap_base
        assert layout.heap_top <= layout.stack_base
        assert layout.stack_top <= layout.user_top
        assert layout.shadow_offset >= layout.user_top

    def test_lock_table_overlays_text_shadow_only(self):
        """The lock table must fit below the shadow of the data segment."""
        from repro.core.config import HwstConfig

        layout = DEFAULT_LAYOUT
        config = HwstConfig()
        data_shadow_start = (layout.data_base << 2) + layout.shadow_offset
        assert config.lock_limit <= data_shadow_start

    def test_stack_base(self):
        layout = MemoryLayout()
        assert layout.stack_base == layout.stack_top - layout.stack_size


# ----------------------------------------------------------------------
# The software TLB (``Memory.tlb`` / ``Memory.stlb``)
# ----------------------------------------------------------------------

L = DEFAULT_LAYOUT
#: Candidate regions: the layout's five, an unaligned one, one ending
#: inside the first shadow page, and a second shadow region (mapping it
#: moves the shadow range).
REGIONS = L.regions() + (
    (L.data_base + 0x800, L.data_base + 0x2800, "odd"),
    (L.shadow_offset - 0x3000, L.shadow_offset + 0x800, "edge"),
    (0x2000_0000, 0x2000_4000, "shadow"),
)
#: Access bases in text, data, heap, stack, shadow and unmapped memory.
BASES = (L.text_base, L.data_base, L.heap_base, L.stack_base,
         L.stack_top - PAGE_SIZE, L.shadow_offset, L.shadow_offset - 0x3000,
         0x2000_0000, L.heap_top, 0)
#: Offsets around the page edges of a base's first three pages.
EDGES = (-8, -4, -1, 0, 1, 4, 7, 8)
WINDOWS = ((L.text_base, L.text_base + 0x2100),
           (L.data_base + 0x10, L.data_base + 0x20),
           (L.shadow_offset, L.shadow_offset + PAGE_SIZE),
           (L.data_base + 0x800, L.data_base + 0x800))


def addresses():
    return st.builds(lambda base, page, edge: max(0, base + page + edge),
                     st.sampled_from(BASES),
                     st.sampled_from((0, PAGE_SIZE, 2 * PAGE_SIZE)),
                     st.sampled_from(EDGES))


STEPS = st.one_of(
    st.tuples(st.just("map"), st.sampled_from(REGIONS)),
    st.tuples(st.just("store_bytes"), addresses(),
              st.binary(min_size=1, max_size=16)),
    st.tuples(st.just("watch"), st.sampled_from(WINDOWS)),
    st.tuples(st.just("unwatch")),
    st.tuples(st.just("load"), addresses(), st.sampled_from((1, 2, 4, 8))),
    st.tuples(st.just("store"), addresses(), st.sampled_from((1, 2, 4, 8)),
              st.integers(min_value=0, max_value=(1 << 64) - 1)),
)


def apply(memory, step):
    kind = step[0]
    try:
        if kind == "map":
            start, end, name = step[1]
            memory.map_region(start, end - start, name)
        elif kind == "store_bytes":
            memory.store_bytes(step[1], step[2])
        elif kind == "watch":
            memory.watch_stores(*step[1], lambda addr, size: None)
        elif kind == "unwatch":
            memory.watch_stores(0, 0, None)
        elif kind == "load":
            memory.load_uint(step[1], step[2])
        else:
            memory.store_uint(step[1], step[2], step[3])
    except MemoryFault:
        pass


def assert_tlb_invariant(memory):
    """Every listed page is resident, wholly inside one mapped span, on
    its map's side of the shadow boundary and clear of the watch."""
    shadow = memory._shadow_range
    watch = memory._store_watch
    for pages, in_shadow in ((memory.tlb, False), (memory.stlb, True)):
        for index, page in pages.items():
            lo = index * PAGE_SIZE
            hi = lo + PAGE_SIZE
            assert page is memory._pages[index]
            assert memory.is_mapped(lo, PAGE_SIZE)
            if in_shadow:
                assert shadow[0] <= lo and hi <= shadow[1]
            else:
                assert shadow is None or hi <= shadow[0] or lo >= shadow[1]
            assert watch is None or not (lo < watch[1] and hi > watch[0])


class TestTlbInvariant:
    @settings(max_examples=300, deadline=None)
    @given(layout=st.booleans(), steps=st.lists(STEPS, max_size=40))
    def test_invariant_holds_after_every_step(self, layout, steps):
        """From an empty memory or one with the layout mapped (as a
        loaded program's is), every step keeps the invariant."""
        memory = Memory()
        if layout:
            memory.map_layout(L)
        for step in steps:
            apply(memory, step)
            assert_tlb_invariant(memory)

    def test_pages_enter_their_map_on_allocation(self):
        memory = Memory()
        memory.map_layout(L)
        memory.store_u64(L.heap_base, 1)
        memory.load_u64(L.shadow_offset + PAGE_SIZE)
        with pytest.raises(MemoryFault):
            memory.load_u8(L.shadow_offset - 1)   # unmapped: no page
        assert set(memory.tlb) == {L.heap_base // PAGE_SIZE}
        assert set(memory.stlb) == {L.shadow_offset // PAGE_SIZE + 1}

    def test_partly_mapped_page_enters_once_its_span_covers_it(self):
        memory = Memory()
        memory.map_region(0x1000, 0x800, "lo")
        memory.store_u8(0x1000, 1)
        assert memory.tlb == {}
        memory.map_region(0x1800, 0x800, "hi")
        assert memory.tlb == {1: memory._pages[1]}

    def test_watch_evicts_the_pages_it_overlaps(self):
        memory = Memory()
        memory.map_layout(L)
        for page in range(3):
            memory.store_u8(L.text_base + page * PAGE_SIZE, 1)
        memory.watch_stores(L.text_base + PAGE_SIZE,
                            L.text_base + PAGE_SIZE + 1, print)
        assert set(memory.tlb) == {L.text_base // PAGE_SIZE,
                                   L.text_base // PAGE_SIZE + 2}
        # A page allocated under the watch stays out of the map.
        memory.store_u8(L.text_base + 3 * PAGE_SIZE, 1)
        memory.watch_stores(L.text_base + 3 * PAGE_SIZE,
                            L.text_base + 4 * PAGE_SIZE, print)
        memory.store_u8(L.text_base + 3 * PAGE_SIZE + 8, 1)
        assert L.text_base // PAGE_SIZE + 3 not in memory.tlb


#: Heap and shadow pages the row cases make resident.
HEAP = L.heap_base
SHADOW = L.shadow_offset + 0x4_0000


def fill_row_case_pages(memory):
    """Make two heap pages and two shadow pages resident, with non-zero
    contents."""
    for base in (HEAP, SHADOW):
        memory.store_bytes(base + PAGE_SIZE - 16, bytes(range(1, 33)))


#: (row, access size, shadow access?, target address) — the target of
#: a shadow row is its shadow address ``(container << 2) + offset``.
ROW_CASES = {
    "ld/in-page": ("ld", 8, False, HEAP + PAGE_SIZE - 16),
    "ld/straddle": ("ld", 8, False, HEAP + PAGE_SIZE - 4),
    "ld/unmapped": ("ld", 8, False, L.heap_top + 0x10),
    "ld/fresh-page": ("ld", 8, False, HEAP + 5 * PAGE_SIZE),
    "ld/shadow": ("ld", 8, False, SHADOW + PAGE_SIZE - 16),
    "lwu/straddle": ("lwu", 4, False, HEAP + PAGE_SIZE - 2),
    "sd/in-page": ("sd", 8, False, HEAP + PAGE_SIZE - 8),
    "sd/straddle": ("sd", 8, False, HEAP + PAGE_SIZE - 4),
    "sd/unmapped": ("sd", 8, False, L.heap_top + 0x10),
    "sh/straddle": ("sh", 2, False, HEAP + PAGE_SIZE - 1),
    "sd/shadow": ("sd", 8, False, SHADOW + PAGE_SIZE - 16),
    "lbdls/in-page": ("lbdls", 8, True, SHADOW + PAGE_SIZE - 16),
    "lbdls/straddle": ("lbdls", 8, True, SHADOW + PAGE_SIZE - 4),
    "lbdls/fresh-page": ("lbdls", 8, True, SHADOW + 8 * PAGE_SIZE),
    "sbdl/in-page": ("sbdl", 8, True, SHADOW + PAGE_SIZE - 8),
    "sbdl/straddle": ("sbdl", 8, True, SHADOW + PAGE_SIZE - 4),
}


class TestRowFastPath:
    """A translated row's TLB path agrees with ``load_uint`` /
    ``store_uint`` on the value, the fault, the shadow bytes counted
    and the pages allocated."""

    VALUE = 0x1122_3344_5566_7788

    @pytest.mark.parametrize("case", sorted(ROW_CASES))
    def test_row_agrees_with_checked_path(self, case):
        op, nbytes, shadow, target = ROW_CASES[case]
        machine = FastMachine()
        ins = Instr(op, rd=7, rs1=5, rs2=6, imm=0)
        machine.load(Program(instrs=[ins], entry=L.text_base))
        fill_row_case_pages(machine.memory)
        if shadow:
            machine.regs[5] = (target - machine.config.shadow_offset) >> 2
            machine.srf[6] = (self.VALUE, 0, True, False)
        else:
            machine.regs[5] = target
            machine.regs[6] = self.VALUE
        direct = Memory()
        direct.map_layout(L)
        fill_row_case_pages(direct)
        assert (direct.shadow_bytes_touched, direct.pages_allocated) == (
            machine.memory.shadow_bytes_touched,
            machine.memory.pages_allocated)

        row = semantics.translated(op, False)(machine, ins, L.text_base)
        try:
            row()
            row_fault = None
        except MemoryFault as fault:
            row_fault = str(fault)
        try:
            if op.startswith("l"):
                expected = direct.load_uint(target, nbytes)
            else:
                direct.store_uint(target, nbytes, self.VALUE)
            direct_fault = None
        except MemoryFault as fault:
            direct_fault = str(fault)

        assert row_fault == direct_fault
        memory = machine.memory
        assert memory.shadow_bytes_touched == direct.shadow_bytes_touched
        assert memory.pages_allocated == direct.pages_allocated
        assert memory._pages == direct._pages
        if op.startswith("l") and row_fault is None:
            got = machine.srf[7][0] if shadow else machine.regs[7]
            assert got == expected
        if "unmapped" not in case:
            assert row_fault is None
