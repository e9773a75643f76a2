"""Unit tests for the pipeline timing model."""

import pytest

from repro.isa.instructions import Instr, SPEC_TABLE
from repro.pipeline.cache import CacheParams
from repro.pipeline.timing import (
    BREAKDOWN_METRICS, InOrderPipeline, TimingParams,
)


def pipe(**kwargs):
    return InOrderPipeline(TimingParams(**kwargs))


def retire(p, op, rd=0, rs1=0, rs2=0, mem=None, store=False,
           taken=False, kb=None, mem2=None):
    p.retire(Instr(op, rd=rd, rs1=rs1, rs2=rs2), mem, store, taken,
             kb, mem2)


class TestBaseCosts:
    def test_alu_is_one_cycle(self):
        p = pipe()
        retire(p, "add", rd=1, rs1=2, rs2=3)
        assert p.cycles == 1

    def test_load_use_stall(self):
        p = pipe()
        retire(p, "ld", rd=5, rs1=2, mem=0x1000)
        miss = p.params.dcache_miss_penalty
        retire(p, "addi", rd=6, rs1=5)   # consumes the load
        assert p.cycles == 2 + miss + p.params.load_use_stall

    def test_no_stall_with_gap(self):
        p = pipe()
        retire(p, "ld", rd=5, rs1=2, mem=0x1000)
        retire(p, "addi", rd=7, rs1=8)   # unrelated
        retire(p, "addi", rd=6, rs1=5)   # one cycle later: bypassed
        assert p.breakdown["load_use"] == 0

    def test_taken_branch_penalty(self):
        p = pipe()
        retire(p, "beq", rs1=1, rs2=2, taken=True)
        assert p.cycles == 1 + p.params.branch_penalty

    def test_untaken_branch_is_free(self):
        p = pipe()
        retire(p, "beq", rs1=1, rs2=2, taken=False)
        assert p.cycles == 1

    def test_jump_penalty(self):
        p = pipe()
        retire(p, "jal", rd=1, taken=True)
        assert p.cycles == 1 + p.params.jump_penalty

    def test_mul_div_latency(self):
        p = pipe()
        retire(p, "mul", rd=1, rs1=2, rs2=3)
        retire(p, "div", rd=1, rs1=2, rs2=3)
        assert p.cycles == 2 + p.params.mul_latency + \
            p.params.div_latency


class TestMemorySystem:
    def test_miss_then_hit(self):
        p = pipe()
        retire(p, "ld", rd=1, rs1=2, mem=0x2000)
        first = p.cycles
        retire(p, "sd", rs1=2, rs2=3, mem=0x2008, store=True)
        assert first == 1 + p.params.dcache_miss_penalty
        assert p.cycles == first + 1   # same line hits

    def test_custom_cache_params(self):
        p = pipe(cache=CacheParams(size_bytes=64, ways=1,
                                   line_bytes=32))
        retire(p, "ld", rd=1, rs1=2, mem=0x0)
        retire(p, "ld", rd=1, rs1=2, mem=0x40)  # maps to same set
        retire(p, "ld", rd=1, rs1=2, mem=0x0)   # evicted -> miss
        assert p.dcache.misses == 3


class TestHwstCosts:
    def test_tchk_hit_occupancy(self):
        p = pipe()
        retire(p, "tchk", rs1=5, kb=True)
        assert p.cycles == 1 + p.params.tchk_occupancy

    def test_tchk_miss_pays_key_load(self):
        p = pipe()
        retire(p, "tchk", rs1=5, kb=False, mem2=0x1000_0000)
        hit = 1 + p.params.tchk_occupancy
        assert p.cycles > hit + 1   # key load (miss) + fill

    def test_bind_extra(self):
        p = pipe()
        retire(p, "bndrs", rd=1, rs1=2, rs2=3)
        assert p.cycles == 1 + p.params.bind_extra

    def test_shadow_access_smac(self):
        p = pipe()
        retire(p, "ld", rd=1, rs1=2, mem=0x100)     # warm nothing
        base = p.cycles
        retire(p, "lbdls", rd=1, rs1=2, mem=0x1100_0000)
        extra = p.cycles - base
        assert extra >= 1 + p.params.smac_extra

    def test_srf_load_use_interlock(self):
        p = pipe()
        retire(p, "lbdus", rd=5, rs1=2, mem=0x1100_0000)
        before = p.breakdown["load_use"]
        retire(p, "tchk", rs1=5, kb=True)
        assert p.breakdown["load_use"] == before + \
            p.params.srf_load_use_stall

    def test_no_srf_interlock_for_other_reg(self):
        p = pipe()
        retire(p, "lbdus", rd=5, rs1=2, mem=0x1100_0000)
        before = p.breakdown["load_use"]
        retire(p, "tchk", rs1=6, kb=True)
        assert p.breakdown["load_use"] == before

    def test_mpx_walk_cost(self):
        p = pipe()
        retire(p, "ld", rd=1, rs1=2, mem=0x1100_0000)  # warm the line
        base = p.cycles
        retire(p, "bndldx", rd=1, rs1=2, mem=0x1100_0000)
        assert p.cycles - base >= 1 + p.params.mpx_walk_extra

    def test_avx_wide_beats(self):
        p = pipe()
        retire(p, "ld", rd=1, rs1=2, mem=0x1100_0000)
        base = p.cycles
        retire(p, "vld256", rd=1, rs1=2, mem=0x1100_0000)
        assert p.cycles - base >= 1 + p.params.wide_access_extra

    def test_vchk_vector_compare_cost(self):
        p = pipe()
        retire(p, "vchk", rs1=1, rs2=2)
        assert p.cycles == 1 + p.params.avx_check_extra


class TestAccounting:
    def test_breakdown_sums_to_cycles(self):
        p = pipe()
        retire(p, "ld", rd=5, rs1=2, mem=0x1000)
        retire(p, "addi", rd=6, rs1=5)
        retire(p, "beq", rs1=6, rs2=0, taken=True)
        retire(p, "tchk", rs1=6, kb=False, mem2=0x1000_0000)
        retire(p, "mul", rd=1, rs1=2, rs2=3)
        assert sum(p.breakdown.values()) == p.cycles

    def test_stats_exported(self):
        p = pipe()
        retire(p, "ld", rd=1, rs1=2, mem=0)
        stats = p.stats()
        assert stats["dcache_misses"] == 1
        assert "cyc_base" in stats

    def test_reset(self):
        p = pipe()
        retire(p, "ld", rd=1, rs1=2, mem=0)
        p.reset()
        assert p.cycles == 0
        assert p.dcache.misses == 0
        assert all(v == 0 for v in p.breakdown.values())


# DESIGN.md "Timing calibration", written out per mnemonic: the static
# cycles an instruction pays on top of its 1 base cycle, and the
# ``cyc_*`` bucket they bill. Every mnemonic not listed costs exactly
# the base cycle.
_SMAC = 1
CALIBRATION = {
    # +1 COMP pack on binds
    "bndrs": ("wide", 1), "bndrt": ("wide", 1),
    # +1 SMAC stage on shadow accesses
    **{op: ("wide", _SMAC) for op in (
        "sbdl", "sbdu", "lbdls", "lbdus", "lbas", "lbnd", "lkey", "lloc")},
    # 2-cycle tchk MEM-stage occupancy
    "tchk": ("wide", 2),
    # MPX bound-table ops +4 (two-beat walk), behind the SMAC
    "bndldx": ("wide", _SMAC + 4), "bndstx": ("wide", _SMAC + 4),
    # AVX 256-bit accesses: 4 beats (+3), behind the SMAC
    "vld256": ("wide", _SMAC + 3), "vst256": ("wide", _SMAC + 3),
    # 2-cycle vector compare
    "vchk": ("wide", 2),
    # 3/24-cycle mul/div
    **{op: ("muldiv", 3) for op in (
        "mul", "mulh", "mulhsu", "mulhu", "mulw")},
    **{op: ("muldiv", 24) for op in (
        "div", "divu", "rem", "remu", "divw", "divuw", "remw", "remuw")},
    # 2-cycle jump redirect (a branch pays only when taken)
    "jal": ("redirect", 2), "jalr": ("redirect", 2),
}

_CHECKED = tuple(op for op in SPEC_TABLE if op.endswith(".chk"))
#: Interlock producers: GPR loads (data from MEM) and shadow loads
#: into the SRF.
GPR_LOADS = {"lb", "lh", "lw", "ld", "lbu", "lhu", "lwu",
             "lbas", "lbnd", "lkey", "lloc"} | {
                 op for op in _CHECKED if op.startswith("l")}
SRF_LOADS = {"lbdls", "lbdus", "bndldx", "vld256"}
#: SRF consumers and the operand that reads the SRF entry.
SRF_USES = {"tchk": "rs1", "sbdl": "rs2", "sbdu": "rs2",
            **{op: "rs1" for op in _CHECKED}}

_BUCKET_OF = {f"pipeline.{name}": key
              for key, name in BREAKDOWN_METRICS.items()}


def expected_split(op):
    split = {"base": 1}
    if op in CALIBRATION:
        bucket, extra = CALIBRATION[op]
        split[bucket] = extra
    return split


def split_of(deltas):
    split = {}
    for counter, delta in deltas:
        key = _BUCKET_OF[counter.name]
        split[key] = split.get(key, 0) + delta
    return split


class TestCalibration:
    """Every row of the cost table against DESIGN.md's calibration."""

    def test_static_rows(self):
        rows = pipe().rows
        wrong = {}
        for op in SPEC_TABLE:
            row = rows[op]
            split = {"base": 1}
            if row.extra:
                split[row.bucket] = row.extra
            if split != expected_split(op) or \
                    row.cycles != sum(split.values()):
                wrong[op] = (row.cycles, split)
        assert not wrong

    def test_static_cost_is_the_row(self):
        # The fast engine's translate-time view bills the same split.
        p = pipe()
        wrong = {}
        for op in SPEC_TABLE:
            cycles, deltas, _ = p.static_cost(Instr(op), None)
            split = split_of(deltas)
            if split != expected_split(op) or cycles != sum(split.values()):
                wrong[op] = (cycles, split)
        assert not wrong

    def test_retire_charges_the_row(self):
        # No dynamic term (no memory access, branch not taken): retire()
        # bills exactly the row.
        wrong = {}
        for op in SPEC_TABLE:
            p = pipe()
            retire(p, op, rd=1, rs1=2, rs2=3)
            split = {k: v for k, v in p.breakdown.items() if v}
            if split != expected_split(op) or \
                    p.cycles != sum(split.values()):
                wrong[op] = (p.cycles, split)
        assert not wrong

    def test_interlock_roles(self):
        rows = pipe().rows
        for op, spec in SPEC_TABLE.items():
            row = rows[op]
            assert row.gpr_load == (op in GPR_LOADS), op
            assert row.srf_load == (op in SRF_LOADS), op
            assert row.srf_rs1 == (SRF_USES.get(op) == "rs1"), op
            assert row.srf_rs2 == (SRF_USES.get(op) == "rs2"), op
            assert (row.gpr_rs1, row.gpr_rs2) == \
                (spec.reads_rs1, spec.reads_rs2), op
            assert row.branch == spec.is_branch, op

    def test_rows_follow_params(self):
        p = pipe(mul_latency=5, jump_penalty=7, smac_extra=2,
                 branch_penalty=4)
        assert p.rows["mul"].cycles == 1 + 5
        assert p.rows["jalr"].cycles == 1 + 7
        assert p.rows["bndldx"].cycles == 1 + 2 + p.params.mpx_walk_extra
        assert p.redirect[0] == 4

    def test_rows_are_shared_read_only(self):
        p, q = pipe(), pipe()
        assert p.rows is q.rows
        assert pipe(mul_latency=5).rows is not p.rows
        with pytest.raises(TypeError):
            p.rows["add"] = p.rows["mul"]


class TestTranslateTimeView:
    """static_cost()/operands() agree with retire() on interlocks."""

    @pytest.mark.parametrize("producer,consumer", (
        (Instr("ld", rd=5, rs1=2), Instr("add", rd=6, rs1=7, rs2=5)),
        (Instr("lbdus", rd=5, rs1=2), Instr("tchk", rs1=5)),
        (Instr("lbdls", rd=5, rs1=2), Instr("sbdl", rs1=8, rs2=5)),
        (Instr("lbdls", rd=5, rs1=2), Instr("ld.chk", rd=6, rs1=5)),
        (Instr("ld", rd=5, rs1=2), Instr("add", rd=6, rs1=7, rs2=8)),
        (Instr("lbdus", rd=5, rs1=2), Instr("tchk", rs1=6)),
    ))
    def test_stall_matches_retire(self, producer, consumer):
        p = pipe()
        p.retire(producer, None, False, False, None, None)
        state = (p.last_load_rd, p.last_srf_load_rd)
        before = p.cycles
        p.retire(consumer, None, False, False,
                 True if consumer.op == "tchk" else None, None)
        cycles, _, after = p.static_cost(consumer, state)
        assert cycles == p.cycles - before
        assert after == (p.last_load_rd, p.last_srf_load_rd)
        assert p.static_cost(producer, None)[2] == state


class TestDynamicCharges:
    def test_dcache_miss_method(self):
        p = pipe()
        assert p.dcache_miss() == p.params.dcache_miss_penalty
        assert p.cycles == p.breakdown["dmiss"] == \
            p.params.dcache_miss_penalty

    def test_key_load_hit_and_miss(self):
        p = pipe()
        fill = 1 + p.params.keybuffer_miss_extra
        first = p.key_load(0x1000_0000)      # cold line: D-cache miss
        assert first == fill + p.params.dcache_miss_penalty
        assert p.key_load(0x1000_0000) == fill  # line now cached
        assert p.breakdown["tchk_miss"] == 2 * fill
        assert p.cycles == first + fill

    def test_second_access_hit_and_miss(self):
        p = pipe()
        miss = p.params.dcache_miss_penalty
        first = p.second_access(0x1100_0000)     # cold line: D-cache miss
        assert first == 1 + miss
        assert p.second_access(0x1100_0008) == 1  # line now cached
        assert p.breakdown["wide"] == 2
        assert p.breakdown["dmiss"] == miss
        assert p.cycles == first + 1

    def test_retire_walks_the_second_word(self):
        # bndldx: the row, the primary access, then the walk's second
        # word (on the next line here) — a beat plus its own D-cache read.
        p = pipe()
        cost = p.retire(Instr("bndldx", rd=1, rs1=2), 0x1100_0018, False,
                        False, None, 0x1100_0020)
        miss = p.params.dcache_miss_penalty
        walk = p.params.smac_extra + p.params.mpx_walk_extra
        assert cost == p.cycles == (1 + walk) + miss + (1 + miss)
        assert p.breakdown == {**dict.fromkeys(p.breakdown, 0), "base": 1,
                               "wide": walk + 1, "dmiss": 2 * miss}
        assert p.dcache.misses == 2

    def test_retire_uses_the_miss_methods(self):
        p = pipe()
        cost = p.retire(Instr("tchk", rs1=5), None, False, False, False,
                        0x1000_0000)
        q = pipe()
        assert cost == q.rows["tchk"].cycles + q.key_load(0x1000_0000)
        assert p.breakdown == q.breakdown | {"base": 1, "wide": 2}
