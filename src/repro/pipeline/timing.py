"""Trace-driven timing model of the 5-stage in-order HWST128 pipeline.

The machine (functional ISS) retires instructions in program order and
hands each one to :meth:`InOrderPipeline.retire`. The model charges:

* one base cycle per instruction (in-order, single-issue);
* a load-use bubble when an instruction consumes the result of the
  immediately preceding load (data arrives from MEM, bypass covers
  everything else);
* a redirect penalty for taken branches and jumps (branches resolve in
  EX with a static not-taken predictor, Rocket-style);
* multiplier/divider occupancy;
* data-cache miss penalties for every memory access, including the
  shadow-memory metadata traffic;
* the temporal-check cost: a ``tchk`` whose lock hits the keybuffer is a
  single cycle, a miss performs the key load through the D-cache
  (Section 3.5 — the keybuffer bypasses the DCache access on a hit).

Fused-check accesses (``ld.chk`` …) cost the same as plain accesses: the
SCU compares in EX off the decompressed SRF metadata, in parallel with
address generation, which is exactly the SHORE/HWST128 design point (the
price is paid in critical-path ns, not cycles — see ``hwcost``).

This module is the only place that knows what an instruction costs:
everything static per mnemonic is one :class:`CostRow` of
:attr:`InOrderPipeline.rows`, which both engines read (DESIGN.md,
"Timing calibration"; ``tests/test_pipeline_timing.py`` checks every
row against it).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, Mapping, NamedTuple, Optional, Tuple

from repro.isa.instructions import Instr, InstrSpec, SPEC_TABLE
from repro.obs.metrics import MetricsRegistry
from repro.pipeline.cache import CacheParams, DataCache

# Legacy breakdown keys (the ``cyc_*`` stats) and the registry metric
# each one lives under. ``dmiss`` keeps its paper-facing name
# ``pipeline.dcache.miss_penalty_cycles`` — it is a D-cache property,
# not a pipeline-stage one.
BREAKDOWN_METRICS = {
    "base": "cycles.base",
    "load_use": "cycles.load_use",
    "redirect": "cycles.redirect",
    "muldiv": "cycles.muldiv",
    "dmiss": "dcache.miss_penalty_cycles",
    "tchk_miss": "cycles.tchk_miss",
    "wide": "cycles.wide",
}
BREAKDOWN_KEYS = tuple(BREAKDOWN_METRICS)


@dataclass(frozen=True)
class TimingParams:
    """Latency/penalty knobs of the pipeline model.

    Defaults are calibrated for the scaled-down workloads: the cache is
    shrunk in proportion to the inputs (2 KiB vs the paper's SPEC-sized
    footprints against a Rocket L1) and the miss penalty reflects the
    ZCU102's DDR latency. ``EXPERIMENTS.md`` records the calibration.
    """

    branch_penalty: int = 2      # taken-branch redirect (resolve in EX)
    jump_penalty: int = 2        # jal/jalr redirect
    load_use_stall: int = 1      # load -> immediate consumer bubble
    mul_latency: int = 3         # extra cycles occupying EX
    div_latency: int = 24
    dcache_miss_penalty: int = 60
    bind_extra: int = 1          # COMP packing before the SRF writeback
    smac_extra: int = 1          # SMAC shift+add in front of the AGU
    srf_load_use_stall: int = 1  # lbd[l/u]s -> checked-use interlock
    tchk_occupancy: int = 2      # tchk uses the MEM stage (CAM lookup)
    keybuffer_miss_extra: int = 1   # fill cycle on top of the key load
    wide_access_extra: int = 3      # 256-bit access: 4 beats on a 64-bit bus
    mpx_walk_extra: int = 4         # MPX two-level bound-table walk
    avx_check_extra: int = 2        # vchk: 4-field vector compare
    cache: CacheParams = field(default_factory=lambda: CacheParams(
        size_bytes=2048, ways=2, line_bytes=32))


class CostRow(NamedTuple):
    """One mnemonic's row of :attr:`InOrderPipeline.rows`: its static
    cost and its interlock roles."""

    cycles: int        # static cycles: the base cycle + ``extra``
    extra: int         # structural extras, latency or jump redirect ...
    bucket: str        # ... and the BREAKDOWN_KEYS bucket they bill
    gpr_rs1: bool      # rs1 stalls on a GPR load retired just before
    gpr_rs2: bool      # rs2 likewise
    srf_rs1: bool      # SRF[rs1] stalls on a shadow load retired just before
    srf_rs2: bool      # SRF[rs2] likewise (sbdl/sbdu)
    gpr_load: bool     # rd receives a GPR load result
    srf_load: bool     # SRF[rd] receives a shadow-memory load result
    branch: bool       # a taken branch pays InOrderPipeline.redirect


def _cost_row(spec: InstrSpec, params: TimingParams) -> CostRow:
    if spec.is_jump:
        # jal/jalr always redirect; a branch pays only when taken.
        bucket, extra = "redirect", params.jump_penalty
    elif spec.mul_like:
        bucket, extra = "muldiv", params.mul_latency
    elif spec.div_like:
        bucket, extra = "muldiv", params.div_latency
    else:
        bucket, extra = "wide", 0
        if spec.shadow_access:
            # Eq. 1 address generation (SMAC) in front of the AGU.
            extra += params.smac_extra
        if spec.srf_write and not spec.is_load:
            # bndrs/bndrt: the configurable field packer (COMP) sits in
            # front of the SRF write port.
            extra += params.bind_extra
        if spec.mnemonic == "tchk":
            # tchk occupies the MEM stage for its keybuffer CAM lookup
            # even on a hit (the win is skipping the DCache access,
            # Section 3.5).
            extra += params.tchk_occupancy
        if spec.mem_bytes > 8:
            extra += params.wide_access_extra
        if spec.ext == "mpx" and spec.shadow_access:
            # bndldx/bndstx: the MPX bound-table walk is slow silicon.
            extra += params.mpx_walk_extra
        elif spec.ext == "avx" and not spec.shadow_access:
            # vchk: compare all four metadata fields.
            extra += params.avx_check_extra
    return CostRow(
        cycles=1 + extra,
        extra=extra,
        bucket=bucket,
        gpr_rs1=spec.reads_rs1,
        gpr_rs2=spec.reads_rs2,
        # Metadata arriving from the shadow loads (lbdls/lbdus) is
        # consumed by a fused check, tchk or sbd in the very next cycle
        # — the bypass network cannot cover a MEM-stage producer.
        srf_rs1=spec.checked or spec.mnemonic == "tchk",
        srf_rs2=spec.mnemonic in ("sbdl", "sbdu"),
        # (shadow metadata loads write the SRF, not the GPR file)
        gpr_load=spec.is_load and spec.writes_rd and not spec.srf_write,
        srf_load=spec.is_load and spec.srf_write,
        branch=spec.is_branch,
    )


@functools.lru_cache(maxsize=32)
def _cost_tables(params: TimingParams) -> Tuple[Mapping[str, CostRow],
                                                Dict[str, tuple]]:
    """``(rows, the same rows as exact tuples)`` for ``params``, shared
    read-only by every pipeline built with them."""
    rows = {op: _cost_row(spec, params) for op, spec in SPEC_TABLE.items()}
    # retire() unpacks the rows as exact tuples: CPython specialises
    # tuple unpacking for those, not for subclasses.
    return MappingProxyType(rows), {op: tuple(row)
                                    for op, row in rows.items()}


class InOrderPipeline:
    """Cycle accumulator fed by the ISS retire stream.

    :attr:`rows` is the cost policy: one :class:`CostRow` per
    ``SPEC_TABLE`` mnemonic, built once per :attr:`params`. Both
    engines charge from it — :meth:`retire` per instruction, the fast
    engine's block fold through :meth:`static_cost` and
    :meth:`operands` at translate time — and both charge the rare
    dynamic costs through :meth:`dcache_miss`, :meth:`key_load` and
    :meth:`second_access`.
    """

    def __init__(self, params: Optional[TimingParams] = None,
                 metrics: Optional[MetricsRegistry] = None):
        self.params = params or TimingParams()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._scope = self.metrics.scope("pipeline")
        # Breakdown counters live in the registry; handlers bump the
        # captured Counter objects directly (as cheap as the dict they
        # replace).
        self._bk = {key: self._scope.counter(name)
                    for key, name in BREAKDOWN_METRICS.items()}
        self._base = self._bk["base"]
        self.rows, self._rows = _cost_tables(self.params)
        #: Interlock stalls: ``(GPR load-use cycles, SRF load-use
        #: cycles, counter)``.
        self.stalls = (self.params.load_use_stall,
                       self.params.srf_load_use_stall, self._bk["load_use"])
        #: Taken-branch redirect: ``(cycles, counter)``.
        self.redirect = (self.params.branch_penalty, self._bk["redirect"])
        self.dcache = DataCache(self.params.cache,
                                metrics=self._scope.scope("dcache"))
        self.cycles = 0
        # Load-producer state: the rd of the previous instruction if it
        # was a GPR (resp. shadow) load, else -1.
        self.last_load_rd = -1
        self.last_srf_load_rd = -1

    @property
    def breakdown(self) -> Dict[str, int]:
        """Back-compat view of the per-cause cycle counters."""
        return {key: counter.value for key, counter in self._bk.items()}

    def reset(self):
        self.dcache = DataCache(self.params.cache,
                                metrics=self._scope.scope("dcache"))
        self.cycles = 0
        self.last_load_rd = -1
        self.last_srf_load_rd = -1
        for counter in self._bk.values():
            counter.reset()

    def retire(self, ins: Instr, mem_addr: Optional[int], is_store: bool,
               taken: bool, kb_hit: Optional[bool],
               mem2: Optional[int]) -> int:
        """Account one retired instruction; returns its total cost in
        cycles (base + stalls + penalties) for cycle attribution."""
        (cost, extra, bucket, gpr_rs1, gpr_rs2, srf_rs1, srf_rs2,
         gpr_load, srf_load, branch) = self._rows[ins.op]
        self._base.value += 1
        if extra:
            self._bk[bucket].value += extra
        # Load-use interlocks against the previous instruction.
        last = self.last_load_rd
        if last > 0 and ((gpr_rs1 and ins.rs1 == last)
                         or (gpr_rs2 and ins.rs2 == last)):
            stall, _, counter = self.stalls
            cost += stall
            counter.value += stall
        last = self.last_srf_load_rd
        if last >= 0 and ((srf_rs1 and ins.rs1 == last)
                          or (srf_rs2 and ins.rs2 == last)):
            _, stall, counter = self.stalls
            cost += stall
            counter.value += stall
        self.last_load_rd = ins.rd if gpr_load else -1
        self.last_srf_load_rd = ins.rd if srf_load else -1
        if taken and branch:
            penalty, counter = self.redirect
            cost += penalty
            counter.value += penalty
        self.cycles += cost
        if mem_addr is not None and not self.dcache.access(mem_addr,
                                                           is_store):
            cost += self.dcache_miss()
        if mem2 is not None:
            if kb_hit is None:
                cost += self.second_access(mem2)
            elif kb_hit is False:
                cost += self.key_load(mem2)
        return cost

    def dcache_miss(self) -> int:
        """Charge one D-cache miss (an access just returned False);
        returns the cycles charged."""
        penalty = self.params.dcache_miss_penalty
        self._bk["dmiss"].value += penalty
        self.cycles += penalty
        return penalty

    def key_load(self, lock: int) -> int:
        """Charge a ``tchk`` keybuffer miss: the key load from ``lock``
        through the D-cache plus the fill cycle (Section 3.5 — a hit
        bypasses the DCache access). Returns the cycles charged."""
        cost = 1 + self.params.keybuffer_miss_extra
        self._bk["tchk_miss"].value += cost
        self.cycles += cost
        if not self.dcache.access(lock, False):
            cost += self.dcache_miss()
        return cost

    def second_access(self, addr: int) -> int:
        """Charge a secondary access beat: the MPX bound-table walk's
        second word, or WDL's in-check key load, read from ``addr``
        through the D-cache. Returns the cycles charged."""
        self._bk["wide"].value += 1
        self.cycles += 1
        if not self.dcache.access(addr, False):
            return 1 + self.dcache_miss()
        return 1

    # -- translate-time view (the fast engine's block fold) --------------

    def operands(self, ins: Instr) -> Tuple[int, int, int]:
        """Interlock descriptor of ``ins``: the two registers that stall
        on a GPR load retired just before it, and the one that stalls on
        a shadow load. Sentinels (-2/-3) never match a producer: the GPR
        test requires ``last > 0``, the SRF one ``last >= 0``."""
        row = self.rows[ins.op]
        return (ins.rs1 if row.gpr_rs1 else -2,
                ins.rs2 if row.gpr_rs2 else -2,
                ins.rs1 if row.srf_rs1 else ins.rs2 if row.srf_rs2 else -3)

    def static_cost(self, ins: Instr, prev: Optional[Tuple[int, int]]):
        """Everything :meth:`retire` charges ``ins`` that is known
        before it runs: ``(cycles, [(bucket, cycles), ...], state)``.

        ``prev`` is the load-producer state ``(last_load_rd,
        last_srf_load_rd)`` the previous instruction left, or ``None``
        when it is only known at run time (the interlock is then not
        charged here); ``state`` is the one ``ins`` leaves. The taken
        redirect of a branch, D-cache outcomes and secondary accesses
        are dynamic and not included.
        """
        row = self.rows[ins.op]
        cycles = row.cycles
        deltas = [(self._base, 1)]
        if row.extra:
            deltas.append((self._bk[row.bucket], row.extra))
        if prev is not None:
            gpr_stall, srf_stall, counter = self.stalls
            a, b, srf_c = self.operands(ins)
            last, srf_last = prev
            stall = 0
            if last > 0 and (a == last or b == last):
                stall += gpr_stall
            if srf_last >= 0 and srf_c == srf_last:
                stall += srf_stall
            if stall:
                cycles += stall
                deltas.append((counter, stall))
        state = (ins.rd if row.gpr_load else -1,
                 ins.rd if row.srf_load else -1)
        return cycles, deltas, state

    def stats(self) -> Dict[str, int]:
        """Legacy stats view; also publishes the cycle-total gauge."""
        self._scope.gauge("cycles").set(self.cycles)
        out = {f"cyc_{name}": value for name, value in self.breakdown.items()}
        out["dcache_hits"] = self.dcache.hits
        out["dcache_misses"] = self.dcache.misses
        return out
