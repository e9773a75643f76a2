"""Set-associative write-allocate data-cache timing model.

Only hit/miss behaviour matters for the figures (miss penalty is folded
into a single constant, covering writeback traffic), so the model tracks
tags and LRU order but no data.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.stats import HitMissStats


@dataclass(frozen=True)
class CacheParams:
    """Geometry of the cache (defaults: Rocket-ish 16 KiB, 4-way, 64 B)."""

    size_bytes: int = 16 * 1024
    ways: int = 4
    line_bytes: int = 64

    def __post_init__(self):
        if self.line_bytes & (self.line_bytes - 1):
            raise ValueError("line size must be a power of two")
        if self.size_bytes % (self.ways * self.line_bytes):
            raise ValueError("cache size must divide into ways * lines")

    @property
    def sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_bytes)


class DataCache(HitMissStats):
    """LRU set-associative cache: ``access`` returns True on hit.

    Hit/miss accounting comes from :class:`repro.obs.stats.
    HitMissStats`; pass ``metrics`` (a registry scope, e.g.
    ``pipeline.dcache``) to surface the counters in metric snapshots.
    """

    def __init__(self, params: CacheParams = CacheParams(),
                 metrics=None):
        self.params = params
        self._line_shift = params.line_bytes.bit_length() - 1
        self._set_mask = params.sets - 1
        if params.sets & self._set_mask and params.sets != 1:
            raise ValueError("set count must be a power of two")
        self._tag_shift = self._set_mask.bit_length()
        self._ways = params.ways
        # Per-set list of tags in LRU order (front = most recent).
        self._sets = [[] for _ in range(params.sets)]
        self._init_hit_miss(metrics)

    def access(self, addr: int, is_store: bool = False) -> bool:
        """Look up ``addr``; allocate on miss. Returns hit/miss."""
        line = addr >> self._line_shift
        ways = self._sets[line & self._set_mask]
        tag = line >> self._tag_shift
        if ways and ways[0] == tag:
            # A hit in the most recently used way: LRU order stands.
            self._hits.value += 1
            return True
        try:
            pos = ways.index(tag)
        except ValueError:
            self._misses.value += 1
            ways.insert(0, tag)
            if len(ways) > self._ways:
                ways.pop()
            return False
        self._hits.value += 1
        ways.insert(0, ways.pop(pos))
        return True

    def flush(self):
        for ways in self._sets:
            ways.clear()
