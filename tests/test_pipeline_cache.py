"""Tests for the set-associative data-cache model."""

import pytest
from hypothesis import given, strategies as st

from repro.pipeline.cache import CacheParams, DataCache


class TestGeometry:
    def test_default_sets(self):
        params = CacheParams()
        assert params.sets == 16 * 1024 // (4 * 64)

    def test_bad_line_size(self):
        with pytest.raises(ValueError):
            CacheParams(line_bytes=48)

    def test_bad_total_size(self):
        with pytest.raises(ValueError):
            CacheParams(size_bytes=1000, ways=3, line_bytes=64)


class TestBehaviour:
    def test_cold_miss_then_hit(self):
        cache = DataCache()
        assert cache.access(0x1000) is False
        assert cache.access(0x1000) is True
        assert cache.access(0x1008) is True  # same line

    def test_different_lines(self):
        cache = DataCache()
        cache.access(0x1000)
        assert cache.access(0x1040) is False

    def test_lru_within_set(self):
        params = CacheParams(size_bytes=2 * 64, ways=2, line_bytes=64)
        cache = DataCache(params)  # a single set, two ways
        cache.access(0 * 64)
        cache.access(1 * 64)
        cache.access(0 * 64)      # line 0 is MRU
        cache.access(2 * 64)      # evicts line 1
        assert cache.access(0 * 64) is True
        assert cache.access(1 * 64) is False

    def test_flush(self):
        cache = DataCache()
        cache.access(0x1000)
        cache.flush()
        assert cache.access(0x1000) is False

    def test_hit_rate(self):
        cache = DataCache()
        cache.access(0x0)
        cache.access(0x0)
        assert cache.hit_rate == pytest.approx(0.5)

    def test_sequential_streaming_hit_rate(self):
        """Sequential byte accesses hit 63/64 of the time (64 B lines)."""
        cache = DataCache()
        for addr in range(0, 64 * 64):
            cache.access(addr)
        assert cache.misses == 64
        assert cache.hits == 64 * 64 - 64

    @given(st.lists(st.integers(min_value=0, max_value=1 << 20),
                    min_size=1, max_size=500))
    def test_repeat_access_always_hits(self, addrs):
        """Property: accessing the same address twice in a row hits."""
        cache = DataCache()
        for addr in addrs:
            cache.access(addr)
            assert cache.access(addr) is True

    def test_reset_stats(self):
        cache = DataCache()
        cache.access(0)
        cache.reset_stats()
        assert cache.hits == 0 and cache.misses == 0


class ReferenceLRU:
    """The cache's contract as a plain LRU list per set."""

    def __init__(self, params):
        self.params = params
        self.sets = [[] for _ in range(params.sets)]

    def access(self, addr):
        line = addr // self.params.line_bytes
        ways = self.sets[line % self.params.sets]
        tag = line // self.params.sets
        hit = tag in ways
        if hit:
            ways.remove(tag)
        ways.insert(0, tag)
        del ways[self.params.ways:]
        return hit


@st.composite
def geometries(draw):
    line_bytes = 1 << draw(st.integers(min_value=0, max_value=7))
    ways = draw(st.integers(min_value=1, max_value=6))
    sets = 1 << draw(st.integers(min_value=0, max_value=5))
    return CacheParams(size_bytes=sets * ways * line_bytes, ways=ways,
                       line_bytes=line_bytes)


class TestAgainstReferenceLRU:
    @given(params=geometries(), data=st.data())
    def test_replay_matches_reference(self, params, data):
        """Property: over any address stream, every access's hit or
        miss, the counters and the final LRU order of every set are the
        reference model's. Addresses come from a small pool of lines
        (so ways fill, hit at every depth and evict) plus wide ones."""
        span = params.line_bytes * params.sets * (params.ways + 2)
        addrs = data.draw(st.lists(
            st.one_of(st.integers(min_value=0, max_value=span),
                      st.integers(min_value=0, max_value=(1 << 64) - 1)),
            min_size=1, max_size=300))
        cache = DataCache(params)
        model = ReferenceLRU(params)
        outcomes = [cache.access(addr, bool(addr & 1)) for addr in addrs]
        assert outcomes == [model.access(addr) for addr in addrs]
        assert cache.hits == outcomes.count(True)
        assert cache.misses == outcomes.count(False)
        assert cache._sets == model.sets
