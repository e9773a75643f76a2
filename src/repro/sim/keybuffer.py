"""The keybuffer: a small TLB-like cache of lock_location -> key.

Section 3.5: the temporal check needs a memory load to fetch the key
stored at a pointer's lock_location. The keybuffer records the most
recently loaded keys so a ``tchk`` whose lock hits the buffer skips the
DCache access entirely. It is cleared whenever a pointer is freed (the
machine snoops stores into the lock-table window), guaranteeing the
buffer never serves a stale key.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.obs.stats import HitMissStats


class KeyBuffer(HitMissStats):
    """Fully-associative buffer of ``lock -> key`` entries.

    ``policy`` selects the replacement strategy: "lru" (default, what a
    TLB-like structure would do) or "fifo" (cheaper hardware — an
    ablation knob for the Section 3.5 design point).

    Hit/miss accounting comes from :class:`repro.obs.stats.HitMissStats`;
    pass ``metrics`` (a registry scope, e.g. ``sim.kb``) to surface the
    counters in metric snapshots.
    """

    def __init__(self, entries: int = 8, policy: str = "lru",
                 metrics=None):
        if entries < 0:
            raise ValueError(f"entries must be non-negative: {entries}")
        if policy not in ("lru", "fifo"):
            raise ValueError(f"unknown replacement policy {policy!r}")
        self._entries = entries
        self._policy = policy
        self._data: "OrderedDict[int, int]" = OrderedDict()
        self._init_hit_miss(metrics)
        self._clears = self._stat_counter("clears")
        self._evictions = self._stat_counter("evictions")

    @property
    def capacity(self) -> int:
        return self._entries

    @property
    def clears(self) -> int:
        return self._clears.value

    @property
    def evictions(self) -> int:
        return self._evictions.value

    def __len__(self) -> int:
        return len(self._data)

    def lookup(self, lock: int) -> Optional[int]:
        """Return the cached key for ``lock`` or None on miss."""
        if self._entries == 0:
            self._misses.value += 1
            return None
        key = self._data.get(lock)
        if key is None:
            self._misses.value += 1
            return None
        if self._policy == "lru":
            self._data.move_to_end(lock)
        self._hits.value += 1
        return key

    def fill(self, lock: int, key: int) -> Optional[int]:
        """Install a freshly loaded key, evicting the victim on overflow.

        Returns the evicted lock (None when nothing was evicted) so the
        machine can trace keybuffer evictions.
        """
        if self._entries == 0:
            return None
        fresh = lock not in self._data
        self._data[lock] = key
        if fresh or self._policy == "lru":
            self._data.move_to_end(lock)
        evicted = None
        while len(self._data) > self._entries:
            evicted, _ = self._data.popitem(last=False)
            self._evictions.value += 1
        return evicted

    def locks(self) -> list:
        """Resident lock addresses, in insertion/recency order
        (deterministic — used by seeded fault injectors)."""
        return list(self._data)

    def peek(self, lock: int) -> Optional[int]:
        """Cached key for ``lock`` without touching hit/miss accounting
        or the replacement order (inspection/fault-injection hook)."""
        return self._data.get(lock)

    def poison(self, lock: int, key: int):
        """Fault-injection hook: overwrite the cached key of ``lock``
        (or force-install a bogus entry) without touching the hit/miss
        accounting. Models a corrupted or stale translation."""
        if self._entries == 0:
            return
        self._data[lock] = key
        while len(self._data) > self._entries:
            self._data.popitem(last=False)

    def invalidate(self, lock: int):
        """Drop a single entry (a new key was written to its lock)."""
        self._data.pop(lock, None)

    def clear(self):
        """Flush everything (a pointer was freed)."""
        if self._data:
            self._data.clear()
        self._clears.value += 1

    def reset(self):
        """Empty the buffer and zero its statistics: the state of a
        freshly built buffer, without rebuilding it (machine reset)."""
        self._data.clear()
        self.reset_stats()
