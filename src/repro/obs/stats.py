"""Shared hit/miss bookkeeping and derived-rate helpers.

:class:`HitMissStats` replaces the copy-pasted ``hits``/``misses``/
``hit_rate``/``reset_stats`` blocks that :class:`repro.sim.keybuffer.
KeyBuffer` and :class:`repro.pipeline.cache.DataCache` each reinvented.
The counters live in a :class:`~repro.obs.metrics.MetricsRegistry` (or
stand alone when no registry is supplied) so cache statistics surface
in metric snapshots without any extra plumbing.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from repro.obs.metrics import Counter, MetricsRegistry, Scope

__all__ = ["HitMissStats", "derived_rates"]


class HitMissStats:
    """Mixin: hit/miss counters with rate and reset semantics.

    Subclasses call :meth:`_init_hit_miss` from ``__init__`` and bump
    ``self._hits.value`` / ``self._misses.value`` on their hot paths
    (one attribute store — no slower than the raw ints it replaces).
    Extra counters (e.g. the keybuffer's ``clears``) can be created
    with :meth:`_stat_counter` and are reset alongside.
    """

    def _init_hit_miss(self, metrics: Optional[Union[MetricsRegistry,
                                                     Scope]] = None):
        self._metrics = metrics
        self._extra_stats = []
        if metrics is not None:
            self._hits = metrics.counter("hits")
            self._misses = metrics.counter("misses")
        else:
            self._hits = Counter("hits")
            self._misses = Counter("misses")
        # Re-constructed components (Machine.reset) re-acquire the same
        # registry counters; a fresh component implies fresh stats.
        self._hits.reset()
        self._misses.reset()

    def _stat_counter(self, name: str) -> Counter:
        """An additional counter reset together with hits/misses."""
        counter = self._metrics.counter(name) if self._metrics is not None \
            else Counter(name)
        counter.reset()
        self._extra_stats.append(counter)
        return counter

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    @property
    def accesses(self) -> int:
        return self._hits.value + self._misses.value

    @property
    def hit_rate(self) -> float:
        total = self._hits.value + self._misses.value
        return self._hits.value / total if total else 0.0

    def reset_stats(self):
        self._hits.reset()
        self._misses.reset()
        for counter in self._extra_stats:
            counter.reset()


def derived_rates(stats: Dict[str, int], instret: int = 0,
                  cycles: int = 0) -> Dict[str, float]:
    """Rates the paper's tables quote, computed from a legacy stats dict.

    Works on any ``RunResult.stats`` (keys are always present since the
    zero-fill fix); divisions guard against empty runs.
    """

    def rate(hits: int, misses: int) -> float:
        total = hits + misses
        return hits / total if total else 0.0

    out = {
        "kb_hit_rate": rate(stats.get("kb_hits", 0),
                            stats.get("kb_misses", 0)),
        "dcache_hit_rate": rate(stats.get("dcache_hits", 0),
                                stats.get("dcache_misses", 0)),
    }
    if instret:
        out["cpi"] = cycles / instret
        mem_ops = stats.get("loads", 0) + stats.get("stores", 0)
        out["mem_ops_per_kinstr"] = 1000.0 * mem_ops / instret
    return out
