"""Wall-clock phase timers for the compile pipeline.

``schemes.compile_source`` wraps lex/parse/sema/irgen/instrument and
the backend's lower/link in :meth:`PhaseTimers.phase` spans. Timings
accumulate (the user unit and an uncached runtime unit both pass
through the front end),
land in ``compile.<phase>.ms`` histograms when a registry is attached,
and appear as ``compile``-category spans in an attached tracer.

:data:`NULL_PHASES` is the disabled fast path — a reusable no-op
context manager, so the default compile pays a handful of cheap
``with`` entries per translation unit and nothing else.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

__all__ = ["PhaseTimers", "NullPhaseTimers", "NULL_PHASES",
           "COMPILE_PHASES"]

COMPILE_PHASES = ("lex", "parse", "sema", "irgen", "instrument",
                  "analyze", "lower", "link")


class _PhaseSpan:
    """Context manager recording one phase span on exit."""

    __slots__ = ("_timers", "_name", "_t0")

    def __init__(self, timers: "PhaseTimers", name: str):
        self._timers = timers
        self._name = name

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self._timers._record(self._name, self._t0, time.perf_counter())
        return False


class PhaseTimers:
    """Accumulating named wall-clock spans."""

    def __init__(self, metrics=None, tracer=None, scope: str = "compile"):
        self._scope = metrics.scope(scope) if metrics is not None else None
        self._tracer = tracer
        self._origin = time.perf_counter()
        self.seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}

    @property
    def enabled(self) -> bool:
        return True

    @property
    def metrics(self):
        """The ``compile``-scoped metrics view, or None when detached.

        Lets pipeline stages hang counters off the same registry the
        timers write to (e.g. ``compile.analyze.checks_elided``)."""
        return self._scope

    def phase(self, name: str) -> _PhaseSpan:
        return _PhaseSpan(self, name)

    def _record(self, name: str, t0: float, t1: float):
        elapsed = t1 - t0
        self.seconds[name] = self.seconds.get(name, 0.0) + elapsed
        self.calls[name] = self.calls.get(name, 0) + 1
        if self._scope is not None:
            self._scope.histogram(f"{name}.ms").observe(elapsed * 1e3)
        tracer = self._tracer
        if tracer is not None and tracer.wants("compile"):
            tracer.emit("compile", name,
                        ts=(t0 - self._origin) * 1e6,
                        dur=elapsed * 1e6)

    def ms(self, name: str) -> float:
        return self.seconds.get(name, 0.0) * 1e3

    def summary(self) -> Dict[str, float]:
        """Accumulated milliseconds per phase."""
        return {name: seconds * 1e3
                for name, seconds in sorted(self.seconds.items())}


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SPAN = _NullSpan()


class NullPhaseTimers(PhaseTimers):
    """Disabled timers: ``phase()`` hands back a shared no-op span."""

    def __init__(self):
        super().__init__()

    @property
    def enabled(self) -> bool:
        return False

    def phase(self, name: str):
        return _NULL_SPAN


NULL_PHASES = NullPhaseTimers()
