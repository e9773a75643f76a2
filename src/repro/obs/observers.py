"""One value for everything that watches a compile and a run.

:class:`Observers` carries the optional observers of a compile-and-run
— a metrics registry, an event tracer, a cycle profiler and the depth
of the machine's retired-instruction ring — through the runner, the
compile cache, the compiler, the linker and the machine.

It also times the compile pipeline: ``schemes.compile_source`` wraps
lex/parse/sema/irgen/instrument and the backend's lower/link in
:meth:`Observers.phase` spans. Timings accumulate (the user unit and an
uncached runtime unit both pass through the front end), land in
``compile.<phase>.ms`` histograms when a registry is attached, and
appear as ``compile``-category spans in an attached tracer.

:data:`NULL_OBSERVERS` is the shared default: nothing attached, and
``phase()`` hands back a reusable no-op context manager, so an
unobserved compile pays a handful of cheap ``with`` entries per
translation unit and nothing else.
"""

from __future__ import annotations

import time
from typing import Dict

__all__ = ["Observers", "NULL_OBSERVERS", "COMPILE_PHASES"]

COMPILE_PHASES = ("lex", "parse", "sema", "irgen", "instrument",
                  "analyze", "lower", "link")


class _PhaseSpan:
    """Context manager recording one phase span on exit."""

    __slots__ = ("_observers", "_name", "_t0")

    def __init__(self, observers: "Observers", name: str):
        self._observers = observers
        self._name = name

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self._observers._record(self._name, self._t0, time.perf_counter())
        return False


class Observers:
    """The observers of a compile and a run, plus its compile phase times.

    ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`) gets the
    ``compile.*`` phase histograms and the machine's ``sim.*`` metrics
    (a machine without one keeps a private registry); ``tracer`` (a
    :class:`~repro.obs.tracing.Tracer`) the compile spans and the
    simulated events; ``profiler`` (a
    :class:`~repro.obs.profiler.CycleProfiler`) every retired pc's
    cycles; ``trace_depth > 0`` keeps a ring of that many retired
    instructions (``Machine.trace_text``). A machine with a tracer,
    profiler or trace ring runs on the reference loop.
    """

    def __init__(self, metrics=None, tracer=None, profiler=None,
                 trace_depth: int = 0):
        self.metrics = metrics
        self.tracer = tracer
        self.profiler = profiler
        self.trace_depth = trace_depth
        self._origin = time.perf_counter()
        self.seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}

    def phase(self, name: str) -> _PhaseSpan:
        return _PhaseSpan(self, name)

    def _record(self, name: str, t0: float, t1: float):
        elapsed = t1 - t0
        self.seconds[name] = self.seconds.get(name, 0.0) + elapsed
        self.calls[name] = self.calls.get(name, 0) + 1
        if self.metrics is not None:
            self.metrics.histogram(f"compile.{name}.ms").observe(
                elapsed * 1e3)
        tracer = self.tracer
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


class _NullObservers(Observers):
    """Nothing attached: ``phase()`` hands back a shared no-op span."""

    def phase(self, name: str):
        return _NULL_SPAN


NULL_OBSERVERS = _NullObservers()
