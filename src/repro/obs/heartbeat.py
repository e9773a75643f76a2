"""Periodic structured progress events for long-running campaigns.

A :class:`Heartbeat` turns a silent multi-minute campaign (fuzzing,
fault injection, bench sweeps) into an observable one: call
:meth:`tick` with the current completion count as often as you like —
at most one event per ``interval_s`` seconds actually gets emitted.
Each event is a single JSON line on ``stream`` (stderr by default)::

    {"done": 120, "elapsed_s": 31.0, "eta_s": 20.7, "event": "heartbeat",
     "label": "fuzz", "pct": 60.0, "rate_per_s": 3.87, "total": 200,
     "divergences": 0, "peak_rss_kb": 91136}

and, when a registry / tracer is attached, lands as
``obs.campaign.*`` gauges and a ``campaign``-category trace event.
Heartbeats never touch the campaign's deterministic report documents
(``repro.fuzz/v1`` / ``repro.faultinject/v1``): progress goes to
stderr/telemetry only, so same-seed byte-identity is preserved.

Short runs stay silent: nothing is emitted until ``interval_s`` has
elapsed, so test suites and smoke jobs see no extra output.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Callable, Optional

from repro.obs.host import peak_rss_kb

__all__ = ["Heartbeat"]


class Heartbeat:
    """Rate-limited campaign progress reporter.

    ``total`` is the number of work items (cells, programs,
    injections); ``label`` names the campaign in every event.
    ``interval_s <= 0`` disables emission entirely (ticks become
    no-ops), which is the CLI's ``--heartbeat 0``.
    """

    def __init__(self, total: int, label: str,
                 interval_s: float = 15.0,
                 stream=None,
                 metrics=None, tracer=None,
                 clock: Callable[[], float] = time.monotonic):
        self.total = total
        self.label = label
        self.interval_s = interval_s
        self.stream = stream if stream is not None else sys.stderr
        self._clock = clock
        self._t0 = clock()
        self._last_emit = self._t0
        self.emitted = 0
        self._scope = metrics.scope("obs.campaign") \
            if metrics is not None else None
        self._tracer = tracer

    @property
    def enabled(self) -> bool:
        return self.interval_s > 0

    def tick(self, done: int, **fields) -> bool:
        """Report progress; emits only when the interval has elapsed.

        Returns True when an event was actually emitted. Extra keyword
        fields (divergence counts, current target, …) pass through into
        the event payload.
        """
        if not self.enabled:
            return False
        now = self._clock()
        if now - self._last_emit < self.interval_s:
            return False
        self._last_emit = now
        self.emit(done, _now=now, **fields)
        return True

    def emit(self, done: int, _now: Optional[float] = None, **fields):
        """Unconditionally emit one progress event."""
        now = self._clock() if _now is None else _now
        elapsed = max(now - self._t0, 1e-9)
        rate = done / elapsed
        remaining = max(self.total - done, 0)
        eta = remaining / rate if rate > 0 else None
        payload = {
            "event": "heartbeat",
            "label": self.label,
            "done": done,
            "total": self.total,
            "pct": round(100.0 * done / self.total, 1)
            if self.total else 0.0,
            "elapsed_s": round(elapsed, 1),
            "rate_per_s": round(rate, 2),
            "eta_s": round(eta, 1) if eta is not None else None,
            "peak_rss_kb": peak_rss_kb(),
        }
        payload.update(fields)
        self.emitted += 1
        self.stream.write(json.dumps(payload, sort_keys=True) + "\n")
        flush = getattr(self.stream, "flush", None)
        if flush is not None:
            flush()
        if self._scope is not None:
            self._scope.gauge("done").set(done)
            self._scope.gauge("total").set(self.total)
            self._scope.gauge("rate_per_s").set(round(rate, 2))
            self._scope.counter("heartbeats").inc()
        tracer = self._tracer
        if tracer is not None and tracer.wants("campaign"):
            tracer.emit("campaign", self.label, ts=elapsed * 1e6,
                        args=payload)
