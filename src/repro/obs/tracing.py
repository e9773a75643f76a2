"""Low-overhead structured event tracing.

A :class:`Tracer` records :class:`TraceEvent` records into a bounded
ring buffer (oldest events drop first; ``dropped`` counts the loss).
Producers guard every emit with ``tracer.wants(category)`` — a frozen-
set membership test — so disabled categories cost one branch. When no
tracer is attached at all the simulator skips even that (the attribute
is ``None``), which is the null-sink fast path the <5 % overhead budget
relies on.

Categories
----------

``compile``   front-end/back-end phase spans (wall-clock µs)
``retire``    one span per retired instruction (cycle timestamps)
``trap``      simulation-ending traps (violations, faults, exits)
``kb``        keybuffer fills / evictions / clears
``shadow``    shadow-memory metadata writes and clears
``sim``       whole-run span markers
``campaign``  heartbeat progress instants from long campaigns
              (wall-clock µs; see repro.obs.heartbeat)

Exporters
---------

``to_chrome_json`` writes the Chrome ``trace_event`` array format —
load it at ``chrome://tracing`` or https://ui.perfetto.dev. Cycle-
timestamped categories and wall-clock ``compile`` spans are kept on
separate pids so the two time bases never interleave on one track.
``to_jsonl`` writes one JSON object per line for ad-hoc scripting.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Tuple

__all__ = ["TraceEvent", "Tracer", "TRACE_CATEGORIES"]

TRACE_CATEGORIES = ("compile", "retire", "trap", "kb", "shadow", "sim",
                    "campaign")

# Wall-clock categories land on their own pid in the Chrome export so
# their microsecond timestamps don't share a track with cycle counts.
_WALLCLOCK_CATEGORIES = frozenset(["compile", "campaign"])


class TraceEvent:
    """One structured event. ``dur`` None means an instant event."""

    __slots__ = ("ts", "cat", "name", "dur", "args")

    def __init__(self, ts: float, cat: str, name: str,
                 dur: Optional[float] = None,
                 args: Optional[dict] = None):
        self.ts = ts
        self.cat = cat
        self.name = name
        self.dur = dur
        self.args = args

    def to_dict(self) -> dict:
        out = {"ts": self.ts, "cat": self.cat, "name": self.name}
        if self.dur is not None:
            out["dur"] = self.dur
        if self.args:
            out["args"] = self.args
        return out

    def __repr__(self):
        return (f"TraceEvent({self.cat}:{self.name} ts={self.ts}"
                f"{'' if self.dur is None else f' dur={self.dur}'})")


class Tracer:
    """Bounded ring buffer of trace events."""

    def __init__(self, capacity: int = 65536,
                 categories: Optional[Iterable[str]] = None):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive: {capacity}")
        self.capacity = capacity
        self._active = frozenset(categories if categories is not None
                                 else TRACE_CATEGORIES)
        unknown = self._active - set(TRACE_CATEGORIES)
        if unknown:
            raise ValueError(f"unknown trace categories: {sorted(unknown)}")
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)
        self.emitted = 0

    @property
    def categories(self) -> frozenset:
        return self._active

    def wants(self, cat: str) -> bool:
        """Cheap pre-check so producers skip building event args."""
        return cat in self._active

    def emit(self, cat: str, name: str, ts: float,
             dur: Optional[float] = None, args: Optional[dict] = None):
        if cat not in self._active:
            return
        self.emitted += 1
        self._events.append(TraceEvent(ts, cat, name, dur, args))

    def __len__(self) -> int:
        return len(self._events)

    @property
    def dropped(self) -> int:
        """Events pushed out of the ring by newer ones."""
        return self.emitted - len(self._events)

    def events(self, cat: Optional[str] = None) -> List[TraceEvent]:
        if cat is None:
            return list(self._events)
        return [e for e in self._events if e.cat == cat]

    def clear(self):
        self._events.clear()
        self.emitted = 0

    # -- exporters ---------------------------------------------------------

    def to_chrome_dict(self) -> dict:
        """Chrome ``trace_event`` JSON object format (Perfetto-loadable)."""
        tids: Dict[str, int] = {cat: i for i, cat
                                in enumerate(TRACE_CATEGORIES)}
        trace_events: List[dict] = []
        for cat, pid, label in (("sim-cycles", 0, "simulated cycles"),
                                ("wall-clock", 1, "host wall clock")):
            trace_events.append({
                "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                "args": {"name": label}})
        for event in self._events:
            pid = 1 if event.cat in _WALLCLOCK_CATEGORIES else 0
            entry = {
                "name": event.name,
                "cat": event.cat,
                "pid": pid,
                "tid": tids.get(event.cat, len(TRACE_CATEGORIES)),
                "ts": event.ts,
            }
            if event.dur is None:
                entry["ph"] = "i"
                entry["s"] = "t"
            else:
                entry["ph"] = "X"
                entry["dur"] = event.dur
            if event.args:
                entry["args"] = event.args
            trace_events.append(entry)
        return {
            "traceEvents": trace_events,
            "displayTimeUnit": "ns",
            "otherData": {
                "producer": "repro.obs.tracing",
                "dropped_events": self.dropped,
            },
        }

    def to_chrome_json(self, path=None, indent: Optional[int] = None) -> str:
        text = json.dumps(self.to_chrome_dict(), indent=indent)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text + "\n")
        return text

    def to_jsonl(self, path=None) -> str:
        lines = "\n".join(json.dumps(e.to_dict()) for e in self._events)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(lines + ("\n" if lines else ""))
        return lines

