"""Bounded event trace + Chrome/Perfetto trace-event export.

The trace answers the question the windowed counters cannot: *which*
packet, transaction or barrier was in flight when something happened.
Events are recorded into a fixed-depth ring buffer (old events fall off
the front; the drop count is reported, never hidden) so tracing a long
run costs bounded memory, and the tail survives for violation context
even when a run deadlocks.

Export follows the Chrome trace-event JSON format, which Perfetto's UI
(https://ui.perfetto.dev) loads directly:

* packet sends -> complete ("X") slices, one track for unicasts and one
  for broadcasts, duration = send to last delivery;
* coherence transactions -> async begin/end ("b"/"e") pairs correlated
  by the telemetry-assigned transaction id (also stamped onto
  ``CoherenceMsg.txn``);
* barriers -> complete slices from first arrival to release;
* ONet laser mode transitions -> instant ("i") events.

One simulated cycle maps to one microsecond of trace time, so Perfetto's
time axis reads directly in cycles.
"""

from __future__ import annotations

from collections import deque

#: Bump when the recorded event tuple layout or the Perfetto mapping
#: changes meaning; ``trace.jsonl`` headers carry it and readers check.
TRACE_SCHEMA_VERSION = 1

#: Recorded event kinds (pinned by ``tests/telemetry/test_schema_pins.py``).
TRACE_KINDS = ("pkt", "bcast", "txn_begin", "txn_end", "barrier", "laser")

#: Ring depth of every run's trace (events kept).
DEFAULT_TRACE_DEPTH = 65536

#: Perfetto track (tid) per kind; async transaction events share one.
_TRACK_OF = {
    "pkt": 1, "bcast": 2, "txn_begin": 3, "txn_end": 3,
    "barrier": 4, "laser": 5,
}
_TRACK_NAMES = {
    1: "unicasts", 2: "broadcasts", 3: "coherence transactions",
    4: "barriers", 5: "laser transitions",
}


class TraceBuffer:
    """Fixed-depth ring of trace events.

    Each event is a plain tuple ``(kind, ts, dur, name, ident, args)``:
    ``ts``/``dur`` in cycles (``dur`` 0 for instants), ``ident`` the
    correlation id for async pairs (else ``None``), ``args`` a small
    JSON-ready dict or ``None``.  Tuples, not objects: recording happens
    on every network send while tracing is on.
    """

    __slots__ = ("_ring", "depth", "recorded", "dropped")

    def __init__(self, depth: int = DEFAULT_TRACE_DEPTH) -> None:
        if depth < 1:
            raise ValueError(f"trace depth must be >= 1, got {depth}")
        self.depth = depth
        self._ring: deque = deque(maxlen=depth)
        self.recorded = 0
        self.dropped = 0

    def record(self, kind: str, ts: int, dur: int, name: str,
               ident: int | None = None, args: dict | None = None) -> None:
        ring = self._ring
        if len(ring) == self.depth:
            self.dropped += 1
        ring.append((kind, ts, dur, name, ident, args))
        self.recorded += 1

    def __len__(self) -> int:
        return len(self._ring)

    def events(self) -> list[tuple]:
        """The retained events, oldest first."""
        return list(self._ring)

    def tail(self, n: int) -> list[dict]:
        """The last ``n`` events as JSON-ready dicts (violation context)."""
        return [event_to_dict(e) for e in list(self._ring)[-n:]]


def event_to_dict(event: tuple) -> dict:
    """The ``trace.jsonl`` line for one recorded event tuple."""
    kind, ts, dur, name, ident, args = event
    doc = {"kind": kind, "ts": ts, "name": name}
    if dur:
        doc["dur"] = dur
    if ident is not None:
        doc["id"] = ident
    if args:
        doc["args"] = args
    return doc


def event_from_dict(doc: dict) -> tuple:
    """Inverse of :func:`event_to_dict` (for ``repro trace`` off disk)."""
    return (
        doc["kind"], doc["ts"], doc.get("dur", 0), doc["name"],
        doc.get("id"), doc.get("args"),
    )


def trace_header(buffer: TraceBuffer) -> dict:
    """The first line of a ``trace.jsonl`` file."""
    return {
        "schema": TRACE_SCHEMA_VERSION,
        "depth": buffer.depth,
        "recorded": buffer.recorded,
        "dropped": buffer.dropped,
    }


def to_perfetto(events: list[tuple], label: str = "repro-sim") -> dict:
    """Chrome/Perfetto trace-event JSON for a list of event tuples."""
    trace_events: list[dict] = [
        {"ph": "M", "name": "process_name", "pid": 0, "tid": 0,
         "args": {"name": label}},
    ]
    for tid, name in _TRACK_NAMES.items():
        trace_events.append(
            {"ph": "M", "name": "thread_name", "pid": 0, "tid": tid,
             "args": {"name": name}}
        )
    for kind, ts, dur, name, ident, args in events:
        tid = _TRACK_OF.get(kind, 0)
        entry: dict = {"name": name, "pid": 0, "tid": tid, "ts": ts}
        if args:
            entry["args"] = args
        if kind in ("pkt", "bcast", "barrier"):
            entry["ph"] = "X"
            entry["dur"] = max(1, dur)
        elif kind == "txn_begin":
            entry["ph"] = "b"
            entry["cat"] = "txn"
            entry["id"] = ident
        elif kind == "txn_end":
            entry["ph"] = "e"
            entry["cat"] = "txn"
            entry["id"] = ident
        else:  # instants (laser, future kinds)
            entry["ph"] = "i"
            entry["s"] = "g"
        trace_events.append(entry)
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}
