"""Deterministic discrete-event engine.

A single event queue drives cores, cache controllers, directories and
memory controllers.  Events run in ``(time, insertion order)`` order,
so runs are bit-for-bit reproducible.

The queue is time-bucketed: a heap of the *distinct* pending times,
plus one list of ``(callback, arg)`` entries per time, drained in
append order.  Coherence traffic puts several events on most cycles
(4.5 per distinct cycle for barnes on ATAC+ at w16), so this costs one
heap push and pop per cycle rather than per event.  It is exactly the
order of a ``(time, seq)`` binary heap, where ``seq`` is insertion
order: "same time, lower ``seq`` first" is "same time, in append
order".  An event scheduled *at* ``now`` while ``now``'s list drains is
appended to that list, so it runs after every event already queued at
``now`` -- exactly where the heap would have put it.

Hot-path note: the queue accepts an optional ``arg`` alongside the
callback, so callers can schedule a *bound method plus payload* --
``schedule(t, handler.handle, msg)`` -- instead of allocating a fresh
closure per event (``lambda t: handler.handle(msg, t)``).  Coherence
traffic schedules one event per protocol message (see DESIGN.md
section 9).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable

#: Sentinel distinguishing "no arg" from "arg=None" (None is a valid payload).
_NO_ARG = object()


class EventQueue:
    """Heap of distinct event times, one append-ordered bucket each."""

    __slots__ = ("_times", "_buckets", "_len", "now", "events_processed")

    def __init__(self) -> None:
        #: min-heap of the times that have a bucket, each exactly once
        self._times: list[int] = []
        #: time -> that time's ``(callback, arg)`` entries, in
        #: scheduling order; the bucket being drained stays here so
        #: events scheduled at ``now`` append to it
        self._buckets: dict[int, list[tuple[Callable, Any]]] = {}
        #: events queued and not yet dispatched, exact at every point
        #: (telemetry reads it from inside callbacks)
        self._len = 0
        self.now = 0
        self.events_processed = 0

    def schedule(
        self, time: int, callback: Callable, arg: Any = _NO_ARG
    ) -> None:
        """Run ``callback(time)`` -- or ``callback(arg, time)`` when an
        ``arg`` is supplied -- at the given simulation time.

        Scheduling in the past is an error -- it would mean a causality
        violation in a model.
        """
        if time < self.now:
            raise ValueError(
                f"cannot schedule event at t={time}, current time is {self.now}"
            )
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [(callback, arg)]
            heappush(self._times, time)
        else:
            bucket.append((callback, arg))
        self._len += 1

    def __len__(self) -> int:
        return self._len

    def run(self, max_events: int | None = None) -> int:
        """Drain the queue; returns the final simulation time.

        ``max_events`` is a safety valve for tests; exceeding it raises
        ``RuntimeError`` (likely a protocol livelock).  If a callback
        raises (or the budget runs out), the events not yet run stay
        queued in order, so a later ``run()`` resumes where this one
        stopped.
        """
        processed = 0
        times = self._times
        buckets = self._buckets
        no_arg = _NO_ARG
        try:
            if max_events is None:
                # Unbudgeted drain: the common (production) path, with
                # no per-event budget check.
                while times:
                    time = heappop(times)
                    self.now = time
                    # The list iterator sees entries appended mid-drain.
                    pending = iter(buckets[time])
                    for callback, arg in pending:
                        self._len -= 1
                        if arg is no_arg:
                            callback(time)
                        else:
                            callback(arg, time)
                        processed += 1
                    del buckets[time]
            else:
                while times:
                    time = heappop(times)
                    self.now = time
                    pending = iter(buckets[time])
                    for callback, arg in pending:
                        self._len -= 1
                        if arg is no_arg:
                            callback(time)
                        else:
                            callback(arg, time)
                        processed += 1
                        if processed > max_events:
                            raise RuntimeError(
                                f"event budget exceeded ({max_events}); "
                                "possible protocol livelock"
                            )
                    del buckets[time]
        except Exception:
            # Only a callback (or the budget check after one) raises,
            # so ``time`` and ``pending`` are bound.  Re-queue the part
            # of the bucket that has not run, still ahead of any later
            # time.
            rest = list(pending)
            if rest:
                buckets[time] = rest
                heappush(times, time)
            else:
                del buckets[time]
            raise
        finally:
            # Folded into the counter once per run() rather than per
            # event; ``len()`` is the live count.
            self.events_processed += processed
        return self.now
