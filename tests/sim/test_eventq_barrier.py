"""Unit tests for the event queue and barrier manager."""

import heapq
import random
from functools import partial

import pytest

from repro.sim.barrier import BarrierManager
from repro.sim.eventq import _NO_ARG, EventQueue


class HeapEventQueue:
    """Reference oracle: one binary-heap entry ``(time, seq, callback,
    arg)`` per event, ``seq`` the insertion order.  The bucketed
    :class:`EventQueue` must dispatch in exactly this order and report
    the same ``len()`` at every point."""

    def __init__(self) -> None:
        self._heap = []
        self._seq = 0
        self.now = 0
        self.events_processed = 0

    def schedule(self, time, callback, arg=_NO_ARG) -> None:
        if time < self.now:
            raise ValueError(f"t={time} is before now={self.now}")
        heapq.heappush(self._heap, (time, self._seq, callback, arg))
        self._seq += 1

    def __len__(self) -> int:
        return len(self._heap)

    def run(self, max_events=None) -> int:
        processed = 0
        try:
            while self._heap:
                time, _, callback, arg = heapq.heappop(self._heap)
                self.now = time
                if arg is _NO_ARG:
                    callback(time)
                else:
                    callback(arg, time)
                processed += 1
                if max_events is not None and processed > max_events:
                    raise RuntimeError(f"event budget exceeded ({max_events})")
        finally:
            self.events_processed += processed
        return self.now


class _Boom(Exception):
    pass


class _RandomSchedule:
    """A seeded event program run against one queue.

    Each event logs ``(id, time, len(queue))`` and schedules children
    drawn from a generator seeded by its own id, so two queues that
    dispatch in the same order run the same program and the first
    divergence shows in the log.  Children land at ``now`` or a few
    cycles later, half through the ``arg`` form and half as a no-arg
    ``partial``.  Events whose id is in ``raising`` raise after logging.
    """

    def __init__(self, queue, seed: int, limit: int = 400,
                 raising: frozenset = frozenset()) -> None:
        self.q = queue
        self.seed = seed
        self.limit = limit
        self.raising = raising
        self.next_id = 0
        self.log = []
        rng = random.Random(seed)
        for _ in range(8):
            self._add(rng, rng.randrange(0, 6))

    def _add(self, rng, time) -> None:
        ident = self.next_id
        self.next_id += 1
        if rng.random() < 0.5:
            self.q.schedule(time, self.fire, ident)
        else:
            self.q.schedule(time, partial(self.fire, ident))

    def fire(self, ident, now) -> None:
        self.log.append((ident, now, len(self.q)))
        rng = random.Random(self.seed * 1_000_003 + ident)
        for _ in range(rng.choice((0, 1, 1, 2, 3))):
            if self.next_id < self.limit:
                self._add(rng, now + rng.choice((0, 0, 0, 1, 2, 5)))
        if ident in self.raising:
            raise _Boom(ident)


def _pair(seed, **kwargs):
    return (_RandomSchedule(EventQueue(), seed, **kwargs),
            _RandomSchedule(HeapEventQueue(), seed, **kwargs))


class TestEventQueue:
    def test_runs_in_time_order(self):
        q = EventQueue()
        log = []
        q.schedule(10, lambda t: log.append((t, "b")))
        q.schedule(5, lambda t: log.append((t, "a")))
        q.schedule(20, lambda t: log.append((t, "c")))
        q.run()
        assert log == [(5, "a"), (10, "b"), (20, "c")]

    def test_ties_broken_by_insertion_order(self):
        q = EventQueue()
        log = []
        q.schedule(5, lambda t: log.append("first"))
        q.schedule(5, lambda t: log.append("second"))
        q.run()
        assert log == ["first", "second"]

    def test_now_advances(self):
        q = EventQueue()
        q.schedule(42, lambda t: None)
        assert q.run() == 42
        assert q.now == 42

    def test_cannot_schedule_in_past(self):
        q = EventQueue()
        q.schedule(10, lambda t: q.schedule(5, lambda t2: None))
        with pytest.raises(ValueError):
            q.run()

    def test_events_can_schedule_more_events(self):
        q = EventQueue()
        log = []

        def chain(t):
            log.append(t)
            if t < 30:
                q.schedule(t + 10, chain)

        q.schedule(10, chain)
        q.run()
        assert log == [10, 20, 30]

    def test_max_events_guard(self):
        q = EventQueue()

        def forever(t):
            q.schedule(t + 1, forever)

        q.schedule(0, forever)
        with pytest.raises(RuntimeError):
            q.run(max_events=100)


class TestEventQueueArgDispatch:
    """The allocation-free ``(callback, arg)`` scheduling form."""

    def test_arg_form_calls_callback_with_payload_and_time(self):
        q = EventQueue()
        log = []
        q.schedule(7, lambda msg, t: log.append((msg, t)), "payload")
        q.run()
        assert log == [("payload", 7)]

    def test_none_is_a_valid_payload(self):
        q = EventQueue()
        log = []
        q.schedule(3, lambda msg, t: log.append((msg, t)), None)
        q.run()
        assert log == [(None, 3)]

    def test_mixed_forms_share_the_tie_break(self):
        """arg and no-arg events at the same time keep insertion order."""
        q = EventQueue()
        log = []
        q.schedule(5, lambda t: log.append("plain-1"))
        q.schedule(5, lambda msg, t: log.append(msg), "arg-2")
        q.schedule(5, lambda t: log.append("plain-3"))
        q.schedule(5, lambda msg, t: log.append(msg), "arg-4")
        q.run()
        assert log == ["plain-1", "arg-2", "plain-3", "arg-4"]

    def test_events_processed_counts_both_forms(self):
        q = EventQueue()
        q.schedule(1, lambda t: None)
        q.schedule(2, lambda msg, t: None, object())
        q.run()
        assert q.events_processed == 2

    def test_arg_form_respects_max_events(self):
        q = EventQueue()

        def forever(msg, t):
            q.schedule(t + 1, forever, msg)

        q.schedule(0, forever, "m")
        with pytest.raises(RuntimeError):
            q.run(max_events=50)

    def test_len(self):
        q = EventQueue()
        assert len(q) == 0
        q.schedule(1, lambda t: None)
        assert len(q) == 1


class TestBucketQueueMatchesHeap:
    """The time-bucketed queue against the ``(time, seq)`` heap oracle."""

    @pytest.mark.parametrize("seed", range(25))
    def test_dispatch_order_and_len(self, seed):
        bucket, heap = _pair(seed)
        assert bucket.q.run() == heap.q.run()
        # Each log entry carries len(queue) read inside the callback.
        assert bucket.log == heap.log
        assert len(bucket.log) > 100
        assert bucket.q.events_processed == heap.q.events_processed
        assert len(bucket.q) == len(heap.q) == 0

    def test_schedule_at_now_runs_after_queued_same_time_events(self):
        q = EventQueue()
        log = []

        def first(t):
            log.append("first")
            q.schedule(t, lambda t2: log.append("scheduled-at-now"))

        q.schedule(3, first)
        q.schedule(3, lambda t: log.append("second"))
        q.schedule(4, lambda t: log.append("later"))
        q.run()
        assert log == ["first", "second", "scheduled-at-now", "later"]

    @pytest.mark.parametrize("seed", range(10))
    def test_resume_after_budget_error(self, seed):
        bucket, heap = _pair(seed)
        budget = 17 + seed * 7
        for side in (bucket, heap):
            with pytest.raises(RuntimeError):
                side.q.run(max_events=budget)
        assert bucket.log == heap.log
        assert len(bucket.q) == len(heap.q) > 0
        assert bucket.q.now == heap.q.now
        bucket.q.run()
        heap.q.run()
        assert bucket.log == heap.log
        assert bucket.q.events_processed == heap.q.events_processed

    @pytest.mark.parametrize("seed", range(10))
    def test_resume_after_callback_raises(self, seed):
        raising = frozenset({5 + seed, 40 + seed})
        bucket, heap = _pair(seed, raising=raising)
        for _ in raising:
            for side in (bucket, heap):
                with pytest.raises(_Boom):
                    side.q.run()
            assert bucket.log == heap.log
            assert len(bucket.q) == len(heap.q)
        bucket.q.run()
        heap.q.run()
        assert bucket.log == heap.log
        assert len(bucket.log) > 100


class TestBarrierManager:
    def test_releases_when_all_arrive(self):
        q = EventQueue()
        b = BarrierManager(3, q, release_latency=4)
        released = []
        b.arrive(0, now=10, resume=lambda t: released.append(("a", t)))
        b.arrive(0, now=20, resume=lambda t: released.append(("b", t)))
        assert not released
        b.arrive(0, now=30, resume=lambda t: released.append(("c", t)))
        q.run()
        assert {name for name, _ in released} == {"a", "b", "c"}
        # all released at last-arrival + latency
        assert all(t == 34 for _, t in released)

    def test_slowest_core_sets_release_time(self):
        """Barriers couple one slow core into everyone's runtime --
        the amplification mechanism behind Figure 4."""
        q = EventQueue()
        b = BarrierManager(2, q, release_latency=0)
        times = []
        b.arrive(0, now=5, resume=times.append)
        b.arrive(0, now=500, resume=times.append)
        q.run()
        assert times == [500, 500]

    def test_multiple_barriers_independent(self):
        q = EventQueue()
        b = BarrierManager(2, q)
        released = []
        b.arrive(0, 1, lambda t: released.append(0))
        b.arrive(1, 2, lambda t: released.append(1))
        assert len(b._waiting) == 2  # two barriers open at once
        b.arrive(1, 3, lambda t: released.append(1))
        b.arrive(0, 4, lambda t: released.append(0))
        q.run()
        assert sorted(released) == [0, 0, 1, 1]
        assert b.barriers_completed == 2

    def test_overflow_detected(self):
        q = EventQueue()
        b = BarrierManager(3, q)
        b.arrive(0, 1, lambda t: None)
        b.arrive(0, 2, lambda t: None)
        # a duplicate arrival before release must be caught: with 3
        # participants, 4 arrivals on one barrier is a bug
        b.arrive(0, 3, lambda t: None)  # releases
        b.arrive(0, 4, lambda t: None)  # re-opens (new epoch): fine
        b.arrive(0, 5, lambda t: None)
        b.arrive(0, 6, lambda t: None)  # releases again
        q.run()
        assert b.barriers_completed == 2

    def test_validation(self):
        q = EventQueue()
        with pytest.raises(ValueError):
            BarrierManager(0, q)
        with pytest.raises(ValueError):
            BarrierManager(1, q, release_latency=-1)
