"""Global barrier synchronization for barrier-phased workloads.

SPLASH-2 applications alternate compute/communicate phases separated by
barriers; a barrier is what turns one slow core (e.g. one suffering
network contention) into whole-application slowdown.  The paper's
runtime differences between networks are amplified exactly this way.

The implementation models a centralized barrier with a fixed
notification cost; the traffic for barrier arrival/release is assumed
to ride the same network as everything else but is small (2 messages
per core per barrier) and is folded into a constant latency here to
keep the protocol engine focused on coherence traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.sim.eventq import EventQueue


class BarrierManager:
    """Counts arrivals per barrier id and releases everyone at once."""

    def __init__(
        self,
        participants: int,
        eventq: EventQueue,
        release_latency: int = 4,
    ) -> None:
        if participants < 1:
            raise ValueError(f"participants must be >= 1, got {participants}")
        if release_latency < 0:
            raise ValueError(f"release_latency must be >= 0, got {release_latency}")
        self.participants = participants
        self.eventq = eventq
        self.release_latency = release_latency
        self._waiting: dict[int, list[Callable[[int], None]]] = {}
        self._arrived: dict[int, int] = {}
        self._latest: dict[int, int] = {}
        self.barriers_completed = 0

    def arrive(self, barrier_id: int, now: int, resume: Callable[[int], None]) -> None:
        """A core reached ``barrier_id`` at time ``now``; ``resume(t)``
        fires on release.

        Release happens at the *latest* arrival time plus the release
        latency -- arrivals are not reported in time order (cores sprint
        through compute phases inline), so the maximum must be tracked
        explicitly.
        """
        waiters = self._waiting.setdefault(barrier_id, [])
        waiters.append(resume)
        self._arrived[barrier_id] = self._arrived.get(barrier_id, 0) + 1
        self._latest[barrier_id] = max(self._latest.get(barrier_id, 0), now)
        if self._arrived[barrier_id] > self.participants:
            raise RuntimeError(
                f"barrier {barrier_id}: more arrivals than participants"
            )
        if self._arrived[barrier_id] == self.participants:
            release_at = self._latest[barrier_id] + self.release_latency
            for cb in self._waiting.pop(barrier_id):
                self.eventq.schedule(max(release_at, self.eventq.now), cb)
            del self._arrived[barrier_id]
            del self._latest[barrier_id]
            self.barriers_completed += 1
