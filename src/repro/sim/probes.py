"""Probe seams: the one place observers hook into a running system.

The sanitizer, the telemetry collector and the fault injectors are
probes.  A probe subclasses :class:`Probe` and defines any of these
seam methods; :func:`install` wraps each around the callable the seam
currently holds, which the method receives as ``inner``:

* ``send_msg(inner, msg, time)`` wraps ``system.send_msg``;
* ``net_send(inner, src, dst, size_bits, t)`` wraps
  ``system.network.send``;
* ``arrive(inner, barrier_id, now, resume)`` wraps
  ``system.barriers.arrive`` once ``run()`` has built the manager;
* ``event_queue()`` returns the queue that replaces ``system.eventq``
  (``EventQueue`` has ``__slots__``, so its schedule and dispatch hooks
  live in a subclass; one probe at most);
* ``run(inner, traces, app, max_events)`` wraps ``system.run``;
* ``run_start()`` and ``run_end(result)`` are called from inside
  ``ManycoreSystem.run``, once the cores exist and once the result is
  collected.

:data:`ORDER` fixes the stacking.  A system with no probe wraps
nothing: its seams stay the class's own methods (DESIGN.md section 13).
"""

from __future__ import annotations

from functools import partial

#: Probe kinds, innermost first: each probe wraps those installed
#: before it, so telemetry records the sanitized fabric without being
#: audited by it, and a fault corrupts what both of them see.
ORDER = ("sanitizer", "telemetry", "fault")


class Probe:
    """Base of every observer; a subclass defines the seams it watches."""

    #: One of :data:`ORDER`.
    kind = ""
    send_msg = net_send = arrive = event_queue = run = None
    run_start = run_end = None


def install(system, probe: Probe) -> None:
    """Wrap each seam ``probe`` defines around ``system``'s current one."""
    if system.probes:
        outer = system.probes[-1].kind
        if ORDER.index(outer) > ORDER.index(probe.kind):
            raise ValueError(
                f"a {probe.kind} probe cannot go outside a {outer} probe "
                f"(order, innermost first: {', '.join(ORDER)})"
            )
    if probe.event_queue is not None:
        system.eventq = probe.event_queue()
    if probe.send_msg is not None:
        system.send_msg = partial(probe.send_msg, system.send_msg)
    if probe.net_send is not None:
        system.network.send = partial(probe.net_send, system.network.send)
    if probe.run is not None:
        system.run = partial(probe.run, system.run)
    system.probes += (probe,)


def start_run(system) -> None:
    """Wrap the barrier seam and notify ``run_start``, innermost first."""
    barriers = system.barriers
    for probe in system.probes:
        if probe.arrive is not None:
            barriers.arrive = partial(probe.arrive, barriers.arrive)
        if probe.run_start is not None:
            probe.run_start()


def end_run(system, result) -> None:
    """Notify ``run_end`` with the collected result, innermost first."""
    for probe in system.probes:
        if probe.run_end is not None:
            probe.run_end(result)
