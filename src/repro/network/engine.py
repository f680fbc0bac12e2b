"""Packet-level wormhole timing engine.

All networks in this package share one timing methodology: every
contended hardware resource (a router output port, an optical
wavelength channel, a StarNet ingress) is a :class:`PortResource` that
packets *reserve* in simulation-time order.  A packet's head reaches
hop *h* at ``t_h = max(t_{h-1} + HOP_LATENCY, port_h.free_at)`` and the
port then serializes the packet's flits.

This reproduces the two behaviours the paper's evaluations depend on:

* **zero-load latency** = ``hops * (router + link delay) + flits``
  (wormhole pipelining), and
* **saturation**: when offered load exceeds a port's service capacity
  its ``free_at`` runs away from wall-clock time and measured latency
  diverges -- the hockey-stick of Figure 3.

The approximation versus flit-accurate wormhole is that buffers are
unbounded (virtual-cut-through-like); DESIGN.md section 8 flags this
and ``benchmarks`` cross-validate zero-load latency analytically.

A packet is four scalars, not a record.  A network has two entry
points, for callers of two shapes:

* ``Network.send(src, dst, size_bits, t)`` sends one packet and returns
  its delivery schedule.  The full system is closed-loop (each
  arrival is scheduled before the next event runs), so it sends this
  way.
* ``Network.send_stream(times, srcs, dsts, size_bits)`` sends a whole
  time-ordered window of same-size packets and returns nothing.  Open-
  loop traffic (Figure 3) sends this way: the window is validated in
  C-level passes before anything changes, then ``_send_window`` sends
  it and the unicast counters are written once per window.  Broadcasts
  and self-sends in a window go through ``send``.

Both hand ``_send_unicast(src, dst, t, n_flits)`` (which returns the
arrival cycle) or ``_send_broadcast(src, t, n_flits)`` (which returns
the deliveries) the size in flits; ``Network._send_window`` calls
``_send_unicast`` once per unicast.  The ATAC family overrides
``_send_window`` with one loop that walks each unicast's route legs,
optical channel and receive port inline and sums its counters per
window (:class:`repro.network.atac.AtacNetwork`); there the window's
validation stands in for ``PortResource.reserve``'s.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import fields, replace

from repro.network.stats import NetworkStats
from repro.network.topology import MeshTopology
from repro.network.types import BROADCAST


class PortResource:
    """A single-server resource serialized in reservation order."""

    __slots__ = ("free_at", "busy_cycles")

    def __init__(self) -> None:
        self.free_at = 0
        self.busy_cycles = 0

    def reserve(self, earliest: int, duration: int) -> int:
        """Reserve the port for ``duration`` cycles at or after ``earliest``.

        Returns the actual start time (>= ``earliest``).
        """
        if earliest < 0:
            raise ValueError(f"earliest must be non-negative, got {earliest}")
        if duration < 0:
            raise ValueError(f"duration must be non-negative, got {duration}")
        start = self.free_at
        if earliest > start:
            start = earliest
        self.free_at = start + duration
        self.busy_cycles += duration
        return start


# Table I network timing, in cycles.  The paper evaluates this one
# timing; every network model and the closed forms of
# ``repro.network.analytic`` read these constants.
ROUTER_DELAY = LINK_DELAY = 1     # electrical router pipeline; mesh link
HOP_LATENCY = ROUTER_DELAY + LINK_DELAY
HUB_DELAY = 1                     # one cluster-hub crossing
ONET_LINK_DELAY = 3               # optical waveguide link
SELECT_DATA_LAG = 1               # select link leads the data by this
RECEIVE_NET_DELAY = 1             # hub-to-core BNet / StarNet delivery
RECEIVE_NETS_PER_CLUSTER = 2      # "Total StarNets per Cluster"


def _order_error(t: int, last: int) -> ValueError:
    return ValueError(f"sends must be time-ordered: got t={t} after t={last}")


def _id_error(src: int, dst: int, n_cores: int) -> ValueError:
    return ValueError(
        f"src must be a core id and dst a core id or BROADCAST (cores "
        f"0..{n_cores - 1}), got src={src}, dst={dst}"
    )


class Network(ABC):
    """Common interface of EMesh-Pure, EMesh-BCast and ATAC/ATAC+.

    ``send(src, dst, size_bits, t)`` takes plain scalars and must be
    called with non-decreasing ``t`` (the event-driven simulator
    guarantees this); each call reserves resources and immediately
    returns the delivery schedule.  ``send_stream`` sends a whole
    time-ordered window of packets under the same rules.
    """

    def __init__(self, topology: MeshTopology, flit_bits: int = 64) -> None:
        if flit_bits <= 0:
            raise ValueError(f"flit_bits must be positive, got {flit_bits}")
        self.topology = topology
        self.flit_bits = flit_bits
        self.stats = NetworkStats()
        self._n_cores = topology.n_cores
        self._last_send_time = 0
        # size_bits -> flit count; traffic uses a couple of distinct
        # message sizes, so the size check and the ceil-divide are paid
        # once per size.
        self._n_flits_cache: dict[int, int] = {}

    @property
    @abstractmethod
    def name(self) -> str:
        """Architecture label as used in the paper's figures."""

    @abstractmethod
    def _send_unicast(self, src: int, dst: int, t: int, n_flits: int) -> int:
        """Deliver a unicast to ``dst != src``; returns its arrival cycle."""

    @abstractmethod
    def _send_broadcast(self, src: int, t: int,
                        n_flits: int) -> list[tuple[int, int]]:
        """Deliver a broadcast; returns [(core, arrival_time), ...] for
        every core except the source."""

    def _flits_of(self, size_bits: int) -> int:
        """Flits in a ``size_bits`` packet, cached per size; a
        non-positive size raises ``ValueError``."""
        if size_bits <= 0:
            raise ValueError(f"size_bits must be positive, got {size_bits}")
        n_flits = self._n_flits_cache[size_bits] = -(-size_bits // self.flit_bits)
        return n_flits

    def send(self, src: int, dst: int, size_bits: int,
             t: int) -> list[tuple[int, int]]:
        """Inject ``size_bits`` from core ``src`` to core ``dst`` (or
        :data:`BROADCAST`) at cycle ``t``; returns the delivery schedule:
        one entry for a unicast, one per core but the sender for a
        broadcast.  An earlier ``t`` than the last send's, a ``src``
        that is not a core id, a ``dst`` that is neither a core id nor
        ``BROADCAST`` (a negative id would index the per-core tables
        from their end, a large one would wrap onto another route) and
        a non-positive ``size_bits`` raise ``ValueError`` before
        anything changes.
        """
        if t < self._last_send_time:
            raise _order_error(t, self._last_send_time)
        n_cores = self._n_cores
        # BROADCAST (-1) is the one negative destination allowed.
        if not (0 <= src < n_cores and BROADCAST <= dst < n_cores):
            raise _id_error(src, dst, n_cores)
        n_flits = self._n_flits_cache.get(size_bits)
        if n_flits is None:
            n_flits = self._flits_of(size_bits)
        self._last_send_time = t
        s = self.stats
        s.packets_sent += 1
        s.injected_flits += n_flits
        if dst == BROADCAST:
            s.broadcasts_sent += 1
            deliveries = self._send_broadcast(src, t, n_flits)
            n = len(deliveries)
            s.received_broadcast_flits += n_flits * n
            if n:
                # One pass each in C, not a method call per delivery: a
                # broadcast has n_cores - 1 of them.
                arrivals = [arrival for _, arrival in deliveries]
                if min(arrivals) < t:
                    raise ValueError(
                        f"latency must be non-negative, got {min(arrivals) - t}"
                    )
                s.latency_sum += sum(arrivals) - n * t
                s.latency_count += n
                s.latency_max = max(s.latency_max, max(arrivals) - t)
            return deliveries
        s.unicasts_sent += 1
        s.received_unicast_flits += n_flits
        # A self-send is delivered locally, with no network resources.
        arrival = t + 1 if dst == src else self._send_unicast(src, dst, t, n_flits)
        lat = arrival - t
        if lat < 0:
            raise ValueError(f"latency must be non-negative, got {lat}")
        s.latency_sum += lat
        s.latency_count += 1
        if lat > s.latency_max:
            s.latency_max = lat
        return [(dst, arrival)]

    def send_stream(self, times: list[int], srcs: list[int],
                    dsts: list[int], size_bits: int) -> None:
        """Send a window of ``size_bits`` packets: packet ``i`` goes from
        core ``srcs[i]`` to ``dsts[i]`` (a core or :data:`BROADCAST`) at
        cycle ``times[i]``.  Exactly what ``send`` per packet, in order,
        would do, without the delivery schedules.

        The whole window is validated first, in C-level passes: the
        columns must have equal lengths, ``times`` must be
        non-decreasing and start no earlier than the last send, every
        id must be in range and ``size_bits`` positive.  A rejected
        window raises ``ValueError`` (with ``send``'s message) and
        changes nothing.  ``_send_window`` then sends the packets and
        returns the window's unicast count and latency sum and maximum,
        and the unicast counters are written once, at the end.  A
        network that reports an arrival before its send raises
        ``ValueError`` mid-window, as ``send`` does, and the window's
        unicasts are then left uncounted.
        """
        n = len(times)
        if len(srcs) != n or len(dsts) != n:
            raise ValueError(
                f"columns must have equal lengths, got times={n}, "
                f"srcs={len(srcs)}, dsts={len(dsts)}"
            )
        n_flits = self._flits_of(size_bits)
        if not n:
            return
        # One C-level pass per column: sorting a sorted list is one run
        # of int compares (4x faster than ``all(map(le, ...))``), and an
        # id column is checked by one set lookup per id instead of a min
        # and a max (the sets take ~4 us to build at w16).
        last = self._last_send_time
        if times[0] < last or times != sorted(times):
            for t in times:
                if t < last:
                    raise _order_error(t, last)
                last = t
        n_cores = self._n_cores
        core_ids = frozenset(range(n_cores))
        if not (core_ids.issuperset(srcs)
                and core_ids.union((BROADCAST,)).issuperset(dsts)):
            for src, dst in zip(srcs, dsts):
                if not (0 <= src < n_cores and BROADCAST <= dst < n_cores):
                    raise _id_error(src, dst, n_cores)
        n_uni, lat_sum, lat_max = self._send_window(
            times, srcs, dsts, size_bits, n_flits
        )
        s = self.stats
        s.packets_sent += n_uni
        s.unicasts_sent += n_uni
        s.injected_flits += n_uni * n_flits
        s.received_unicast_flits += n_uni * n_flits
        s.latency_sum += lat_sum
        s.latency_count += n_uni
        if lat_max > s.latency_max:
            s.latency_max = lat_max
        self._last_send_time = times[-1]

    def _send_window(self, times: list[int], srcs: list[int],
                     dsts: list[int], size_bits: int,
                     n_flits: int) -> tuple[int, int, int]:
        """Send a validated, non-empty window of ``n_flits``-flit packets;
        returns its unicast count, latency sum and latency maximum, which
        ``send_stream`` adds to the unicast counters.

        Each unicast is one ``_send_unicast`` call; broadcasts and
        self-sends (rare) go through ``send``, so their bookkeeping
        exists in one place.  A network may override this with a kernel
        that walks its unicasts inline; a subclass that overrides
        ``_send_unicast`` below such a kernel restores this loop.
        """
        send = self.send
        unicast = self._send_unicast
        broadcast = BROADCAST
        n_sent = lat_sum = lat_max = 0
        for t, src, dst in zip(times, srcs, dsts):
            if dst == broadcast or dst == src:
                send(src, dst, size_bits, t)
                n_sent += 1
                continue
            lat = unicast(src, dst, t, n_flits) - t
            if lat > lat_max:
                lat_max = lat
            elif lat < 0:
                raise ValueError(f"latency must be non-negative, got {lat}")
            lat_sum += lat
        return len(times) - n_sent, lat_sum, lat_max

    def reset_stats(self) -> NetworkStats:
        """Zero the counter bundle; returns a copy of the old counts.

        Used to discard warm-up statistics in open-loop load sweeps.
        The bundle is zeroed in place, not replaced: the ONet links and
        receive networks were built holding it and keep counting into
        it.
        """
        old = replace(self.stats)
        for f in fields(NetworkStats):
            setattr(self.stats, f.name, 0)
        return old
