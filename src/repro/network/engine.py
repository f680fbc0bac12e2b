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
unbounded (virtual-cut-through-like); DESIGN.md section 7 flags this
and ``benchmarks`` cross-validate zero-load latency analytically.

A packet is four scalars, not a record: ``Network.send(src, dst,
size_bits, t)`` hands ``_send_unicast(src, dst, t, n_flits)`` or
``_send_broadcast(src, t, n_flits)`` the size in flits.
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


class Network(ABC):
    """Common interface of EMesh-Pure, EMesh-BCast and ATAC/ATAC+.

    ``send(src, dst, size_bits, t)`` takes plain scalars and must be
    called with non-decreasing ``t`` (the event-driven simulator
    guarantees this); each call reserves resources and immediately
    returns the delivery schedule.
    """

    def __init__(self, topology: MeshTopology, flit_bits: int = 64) -> None:
        if flit_bits <= 0:
            raise ValueError(f"flit_bits must be positive, got {flit_bits}")
        self.topology = topology
        self.flit_bits = flit_bits
        self.stats = NetworkStats()
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
    def _send_unicast(self, src: int, dst: int, t: int,
                      n_flits: int) -> list[tuple[int, int]]:
        """Deliver a unicast; returns [(dst_core, arrival_time)]."""

    @abstractmethod
    def _send_broadcast(self, src: int, t: int,
                        n_flits: int) -> list[tuple[int, int]]:
        """Deliver a broadcast; returns [(core, arrival_time), ...] for
        every core except the source."""

    def send(self, src: int, dst: int, size_bits: int,
             t: int) -> list[tuple[int, int]]:
        """Inject ``size_bits`` from core ``src`` to core ``dst`` (or
        :data:`BROADCAST`) at cycle ``t``; returns the delivery schedule:
        one entry for a unicast, one per core but the sender for a
        broadcast.  A negative ``src``, a negative ``dst`` other than
        ``BROADCAST`` (either would index the per-core tables from their
        end) and a non-positive ``size_bits`` raise ``ValueError``.
        """
        if t < self._last_send_time:
            raise ValueError(
                f"sends must be time-ordered: got t={t} after "
                f"t={self._last_send_time}"
            )
        # BROADCAST (-1) is the one negative destination allowed.
        if src < 0 or dst < BROADCAST:
            raise ValueError(
                f"src must be a core id and dst a core id or BROADCAST, "
                f"got src={src}, dst={dst}"
            )
        n_flits = self._n_flits_cache.get(size_bits)
        if n_flits is None:
            if size_bits <= 0:
                raise ValueError(f"size_bits must be positive, got {size_bits}")
            n_flits = self._n_flits_cache[size_bits] = -(-size_bits // self.flit_bits)
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
        deliveries = ([(dst, t + 1)] if dst == src
                      else self._send_unicast(src, dst, t, n_flits))
        lat = deliveries[0][1] - t
        if lat < 0:
            raise ValueError(f"latency must be non-negative, got {lat}")
        s.latency_sum += lat
        s.latency_count += 1
        if lat > s.latency_max:
            s.latency_max = lat
        return deliveries

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
