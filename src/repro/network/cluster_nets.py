"""Cluster receive networks: the BNet fanout tree and the StarNet.

Both deliver flits from a cluster's hub to its cores with single-cycle
latency (Section IV-B: "The performance of the StarNet is exactly the
same as the BNet. Both ... have single-cycle latencies").  Performance-
wise they are interchangeable; they differ only in the energy counters
they feed (see :class:`repro.tech.dsent.ReceiveNetModel`).

Each cluster has **two** parallel receive networks (Table I: "Total
StarNets per Cluster: 2").  The hub statically partitions the cluster's
cores between them (each network serves half the cores); this doubles
hub egress bandwidth -- the contention-relief discussed around Figure
15 -- while keeping messages to any given core in FIFO order, which the
coherence protocol relies on for unicast streams.  Broadcasts occupy
both networks (every core must hear them).
"""

from __future__ import annotations

from repro.network.engine import (
    RECEIVE_NET_DELAY, RECEIVE_NETS_PER_CLUSTER, PortResource,
)
from repro.network.stats import NetworkStats

#: receive-net kinds a cluster can be built with.
RECEIVE_NET_KINDS = ("starnet", "bnet")


class ReceiveNetwork:
    """The per-cluster hub-to-cores delivery stage (BNet or StarNet)."""

    __slots__ = (
        "kind", "cluster", "cluster_size", "stats", "_ports", "_port_of_local",
    )

    def __init__(
        self,
        cluster: int,
        cluster_size: int,
        kind: str = "starnet",
        stats: NetworkStats | None = None,
    ) -> None:
        if kind not in RECEIVE_NET_KINDS:
            raise ValueError(f"kind must be 'starnet' or 'bnet', got {kind!r}")
        if cluster_size < 1:
            raise ValueError(f"cluster_size must be >= 1, got {cluster_size}")
        self.kind = kind
        self.cluster = cluster
        self.cluster_size = cluster_size
        self.stats = stats if stats is not None else NetworkStats()
        self._ports = [PortResource() for _ in range(RECEIVE_NETS_PER_CLUSTER)]
        self._assign_ports()

    def _assign_ports(self) -> None:
        """Static core-to-network assignment (preserves per-core FIFO):
        ``_port_of_local[i]`` is the port serving local core ``i``."""
        ports = self._ports
        self._port_of_local = tuple(
            ports[i % len(ports)] for i in range(self.cluster_size)
        )

    def replace_port(self, j: int, port: PortResource) -> None:
        """Put ``port`` in place of receive network ``j`` for unicasts
        and broadcasts alike."""
        self._ports[j] = port
        self._assign_ports()

    def deliver_unicast(self, time: int, n_flits: int, local_index: int = 0) -> int:
        """Deliver a message to one core; returns arrival time.

        ``local_index`` is the target core's index within the cluster,
        used to pick its statically-assigned receive network.
        """
        if not 0 <= local_index < self.cluster_size:
            raise ValueError(
                f"local core index {local_index} outside cluster of "
                f"{self.cluster_size}"
            )
        start = self._port_of_local[local_index].reserve(time, n_flits)
        self.stats.receive_net_unicast_flits += n_flits
        return start + RECEIVE_NET_DELAY + n_flits

    def deliver_broadcast(self, time: int, n_flits: int) -> int:
        """Deliver a message to every core in the cluster.

        Both receive networks replicate the message (each serves half
        the cores); delivery completes when the later one finishes.
        """
        tail = RECEIVE_NET_DELAY + n_flits
        done = 0
        for p in self._ports:
            arrival = p.reserve(time, n_flits) + tail
            if arrival > done:
                done = arrival
        self.stats.receive_net_broadcast_flits += n_flits
        return done
