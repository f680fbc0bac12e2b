"""The composite ATAC / ATAC+ network (Figure 1).

Three fabrics stitched together:

* **ENet** -- the electrical mesh (shared machinery with the EMesh
  baselines), used (a) for short-distance unicasts per the routing
  policy and (b) to carry flits from a source core to its cluster hub.
* **ONet** -- 64 adaptive SWMR links (one per hub), each a
  single-writer multiple-reader WDM channel with 3-cycle link delay.
* **Receive networks** -- per-cluster BNet (original ATAC) or StarNet
  (ATAC+) delivering from the hub to the cores in one cycle; two
  parallel instances per cluster (Table I).

The unicast routing policy is pluggable (:mod:`repro.network.routing`):
``ClusterRouting`` gives the original ATAC behaviour,
``DistanceRouting(15)`` the ATAC+ default.

A hybrid-path unicast therefore costs::

    ENet(src -> src hub) + hub + ONet channel + hub + StarNet -> dst

and a broadcast::

    ENet(src -> src hub) + hub + ONet broadcast
        + per-cluster (hub + StarNet broadcast) -> every core
"""

from __future__ import annotations

from repro.network.cluster_nets import ReceiveNetwork
from repro.network.engine import (
    HOP_LATENCY, HUB_DELAY, ONET_LINK_DELAY, RECEIVE_NET_DELAY, SELECT_DATA_LAG,
)
from repro.network.mesh import _MeshBase
from repro.network.onet import _IDLE, _UNICAST, AdaptiveSWMRLink
from repro.network.routing import ClusterRouting, DistanceRouting, RoutingPolicy
from repro.network.topology import MeshTopology
from repro.network.types import BROADCAST


class AtacNetwork(_MeshBase):
    """ATAC (BNet + cluster routing) or ATAC+ (StarNet + distance routing)."""

    #: Whether an optical unicast takes the receiver's channel (MWSR)
    #: instead of the sender's (SWMR), and how many cycles after reaching
    #: the source hub it may take it.  Both unicast paths read these.
    _receiver_owned = False
    _ready_offset = 0

    def __init__(
        self,
        topology: MeshTopology,
        flit_bits: int = 64,
        routing: RoutingPolicy | None = None,
        receive_net: str = "starnet",
    ) -> None:
        super().__init__(topology, flit_bits)
        self.routing: RoutingPolicy = (
            routing if routing is not None else DistanceRouting(15)
        )
        # ``receive_net_kind`` and ``onet_links`` are the hardware
        # inventory the energy and area models price.
        self.receive_net_kind = receive_net
        n_hubs = topology.n_clusters
        self.onet_links = [
            AdaptiveSWMRLink(h, n_hubs, self.stats) for h in range(n_hubs)
        ]
        # Per-core geometry, flattened once: cluster id, hub position,
        # index within the cluster and mesh coordinates are needed on
        # every send, and the topology calls (int divides plus bounds
        # checks) showed up in per-packet profiles.
        self._cluster_of_core = tuple(
            topology.cluster_of(c) for c in range(topology.n_cores)
        )
        self._hub_of_core = tuple(
            topology.hub_core(cluster) for cluster in self._cluster_of_core
        )
        local_index = [0] * topology.n_cores
        for c in range(n_hubs):
            for i, core in enumerate(topology.cluster_cores(c)):
                local_index[core] = i
        self._local_index = tuple(local_index)
        w = topology.width
        self._col_of_core = tuple(c % w for c in range(topology.n_cores))
        self._row_of_core = tuple(c // w for c in range(topology.n_cores))
        self.receive_nets = [
            ReceiveNetwork(
                cluster=c,
                cluster_size=topology.cluster_size,
                kind=receive_net,
                stats=self.stats,
            )
            for c in range(n_hubs)
        ]

    @property
    def name(self) -> str:
        if self.receive_net_kind == "bnet" and isinstance(self.routing, ClusterRouting):
            return "ATAC"
        return "ATAC+"

    # ------------------------------------------------------------------
    def _to_hub(self, src: int, t: int, n_flits: int) -> int:
        """ENet trip from a core to its cluster hub, plus hub ingress."""
        hub_core = self._hub_of_core[src]
        if src != hub_core:
            t = self._traverse(src, hub_core, t, n_flits)
        self.stats.hub_flit_traversals += n_flits
        return t + HUB_DELAY

    # ------------------------------------------------------------------
    def _send_unicast(self, src: int, dst: int, t: int, n_flits: int) -> int:
        # RoutingPolicy.use_onet, inlined over the per-core tables:
        # inter-cluster and at least ``rthres`` hops apart.  ``rthres``
        # is read per send, so an adaptive policy's moves apply at once.
        src_cluster = self._cluster_of_core[src]
        if src_cluster == self._cluster_of_core[dst]:
            return self._traverse(src, dst, t, n_flits)
        col, row = self._col_of_core, self._row_of_core
        dx = col[src] - col[dst]
        dy = row[src] - row[dst]
        hops = (dx if dx >= 0 else -dx) + (dy if dy >= 0 else -dy)
        if hops < self.routing.rthres:
            return self._traverse(src, dst, t, n_flits)
        return self._optical_unicast(src, dst, t, n_flits)

    def _optical_unicast(self, src: int, dst: int, t: int, n_flits: int) -> int:
        """The optical unicast path of the whole ATAC family: ENet to the
        source hub, the channel (the sender's, or the receiver's if
        ``_receiver_owned``, taken ``_ready_offset`` cycles after the hub
        is reached), the destination hub, and its receive network.
        Returns the arrival time at ``dst``."""
        cluster = self._cluster_of_core
        dst_cluster = cluster[dst]
        at_hub = self._to_hub(src, t, n_flits)
        link = self.onet_links[
            dst_cluster if self._receiver_owned else cluster[src]
        ]
        hub_arrival = link.transmit(at_hub + self._ready_offset, n_flits, False)
        # receive-side hub crossing, then the cluster receive network
        self.stats.hub_flit_traversals += n_flits
        return self.receive_nets[dst_cluster].deliver_unicast(
            hub_arrival + HUB_DELAY, n_flits, self._local_index[dst]
        )

    def _send_window(self, times: list[int], srcs: list[int],
                     dsts: list[int], size_bits: int,
                     n_flits: int) -> tuple[int, int, int]:
        """``_send_unicast`` per unicast, as one loop: the routing rule,
        the ENet legs -- to ``dst``, or to the source hub for an optical
        unicast -- and the optical stage are all inline.  The legs are
        walked as ``_traverse`` and ``_to_hub`` walk them; the channel
        (the sender's, or the receiver's if ``_receiver_owned``) takes
        the unicast branch of ``AdaptiveSWMRLink.transmit`` on the link
        object, and the destination's receive port is reserved as
        ``ReceiveNetwork.deliver_unicast`` reserves it, through a
        per-core port table built from each ``_port_of_local`` at the
        start of the window.  The router, link, arbitration, hub, ONet
        and receive-net counters are summed in locals and written once
        per window.  ``rthres`` is read once per window, so a subclass
        whose policy moves between sends (``_BacklogFeedback``) keeps
        ``Network._send_window``.
        """
        send = self.send
        broadcast = BROADCAST
        rthres = self.routing.rthres
        cluster, hub_of = self._cluster_of_core, self._hub_of_core
        col, row = self._col_of_core, self._row_of_core
        links, rnets = self.onet_links, self.receive_nets
        receiver_owned = self._receiver_owned
        # The port each core's unicasts are delivered through, read now
        # so that a port ``replace_port`` swapped in is the one reserved.
        port_of = [rnets[c]._port_of_local[i]
                   for c, i in zip(cluster, self._local_index)]
        w = self._width
        xlegs, ylegs = self._xlegs, self._ylegs
        xleg_flits, yleg_flits = self._xleg_flits, self._yleg_flits
        free_at = self._free_at
        hop = HOP_LATENCY
        # Source hub to the channel's first data cycle: the hub crossing,
        # the MWSR token round (if any), then the select link's lead.
        to_data = HUB_DELAY + self._ready_offset + SELECT_DATA_LAG
        # First data cycle to the destination hub's egress: the link
        # delay, serialization, then the receive-side hub crossing.
        to_rx = ONET_LINK_DELAY + n_flits + HUB_DELAY
        rx_tail = RECEIVE_NET_DELAY + n_flits
        idle, unicast = _IDLE, _UNICAST
        n_sent = lat_sum = lat_max = hops = walks = 0
        n_optical = transitions = 0
        # No range check below: ``send_stream`` has validated the window,
        # so every time is at or after the last send (itself >= 0), and
        # ``n_flits`` >= 1 -- the arguments ``transmit`` and
        # ``PortResource.reserve`` would reject cannot occur.
        for t, src, dst in zip(times, srcs, dsts):
            if dst == broadcast or dst == src:
                send(src, dst, size_bits, t)
                n_sent += 1
                continue
            src_cluster = cluster[src]
            dst_cluster = cluster[dst]
            target = dst
            if src_cluster != dst_cluster:
                dx = col[src] - col[dst]
                dy = row[src] - row[dst]
                if (dx if dx >= 0 else -dx) + (dy if dy >= 0 else -dy) >= rthres:
                    target = hub_of[src]
            head = t
            if src != target:
                # _traverse(src, target): the X leg, then the Y leg.
                c = col[target]
                xi = src * w + c
                yi = (row[src] * w + c) * w + row[target]
                xleg_flits[xi] += n_flits
                yleg_flits[yi] += n_flits
                xleg = xlegs[xi]
                yleg = ylegs[yi]
                hops += len(xleg) + len(yleg)
                walks += 1
                for i in xleg:
                    free = free_at[i]
                    if free > head:
                        head = free
                    free_at[i] = head + n_flits
                    head += hop
                for i in yleg:
                    free = free_at[i]
                    if free > head:
                        head = free
                    free_at[i] = head + n_flits
                    head += hop
                head += n_flits
            if target != dst:
                n_optical += 1
                # transmit(at_hub + ready offset, n_flits, broadcast=False)
                link = links[dst_cluster if receiver_owned else src_cluster]
                start = head + to_data
                free = link.free_at
                mode = link.last_mode
                if start > free:
                    # An idle gap: down to IDLE (unless already there)
                    # and back up.
                    n = 1 if mode is idle else 2
                    link.mode_transitions += n
                    transitions += n
                    link.last_mode = unicast
                else:
                    # Back to back: a re-bias only on a mode change.
                    start = free
                    if mode is not unicast:
                        link.mode_transitions += 1
                        transitions += 1
                        link.last_mode = unicast
                link.free_at = start + n_flits
                link.unicast_cycles += n_flits
                # deliver_unicast: reserve dst's receive port.
                port = port_of[dst]
                head = start + to_rx
                free = port.free_at
                if free > head:
                    head = free
                port.free_at = head + n_flits
                port.busy_cycles += n_flits
                head += rx_tail
            # Every stage only adds delay, so ``lat`` is never negative.
            lat = head - t
            if lat > lat_max:
                lat_max = lat
            lat_sum += lat
        s = self.stats
        # each walk also crosses its ejection router
        s.router_flit_traversals += n_flits * (hops + walks)
        s.link_flit_traversals += n_flits * hops
        s.router_arbitrations += hops + walks
        # two hub crossings per optical unicast, one at each end
        s.hub_flit_traversals += 2 * n_flits * n_optical
        # transmit's and deliver_unicast's unicast counters
        optical_flits = n_flits * n_optical
        s.onet_unicasts += n_optical
        s.onet_select_notifications += n_optical
        s.onet_mode_transitions += transitions
        s.onet_unicast_flits += optical_flits
        s.onet_unicast_cycles += optical_flits
        s.onet_receiver_flits += optical_flits
        s.receive_net_unicast_flits += optical_flits
        return len(times) - n_sent, lat_sum, lat_max

    # ------------------------------------------------------------------
    def _deliver_clusters(
        self, src: int, at_hub: int, ready: list[int], n_flits: int
    ) -> list[tuple[int, int]]:
        """Fan a broadcast out of the optical stage into every cluster's
        receive network (the one fan-out of the ATAC-family broadcast
        paths).  ``ready[c]`` is when cluster ``c``'s hub has the message;
        the sender's own cluster is fed directly from its hub at
        ``at_hub`` (its own modulated light is not re-detected)."""
        topo = self.topology
        src_cluster = self._cluster_of_core[src]
        deliveries: list[tuple[int, int]] = []
        append = deliveries.append
        # Every cluster but the sender's crosses its receive-side hub.
        self.stats.hub_flit_traversals += n_flits * (topo.n_clusters - 1)
        for cluster, rnet in enumerate(self.receive_nets):
            arrival = rnet.deliver_broadcast(
                at_hub if cluster == src_cluster else ready[cluster], n_flits
            )
            for core in topo.cluster_cores(cluster):
                if core != src:
                    append((core, arrival))
        return deliveries

    def _send_broadcast(self, src: int, t: int,
                        n_flits: int) -> list[tuple[int, int]]:
        at_hub = self._to_hub(src, t, n_flits)
        hub_arrival = self.onet_links[self._cluster_of_core[src]].transmit(
            at_hub, n_flits, broadcast=True
        )
        ready = [hub_arrival + HUB_DELAY] * self.topology.n_clusters
        return self._deliver_clusters(src, at_hub, ready, n_flits)

    # ------------------------------------------------------------------
    def onet_utilization(self, total_cycles: int) -> float:
        """Mean adaptive-SWMR link utilization across hubs (Table V)."""
        if total_cycles <= 0:
            raise ValueError(f"total_cycles must be positive, got {total_cycles}")
        utils = [l.utilization(total_cycles) for l in self.onet_links]
        return sum(utils) / len(utils)
