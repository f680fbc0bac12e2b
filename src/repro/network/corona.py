"""A Corona-style all-optical MWSR crossbar (Vantrease et al., ISCA'08).

Corona inverts ATAC's channel ownership: ATAC's ONet is SWMR (each
*sender* hub owns a wavelength channel that every other hub can tune
into), whereas Corona's crossbar is **MWSR** -- each *receiver* hub owns
a channel, and every hub that wants to talk to it modulates onto that
channel.  Writers therefore contend at the destination's channel, which
Corona arbitrates with an optical token; we model the token acquisition
as a fixed ``TOKEN_DELAY`` before the channel reservation (the
serialization itself falls out of the channel's ``free_at``, exactly
the single-server semantics of :class:`AdaptiveSWMRLink`).

Consequences relative to ATAC/ATAC+:

* **every** inter-cluster unicast is optical (there is no distance
  threshold -- the crossbar is the only inter-cluster path), so the
  electrical mesh carries only intra-cluster traffic and the
  core-to-hub hop;
* broadcasts use one dedicated all-to-all broadcast channel (Corona's
  power-guided broadcast ring) that all hubs arbitrate for, rather
  than per-sender channels.

The hub/receive-network stage is shared with ATAC: light terminates at
the destination hub, crosses it, and fans out on the cluster's receive
network.
"""

from __future__ import annotations

from repro.network.atac import AtacNetwork
from repro.network.engine import HUB_DELAY
from repro.network.onet import AdaptiveSWMRLink
from repro.network.routing import ClusterRouting
from repro.network.topology import MeshTopology

#: cycles to acquire a channel's optical token before writing to it.
TOKEN_DELAY = 2


class CoronaNetwork(AtacNetwork):
    """All-optical MWSR crossbar with token-slot channel arbitration."""

    # MWSR: an inter-cluster unicast reserves the *destination's*
    # channel; the token round precedes the reservation, and queueing
    # behind other writers is the channel's own serialization.
    # ClusterRouting sends every inter-cluster unicast optically, so
    # AtacNetwork's unicast paths need nothing else.
    _receiver_owned = True
    _ready_offset = TOKEN_DELAY

    def __init__(
        self,
        topology: MeshTopology,
        flit_bits: int = 64,
        receive_net: str = "starnet",
    ) -> None:
        # ClusterRouting sends every inter-cluster unicast optically --
        # on this fabric that is not a policy choice but the topology.
        super().__init__(
            topology,
            flit_bits,
            routing=ClusterRouting(),
            receive_net=receive_net,
        )
        # The base class built one channel per hub; under MWSR semantics
        # onet_links[c] is the channel *read by* cluster c (writers
        # reserve it).  The broadcast ring is an extra shared channel
        # appended so port accounting, Table-V utilization and the
        # energy and area models cover it.
        self.broadcast_channel = AdaptiveSWMRLink(
            0, topology.n_clusters, self.stats
        )
        self.onet_links.append(self.broadcast_channel)

    @property
    def name(self) -> str:
        return "Corona"

    # ------------------------------------------------------------------
    def _send_broadcast(self, src: int, t: int,
                        n_flits: int) -> list[tuple[int, int]]:
        at_hub = self._to_hub(src, t, n_flits)
        hub_arrival = self.broadcast_channel.transmit(
            at_hub + TOKEN_DELAY, n_flits, broadcast=True
        )
        ready = [hub_arrival + HUB_DELAY] * self.topology.n_clusters
        return self._deliver_clusters(src, at_hub, ready, n_flits)
