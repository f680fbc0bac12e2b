"""A HERMES-style hierarchical optical broadcast network (Mohamed et al.).

HERMES optimizes the broadcast path by splitting it into two optical
levels instead of ATAC's single chip-wide SWMR ring:

* **level 1** -- one global broadcast channel that every cluster hub can
  write (arbitrated like any shared channel); all *region head* hubs
  listen;
* **level 2** -- per-region rebroadcast channels: each region's head hub
  re-modulates the message for the other clusters of its region
  (regions are ``REGION_WIDTH x REGION_WIDTH`` tiles of clusters;
  single-cluster regions are fed directly from level 1);
* the last hop is the standard cluster receive network, shared with
  ATAC.

Unicasts never touch the optics: HERMES keeps point-to-point traffic on
the electrical mesh (the Distance-All routing extreme), spending its
photonic budget exclusively on the broadcast tree.  That makes it the
mirror image of Corona in this registry -- all-optical unicast crossbar
vs. broadcast-only optical hierarchy -- which together bracket the
paper's hybrid design.
"""

from __future__ import annotations

from repro.network.atac import AtacNetwork
from repro.network.engine import HUB_DELAY
from repro.network.onet import AdaptiveSWMRLink
from repro.network.routing import distance_all
from repro.network.topology import MeshTopology

#: edge length, in clusters, of a square broadcast region.
REGION_WIDTH = 2


def hermes_regions(topology: MeshTopology) -> tuple[tuple[int, ...], ...]:
    """Clusters grouped into ``REGION_WIDTH``-square tiles.

    Returns a tuple of regions, each a tuple of cluster ids in row-major
    order; the first cluster of each region is its head.  Edge regions
    may be smaller when the cluster grid does not divide evenly.
    """
    per_edge = topology.width // topology.cluster_width
    regions: list[tuple[int, ...]] = []
    for ry in range(0, per_edge, REGION_WIDTH):
        for rx in range(0, per_edge, REGION_WIDTH):
            regions.append(tuple(
                cy * per_edge + cx
                for cy in range(ry, min(ry + REGION_WIDTH, per_edge))
                for cx in range(rx, min(rx + REGION_WIDTH, per_edge))
            ))
    return tuple(regions)


class HermesNetwork(AtacNetwork):
    """Two-level optical broadcast hierarchy over an electrical mesh."""

    def __init__(
        self,
        topology: MeshTopology,
        flit_bits: int = 64,
        receive_net: str = "starnet",
    ) -> None:
        # Distance-All keeps every unicast on the ENet: the broadcast
        # hierarchy is write-arbitrated, so point-to-point traffic on it
        # would serialize chip-wide.
        super().__init__(
            topology,
            flit_bits,
            routing=distance_all(topology),
            receive_net=receive_net,
        )
        self.regions = hermes_regions(topology)
        # Level 1: all hubs write, all region heads read.  The channel's
        # reader count only feeds the receiver-energy counters.
        self.global_channel = AdaptiveSWMRLink(
            0, max(2, len(self.regions)), self.stats
        )
        # Level 2: the head rebroadcasts to the region's other clusters;
        # single-cluster regions need no second level.
        self.rebroadcast_channels = tuple(
            AdaptiveSWMRLink(0, len(m), self.stats)
            if len(m) >= 2 else None
            for m in self.regions
        )
        # Replace the per-hub SWMR links the base class built: HERMES's
        # optical inventory is the hierarchy's channels, and this list
        # is what port accounting, Table-V utilization and the energy
        # and area models walk.
        self.onet_links = [self.global_channel] + [
            c for c in self.rebroadcast_channels if c is not None
        ]

    @property
    def name(self) -> str:
        return "HERMES"

    # ------------------------------------------------------------------
    # Unicasts are inherited unchanged, closed-loop and windowed alike:
    # Distance-All routing sets rthres above any Manhattan distance, so
    # AtacNetwork's inlined routing rule never picks the ONet and a
    # unicast is a plain ENet traversal (``_traverse``, or the same leg
    # walk inside ``_send_window``).
    # ------------------------------------------------------------------

    def _send_broadcast(self, src: int, t: int,
                        n_flits: int) -> list[tuple[int, int]]:
        at_hub = self._to_hub(src, t, n_flits)
        head_arrival = self.global_channel.transmit(
            at_hub, n_flits, broadcast=True
        )
        head_ready = head_arrival + HUB_DELAY
        # Reserve each region's rebroadcast exactly once: a region head
        # has the message from level 1, its other clusters from level 2.
        ready = [0] * self.topology.n_clusters
        for (head, *members), channel in zip(
            self.regions, self.rebroadcast_channels
        ):
            ready[head] = head_ready
            if channel is not None:
                region_arrival = channel.transmit(
                    head_ready, n_flits, broadcast=True
                )
                for cluster in members:
                    ready[cluster] = region_arrival + HUB_DELAY
        return self._deliver_clusters(src, at_hub, ready, n_flits)
