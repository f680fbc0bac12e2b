"""Behavioral tests for the two extension architectures.

Corona (all-optical MWSR crossbar) and HERMES (hierarchical optical
broadcast) prove the registry's extensibility claim, so these tests pin
the properties that make each architecture what it is: where traffic
flows (electrical vs optical), who serializes with whom, and that both
survive a sanitized end-to-end run.
"""

from __future__ import annotations

import pytest

from repro.experiments.runspec import RunSpec
from repro.network.analytic import AnalyticModel
from repro.network.corona import TOKEN_DELAY, CoronaNetwork
from repro.network.engine import (
    HOP_LATENCY,
    HUB_DELAY,
    ONET_LINK_DELAY,
    RECEIVE_NET_DELAY,
    SELECT_DATA_LAG,
)
from repro.network.hermes import HermesNetwork, hermes_regions
from repro.network.routing import ClusterRouting
from repro.network.topology import MeshTopology
from repro.network.types import BROADCAST


@pytest.fixture
def topo():
    return MeshTopology(width=8, cluster_width=4)  # 4 clusters of 16


def _idle_at_hub(topo, src, flits=1):
    """Idle ENet trip from ``src`` to its cluster hub, plus hub ingress."""
    hub = topo.hub_core(topo.cluster_of(src))
    assert src != hub
    return topo.manhattan(src, hub) * HOP_LATENCY + flits + HUB_DELAY


#: an idle optical channel: select lead, link delay, one flit.
_CHANNEL = SELECT_DATA_LAG + ONET_LINK_DELAY + 1
#: an idle receive net delivering one flit.
_RECEIVE = RECEIVE_NET_DELAY + 1


class TestCorona:
    def test_intra_cluster_unicast_stays_electrical(self, topo):
        net = CoronaNetwork(topo)
        src, dst = topo.cluster_cores(0)[0], topo.cluster_cores(0)[5]
        net.send(src, dst, 64, 0)
        assert net.stats.onet_unicast_flits == 0
        assert net.stats.hub_flit_traversals == 0
        assert net.stats.router_flit_traversals > 0

    def test_inter_cluster_unicast_goes_optical(self, topo):
        net = CoronaNetwork(topo)
        src = topo.cluster_cores(0)[0]
        dst = topo.cluster_cores(3)[0]
        [(core, arrival)] = net.send(src, dst, 64, 0)
        assert core == dst and arrival > 0
        # there is no electrical inter-cluster path on this fabric
        assert net.stats.onet_unicast_flits == 1
        assert net.stats.receive_net_unicast_flits == 1

    def test_token_round_precedes_the_channel(self, topo):
        """An idle inter-cluster unicast is ATAC's cluster-routed
        optical path plus the token round."""
        model = AnalyticModel(topo)
        for src, dst in [
            (topo.cluster_cores(0)[5], topo.cluster_cores(3)[0]),
            (topo.cluster_cores(2)[15], topo.cluster_cores(1)[9]),
        ]:
            [(_, arrival)] = CoronaNetwork(topo).send(src, dst, 64, 0)
            assert arrival == model.atac_unicast_latency(
                ClusterRouting(), src, dst, size_bits=64
            ) + TOKEN_DELAY

    def test_idle_broadcast_matches_the_closed_form(self, topo):
        """Token round, then the shared broadcast channel; the sender's
        own cluster is fed straight from its hub."""
        net = CoronaNetwork(topo)
        src = topo.cluster_cores(1)[6]
        deliveries = dict(net.send(src, BROADCAST, 64, 0))
        at_hub = _idle_at_hub(topo, src)
        remote = at_hub + TOKEN_DELAY + _CHANNEL + HUB_DELAY + _RECEIVE
        assert remote == AnalyticModel(topo).optical_broadcast_latency(
            src, size_bits=64
        ) + TOKEN_DELAY
        for core, arrival in deliveries.items():
            own = topo.cluster_of(core) == topo.cluster_of(src)
            assert arrival == (at_hub + _RECEIVE if own else remote), core

    def test_writers_serialize_at_the_destination_channel(self, topo):
        net = CoronaNetwork(topo)
        dst = topo.cluster_cores(3)[0]
        # two writers from different clusters target cluster 3 at t=0:
        # MWSR means they contend on the *destination's* channel
        [(_, first)] = net.send(topo.cluster_cores(0)[0], dst, 64, 0)
        [(_, second)] = net.send(
            topo.cluster_cores(1)[0], topo.cluster_cores(3)[1], 64, 0
        )
        solo = CoronaNetwork(topo)
        [(_, unqueued)] = solo.send(
            topo.cluster_cores(1)[0], topo.cluster_cores(3)[1], 64, 0
        )
        assert second > unqueued  # queued behind the first writer

    def test_different_destinations_do_not_serialize(self, topo):
        net = CoronaNetwork(topo)
        [(_, a1)] = net.send(
            topo.cluster_cores(0)[0], topo.cluster_cores(2)[0], 64, 0
        )
        [(_, a2)] = net.send(
            topo.cluster_cores(1)[0], topo.cluster_cores(3)[0], 64, 0
        )
        solo = CoronaNetwork(topo)
        [(_, unqueued)] = solo.send(
            topo.cluster_cores(1)[0], topo.cluster_cores(3)[0], 64, 0
        )
        assert a2 == unqueued  # separate MWSR channels, no contention

    def test_broadcast_covers_chip_via_broadcast_channel(self, topo):
        net = CoronaNetwork(topo)
        src = topo.cluster_cores(0)[0]
        deliveries = net.send(src, BROADCAST, 64, 0)
        assert {c for c, _ in deliveries} == set(range(topo.n_cores)) - {src}
        assert net.broadcast_channel.broadcast_cycles > 0
        # unicast channels stayed dark
        assert all(
            link.broadcast_cycles == 0
            for link in net.onet_links[: topo.n_clusters]
        )

    def test_broadcast_channel_in_port_inventory(self, topo):
        net = CoronaNetwork(topo)
        assert len(net.onet_links) == topo.n_clusters + 1
        assert net.onet_links[-1] is net.broadcast_channel


class TestHermes:
    def test_regions_partition_the_clusters(self):
        # 12x12 mesh, 4-wide clusters: a 3x3 cluster grid, so 2x2
        # regioning leaves smaller edge regions including a singleton
        topo = MeshTopology(width=12, cluster_width=4)
        regions = hermes_regions(topo)
        flat = [c for members in regions for c in members]
        assert sorted(flat) == list(range(topo.n_clusters))
        sizes = sorted(len(m) for m in regions)
        assert sizes == [1, 2, 2, 4]

    def test_single_cluster_region_has_no_rebroadcast_channel(self):
        topo = MeshTopology(width=12, cluster_width=4)
        net = HermesNetwork(topo)
        singletons = [
            r for r, members in enumerate(net.regions) if len(members) == 1
        ]
        assert singletons
        for r in singletons:
            assert net.rebroadcast_channels[r] is None
        # optical inventory: the global channel + one per multi-cluster
        # region
        multi = sum(1 for m in net.regions if len(m) >= 2)
        assert len(net.onet_links) == 1 + multi
        assert net.onet_links[0] is net.global_channel

    def test_unicasts_never_touch_the_optics(self, topo):
        net = HermesNetwork(topo)
        src = topo.cluster_cores(0)[0]
        for t, dst in enumerate(
            (topo.cluster_cores(3)[0], topo.cluster_cores(1)[7])
        ):
            net.send(src, dst, 64, t)
        assert net.stats.onet_unicast_flits == 0
        assert net.stats.hub_flit_traversals == 0
        assert net.stats.router_flit_traversals > 0

    def test_broadcast_covers_chip_through_the_hierarchy(self, topo):
        net = HermesNetwork(topo)
        src = topo.cluster_cores(2)[4]
        deliveries = net.send(src, BROADCAST, 64, 0)
        assert {c for c, _ in deliveries} == set(range(topo.n_cores)) - {src}
        assert net.global_channel.broadcast_cycles > 0
        # the second level re-broadcast fired on every multi-cluster
        # region's channel
        for channel in net.rebroadcast_channels:
            if channel is not None:
                assert channel.broadcast_cycles > 0

    def test_idle_broadcast_matches_the_closed_form(self):
        """Global channel, hub, region channel, hub, receive net -- the
        sender's own cluster, region heads and non-head members each
        against their closed form."""
        # a 3x3 cluster grid: regions of 4, 2, 2 and a singleton
        topo = MeshTopology(width=12, cluster_width=4)
        net = HermesNetwork(topo)
        src_cluster = 4  # a non-head member of the first region
        src = topo.cluster_cores(src_cluster)[5]
        deliveries = dict(net.send(src, BROADCAST, 64, 0))
        at_hub = _idle_at_hub(topo, src)
        head_ready = at_hub + _CHANNEL + HUB_DELAY
        member_ready = head_ready + _CHANNEL + HUB_DELAY
        expected = {}
        for head, *members in hermes_regions(topo):
            expected[head] = head_ready + _RECEIVE
            for cluster in members:
                expected[cluster] = member_ready + _RECEIVE
        assert src_cluster not in {r[0] for r in hermes_regions(topo)}
        expected[src_cluster] = at_hub + _RECEIVE
        assert len(deliveries) == topo.n_cores - 1
        for core, arrival in deliveries.items():
            assert arrival == expected[topo.cluster_of(core)], core

    def test_non_head_clusters_wait_for_the_rebroadcast(self, topo):
        net = HermesNetwork(topo)
        src = topo.cluster_cores(0)[0]
        deliveries = dict(net.send(src, BROADCAST, 64, 0))
        heads = {region[0] for region in net.regions}
        head = next(region[0] for region in net.regions if 1 in region)
        # pick a cluster that is neither the sender's nor a region head
        member = next(
            c for c in range(topo.n_clusters) if c != 0 and c not in heads
        )
        head_arrival = deliveries[topo.cluster_cores(head)[1]]
        member_arrival = deliveries[topo.cluster_cores(member)[1]]
        assert member_arrival > head_arrival


@pytest.mark.parametrize("network", ["corona", "hermes"])
def test_sanitized_end_to_end_run(network):
    spec = RunSpec(
        app="barnes", network=network, mesh_width=8, scale=0.05,
        sanitize=True,
    )
    result = spec.execute()
    assert result.completion_cycles > 0
    assert result.network in ("Corona", "HERMES")
