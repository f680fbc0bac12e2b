"""Unit tests for the adaptive SWMR link, receive networks and ATAC/ATAC+."""

import pytest

from repro.network.atac import AtacNetwork
from repro.network.cluster_nets import ReceiveNetwork
from repro.network.onet import AdaptiveSWMRLink, LaserMode
from repro.network.routing import ClusterRouting, DistanceRouting, distance_all
from repro.network.stats import NetworkStats
from repro.network.topology import MeshTopology
from repro.network.types import BROADCAST, CONTROL_MSG_BITS


@pytest.fixture
def topo():
    return MeshTopology(width=8, cluster_width=4)


class TestAdaptiveSWMRLink:
    def test_zero_load_timing(self):
        link = AdaptiveSWMRLink(hub=0, n_hubs=4)
        arrival = link.transmit(time=10, n_flits=2, broadcast=False)
        # select lag 1, link delay 3, serialization 2
        assert link.free_at - 2 == 11  # data start
        assert arrival == 11 + 3 + 2

    def test_channel_serializes(self):
        link = AdaptiveSWMRLink(hub=0, n_hubs=4)
        link.transmit(time=0, n_flits=10, broadcast=False)
        link.transmit(time=0, n_flits=2, broadcast=False)
        # data starts behind the 10-flit worm that started at t=1
        assert link.free_at - 2 == 11

    def test_mode_cycle_accounting(self):
        link = AdaptiveSWMRLink(hub=0, n_hubs=4)
        link.transmit(time=0, n_flits=5, broadcast=False)
        link.transmit(time=100, n_flits=3, broadcast=True)
        assert link.unicast_cycles == 5
        assert link.broadcast_cycles == 3

    def test_utilization(self):
        link = AdaptiveSWMRLink(hub=0, n_hubs=4)
        link.transmit(time=0, n_flits=25, broadcast=False)
        assert link.utilization(100) == pytest.approx(0.25)
        with pytest.raises(ValueError):
            link.utilization(0)

    def test_transitions_counted_with_idle_gaps(self):
        link = AdaptiveSWMRLink(hub=0, n_hubs=4)
        link.transmit(time=0, n_flits=2, broadcast=False)   # idle->uni (1)
        link.transmit(time=100, n_flits=2, broadcast=False)  # uni->idle->uni (2)
        assert link.mode_transitions == 3

    def test_no_transition_for_back_to_back_same_mode(self):
        link = AdaptiveSWMRLink(hub=0, n_hubs=4)
        link.transmit(time=0, n_flits=5, broadcast=False)
        # second message queued while first still transmitting: no idle gap
        link.transmit(time=0, n_flits=5, broadcast=False)
        assert link.mode_transitions == 1

    def test_rebias_for_back_to_back_mode_change(self):
        link = AdaptiveSWMRLink(hub=0, n_hubs=4)
        link.transmit(time=0, n_flits=5, broadcast=False)
        link.transmit(time=0, n_flits=5, broadcast=True)
        assert link.mode_transitions == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveSWMRLink(hub=5, n_hubs=4)
        with pytest.raises(ValueError):
            AdaptiveSWMRLink(hub=0, n_hubs=1)
        link = AdaptiveSWMRLink(hub=0, n_hubs=4)
        with pytest.raises(ValueError):
            link.transmit(time=-1, n_flits=1, broadcast=False)
        with pytest.raises(ValueError):
            link.transmit(time=0, n_flits=0, broadcast=False)


class TestReceiveNetwork:
    def test_single_cycle_delivery(self):
        net = ReceiveNetwork(cluster=0, cluster_size=16)
        assert net.deliver_unicast(time=10, n_flits=1) == 12  # 1 link + 1 flit

    def test_two_parallel_starnets(self):
        """Cores are statically split across the two networks: unicasts
        to different halves proceed in parallel; same-half unicasts
        queue (and thus stay FIFO)."""
        net = ReceiveNetwork(cluster=0, cluster_size=16)
        a = net.deliver_unicast(0, 10, local_index=0)
        b = net.deliver_unicast(0, 10, local_index=1)
        c = net.deliver_unicast(0, 10, local_index=2)
        assert a == b  # different halves: parallel
        assert c > a   # same half as index 0: queues behind it

    def test_broadcast_occupies_both_networks(self):
        net = ReceiveNetwork(cluster=0, cluster_size=16)
        net.deliver_broadcast(0, 10)
        # both halves are busy: any unicast queues
        assert net.deliver_unicast(0, 2, local_index=0) > 10
        assert net.deliver_unicast(0, 2, local_index=1) > 10

    def test_per_core_fifo_preserved(self):
        """A long then short message to the same core must stay ordered
        (the coherence protocol relies on this, see DESIGN.md)."""
        net = ReceiveNetwork(cluster=0, cluster_size=16)
        long_arrival = net.deliver_unicast(0, 10, local_index=4)
        short_arrival = net.deliver_unicast(1, 1, local_index=4)
        assert short_arrival > long_arrival

    def test_local_index_bounds(self):
        net = ReceiveNetwork(cluster=0, cluster_size=16)
        with pytest.raises(ValueError):
            net.deliver_unicast(0, 1, local_index=16)

    def test_bnet_and_starnet_same_timing(self):
        """Section IV-B: performance identical, energy different."""
        bnet = ReceiveNetwork(cluster=0, cluster_size=16, kind="bnet")
        star = ReceiveNetwork(cluster=0, cluster_size=16, kind="starnet")
        assert bnet.deliver_unicast(5, 2) == star.deliver_unicast(5, 2)

    def test_energy_counters_split_by_class(self):
        stats = NetworkStats()
        net = ReceiveNetwork(cluster=0, cluster_size=16, stats=stats)
        net.deliver_unicast(0, 2)
        net.deliver_broadcast(0, 3)
        assert stats.receive_net_unicast_flits == 2
        assert stats.receive_net_broadcast_flits == 3

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            ReceiveNetwork(cluster=0, cluster_size=16, kind="meshnet")


class TestAtacRouting:
    def test_cluster_routing_intra_stays_electrical(self, topo):
        net = AtacNetwork(topo, routing=ClusterRouting())
        net.send(0, 9, CONTROL_MSG_BITS, 0)  # same cluster
        assert net.stats.onet_unicasts == 0

    def test_cluster_routing_inter_uses_onet(self, topo):
        net = AtacNetwork(topo, routing=ClusterRouting())
        net.send(0, 7, CONTROL_MSG_BITS, 0)  # different cluster, only 7 hops
        assert net.stats.onet_unicasts == 1

    def test_distance_routing_short_intercluster_stays_electrical(self, topo):
        net = AtacNetwork(topo, routing=DistanceRouting(15))
        net.send(3, 4, CONTROL_MSG_BITS, 0)  # adjacent cores, different clusters
        assert net.stats.onet_unicasts == 0

    def test_distance_routing_long_uses_onet(self, topo):
        net = AtacNetwork(topo, routing=DistanceRouting(6))
        net.send(0, 63, CONTROL_MSG_BITS, 0)  # 14 hops
        assert net.stats.onet_unicasts == 1

    def test_distance_threshold_boundary(self, topo):
        """'At rthres or above it, a unicast packet is sent over the ONet.'"""
        r = DistanceRouting(14)
        assert r.use_onet(topo, 0, 63)          # exactly 14 hops -> ONet
        assert not DistanceRouting(15).use_onet(topo, 0, 63)

    def test_distance_all_never_uses_onet_for_unicasts(self, topo):
        net = AtacNetwork(topo, routing=distance_all(topo))
        net.send(0, 63, CONTROL_MSG_BITS, 0)
        assert net.stats.onet_unicasts == 0

    def test_broadcast_always_uses_onet(self, topo):
        for routing in (ClusterRouting(), DistanceRouting(15), distance_all(topo)):
            net = AtacNetwork(topo, routing=routing)
            net.send(0, BROADCAST, 88, 0)
            assert net.stats.onet_broadcasts == 1

    def test_routing_names(self, topo):
        assert ClusterRouting().name == "Cluster"
        assert DistanceRouting(15).name == "Distance-15"
        assert distance_all(topo).rthres >= 2 * topo.width


class TestAtacTiming:
    def test_onet_unicast_beats_mesh_at_long_distance(self, topo):
        """The ONet's zero-load advantage for cross-chip traffic."""
        atac = AtacNetwork(topo, routing=DistanceRouting(6))
        [(_, t_opt)] = atac.send(0, 63, CONTROL_MSG_BITS, 0)
        from repro.network.mesh import EMeshPure

        mesh = EMeshPure(topo)
        [(_, t_el)] = mesh.send(0, 63, CONTROL_MSG_BITS, 0)
        assert t_opt < t_el

    def test_broadcast_reaches_all_other_cores(self, topo):
        net = AtacNetwork(topo)
        deliveries = net.send(0, BROADCAST, 88, 0)
        assert {d for d, _ in deliveries} == set(range(64)) - {0}

    def test_broadcast_arrival_spread_is_small(self, topo):
        """Optical broadcast: all clusters hear the ring at once; only
        local delivery variance remains."""
        net = AtacNetwork(topo)
        deliveries = net.send(0, BROADCAST, 88, 0)
        arrivals = [a for _, a in deliveries]
        assert max(arrivals) - min(arrivals) <= 10

    def test_own_cluster_gets_broadcast_without_onet_receive(self, topo):
        net = AtacNetwork(topo)
        deliveries = dict(net.send(0, BROADCAST, 88, 0))
        own = min(deliveries[c] for c in topo.cluster_cores(0) if c != 0)
        other = min(deliveries[c] for c in topo.cluster_cores(3))
        assert own <= other

    def test_atac_name_by_configuration(self, topo):
        assert AtacNetwork(topo).name == "ATAC+"
        assert (
            AtacNetwork(topo, routing=ClusterRouting(), receive_net="bnet").name
            == "ATAC"
        )

    def test_onet_utilization_rollup(self, topo):
        net = AtacNetwork(topo, routing=DistanceRouting(0))
        net.send(0, 63, CONTROL_MSG_BITS, 0)
        u = net.onet_utilization(100)
        assert 0 < u < 0.05  # 2 flits on 1 of 4 channels over 100 cycles


class TestDistanceRoutingValidation:
    def test_negative_rthres_rejected(self):
        with pytest.raises(ValueError):
            DistanceRouting(-1)

    def test_rthres_zero_routes_all_intercluster_over_onet(self, topo):
        """Distance-0 degenerates to Cluster routing."""
        d0, cl = DistanceRouting(0), ClusterRouting()
        for src, dst in [(0, 63), (0, 7), (3, 4), (0, 9)]:
            assert d0.use_onet(topo, src, dst) == cl.use_onet(topo, src, dst)
