"""Unit tests for the EMesh-Pure and EMesh-BCast baselines."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.network.mesh import EMeshBCast, EMeshPure
from repro.network.topology import MeshTopology
from repro.network.types import BROADCAST, CONTROL_MSG_BITS, DATA_MSG_BITS


@pytest.fixture
def topo():
    return MeshTopology(width=8, cluster_width=4)


class TestZeroLoadLatency:
    def test_unicast_wormhole_formula(self, topo):
        """Zero-load latency = hops * (router+link) + serialization."""
        net = EMeshPure(topo)
        # 14 hops, 2 flits
        [(dst, arrival)] = net.send(0, 63, CONTROL_MSG_BITS, 0)
        assert dst == 63
        assert arrival == 14 * 2 + 2

    def test_data_packet_serialization(self, topo):
        net = EMeshPure(topo)
        # 7 hops, 10 flits (600 bits)
        [(_, arrival)] = net.send(0, 7, DATA_MSG_BITS, 0)
        assert arrival == 7 * 2 + 10

    def test_one_hop(self, topo):
        net = EMeshPure(topo)
        [(_, arrival)] = net.send(0, 1, CONTROL_MSG_BITS, 0)
        assert arrival == 2 + 2

    def test_self_send_is_local(self, topo):
        net = EMeshPure(topo)
        [(dst, arrival)] = net.send(3, 3, CONTROL_MSG_BITS, 5)
        assert dst == 3 and arrival == 6
        assert net.stats.router_flit_traversals == 0

    def test_same_formula_on_bcast_mesh(self, topo):
        """EMesh-BCast unicasts behave identically to EMesh-Pure."""
        a, b = EMeshPure(topo), EMeshBCast(topo)
        [(_, t1)] = a.send(5, 60, CONTROL_MSG_BITS, 0)
        [(_, t2)] = b.send(5, 60, CONTROL_MSG_BITS, 0)
        assert t1 == t2


class TestContention:
    def test_second_packet_queues_behind_first(self, topo):
        net = EMeshPure(topo)
        [(_, t1)] = net.send(0, 7, CONTROL_MSG_BITS, 0)
        [(_, t2)] = net.send(0, 7, CONTROL_MSG_BITS, 0)
        # same path: second serializes behind the first at every hop
        assert t2 > t1

    def test_disjoint_paths_dont_interact(self, topo):
        net = EMeshPure(topo)
        [(_, t1)] = net.send(0, 7, CONTROL_MSG_BITS, 0)
        [(_, t2)] = net.send(56, 63, CONTROL_MSG_BITS, 0)
        assert t1 - 0 == t2 - 0

    def test_sends_must_be_time_ordered(self, topo):
        net = EMeshPure(topo)
        net.send(0, 1, CONTROL_MSG_BITS, 100)
        with pytest.raises(ValueError):
            net.send(0, 1, CONTROL_MSG_BITS, 50)


class TestBroadcasts:
    def test_pure_mesh_broadcast_reaches_everyone(self, topo):
        net = EMeshPure(topo)
        deliveries = net.send(0, BROADCAST, 88, 0)
        assert len(deliveries) == 63
        assert {d for d, _ in deliveries} == set(range(1, 64))

    def test_bcast_mesh_broadcast_reaches_everyone(self, topo):
        net = EMeshBCast(topo)
        deliveries = net.send(27, BROADCAST, 88, 0)
        assert len(deliveries) == 63
        assert {d for d, _ in deliveries} == set(range(64)) - {27}

    def test_pure_broadcast_serializes_at_source(self, topo):
        """EMesh-Pure: N-1 unicasts pile up at the source's ports --
        the last delivery is far later than the first."""
        net = EMeshPure(topo)
        deliveries = net.send(0, BROADCAST, 88, 0)
        arrivals = sorted(a for _, a in deliveries)
        # ~63 packets x 2 flits through <=2 output ports of the source
        assert arrivals[-1] - arrivals[0] > 40

    def test_tree_broadcast_much_faster_than_pure(self, topo):
        """The EMesh-BCast advantage the paper's Figure 4 shows."""
        pure, tree = EMeshPure(topo), EMeshBCast(topo)
        worst_pure = max(a for _, a in pure.send(0, BROADCAST, 88, 0))
        worst_tree = max(a for _, a in tree.send(0, BROADCAST, 88, 0))
        assert worst_tree < worst_pure / 2

    def test_tree_broadcast_bounded_by_diameter(self, topo):
        net = EMeshBCast(topo)
        deliveries = net.send(0, BROADCAST, 88, 0)
        worst = max(a for _, a in deliveries)
        diameter = 2 * (topo.width - 1)
        assert worst <= diameter * 2 + 2 * 2  # hops*2 + small slack

    def test_pure_broadcast_counts_n_unicast_energy(self, topo):
        """EMesh-Pure burns ~N x the link energy of the tree broadcast."""
        pure, tree = EMeshPure(topo), EMeshBCast(topo)
        pure.send(0, BROADCAST, 88, 0)
        tree.send(0, BROADCAST, 88, 0)
        assert (
            pure.stats.link_flit_traversals
            > 3 * tree.stats.link_flit_traversals
        )

    def test_tree_broadcast_link_traversals_exact(self, topo):
        """Tree broadcast: each of the 63 tree edges carries the packet once."""
        net = EMeshBCast(topo)
        net.send(0, BROADCAST, 88, 0)
        assert net.stats.link_flit_traversals == 63 * 2


class TestStatsAccounting:
    def test_unicast_counters(self, topo):
        net = EMeshPure(topo)
        net.send(0, 63, CONTROL_MSG_BITS, 0)
        s = net.stats
        assert s.packets_sent == 1
        assert s.unicasts_sent == 1
        assert s.injected_flits == 2
        assert s.received_unicast_flits == 2
        assert s.router_flit_traversals == 2 * 15  # 14 hops + ejection router
        assert s.link_flit_traversals == 2 * 14

    def test_broadcast_receiver_flits(self, topo):
        net = EMeshBCast(topo)
        net.send(0, BROADCAST, 88, 0)
        assert net.stats.received_broadcast_flits == 63 * 2

    def test_reset_stats(self, topo):
        net = EMeshPure(topo)
        net.send(0, 1, CONTROL_MSG_BITS, 0)
        old = net.reset_stats()
        assert old.packets_sent == 1
        assert net.stats.packets_sent == 0


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(src=st.integers(0, 63), dst=st.integers(0, 63))
    def test_latency_grows_with_distance_at_zero_load(self, src, dst):
        topo = MeshTopology(width=8, cluster_width=4)
        net = EMeshPure(topo)
        if src == dst:
            return
        [(_, arrival)] = net.send(src, dst, CONTROL_MSG_BITS, 0)
        assert arrival == topo.manhattan(src, dst) * 2 + 2
