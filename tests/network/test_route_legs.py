"""Route and routing-verdict tables of freshly built networks.

A mesh walks each XY route as an X leg and a Y leg read from a table
shared by every mesh of the same width; the ATAC family decides ONet vs
ENet by an inlined copy of ``RoutingPolicy.use_onet``.  These tests pin
both against the plain definitions: the topology's XY route and the
policy's own verdict.
"""

import pytest

from repro.network.atac import AtacNetwork
from repro.network.engine import HOP_LATENCY
from repro.network.mesh import EMeshPure, _xy_legs
from repro.network.routing import (
    AdaptiveDistanceRouting,
    ClusterRouting,
    DistanceRouting,
    distance_all,
)
from repro.network.topology import MeshTopology
from repro.network.types import CONTROL_MSG_BITS

from tests.network.test_port_busy import _port_index
from tests.network.test_topology import xy_route


def _pairs(topo):
    n = topo.n_cores
    return [(s, d) for s in range(n) for d in range(n) if s != d]


@pytest.mark.parametrize("width", [4, 8, 16])
def test_route_ports_follow_xy_route(width):
    topo = MeshTopology(width=width, cluster_width=4)
    net = EMeshPure(topo)
    for src, dst in _pairs(topo):
        path = xy_route(topo, src, dst)
        expected = tuple(
            _port_index(width, u, v) for u, v in zip(path, path[1:])
        )
        # X leg to dst's column, then the Y leg from that corner to dst
        corner = src - src % width + dst % width
        xleg = net._xlegs[src * width + dst % width]
        yleg = net._ylegs[corner * width + dst // width]
        assert xleg + yleg == expected, (src, dst)


@pytest.mark.parametrize("width", [4, 8])
def test_traverse_reserves_the_xy_route(width):
    topo = MeshTopology(width=width, cluster_width=4)
    net = EMeshPure(topo)
    for src, dst in _pairs(topo):
        net._free_at[:] = [0] * len(net._free_at)
        net._xleg_flits[:] = [0] * len(net._xleg_flits)
        net._yleg_flits[:] = [0] * len(net._yleg_flits)
        path = xy_route(topo, src, dst)
        ports = [_port_index(width, u, v) for u, v in zip(path, path[1:])]
        arrival = net._traverse(src, dst, 0, 1)
        assert arrival == len(ports) * HOP_LATENCY + 1, (src, dst)
        # each hop's port is reserved once, one cycle later than the last
        assert [net._free_at[i] for i in ports] == [
            k * HOP_LATENCY + 1 for k in range(len(ports))
        ], (src, dst)
        assert sum(net.port_busy()) == len(ports), (src, dst)


def _verdict_matches_policy(net, policy):
    """Send one unicast per core pair and compare the path each took
    (seen as an ONet unicast or not) with ``policy.use_onet``."""
    topo = net.topology
    for src, dst in _pairs(topo):
        before = net.stats.onet_unicasts
        net.send(src, dst, CONTROL_MSG_BITS, 0)
        took_onet = net.stats.onet_unicasts - before == 1
        assert took_onet == policy.use_onet(topo, src, dst), (src, dst)


@pytest.mark.parametrize(
    "make_policy",
    [
        lambda topo: ClusterRouting(),
        lambda topo: DistanceRouting(5),
        lambda topo: DistanceRouting(15),
        lambda topo: DistanceRouting(25),
        distance_all,
    ],
    ids=["cluster", "distance-5", "distance-15", "distance-25", "distance-all"],
)
def test_inlined_verdict_equals_use_onet(make_policy):
    topo = MeshTopology(width=8, cluster_width=4)
    policy = make_policy(topo)
    _verdict_matches_policy(AtacNetwork(topo, routing=policy), policy)


def test_adaptive_threshold_moves_take_effect_on_the_next_send():
    topo = MeshTopology(width=8, cluster_width=4)
    policy = AdaptiveDistanceRouting(rthres_min=2, rthres_max=12, rthres=2)
    net = AtacNetwork(topo, routing=policy)
    onet = []
    for backlog in (100, 100, 100, 100, 0, 0):
        policy.observe_backlog(backlog)
        before = net.stats.onet_unicasts
        _verdict_matches_policy(net, policy)
        onet.append(net.stats.onet_unicasts - before)
    assert policy.rthres == 4
    # Raising the threshold moves pairs off the ONet; lowering it back
    # moves them on again.
    assert onet[0] > onet[3] and onet[3] < onet[5]


def test_same_width_networks_share_legs_not_port_state():
    a = EMeshPure(MeshTopology(width=8, cluster_width=4))
    b = EMeshPure(MeshTopology(width=8, cluster_width=4))
    assert _xy_legs(8) is _xy_legs(8)
    pkt = (0, 63, CONTROL_MSG_BITS, 0)
    [(_, first)] = a.send(*pkt)
    for _ in range(5):
        a.send(*pkt)
    assert b._free_at == [0] * len(b._free_at)
    assert b.port_busy() == [0] * len(b._free_at)
    [(_, fresh)] = b.send(*pkt)
    assert fresh == first
    # a's repeated sends queued behind each other; b's did not.
    [(_, queued)] = a.send(*pkt)
    assert queued > first
