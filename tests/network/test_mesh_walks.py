"""Mesh broadcasts and unicasts against a per-edge replay.

The meshes walk shared per-width route legs: a unicast its X then Y
leg, an EMesh-Pure broadcast each destination's two legs in ascending
order, an EMesh-BCast broadcast the source's row legs and then every
row node's column legs.  The reference here knows nothing of legs: it
holds one ``PortResource`` per output port and reserves every hop of
``xy_route`` (unicasts, and EMesh-Pure's N-1 unicasts in
ascending destination order) or every edge of
``topology.broadcast_tree`` (EMesh-BCast, head times parent before
child, deliveries in ``broadcast_order``).  On random traffic both must
return the same deliveries and end with the same port state, counters
and per-port occupancy.
"""

import random
from dataclasses import asdict

import pytest

from repro.network.engine import HOP_LATENCY, Network, PortResource
from repro.network.mesh import EMeshBCast, EMeshPure
from repro.network.topology import MeshTopology
from repro.network.types import BROADCAST, CONTROL_MSG_BITS, DATA_MSG_BITS

from tests.network.test_port_busy import _port_index
from tests.network.test_topology import xy_route


class ReplayMesh(Network):
    """A mesh of ``PortResource`` objects walked hop by hop."""

    def __init__(self, topology, tree_broadcast):
        super().__init__(topology)
        self.tree_broadcast = tree_broadcast
        self.ports = [PortResource() for _ in range(topology.n_cores * 4)]

    @property
    def name(self):
        return "replay"

    def _reserve(self, u, v, head, n_flits):
        """Reserve the port u -> v for the head arriving at ``head``;
        returns the head's time at ``v``."""
        port = self.ports[_port_index(self.topology.width, u, v)]
        return port.reserve(head, n_flits) + HOP_LATENCY

    def _count(self, routers, links, n_flits):
        s = self.stats
        s.router_flit_traversals += n_flits * routers
        s.link_flit_traversals += n_flits * links
        s.router_arbitrations += routers

    def _route(self, src, dst, t, n_flits):
        path = xy_route(self.topology, src, dst)
        head = t
        for u, v in zip(path, path[1:]):
            head = self._reserve(u, v, head, n_flits)
        self._count(len(path), len(path) - 1, n_flits)
        return head + n_flits

    def _send_unicast(self, src, dst, t, n_flits):
        return self._route(src, dst, t, n_flits)

    def _send_broadcast(self, src, t, n_flits):
        topo = self.topology
        if not self.tree_broadcast:
            return [
                (dst, self._route(src, dst, t, n_flits))
                for dst in range(topo.n_cores) if dst != src
            ]
        parent_of = {
            child: parent
            for parent, children in topo.broadcast_tree(src).items()
            for child in children
        }
        heads = {src: t}
        order = topo.broadcast_order(src)
        for core in order:  # a parent always precedes its children
            parent = parent_of[core]
            heads[core] = self._reserve(parent, core, heads[parent], n_flits)
        self._count(topo.n_cores, topo.n_cores - 1, n_flits)
        return [(core, heads[core] + n_flits) for core in order]


def _traffic(n_cores, count, seed):
    """Time-ordered packets of both sizes, dense enough to queue, about
    one in twenty a broadcast."""
    rng = random.Random(seed)
    t = 0
    packets = []
    for _ in range(count):
        t += rng.randrange(3)
        src = rng.randrange(n_cores)
        if rng.random() < 0.05:
            dst = BROADCAST
        else:
            dst = rng.randrange(n_cores - 1)
            dst += dst >= src
        bits = rng.choice((CONTROL_MSG_BITS, DATA_MSG_BITS))
        packets.append((src, dst, bits, t))
    return packets


KINDS = {"emesh-pure": (EMeshPure, False), "emesh-bcast": (EMeshBCast, True)}


@pytest.mark.parametrize("width", [4, 8, 16])
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_mesh_matches_per_edge_replay(kind, width):
    topo = MeshTopology(width=width, cluster_width=4)
    cls, tree_broadcast = KINDS[kind]
    net = cls(topo)
    ref = ReplayMesh(topo, tree_broadcast)
    for src, dst, bits, t in _traffic(topo.n_cores, 600, seed=width):
        got = net.send(src, dst, bits, t)
        want = ref.send(src, dst, bits, t)
        assert got == want, (src, dst, t)
    assert net.stats.broadcasts_sent > 0
    assert asdict(net.stats) == asdict(ref.stats)
    assert net._free_at == [p.free_at for p in ref.ports]
    assert net.port_busy() == [p.busy_cycles for p in ref.ports]
