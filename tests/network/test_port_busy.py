"""Per-port occupancy of the meshes against a per-hop reference.

A mesh counts port occupancy once per route leg walk -- unicasts and
both kinds of broadcast alike -- and ``port_busy()`` expands the legs
back into per-port totals.  These tests
drive random unicast and broadcast traffic and require ``port_busy()``
to equal a plain accumulation over every hop of ``xy_route``
and every broadcast tree edge, with the sanitizer's port audit clean.
(``tests/sanitizer/test_fault_injection.py`` checks that the
double-reserve fault still trips that audit on every mesh kind.)
"""

import random

import pytest

from repro.network.atac import AtacNetwork
from repro.network.mesh import EMeshBCast, EMeshPure
from repro.network.topology import MeshTopology
from repro.network.types import BROADCAST, CONTROL_MSG_BITS, DATA_MSG_BITS
from repro.sanitizer.invariants import port_problems

from tests.network.test_topology import xy_route

NETWORKS = {"emesh-pure": EMeshPure, "emesh-bcast": EMeshBCast,
            "atac+": AtacNetwork}
KINDS = [("emesh-pure", 4), ("emesh-pure", 8), ("emesh-bcast", 4),
         ("emesh-bcast", 8), ("atac+", 8)]


def _port_index(width, u, v):
    """Output port of router ``u`` facing neighbour ``v`` (core*4 + E/W/S/N)."""
    direction = {1: 0, -1: 1, width: 2, -width: 3}[v - u]
    return u * 4 + direction


def _random_packets(n_cores, count, seed):
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


@pytest.mark.parametrize("kind,width", KINDS, ids=[f"{k}-w{w}" for k, w in KINDS])
def test_port_busy_equals_per_hop_accumulation(kind, width):
    topo = MeshTopology(width=width, cluster_width=4)
    net = NETWORKS[kind](topo)
    # Record every XY traversal the network makes (unicasts, and the
    # ATAC family's trips to a hub) without changing what it does.
    traversals = []
    traverse = net._traverse

    def recording_traverse(src, dst, t, n_flits):
        traversals.append((src, dst, n_flits))
        return traverse(src, dst, t, n_flits)

    net._traverse = recording_traverse
    if type(net)._send_unicast is type(net)._traverse:
        # A mesh's unicast entry point is ``_traverse`` itself.
        net._send_unicast = recording_traverse
    reference = [0] * (topo.n_cores * 4)

    def add_route(src, dst, n_flits):
        path = xy_route(topo, src, dst)
        for u, v in zip(path, path[1:]):
            reference[_port_index(width, u, v)] += n_flits

    for src, dst, bits, t in _random_packets(topo.n_cores, 3000, seed=width):
        net.send(src, dst, bits, t)
        n_flits = -(-bits // net.flit_bits)
        if dst != BROADCAST or kind == "atac+":
            continue
        if kind == "emesh-pure":
            for other in range(topo.n_cores):
                if other != src:
                    add_route(src, other, n_flits)
        else:
            for node, children in topo.broadcast_tree(src).items():
                for child in children:
                    reference[_port_index(width, node, child)] += n_flits
    for src, dst, n_flits in traversals:
        add_route(src, dst, n_flits)

    assert net.stats.broadcasts_sent > 0
    assert net.port_busy() == reference
    assert port_problems(net) == []
