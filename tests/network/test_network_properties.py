"""Hypothesis property tests on network-wide invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.network.atac import AtacNetwork
from repro.network.mesh import EMeshBCast, EMeshPure
from repro.network.routing import DistanceRouting
from repro.network.topology import MeshTopology
from repro.network.types import BROADCAST, Packet


def _topo():
    return MeshTopology(width=8, cluster_width=4)


def _packets(draw_times, srcs, dsts, sizes):
    pkts = []
    t = 0
    for dt, s, d, sz in zip(draw_times, srcs, dsts, sizes):
        t += dt
        if s == d:
            d = (d + 1) % 64
        pkts.append((s, d, sz, t))
    return pkts


packet_stream = st.tuples(
    st.lists(st.integers(0, 5), min_size=1, max_size=40),
    st.lists(st.integers(0, 63), min_size=40, max_size=40),
    st.lists(st.integers(-1, 63), min_size=40, max_size=40),
    st.lists(st.sampled_from([88, 600]), min_size=40, max_size=40),
)


@settings(max_examples=25, deadline=None)
@given(stream=packet_stream)
@pytest.mark.parametrize("net_cls", [EMeshPure, EMeshBCast])
def test_every_packet_delivered_to_every_target(net_cls, stream):
    """Conservation: unicasts deliver once, broadcasts N-1 times, and
    arrivals strictly follow injections."""
    times, srcs, dsts, sizes = stream
    net = net_cls(_topo())
    pkts = _packets(times, srcs, dsts, sizes)
    for src, dst, size, t in pkts:
        deliveries = net.send(src, dst, size, t)
        if dst == BROADCAST:
            assert len(deliveries) == 63
            assert {c for c, _ in deliveries} == set(range(64)) - {src}
        else:
            assert [c for c, _ in deliveries] == [dst]
        for _, arrival in deliveries:
            assert arrival > t


@settings(max_examples=25, deadline=None)
@given(stream=packet_stream)
def test_atac_delivery_conservation(stream):
    times, srcs, dsts, sizes = stream
    net = AtacNetwork(_topo(), routing=DistanceRouting(6))
    pkts = _packets(times, srcs, dsts, sizes)
    for src, dst, size, t in pkts:
        deliveries = net.send(src, dst, size, t)
        expected = 63 if dst == BROADCAST else 1
        assert len(deliveries) == expected
        for _, arrival in deliveries:
            assert arrival > t


@settings(max_examples=25, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.integers(0, 63), st.integers(0, 63), st.sampled_from([88, 600])),
        min_size=2, max_size=20,
    )
)
def test_per_pair_fifo_order(pairs):
    """The coherence protocol's load-bearing assumption: two messages
    between the same (src, dst) pair are delivered in send order, on
    every network, regardless of size."""
    topo = _topo()
    for net in (EMeshPure(topo), EMeshBCast(topo),
                AtacNetwork(topo, routing=DistanceRouting(6))):
        last_arrival: dict = {}
        t = 0
        for src, dst, size in pairs:
            if src == dst:
                continue
            t += 1
            [(_, arrival)] = net.send(src, dst, size, t)
            key = (src, dst)
            if key in last_arrival:
                assert arrival > last_arrival[key], (
                    f"{type(net).__name__}: FIFO violated for {key}"
                )
            last_arrival[key] = arrival


@settings(max_examples=15, deadline=None)
@given(
    load_seed=st.integers(0, 5),
    n=st.integers(10, 60),
)
def test_stats_flit_conservation(load_seed, n):
    """Injected flits equal per-packet flit sums; receiver counters are
    consistent with delivery counts."""
    import random

    rng = random.Random(load_seed)
    net = AtacNetwork(_topo(), routing=DistanceRouting(6))
    total_flits = 0
    rx_unicast = 0
    rx_bcast = 0
    t = 0
    for _ in range(n):
        t += rng.randint(0, 3)
        src = rng.randrange(64)
        if rng.random() < 0.1:
            dst = BROADCAST
        else:
            dst = rng.randrange(63)
            if dst >= src:
                dst += 1
        size = rng.choice([88, 600])
        flits = Packet(src=src, dst=dst, size_bits=size, time=t).n_flits(64)
        total_flits += flits
        deliveries = net.send(src, dst, size, t)
        if dst == BROADCAST:
            rx_bcast += flits * len(deliveries)
        else:
            rx_unicast += flits
    s = net.stats
    assert s.injected_flits == total_flits
    assert s.received_unicast_flits == rx_unicast
    assert s.received_broadcast_flits == rx_bcast
