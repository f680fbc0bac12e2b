"""Unit tests for the resource-reservation timing engine."""

from dataclasses import asdict

import pytest
from hypothesis import given, strategies as st

from repro.network import engine
from repro.network.atac import AtacNetwork
from repro.network.corona import CoronaNetwork
from repro.network.engine import PortResource
from repro.network.hermes import HermesNetwork
from repro.network.mesh import EMeshBCast, EMeshPure
from repro.network.stats import NetworkStats
from repro.network.topology import MeshTopology
from repro.network.types import BROADCAST


class TestPortResource:
    def test_uncontended_starts_immediately(self):
        p = PortResource()
        assert p.reserve(10, 3) == 10
        assert p.free_at == 13

    def test_contended_waits(self):
        p = PortResource()
        p.reserve(0, 10)
        assert p.reserve(5, 2) == 10

    def test_busy_accounting(self):
        p = PortResource()
        p.reserve(0, 4)
        p.reserve(0, 6)
        assert p.busy_cycles == 10

    def test_rejects_negative(self):
        p = PortResource()
        with pytest.raises(ValueError):
            p.reserve(-1, 1)
        with pytest.raises(ValueError):
            p.reserve(0, -1)

    @given(st.lists(st.tuples(st.integers(0, 100), st.integers(1, 10)), min_size=1, max_size=20))
    def test_reservations_never_overlap(self, reqs):
        """Property: sequential reservations form disjoint intervals."""
        reqs.sort()  # engine requires time-ordered requests
        p = PortResource()
        intervals = []
        for earliest, dur in reqs:
            start = p.reserve(earliest, dur)
            assert start >= earliest
            intervals.append((start, start + dur))
        for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
            assert s2 >= e1

    def test_reservation_order_is_service_order(self):
        """Reservation order wins: a later call queues behind an earlier
        one even if its ``earliest`` is smaller (FCFS in call order, the
        engine's time-ordering contract)."""
        p = PortResource()
        first = p.reserve(5, 10)  # occupies [5, 15)
        second = p.reserve(2, 3)  # asked for t=2, must wait for the port
        assert first == 5
        assert second == 15
        assert p.free_at == 18

    def test_zero_duration_reservation(self):
        """A zero-cycle reservation is a no-op on port state: it neither
        advances ``free_at`` nor accrues busy time, and still reports a
        correct start."""
        p = PortResource()
        p.reserve(0, 7)
        start = p.reserve(0, 0)
        assert start == 7  # queued behind the busy interval...
        assert p.free_at == 7  # ...but holds the port for zero cycles
        assert p.busy_cycles == 7
        assert p.reserve(3, 4) == 7  # next real reservation unaffected

    def test_zero_duration_on_idle_port(self):
        p = PortResource()
        assert p.reserve(9, 0) == 9
        assert p.free_at == 9
        assert p.busy_cycles == 0

    def test_saturation_free_at_runaway(self):
        """Offered load > capacity: ``free_at`` diverges linearly from
        wall-clock time -- the mechanism behind Figure 3's hockey stick."""
        p = PortResource()
        # 1 packet per cycle offered, 2 cycles of service each
        backlogs = []
        for t in range(100):
            p.reserve(t, 2)
            backlogs.append(p.free_at - (t + 1))
        # backlog grows monotonically, ~1 cycle per injected packet
        assert backlogs == sorted(backlogs)
        assert backlogs[-1] == pytest.approx(100, abs=2)
        # queueing delay experienced by the next arrival diverges too
        assert p.reserve(100, 2) - 100 == pytest.approx(101, abs=2)

    def test_underload_free_at_tracks_wall_clock(self):
        """Below capacity the port drains: no backlog accumulates."""
        p = PortResource()
        for t in range(0, 100, 4):  # every 4 cycles, 2 cycles of service
            start = p.reserve(t, 2)
            assert start == t  # never queued
        assert p.free_at == 98
        assert p.busy_cycles == 50


class TestTableITiming:
    def test_table_i_defaults(self):
        assert engine.ROUTER_DELAY == 1
        assert engine.LINK_DELAY == 1
        assert engine.HOP_LATENCY == 2
        assert engine.HUB_DELAY == 1
        assert engine.ONET_LINK_DELAY == 3
        assert engine.SELECT_DATA_LAG == 1
        assert engine.RECEIVE_NET_DELAY == 1
        assert engine.RECEIVE_NETS_PER_CLUSTER == 2


class TestNetworkStats:
    def test_latency_accumulation(self):
        """``send`` accumulates each unicast's latency into the stats."""
        net = EMeshPure(MeshTopology(width=8, cluster_width=4))
        # zero-load latency = hops * HOP_LATENCY + flits (64-bit flits)
        assert net.send(0, 1, 88, 0) == [(1, 1 * 2 + 2)]
        assert net.send(0, 63, 600, 10) == [(63, 10 + 14 * 2 + 10)]
        s = net.stats
        assert s.latency_count == 2
        assert s.mean_latency == (4 + 38) / 2
        assert s.latency_max == 38

    def test_mean_latency_empty(self):
        assert NetworkStats().mean_latency == 0.0

    def test_negative_latency_rejected(self):
        class _ArrivesEarly(EMeshPure):
            def _send_unicast(self, src, dst, t, n_flits):
                return t - 1

        net = _ArrivesEarly(MeshTopology(width=8, cluster_width=4))
        with pytest.raises(ValueError, match="latency must be non-negative"):
            net.send(0, 5, 88, 10)
        with pytest.raises(ValueError, match="latency must be non-negative"):
            net.send_stream([10], [0], [5], 88)

    def test_receiver_broadcast_fraction(self):
        s = NetworkStats()
        s.received_unicast_flits = 30
        s.received_broadcast_flits = 70
        assert s.receiver_broadcast_fraction() == pytest.approx(0.7)

    def test_broadcast_fraction_empty(self):
        assert NetworkStats().receiver_broadcast_fraction() == 0.0

    def test_offered_load(self):
        s = NetworkStats()
        s.injected_flits = 1000
        assert s.offered_load(cycles=100, n_cores=10) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            s.offered_load(0, 10)

    def test_unicasts_per_broadcast(self):
        s = NetworkStats()
        s.onet_unicasts, s.onet_broadcasts = 500, 5
        assert s.unicasts_per_broadcast() == 100
        s.onet_broadcasts = 0
        assert s.unicasts_per_broadcast() == float("inf")

    def test_as_dict_roundtrip(self):
        s = NetworkStats()
        s.packets_sent = 3
        d = s.as_dict()
        assert d["packets_sent"] == 3
        assert "onet_broadcast_cycles" in d


def network_state(net):
    """Everything a send can change: the counters, the time-order guard,
    mesh port state, each ONet link's state and each receive network's
    port state."""
    links = [
        (l.free_at, l.last_mode, l.unicast_cycles, l.broadcast_cycles,
         l.mode_transitions)
        for l in getattr(net, "onet_links", ())
    ]
    receive_ports = [
        [(p.free_at, p.busy_cycles) for p in rnet._ports]
        for rnet in getattr(net, "receive_nets", ())
    ]
    return (asdict(net.stats), net._last_send_time, net._free_at,
            net.port_busy(), links, receive_ports)


@pytest.fixture(
    params=[EMeshPure, EMeshBCast, AtacNetwork, CoronaNetwork, HermesNetwork],
    ids=lambda cls: cls.__name__,
)
def net(request):
    return request.param(MeshTopology(width=8, cluster_width=4))


class TestSendRejections:
    """``send`` takes bare scalars, so it is the one place a bad packet
    is caught; a rejected send leaves the network untouched."""

    @staticmethod
    def _rejected(net, *args, match):
        before = asdict(net.stats)
        with pytest.raises(ValueError, match=match):
            net.send(*args)
        assert asdict(net.stats) == before

    def test_negative_src(self, net):
        # -1 would otherwise index the per-core tables from their end
        self._rejected(net, -1, 5, 88, 0, match="src=-1")

    def test_src_past_the_last_core(self, net):
        # 64 would index past the per-core tables (or raise after the
        # counters moved)
        self._rejected(net, 64, 3, 88, 0, match="src=64")

    def test_dst_past_the_last_core(self, net):
        # 64 would wrap onto another core's route and be counted
        self._rejected(net, 0, 64, 88, 0, match="dst=64")
        assert net.send(0, 63, 88, 0)[0][0] == 63

    def test_negative_dst_other_than_broadcast(self, net):
        self._rejected(net, 0, -2, 88, 0, match="dst=-2")
        assert len(net.send(0, BROADCAST, 88, 0)) == 63

    @pytest.mark.parametrize("size_bits", [0, -64])
    def test_non_positive_size(self, net, size_bits):
        self._rejected(net, 0, 5, size_bits, 0, match="size_bits")
        net.send(0, 5, 88, 0)  # a cached size does not let a bad one by
        self._rejected(net, 0, 5, size_bits, 0, match="size_bits")

    def test_out_of_order_time(self, net):
        net.send(0, 5, 88, 10)
        self._rejected(net, 0, 5, 88, 9, match="time-ordered")
        net.send(0, 5, 88, 10)  # the guard kept t=10, not the rejected 9


class TestSendStream:
    """``send_stream`` validates the whole window before it sends any of
    it: a rejected window leaves the stats, the time-order guard and the
    port state as they were, however far into the window the bad packet
    sits."""

    @staticmethod
    def _rejected(net, times, srcs, dsts, size_bits, match):
        net.send(0, 5, 88, 10)
        before = network_state(net)
        with pytest.raises(ValueError, match=match):
            net.send_stream(times, srcs, dsts, size_bits)
        assert network_state(net) == before

    def test_unsorted_times(self, net):
        self._rejected(net, [10, 12, 11, 13], [1, 2, 3, 4], [5, 6, 7, 8], 88,
                       match="time-ordered: got t=11 after t=12")

    def test_time_before_the_last_send(self, net):
        self._rejected(net, [9, 12], [1, 2], [5, 6], 88,
                       match="time-ordered: got t=9 after t=10")

    @pytest.mark.parametrize("src,dst", [(-1, 5), (64, 5), (1, -2), (1, 64)])
    def test_out_of_range_ids(self, net, src, dst):
        self._rejected(net, [10, 11, 12], [1, 2, src], [5, BROADCAST, dst], 88,
                       match=f"src={src}, dst={dst}")

    @pytest.mark.parametrize("size_bits", [0, -64])
    def test_non_positive_size(self, net, size_bits):
        self._rejected(net, [10], [1], [5], size_bits, match="size_bits")

    @pytest.mark.parametrize("lengths", [(2, 1, 1), (1, 2, 1), (1, 1, 2)])
    def test_unequal_column_lengths(self, net, lengths):
        times, srcs, dsts = ([10, 11][:k] for k in lengths)
        self._rejected(net, times, srcs, dsts, 88, match="equal lengths")

    def test_empty_window_changes_nothing(self, net):
        net.send(0, 5, 88, 10)
        before = network_state(net)
        net.send_stream([], [], [], 88)
        assert network_state(net) == before

    def test_matches_send_per_packet(self, net):
        """Unicasts, a broadcast and a self-send, against ``send`` on a
        twin network: same stats, guard and port state."""
        twin = type(net)(MeshTopology(width=8, cluster_width=4))
        packets = [(0, 1, 63), (0, 1, 2), (3, 7, BROADCAST), (3, 9, 9),
                   (5, 60, 4), (9, 2, 61)]
        for t, src, dst in packets:
            twin.send(src, dst, 600, t)
        net.send_stream(*(list(c) for c in zip(*packets)), 600)
        assert network_state(net) == network_state(twin)
        assert net._last_send_time == 9
