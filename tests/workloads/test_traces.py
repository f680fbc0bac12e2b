"""Unit tests for trace types and the synthetic traffic generator."""

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.fig03 import routing_schemes
from repro.experiments.runspec import LoadPointSpec
from repro.network.atac import AtacNetwork
from repro.network.mesh import EMeshPure
from repro.network.routing import DistanceRouting
from repro.network.topology import MeshTopology
from repro.network.types import BROADCAST, Packet
from repro.workloads.synthetic import (
    LoadSweepPoint, SyntheticTraffic, check_columns, run_load_point,
)
from repro.workloads.trace import BarrierOp, ComputeOp, CoreTrace, MemoryOp


class TestTraceOps:
    def test_compute_op_validation(self):
        with pytest.raises(ValueError):
            ComputeOp(0)

    def test_memory_op_validation(self):
        with pytest.raises(ValueError):
            MemoryOp(-1)

    def test_barrier_op_validation(self):
        with pytest.raises(ValueError):
            BarrierOp(-1)

    def test_trace_instruction_count(self):
        t = CoreTrace(0, [ComputeOp(10), MemoryOp(5), BarrierOp(0), MemoryOp(6)])
        assert t.n_instructions == 13
        assert t.n_memory_ops == 2
        assert t.n_barriers == 1

    def test_trace_core_validation(self):
        with pytest.raises(ValueError):
            CoreTrace(-1, [])


def _rows(cols):
    """The generated columns as one (src, dst, time) row per packet."""
    return list(zip(cols.srcs, cols.dsts, cols.times))


class TestSyntheticTraffic:
    def test_deterministic(self):
        a = SyntheticTraffic(64, load=0.1, seed=3).generate(100)
        b = SyntheticTraffic(64, load=0.1, seed=3).generate(100)
        assert _rows(a) == _rows(b)

    def test_seed_changes_traffic(self):
        a = SyntheticTraffic(64, load=0.1, seed=3).generate(200)
        b = SyntheticTraffic(64, load=0.1, seed=4).generate(200)
        assert _rows(a) != _rows(b)

    def test_time_ordered(self):
        times = SyntheticTraffic(64, load=0.2, seed=1).generate(200).times
        assert times == sorted(times)

    def test_no_self_sends(self):
        cols = SyntheticTraffic(16, load=0.5, seed=2).generate(300)
        for src, dst in zip(cols.srcs, cols.dsts):
            if dst != BROADCAST:
                assert dst != src

    def test_load_approximately_met(self):
        n_cores, cycles, load = 64, 2000, 0.2
        cols = SyntheticTraffic(n_cores, load=load, seed=5).generate(cycles)
        flits = len(cols) * -(-cols.size_bits // 64)
        measured = flits / (cycles * n_cores)
        assert measured == pytest.approx(load, rel=0.15)

    def test_broadcast_fraction(self):
        cols = SyntheticTraffic(
            64, load=0.3, broadcast_fraction=0.1, seed=6
        ).generate(2000)
        frac = cols.dsts.count(BROADCAST) / len(cols)
        assert frac == pytest.approx(0.1, abs=0.02)

    def test_zero_broadcast_fraction(self):
        cols = SyntheticTraffic(
            64, load=0.3, broadcast_fraction=0.0, seed=6
        ).generate(500)
        assert BROADCAST not in cols.dsts

    def test_matches_reference_packets_from_the_same_draws(self):
        n, cycles, seed = 16, 400, 9
        traffic = SyntheticTraffic(
            n, load=0.4, broadcast_fraction=0.2, packet_bits=600, seed=seed
        )
        rng = np.random.default_rng(seed)
        hits = np.flatnonzero(rng.random(cycles * n) < traffic.p_inject)
        is_bcast = rng.random(hits.size) < 0.2
        others = rng.integers(0, n - 1, size=hits.size)
        expected = []
        for hit, bcast, other in zip(hits, is_bcast, others):
            t, src = divmod(int(hit), n)
            dst = int(other) + (int(other) >= src)
            expected.append((src, BROADCAST if bcast else dst, t))
        cols = traffic.generate(cycles)
        assert _rows(cols) == expected
        assert len(cols) == len(expected) and cols.size_bits == 600
        assert BROADCAST in cols.dsts
        assert all(
            type(v) is int for row in _rows(cols) for v in row
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticTraffic(1, load=0.1)
        with pytest.raises(ValueError):
            SyntheticTraffic(16, load=0.0)
        with pytest.raises(ValueError):
            SyntheticTraffic(16, load=0.1, broadcast_fraction=1.5)
        with pytest.raises(ValueError):
            SyntheticTraffic(16, load=0.1).generate(0)
        with pytest.raises(ValueError, match="packet_bits"):
            SyntheticTraffic(16, load=0.1, packet_bits=0)

    @pytest.mark.parametrize("column,value", [
        ("times", -1), ("times", 10),        # outside [0, cycles)
        ("srcs", -1), ("srcs", 4),           # not a core id
        ("dsts", -2), ("dsts", 4),           # neither a core nor BROADCAST
    ])
    def test_range_check_rejects_an_out_of_range_column(self, column, value):
        cols = {"times": [0, 3, 9], "srcs": [0, 1, 3], "dsts": [1, BROADCAST, 0]}
        check_columns(*(np.array(c) for c in cols.values()), 4, 10)
        cols[column][1] = value
        with pytest.raises(ValueError, match="packet 1 out of range"):
            check_columns(*(np.array(c) for c in cols.values()), 4, 10)

    def test_generate_range_checks_what_it_draws(self, monkeypatch):
        """A destination draw shifted past the last core is caught by
        ``generate`` itself, before any packet reaches a network."""
        default_rng = np.random.default_rng

        class ShiftedDestinations:
            def __init__(self, seed):
                self.rng = default_rng(seed)
                self.random = self.rng.random

            def integers(self, low, high, size):
                return self.rng.integers(low, high, size=size) + high

        monkeypatch.setattr(np.random, "default_rng", ShiftedDestinations)
        with pytest.raises(ValueError, match="out of range"):
            SyntheticTraffic(16, load=0.5, broadcast_fraction=0.0).generate(50)


def _replay_packets(network, traffic, cycles, warmup_cycles):
    """Reference for ``run_load_point``: one validated ``Packet`` record
    per generated packet, sent one by one, the stats reset before the
    first packet of the measured window."""
    cols = traffic.generate(cycles)
    packets = [
        Packet(src, dst, cols.size_bits, t)
        for t, src, dst in zip(cols.times, cols.srcs, cols.dsts)
    ]
    pending_reset = True
    for pkt in packets:
        if pending_reset and pkt.time >= warmup_cycles:
            network.reset_stats()
            pending_reset = False
        network.send(pkt.src, pkt.dst, pkt.size_bits, pkt.time)
    if pending_reset:
        network.reset_stats()
    stats = network.stats
    return LoadSweepPoint(
        offered_load=traffic.load,
        measured_load=stats.offered_load(cycles - warmup_cycles,
                                         traffic.n_cores),
        mean_latency=stats.mean_latency,
        max_latency=stats.latency_max,
        packets=stats.packets_sent,
        saturated=stats.mean_latency > 400.0,
    )


class TestRunLoadPoint:
    @pytest.mark.parametrize(
        "scheme", range(6),
        ids=[s.name for s in routing_schemes(MeshTopology(8, 4))],
    )
    def test_columns_match_a_packet_by_packet_replay(self, scheme):
        """The column walk sends exactly what replaying one ``Packet``
        per generated packet sends (Fig 3 schemes at w8, one seed
        each, loads high enough to queue and broadcasts included)."""
        topo = MeshTopology(width=8, cluster_width=4)
        runs = []
        for drive in (run_load_point, _replay_packets):
            policy = routing_schemes(topo)[scheme]
            net = AtacNetwork(topo, routing=policy)
            traffic = SyntheticTraffic(64, load=0.12, broadcast_fraction=0.01,
                                       seed=scheme + 1)
            point = drive(net, traffic, 700, 200)
            runs.append((point, asdict(net.stats), net.stats.broadcasts_sent))
        assert runs[0] == runs[1]
        assert runs[0][0].packets > 1000 and runs[0][2] > 0

    def test_low_load_near_zero_load_latency(self):
        topo = MeshTopology(width=8, cluster_width=4)
        net = EMeshPure(topo)
        traffic = SyntheticTraffic(64, load=0.01, broadcast_fraction=0.0, seed=1)
        pt = run_load_point(net, traffic, cycles=600, warmup_cycles=100)
        # avg distance ~5.3 hops -> ~12-14 cycles zero-load
        assert 5 < pt.mean_latency < 30
        assert not pt.saturated

    def test_overload_saturates(self):
        topo = MeshTopology(width=8, cluster_width=4)
        net = EMeshPure(topo)
        traffic = SyntheticTraffic(64, load=0.9, broadcast_fraction=0.0, seed=1)
        pt = run_load_point(net, traffic, cycles=800, warmup_cycles=100)
        assert pt.saturated
        assert pt.mean_latency > 100

    def test_latency_monotonic_in_load(self):
        topo = MeshTopology(width=8, cluster_width=4)
        latencies = []
        for load in (0.02, 0.15, 0.5):
            net = EMeshPure(topo)
            traffic = SyntheticTraffic(64, load=load, broadcast_fraction=0.0, seed=1)
            pt = run_load_point(net, traffic, cycles=700, warmup_cycles=100)
            latencies.append(pt.mean_latency)
        assert latencies == sorted(latencies)

    def test_optical_counters_survive_warmup_reset(self):
        """The ONet links and StarNets share the network's counter
        bundle, so after the warm-up reset they keep counting into the
        bundle ``network.stats`` reads."""
        topo = MeshTopology(width=8, cluster_width=4)
        net = AtacNetwork(topo, routing=DistanceRouting(0))
        traffic = SyntheticTraffic(64, load=0.05, broadcast_fraction=0.0, seed=1)
        run_load_point(net, traffic, cycles=600, warmup_cycles=100)
        assert net.stats.onet_unicasts > 0
        assert net.stats.receive_net_unicast_flits > 0

    @pytest.mark.parametrize("flit_bits", [32, 64])
    def test_measured_load_tracks_offered_load(self, flit_bits):
        """The traffic is sized for the spec's flit width, so an 88-bit
        packet counts 3 flits at 32-bit flits and 2 at 64-bit."""
        point = LoadPointSpec(
            routing="distance-5", load=0.06, mesh_width=8, flit_bits=flit_bits
        ).execute()
        assert point.measured_load == pytest.approx(0.06, rel=0.1)

    def test_warmup_validation(self):
        topo = MeshTopology(width=8, cluster_width=4)
        net = EMeshPure(topo)
        traffic = SyntheticTraffic(64, load=0.1)
        with pytest.raises(ValueError):
            run_load_point(net, traffic, cycles=100, warmup_cycles=100)

    def test_no_packet_after_warmup_measures_nothing(self):
        """Warm-up traffic is never reported, even when no packet
        follows the warm-up window to trigger the stats reset."""
        topo = MeshTopology(width=8, cluster_width=4)
        traffic = SyntheticTraffic(64, load=0.0004, seed=2)
        times = traffic.generate(600).times
        assert times and max(times) < 500
        pt = run_load_point(AtacNetwork(topo), traffic, cycles=600,
                            warmup_cycles=500)
        assert (pt.packets, pt.measured_load, pt.mean_latency) == (0, 0.0, 0.0)
        assert pt.max_latency == 0
