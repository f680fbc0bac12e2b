"""Unit tests for trace types, the trace build and the synthetic
traffic generator."""

import hashlib
import random
from functools import partial
from math import log

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.ablations import _BacklogFeedback
from repro.experiments.fig03 import routing_schemes
from repro.experiments.runspec import LoadPointSpec
from repro.network.atac import AtacNetwork
from repro.network.corona import CoronaNetwork
from repro.network.hermes import HermesNetwork
from repro.network.mesh import EMeshBCast, EMeshPure
from repro.network.routing import AdaptiveDistanceRouting, DistanceRouting
from repro.network.topology import MeshTopology
from repro.network.types import BROADCAST, Packet
from repro.sim.config import SystemConfig
from repro.workloads.splash import (
    _PRIVATE_HOT_LINES, _WIDE_HOT_LINES, APP_ORDER, APP_PROFILES,
    _randbelow, generate_traces,
)
from repro.workloads.synthetic import (
    LoadSweepPoint, SyntheticTraffic, check_columns, run_load_point,
)
from repro.workloads.trace import BarrierOp, ComputeOp, CoreTrace, MemoryOp

from tests.network.test_engine import network_state


def trace_digest(traces: dict[int, CoreTrace]) -> str:
    """Deterministic digest of a trace set.

    The experiment runner's correctness rests on trace generation being
    a pure function of the spec's seed: a ``ProcessPoolExecutor``
    worker regenerating an app's traces must produce bit-identical
    streams to an in-process run, or parallel and serial sweeps would
    diverge.  This digest makes that contract cheap to assert.
    """
    h = hashlib.sha256()
    for core in sorted(traces):
        h.update(f"core{core}:".encode())
        for op in traces[core].ops:
            if isinstance(op, ComputeOp):
                h.update(f"c{op.cycles};".encode())
            elif isinstance(op, MemoryOp):
                h.update(f"m{op.address},{int(op.is_write)};".encode())
            else:
                h.update(f"b{op.barrier_id};".encode())
    return h.hexdigest()


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


#: ``trace_digest`` of every app at w8, scale 0.3, seed 42 and the w8
#: config's L2 size, as the simulator builds them.
TRACE_DIGESTS_W8 = {
    "dynamic_graph": "99ef8068e5e2abb7e4a888ccf1cd29b7bc54199810043ab6657f2a8e09292699",
    "radix": "5899d84213fa661c2f53cf48f0476730d6547e019478bf55f506b1a5045e364e",
    "barnes": "4d3dee4ccb47479e5617b644261d1be748d47ab31119d6f0bfc01560ef72c3c9",
    "fmm": "de4ace08e6809abd5ac866ff94a38757f000e2af429a654b402d945ec42a689e",
    "ocean_contig": "f623952d02b289b3536aed9ed7ca689f5eadeca58d86853257151dda68040823",
    "lu_contig": "b4638155e212e2b8cc2be2b4ff5f22692b490c5f80021a760375934efcf73761",
    "ocean_non_contig": "6ba5e453f45eb3dd307b300f2259a7ca597ff29a4a4f9e3e5d6c77de2155a812",
    "lu_non_contig": "96f8ca076531d0692209c19d0a7e4fb8c61f9efdda64cd42b1e23bd0c1a9f936",
}


def _build(app):
    config = SystemConfig(network="atac+").scaled(mesh_width=8)
    return generate_traces(APP_PROFILES[app], config.topology,
                           l2_lines=config.l2_sets * config.l2_ways,
                           scale=0.3, seed=42)


def _draw_bounds():
    """Every bound ``generate_traces`` draws below at w8 and w16."""
    bounds = {_PRIVATE_HOT_LINES}
    for width in (8, 16):
        config = SystemConfig(network="atac+").scaled(mesh_width=width)
        l2_lines = config.l2_sets * config.l2_ways
        for p in APP_PROFILES.values():
            bounds |= {
                min(_WIDE_HOT_LINES, p.wide_ws_lines), p.wide_ws_lines,
                p.group_ws_lines, max(8, int(p.private_ws_frac * l2_lines)),
            }
    return sorted(bounds)


class TestTraceBuild:
    @pytest.mark.parametrize("app", APP_ORDER)
    def test_trace_digest_pinned(self, app):
        assert trace_digest(_build(app)) == TRACE_DIGESTS_W8[app]

    @pytest.mark.parametrize("n", _draw_bounds())
    def test_randbelow_consumes_the_stream_like_randrange(self, n):
        for seed in range(5):
            ours, ref = random.Random(seed), random.Random(seed)
            below = _randbelow(ours)
            assert [below(n) for _ in range(500)] == [
                ref.randrange(n) for _ in range(500)
            ]
            assert ours.random() == ref.random()

    def test_randbelow_matches_randrange_with_bounds_interleaved(self):
        bounds = _draw_bounds() + [1, 2, 3, 2**31, 2**32 + 1]
        picks = random.Random(0).choices(bounds, k=5000)
        ours, ref = random.Random("42:barnes:0"), random.Random("42:barnes:0")
        below = _randbelow(ours)
        assert [below(n) for n in picks] == [ref.randrange(n) for n in picks]

    @pytest.mark.parametrize("app", APP_ORDER)
    def test_inlined_exponential_matches_expovariate(self, app):
        """The trace build's compute-op length draw equals the
        ``expovariate`` form it replaced, value and stream alike."""
        lam = 1.0 / APP_PROFILES[app].compute_per_mem
        for seed in range(5):
            ours, ref = random.Random(seed), random.Random(seed)
            rand = ours.random
            for _ in range(2000):
                x = -log(1.0 - rand()) / lam
                y = ref.expovariate(lam)
                assert x == y
                assert int(x) + 1 == max(1, int(y) + 1)
            assert ours.random() == ref.random()

    @staticmethod
    def _ops_by_value(traces):
        ops = {}
        for trace in traces.values():
            for op in trace.ops:
                ops.setdefault(op, set()).add(id(op))
        return ops

    def test_equal_ops_are_one_object_within_a_call(self):
        traces = _build("barnes")
        ops = self._ops_by_value(traces)
        assert all(len(ids) == 1 for ids in ops.values())
        assert {type(op) for op in ops} == {ComputeOp, MemoryOp, BarrierOp}
        assert {op.is_write for op in ops if type(op) is MemoryOp} == {False, True}

    def test_no_op_is_shared_between_calls(self):
        first, second = _build("barnes"), _build("barnes")
        assert trace_digest(first) == trace_digest(second)
        ids = [set().union(*self._ops_by_value(t).values())
               for t in (first, second)]
        assert ids[0].isdisjoint(ids[1])


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


def _fig3_networks(width):
    """Every network class ``run_load_point`` can drive at mesh width
    ``width``, by name: the six Fig 3 schemes on ATAC+, the other
    registered networks, and the adaptive ablation's feedback network.
    The names do not depend on the width."""
    topo = MeshTopology(width=width, cluster_width=4)
    nets = {
        policy.name: partial(AtacNetwork, topo, routing=policy)
        for policy in routing_schemes(topo)
    }
    for cls in (EMeshPure, EMeshBCast, CoronaNetwork, HermesNetwork):
        nets[cls.__name__] = partial(cls, topo)
    nets["BacklogFeedback"] = lambda: _BacklogFeedback(
        topo, routing=AdaptiveDistanceRouting(rthres_min=5, rthres_max=25))
    return nets


FIG3_NETWORKS = {width: _fig3_networks(width) for width in (8, 16)}

#: (mesh width, offered load, cycles, warm-up cycles) of each replay:
#: w8 at a load that queues, and w16 at 0.14, past Cluster's and
#: Distance-5's saturation (Fig 3 reads about 1000 cycles there).
REPLAY_INPUTS = ((8, 0.12, 700, 200), (16, 0.14, 300, 100))


class TestRunLoadPoint:
    @pytest.mark.parametrize("name", list(FIG3_NETWORKS[8]))
    def test_columns_match_a_packet_by_packet_replay(self, name):
        """Streaming the columns sends exactly what replaying one
        ``Packet`` per generated packet through ``send`` sends: the same
        point, counters, port occupancy, ONet link state and routing
        state (one seed each, broadcasts included, at each of
        ``REPLAY_INPUTS``)."""
        seed = list(FIG3_NETWORKS[8]).index(name) + 1
        for width, load, cycles, warmup in REPLAY_INPUTS:
            runs = []
            for drive in (run_load_point, _replay_packets):
                net = FIG3_NETWORKS[width][name]()
                traffic = SyntheticTraffic(width * width, load=load,
                                           broadcast_fraction=0.01, seed=seed)
                point = drive(net, traffic, cycles, warmup)
                runs.append((point, network_state(net), net.routing
                             if hasattr(net, "routing") else None))
            assert runs[0] == runs[1], width
            assert runs[0][0].packets > 1000
            assert runs[0][1][0]["broadcasts_sent"] > 0

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
