"""Full-system simulator tests: cores, back-pressure, determinism."""

import tracemalloc

import pytest

from repro.coherence.directory import Protocol
from repro.network.registry import network_names
from repro.sim.config import SystemConfig, make_network
from repro.sim.system import ManycoreSystem
from repro.workloads.trace import BarrierOp, ComputeOp, CoreTrace, MemoryOp


def small_config(network="atac+", **kw):
    return SystemConfig(network=network, **kw).scaled(mesh_width=8)


def flat_traces(system, ops_fn):
    return {
        core: CoreTrace(core, ops_fn(core)) for core in system.compute_cores
    }


class TestConfig:
    def test_paper_defaults(self):
        cfg = SystemConfig()
        assert cfg.n_cores == 1024
        assert cfg.topology.n_clusters == 64
        assert cfg.flit_bits == 64
        assert cfg.l2_sets * cfg.l2_ways * 64 == 256 * 1024  # 256 KB L2
        assert cfg.l1_sets * cfg.l1_ways * 64 == 32 * 1024   # 32 KB L1
        assert cfg.hardware_sharers == 4

    def test_network_choices(self):
        for net in network_names():
            cfg = SystemConfig(network=net).scaled(8)
            make_network(cfg)  # must not raise

    def test_unknown_network_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(network="hypercube")

    def test_scaled_shrinks_caches(self):
        cfg = SystemConfig().scaled(8)
        assert cfg.l2_sets < SystemConfig().l2_sets
        assert cfg.n_cores == 64

    def test_atac_uses_bnet_and_cluster_routing(self):
        from repro.network.routing import ClusterRouting

        cfg = SystemConfig(network="atac").scaled(8)
        net = make_network(cfg)
        assert net.receive_net_kind == "bnet"
        assert isinstance(net.routing, ClusterRouting)


class TestFootprint:
    def test_paper_chip_builds_small(self):
        """Building the 1024-core chip allocates state for what a run
        touches, not for its geometry: the private L1-D and L2 caches of
        its 960 compute cores hold 614,400 sets, and building every one
        of them eagerly took ~80 MiB."""
        from repro.experiments.runspec import RunSpec

        config = RunSpec(app="radix", network="atac+", mesh_width=32).config()
        ManycoreSystem(config)  # warm-up: imports, per-width tables
        tracemalloc.start()
        try:
            system = ManycoreSystem(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert system.topology.n_cores == 1024
        assert peak < 16 * 2**20, f"{peak / 2**20:.1f} MiB"


class TestExecution:
    def test_compute_only_trace(self):
        s = ManycoreSystem(small_config())
        res = s.run(flat_traces(s, lambda c: [ComputeOp(100)]), app="t")
        assert res.completion_cycles == 100
        assert res.total_instructions == 100 * len(s.compute_cores)

    def test_memory_op_blocks_core(self):
        """An L2 miss stalls the core for the full round trip."""
        s = ManycoreSystem(small_config())
        res = s.run(
            flat_traces(s, lambda c: [MemoryOp(5000 + c)]), app="t"
        )
        # DRAM latency alone is 100 cycles
        assert res.completion_cycles > 100
        assert res.stalled_cycles > 0

    def test_barrier_couples_cores(self):
        """One slow core delays everyone past a barrier."""
        s = ManycoreSystem(small_config())
        slowest = s.compute_cores[0]

        def ops(core):
            work = 1000 if core == slowest else 10
            return [ComputeOp(work), BarrierOp(0), ComputeOp(5)]

        res = s.run(flat_traces(s, ops), app="t")
        assert res.completion_cycles >= 1005
        assert res.barriers_completed == 1

    def test_missing_trace_rejected(self):
        s = ManycoreSystem(small_config())
        traces = flat_traces(s, lambda c: [ComputeOp(1)])
        del traces[s.compute_cores[0]]
        with pytest.raises(ValueError):
            s.run(traces)

    def test_trace_for_memctrl_position_rejected(self):
        s = ManycoreSystem(small_config())
        traces = flat_traces(s, lambda c: [ComputeOp(1)])
        traces[s.memctrl_positions[0]] = CoreTrace(
            s.memctrl_positions[0], [ComputeOp(1)]
        )
        with pytest.raises(ValueError):
            s.run(traces)

    def test_ipc_reflects_stalls(self):
        s1 = ManycoreSystem(small_config())
        r1 = s1.run(flat_traces(s1, lambda c: [ComputeOp(100)]), app="t")
        s2 = ManycoreSystem(small_config())
        r2 = s2.run(
            flat_traces(
                s2, lambda c: [ComputeOp(50), MemoryOp(9000 + c), ComputeOp(50)]
            ),
            app="t",
        )
        assert r1.ipc > r2.ipc

    def test_network_backpressure_reaches_runtime(self):
        """The paper's core methodological claim: identical instruction
        streams complete at different times on different networks,
        because miss latency flows back into the cores."""
        shared = list(range(64))

        def ops(core):
            out = []
            for i in range(12):
                out.append(ComputeOp(2))
                out.append(MemoryOp(shared[(core + i) % len(shared)],
                                    is_write=(i % 4 == 0)))
            out.append(BarrierOp(0))
            return out

        cycles = {}
        for net in ("atac+", "emesh-pure"):
            s = ManycoreSystem(small_config(network=net))
            res = s.run(flat_traces(s, ops), app="t")
            cycles[net] = res.completion_cycles
            assert res.total_instructions == sum(
                CoreTrace(c, ops(c)).n_instructions for c in s.compute_cores
            )
        assert cycles["atac+"] != cycles["emesh-pure"]


class TestDeterminism:
    def test_identical_runs_identical_results(self):
        def run_once():
            s = ManycoreSystem(small_config())
            ops = lambda c: [
                ComputeOp(3), MemoryOp(100 + (c % 7), is_write=(c % 3 == 0)),
                MemoryOp(9000 + c), BarrierOp(0),
            ]
            return s.run(flat_traces(s, ops), app="t")

        a, b = run_once(), run_once()
        assert a.completion_cycles == b.completion_cycles
        assert a.network_stats.as_dict() == b.network_stats.as_dict()
        assert a.cache_counters == b.cache_counters


class TestHomeMapping:
    def test_homes_are_compute_cores(self):
        s = ManycoreSystem(small_config())
        for addr in range(200):
            assert s.home_of(addr) in s._compute_set

    def test_memctrl_for_is_same_cluster(self):
        s = ManycoreSystem(small_config())
        for core in s.compute_cores:
            mc = s.memctrl_for(core)
            assert s.topology.cluster_of(mc) == s.topology.cluster_of(core)

    def test_slices_are_clusters(self):
        s = ManycoreSystem(small_config())
        for core in s.compute_cores:
            assert s.slice_of_home(core) == s.topology.cluster_of(core)


class TestRunResult:
    def test_summary_fields(self):
        s = ManycoreSystem(small_config())
        res = s.run(flat_traces(s, lambda c: [ComputeOp(10)]), app="demo")
        summary = res.summary()
        assert summary["app"] == "demo"
        assert summary["network"] == "ATAC+"
        assert summary["cycles"] == 10

    def test_runtime_seconds(self):
        s = ManycoreSystem(small_config())
        res = s.run(flat_traces(s, lambda c: [ComputeOp(1000)]), app="t")
        assert res.runtime_s == pytest.approx(1e-6)  # 1000 cycles at 1 GHz


class TestDegenerateGeometries:
    def test_all_memctrl_topology_rejected(self):
        """cluster_width=1 makes every core a memory controller; the
        system must refuse with a clear message."""
        cfg = SystemConfig(mesh_width=4, cluster_width=1)
        with pytest.raises(ValueError, match="degenerate"):
            ManycoreSystem(cfg)

    def test_minimal_viable_chip(self):
        """The smallest sensible chip (2x2 clusters of 2x2 cores) runs."""
        cfg = SystemConfig(
            mesh_width=4, cluster_width=2, l1_sets=2, l2_sets=4,
        )
        s = ManycoreSystem(cfg)
        assert len(s.compute_cores) == 12
        res = s.run(
            {c: CoreTrace(c, [ComputeOp(5), MemoryOp(c)]) for c in s.compute_cores},
            app="mini",
        )
        assert res.completion_cycles > 5

    def test_wide_flit_single_flit_messages(self):
        """A 1024-bit flit swallows every message in one flit."""
        cfg = SystemConfig(flit_bits=1024).scaled(8)
        s = ManycoreSystem(cfg)
        res = s.run(
            {c: CoreTrace(c, [MemoryOp(9000 + c)]) for c in s.compute_cores},
            app="wide",
        )
        stats = res.network_stats
        assert stats.injected_flits == stats.packets_sent
