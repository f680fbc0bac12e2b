"""End-to-end integration tests for the paper's qualitative claims.

These run the whole stack (workload -> cores -> coherence -> network ->
energy) at reduced scale and assert the *shape* of each headline
result.  Benchmark-scale numbers live in benchmarks/ and EXPERIMENTS.md.
"""

import pytest

from repro.energy.accounting import EnergyModel
from repro.experiments.runner import Runner
from repro.experiments.runspec import RunSpec
from repro.experiments.store import ResultStore
from repro.tech.scenarios import SCENARIO_ATACP


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """``run(app, network, **spec_fields) -> (config, result)`` at w16
    and scale 0.35 unless given.  One runner on a private store serves
    the module, so a run several tests read is simulated once."""
    store = ResultStore(tmp_path_factory.mktemp("paper_claims"))
    runner = Runner(jobs=1, store=store, progress=False)

    def run(app: str, network: str, mesh_width: int = 16,
            scale: float = 0.35, **spec_fields):
        spec = RunSpec(app, network, mesh_width=mesh_width, scale=scale,
                       **spec_fields)
        return spec.config(), runner.run_one(spec)

    return run


@pytest.fixture(scope="module")
def barnes_by_network(run):
    return {net: run("barnes", net) for net in
            ("atac+", "emesh-bcast", "emesh-pure")}


class TestFigure4Shape:
    def test_atacp_fastest_on_broadcast_heavy_app(self, barnes_by_network):
        cycles = {n: r.completion_cycles for n, (_, r) in barnes_by_network.items()}
        assert cycles["atac+"] <= cycles["emesh-bcast"]
        assert cycles["emesh-bcast"] < cycles["emesh-pure"]

    def test_emesh_pure_collapses_on_broadcasts(self, barnes_by_network):
        """'without hardware broadcast support, EMesh-Pure ... severely
        degrad[es] performance for broadcast-heavy applications'."""
        cycles = {n: r.completion_cycles for n, (_, r) in barnes_by_network.items()}
        assert cycles["emesh-pure"] > 1.5 * cycles["atac+"]

    def test_low_sharing_app_insensitive_to_broadcast_support(self, run):
        _, pure = run("lu_contig", "emesh-pure")
        _, bcast = run("lu_contig", "emesh-bcast")
        assert pure.completion_cycles == pytest.approx(
            bcast.completion_cycles, rel=0.05
        )


class TestFigure8Shape:
    def test_edp_ordering(self, barnes_by_network):
        edp = {}
        for net, (cfg, res) in barnes_by_network.items():
            b = EnergyModel(cfg).evaluate(res, SCENARIO_ATACP)
            edp[net] = b.edp()
        assert edp["atac+"] <= edp["emesh-bcast"] < edp["emesh-pure"]

    def test_energy_savings_come_from_runtime(self, barnes_by_network):
        """The headline insight: most of ATAC+'s energy win over the
        meshes is *time-proportional* (NDD) energy avoided by finishing
        sooner, not lower network energy per event."""
        (cfg_a, res_a) = barnes_by_network["atac+"]
        (cfg_p, res_p) = barnes_by_network["emesh-pure"]
        e_a = EnergyModel(cfg_a).evaluate(res_a)
        e_p = EnergyModel(cfg_p).evaluate(res_p)
        cache_delta = e_p.cache_energy_j - e_a.cache_energy_j
        assert cache_delta > 0
        time_ratio = res_p.runtime_s / res_a.runtime_s
        cache_ratio = e_p.cache_energy_j / e_a.cache_energy_j
        # cache energy tracks runtime (leakage-dominated NDD)
        assert cache_ratio == pytest.approx(time_ratio, rel=0.35)


class TestSequenceNumbersInAction:
    def test_out_of_order_machinery_exercised(self, run):
        """Under ATAC+ distance routing, broadcasts (ONet) and unicasts
        (often ENet) take different routes; the run must exercise the
        Section IV-C1 buffering at least somewhere, and still complete
        correctly."""
        totals = {"buffered": 0, "early": 0}
        for seed_app in ("barnes", "dynamic_graph", "fmm"):
            cfg, res = run(seed_app, "atac+", scale=0.5)
            totals["buffered"] += res.cache_counters.bcast_invs_buffered
            totals["early"] += res.cache_counters.unicasts_buffered_early
        assert totals["buffered"] + totals["early"] > 0


class TestProtocolComparisonShape:
    def test_dirkb_slower_on_broadcast_heavy_app(self, run):
        """Fig 14: Dir_kB's whole-chip ack storms cost performance."""
        from repro.coherence.directory import Protocol

        _, ack = run("barnes", "atac+", protocol=Protocol.ACKWISE)
        _, dkb = run("barnes", "atac+", protocol=Protocol.DIRKB)
        assert dkb.completion_cycles > ack.completion_cycles

    def test_dirkb_penalty_worse_on_mesh(self, run):
        """Fig 14: 'The performance degradation is felt to a greater
        extent on the EMesh-BCast network.'"""
        from repro.coherence.directory import Protocol

        _, a_ack = run("barnes", "atac+", protocol=Protocol.ACKWISE)
        _, a_dkb = run("barnes", "atac+", protocol=Protocol.DIRKB)
        _, m_ack = run("barnes", "emesh-bcast", protocol=Protocol.ACKWISE)
        _, m_dkb = run("barnes", "emesh-bcast", protocol=Protocol.DIRKB)
        atac_penalty = a_dkb.completion_cycles / a_ack.completion_cycles
        mesh_penalty = m_dkb.completion_cycles / m_ack.completion_cycles
        assert mesh_penalty > atac_penalty * 0.95  # at least comparable


class TestSharerSweepShape:
    def test_runtime_insensitive_to_k(self, run):
        """Fig 15: 'little runtime variation from 4 to 1024 sharers'."""
        cycles = []
        for k in (4, 16, 1024):
            _, res = run("fmm", "atac+", hardware_sharers=k)
            cycles.append(res.completion_cycles)
        spread = (max(cycles) - min(cycles)) / min(cycles)
        assert spread < 0.30

    def test_energy_grows_with_k(self, run):
        """Fig 16: energy grows (directory-driven) with k."""
        energies = []
        for k in (4, 1024):
            cfg, res = run("fmm", "atac+", hardware_sharers=k)
            energies.append(EnergyModel(cfg).evaluate(res).chip_energy_j)
        # at this small, traffic-dense scale the directory's share is
        # diluted; the benchmark-scale Fig 16 run shows the full ~2x
        assert energies[1] > 1.1 * energies[0]


class TestTableVShape:
    def test_link_utilization_modest(self, run):
        """Table V: links idle most of the time (6-29% utilization)."""
        for app in ("barnes", "lu_contig"):
            _, res = run(app, "atac+")
            assert 0.0 <= res.onet_utilization < 0.5

    def test_broadcast_heavy_app_has_low_unicast_ratio(self, run):
        _, barnes = run("barnes", "atac+")
        _, ocean = run("ocean_non_contig", "atac+")
        assert barnes.unicasts_per_broadcast < ocean.unicasts_per_broadcast


class TestStarNetVsBNet:
    def test_same_performance_different_energy(self, run):
        """Section IV-B: StarNet == BNet performance; unicast-heavy apps
        save energy with the StarNet."""
        out = {
            rn: run("ocean_contig", "atac+", rthres=0, receive_net=rn)
            for rn in ("starnet", "bnet")
        }
        (s_cfg, s_res), (b_cfg, b_res) = out["starnet"], out["bnet"]
        assert s_res.completion_cycles == b_res.completion_cycles
        e_s = EnergyModel(s_cfg).evaluate(s_res)["receive_net"]
        e_b = EnergyModel(b_cfg).evaluate(b_res)["receive_net"]
        assert e_s < e_b
