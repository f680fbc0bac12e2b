"""Tests for the energy accounting layer (Figures 7/17 mechanics)."""

import pytest

from repro.energy.accounting import ALL_KEYS, EnergyBreakdown, EnergyModel
from repro.energy.area import AreaModel
from repro.sim.config import SystemConfig
from repro.sim.system import ManycoreSystem
from repro.tech.core import CorePowerModel
from repro.tech.photonics import PhotonicParams
from repro.tech.scenarios import (
    ALL_SCENARIOS,
    SCENARIO_ATACP,
    SCENARIO_CONS,
    SCENARIO_IDEAL,
    SCENARIO_RINGTUNED,
)
from repro.workloads.splash import APP_PROFILES, generate_traces


@pytest.fixture(scope="module")
def atac_run():
    cfg = SystemConfig(network="atac+", rthres=8).scaled(8)
    s = ManycoreSystem(cfg)
    traces = generate_traces(
        APP_PROFILES["barnes"], s.topology,
        l2_lines=cfg.l2_sets * cfg.l2_ways, scale=0.4,
    )
    return cfg, s.run(traces, app="barnes")


@pytest.fixture(scope="module")
def mesh_run():
    cfg = SystemConfig(network="emesh-bcast").scaled(8)
    s = ManycoreSystem(cfg)
    traces = generate_traces(
        APP_PROFILES["barnes"], s.topology,
        l2_lines=cfg.l2_sets * cfg.l2_ways, scale=0.4,
    )
    return cfg, s.run(traces, app="barnes")


class TestBreakdownContainer:
    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            EnergyBreakdown(
                components={"warp_drive": 1.0}, scenario="s", app="a",
                network="n", runtime_s=1.0,
            )

    def test_rejects_negative_energy(self):
        with pytest.raises(ValueError):
            EnergyBreakdown(
                components={"l2": -1.0}, scenario="s", app="a",
                network="n", runtime_s=1.0,
            )

    def test_scope_sums(self):
        b = EnergyBreakdown(
            components={"l2": 2.0, "laser": 1.0, "core_ndd": 4.0},
            scenario="s", app="a", network="n", runtime_s=2.0,
        )
        assert b.cache_energy_j == 2.0
        assert b.network_energy_j == 1.0
        assert b.chip_energy_j == 3.0
        assert b.total_energy_j == 7.0
        assert b.edp() == 6.0
        assert b.edp(include_core=True) == 14.0


class TestScenarioPostProcessing:
    """Table IV flavors share one performance run (paper Section V-C)."""

    def test_cons_laser_dominates(self, atac_run):
        cfg, res = atac_run
        model = EnergyModel(cfg)
        cons = model.evaluate(res, SCENARIO_CONS)
        gated = model.evaluate(res, SCENARIO_ATACP)
        assert cons["laser"] > 20 * gated["laser"]

    def test_ring_tuning_only_without_athermal(self, atac_run):
        cfg, res = atac_run
        model = EnergyModel(cfg)
        assert model.evaluate(res, SCENARIO_ATACP)["ring_tuning"] == 0.0
        assert model.evaluate(res, SCENARIO_RINGTUNED)["ring_tuning"] > 0.0
        assert model.evaluate(res, SCENARIO_CONS)["ring_tuning"] > 0.0

    def test_atacp_close_to_ideal(self, atac_run):
        """Paper: 'ATAC+ has about the same energy as ATAC+(Ideal)'."""
        cfg, res = atac_run
        model = EnergyModel(cfg)
        ideal = model.evaluate(res, SCENARIO_IDEAL).chip_energy_j
        real = model.evaluate(res, SCENARIO_ATACP).chip_energy_j
        assert real / ideal < 1.05

    def test_laser_tiny_fraction_of_atacp(self, atac_run):
        """Paper: laser is ~2% of ATAC+ (network) energy."""
        cfg, res = atac_run
        b = EnergyModel(cfg).evaluate(res, SCENARIO_ATACP)
        assert b["laser"] / b.network_energy_j < 0.10

    def test_scenario_ordering(self, atac_run):
        """Ideal <= ATAC+ < RingTuned < Cons (each drops one feature)."""
        cfg, res = atac_run
        model = EnergyModel(cfg)
        totals = [
            model.evaluate(res, sc).chip_energy_j for sc in ALL_SCENARIOS
        ]
        assert totals == sorted(totals)

    def test_same_run_identical_nonoptical_terms(self, atac_run):
        cfg, res = atac_run
        model = EnergyModel(cfg)
        a = model.evaluate(res, SCENARIO_IDEAL)
        b = model.evaluate(res, SCENARIO_CONS)
        for key in ("enet_dynamic", "enet_ndd", "l2", "l1d", "core_ndd"):
            assert a[key] == b[key]


class TestMeshAccounting:
    def test_mesh_has_no_optical_terms(self, mesh_run):
        cfg, res = mesh_run
        b = EnergyModel(cfg).evaluate(res)
        assert b["laser"] == 0.0
        assert b["ring_tuning"] == 0.0
        assert b["hub"] == 0.0

    def test_caches_dominate_chip_energy(self, mesh_run):
        """Paper: cache energy dominates the network+cache total."""
        cfg, res = mesh_run
        b = EnergyModel(cfg).evaluate(res)
        assert b.cache_energy_j > 0.5 * b.chip_energy_j

    def test_all_components_nonnegative(self, mesh_run):
        cfg, res = mesh_run
        b = EnergyModel(cfg).evaluate(res)
        for k in ALL_KEYS:
            assert b[k] >= 0.0


    def test_hop_length(self):
        """One mesh hop is the 20 mm die edge over the mesh width."""
        assert EnergyModel(SystemConfig()).link.length_mm == pytest.approx(0.625)
        small = SystemConfig(network="emesh-pure").scaled(8)
        assert EnergyModel(small).link.length_mm == pytest.approx(2.5)


class TestCoreEnergyCoupling:
    def test_core_ndd_scales_with_runtime(self, atac_run, mesh_run):
        """Figure 17's mechanism: identical DD energy, NDD follows time."""
        cfg_a, res_a = atac_run
        cfg_m, res_m = mesh_run
        b_a = EnergyModel(cfg_a).evaluate(res_a)
        b_m = EnergyModel(cfg_m).evaluate(res_m)
        ratio_ndd = b_m["core_ndd"] / b_a["core_ndd"]
        ratio_time = res_m.runtime_s / res_a.runtime_s
        assert ratio_ndd == pytest.approx(ratio_time, rel=1e-6)

    def test_higher_ndd_fraction_raises_core_share(self, atac_run):
        cfg, res = atac_run
        low = EnergyModel(cfg, core_power=CorePowerModel(ndd_fraction=0.1))
        high = EnergyModel(cfg, core_power=CorePowerModel(ndd_fraction=0.4))
        assert (
            high.evaluate(res)["core_ndd"] > low.evaluate(res)["core_ndd"]
        )

    def test_core_dwarfs_cache_and_network(self, atac_run):
        """Paper Fig 17: 'the cache and network are dwarfed by the core'."""
        cfg, res = atac_run
        b = EnergyModel(cfg, core_power=CorePowerModel(ndd_fraction=0.4)).evaluate(res)
        assert b.core_energy_j > b.chip_energy_j


class TestWaveguideLossSensitivity:
    def test_laser_energy_monotonic_in_loss(self, atac_run):
        cfg, res = atac_run
        lasers = []
        for loss in (0.2, 1.0, 2.0, 4.0):
            model = EnergyModel(
                cfg, photonics=PhotonicParams(waveguide_loss_db_per_cm=loss)
            )
            lasers.append(model.evaluate(res, SCENARIO_ATACP)["laser"])
        assert lasers == sorted(lasers)
        assert lasers[-1] > 2 * lasers[0]


class TestAreaModel:
    def test_caches_dominate_area(self):
        """Paper Fig 10: caches are ~90% of chip area."""
        bd = AreaModel(SystemConfig(network="atac+")).breakdown()
        assert bd.cache_fraction > 0.70

    def test_photonics_near_40mm2(self):
        """Paper: waveguides + optical devices occupy ~40 mm^2."""
        bd = AreaModel(SystemConfig(network="atac+")).breakdown()
        assert 25 < bd["photonics"] < 60

    def test_mesh_has_no_photonics(self):
        bd = AreaModel(SystemConfig(network="emesh-bcast")).breakdown()
        assert bd["photonics"] == 0.0
        assert bd["hubs"] == 0.0

    def test_electrical_network_negligible(self):
        bd = AreaModel(SystemConfig(network="atac+")).breakdown()
        assert bd["enet"] < 0.1 * bd.total_mm2

    def test_directory_area_grows_with_sharers(self):
        """Fig 16's area statement: ~2x total from k=4 to k=1024."""
        small = AreaModel(SystemConfig(hardware_sharers=4)).breakdown()
        big = AreaModel(SystemConfig(hardware_sharers=1024)).breakdown()
        assert big["directory"] > 10 * small["directory"]
        assert 1.5 < big.total_mm2 / small.total_mm2 < 4.0
