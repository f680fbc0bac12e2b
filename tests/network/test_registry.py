"""The network architecture registry: descriptors, lookups, end-to-end.

Covers the registry contract itself (ordering, lookup errors, duplicate
rejection) and the property the registry exists to guarantee: every
registered descriptor builds a working timing + energy + area stack
without any consumer knowing the architecture by name, and the energy
and area models price the hardware the built network simulates.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import re
from pathlib import Path

import pytest

from repro.energy.accounting import EnergyModel
from repro.energy.area import AreaModel
from repro.experiments.runspec import RunSpec
from repro.network.registry import (
    DEFAULT_NETWORK,
    REGISTRY,
    NetworkDescriptor,
    UnknownNetworkError,
    experiment_axis,
    get_network,
    network_names,
    networks_for_fuzzing,
    register,
)
from repro.sim.config import SystemConfig, make_network
from repro.tech.photonics import OnetGeometry, PhotonicParams
from repro.tech.scenarios import SCENARIO_CONS

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


class TestRegistryContract:
    def test_registration_order_is_the_choice_order(self):
        names = network_names()
        assert names == tuple(REGISTRY)
        # the paper's four networks first (golden-pinned column order),
        # then the extension architectures
        assert names[:4] == ("atac+", "atac", "emesh-bcast", "emesh-pure")
        assert set(names[4:]) == {"corona", "hermes"}
        assert DEFAULT_NETWORK in names

    def test_unknown_network_error_lists_registered_names(self):
        with pytest.raises(UnknownNetworkError) as excinfo:
            get_network("omninet")
        message = str(excinfo.value)
        assert "omninet" in message
        for name in network_names():
            assert name in message

    def test_unknown_network_rejected_at_every_entry_point(self):
        with pytest.raises(ValueError):
            SystemConfig(network="omninet")
        with pytest.raises(ValueError):
            RunSpec(app="radix", network="omninet")

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register(REGISTRY["atac+"])
        assert network_names().count("atac+") == 1

    def test_duplicate_display_name_rejected(self):
        clone = dataclasses.replace(REGISTRY["atac+"], name="atac-clone")
        with pytest.raises(ValueError, match="already"):
            register(clone)
        assert "atac-clone" not in REGISTRY

    def test_display_name_round_trip(self):
        for name, descriptor in REGISTRY.items():
            assert get_network(name) is descriptor

    def test_receive_net_kind_of_built_network(self):
        def built(network, receive_net):
            config = SystemConfig(network=network, receive_net=receive_net)
            return make_network(config.scaled(8)).receive_net_kind

        # original ATAC is defined by its BNet regardless of the config
        assert built("atac", "starnet") == "bnet"
        assert built("atac+", "starnet") == "starnet"
        assert built("atac+", "bnet") == "bnet"

    def test_experiment_axes(self):
        runtime = experiment_axis("runtime")
        edp = experiment_axis("edp")
        sweep = experiment_axis("sweep")
        assert runtime == ("atac+", "emesh-bcast", "emesh-pure")
        assert edp == ("atac+", "emesh-bcast")
        # new architectures join the sweep grid automatically
        assert "corona" in sweep and "hermes" in sweep
        assert experiment_axis("nonexistent-axis") == ()

    def test_networks_for_fuzzing_gates_on_cluster_count(self):
        # w4 has a single cluster: only the electrical meshes fit
        assert networks_for_fuzzing(4) == ("emesh-bcast", "emesh-pure")
        # w8 has four clusters: every registered network fits
        assert networks_for_fuzzing(8) == network_names()

    def test_every_descriptor_field_has_a_reader(self):
        """Grep lint: a descriptor field nothing reads (``.field``) is
        write-only configuration and should be deleted, not carried."""
        sources = "\n".join(p.read_text() for p in SRC.rglob("*.py"))
        unread = [
            f.name
            for f in dataclasses.fields(NetworkDescriptor)
            if not re.search(rf"\.{f.name}\b", sources)
        ]
        assert not unread, f"NetworkDescriptor fields nobody reads: {unread}"

    def test_network_package_imports_no_pricing_code(self):
        """Layering lint: the timing models never import the energy or
        technology layers (those price the network, not the reverse)."""
        offenders = []
        for path in sorted((SRC / "network").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module:
                    modules = [node.module] + [
                        f"{node.module}.{alias.name}" for alias in node.names
                    ]
                else:
                    continue
                offenders += [
                    f"{path.name}:{node.lineno} {module}"
                    for module in modules
                    if module.split(".")[:2] in (
                        ["repro", "tech"], ["repro", "energy"]
                    )
                ]
        assert not offenders, f"repro.network imports pricing code: {offenders}"


@functools.cache
def _run(name: str, mesh_width: int = 8):
    """(config, result) of a short radix run on ``name``."""
    spec = RunSpec(app="radix", network=name, mesh_width=mesh_width, scale=0.05)
    return spec.config(), spec.execute()


OPTICAL = tuple(name for name in network_names() if get_network(name).optical)


class TestEveryDescriptorEndToEnd:
    @pytest.fixture(scope="class")
    def results(self):
        return {name: _run(name) for name in network_names()}

    @pytest.mark.parametrize("name", network_names())
    def test_builds_and_simulates(self, results, name):
        config, result = results[name]
        network = make_network(config)
        assert network.name == get_network(name).display_name
        assert result.network == network.name
        assert result.completion_cycles > 0

    @pytest.mark.parametrize("name", network_names())
    def test_energy_model_evaluates(self, results, name):
        config, result = results[name]
        breakdown = EnergyModel(config).evaluate(result)
        assert breakdown.total_energy_j > 0
        if get_network(name).optical:
            # architecture-specific wedges actually appeared (ring
            # tuning may be 0 under athermal scenarios, so key presence
            # is the contract there)
            assert breakdown["hub"] > 0
            assert "ring_tuning" in breakdown.components
            assert "laser" in breakdown.components
        else:
            assert breakdown["hub"] == 0.0
            assert breakdown["laser"] == 0.0

    @pytest.mark.parametrize("name", network_names())
    def test_area_model_evaluates(self, results, name):
        config, _ = results[name]
        breakdown = AreaModel(config).breakdown()
        assert breakdown.total_mm2 > 0
        has_photonics = get_network(name).optical
        assert ("photonics" in breakdown.components) == has_photonics

    @pytest.mark.parametrize("mesh_width", (8, 16))
    @pytest.mark.parametrize("name", OPTICAL)
    def test_pricing_reads_the_built_optical_inventory(self, name, mesh_width):
        """Area and ring tuning are sized by the channels the timing
        model simulates (Corona's broadcast ring, HERMES's hierarchy)."""
        config, result = _run(name, mesh_width)
        geometry = OnetGeometry(
            n_hubs=len(make_network(config).onet_links),
            data_width_bits=config.flit_bits,
            params=PhotonicParams(),
        )
        area = AreaModel(config).breakdown()
        assert area["photonics"] == geometry.photonics_area_mm2()
        # Cons prices the real (non-ideal) devices with thermal tuning
        assert not SCENARIO_CONS.ideal_devices
        cons = EnergyModel(config).evaluate(result, SCENARIO_CONS)
        assert cons["ring_tuning"] == (
            geometry.ring_tuning_power_w(athermal=False) * result.runtime_s
        )

    def test_atac_is_priced_with_its_bnet(self, results):
        # the config asks for StarNet; ATAC builds (and is priced with)
        # its BNet
        config, result = results["atac"]
        assert config.receive_net == "starnet"
        bnet = dataclasses.replace(config, receive_net="bnet")
        assert (
            EnergyModel(config).evaluate(result).components
            == EnergyModel(bnet).evaluate(result).components
        )
        area = AreaModel(config).breakdown()
        assert area.components == AreaModel(bnet).breakdown().components
        starnet = dataclasses.replace(config, network="atac+")
        assert area["receive_net"] != AreaModel(starnet).breakdown()["receive_net"]

    def test_energy_model_rejects_another_networks_run(self, results):
        config, _ = results["atac+"]
        _, mesh_result = results["emesh-bcast"]
        with pytest.raises(ValueError, match="EMesh-BCast"):
            EnergyModel(config).evaluate(mesh_result)

    def test_runspec_content_hash_distinguishes_networks(self):
        hashes = {
            RunSpec(app="radix", network=name, mesh_width=8).content_hash()
            for name in network_names()
        }
        assert len(hashes) == len(network_names())
