"""Cross-validation: analytic latency model vs the event-driven engine.

DESIGN.md section 8 flags the packet-level wormhole approximation for
validation: at zero load the engine must match the closed forms
*exactly*.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.network.analytic import AnalyticModel
from repro.network.atac import AtacNetwork
from repro.network.mesh import EMeshBCast, EMeshPure
from repro.network.routing import ClusterRouting, DistanceRouting
from repro.network.topology import MeshTopology
from repro.network.types import BROADCAST, CONTROL_MSG_BITS, DATA_MSG_BITS


@pytest.fixture
def topo():
    return MeshTopology(width=8, cluster_width=4)


@pytest.fixture
def model(topo):
    return AnalyticModel(topo)


class TestMeshCrossValidation:
    @settings(max_examples=40, deadline=None)
    @given(src=st.integers(0, 63), dst=st.integers(0, 63),
           size=st.sampled_from([88, 600, 64, 128]))
    def test_unicast_zero_load_exact(self, src, dst, size):
        topo = MeshTopology(width=8, cluster_width=4)
        model = AnalyticModel(topo)
        net = EMeshPure(topo)
        [(_, arrival)] = net.send(src, dst, size, 0)
        assert arrival == model.mesh_unicast_latency(src, dst, size)

    @settings(max_examples=20, deadline=None)
    @given(src=st.integers(0, 63))
    def test_broadcast_worst_leaf_exact(self, src):
        topo = MeshTopology(width=8, cluster_width=4)
        model = AnalyticModel(topo)
        net = EMeshBCast(topo)
        deliveries = net.send(src, BROADCAST, 88, 0)
        worst = max(a for _, a in deliveries)
        assert worst == model.mesh_broadcast_latency(src, 88)


class TestAtacCrossValidation:
    @settings(max_examples=40, deadline=None)
    @given(src=st.integers(0, 63), dst=st.integers(0, 63))
    def test_hybrid_unicast_zero_load_exact(self, src, dst):
        topo = MeshTopology(width=8, cluster_width=4)
        model = AnalyticModel(topo)
        routing = DistanceRouting(6)
        if src == dst:
            return
        net = AtacNetwork(topo, routing=routing)
        [(_, arrival)] = net.send(src, dst, CONTROL_MSG_BITS, 0)
        assert arrival == model.atac_unicast_latency(routing, src, dst, 88)

    def test_cluster_routing_agrees(self, topo, model):
        routing = ClusterRouting()
        net = AtacNetwork(topo, routing=routing)
        [(_, arrival)] = net.send(0, 63, DATA_MSG_BITS, 0)
        assert arrival == model.atac_unicast_latency(routing, 0, 63, 600)

    def test_optical_broadcast_bound(self, topo, model):
        """Engine broadcast arrivals are within a StarNet-queueing slack
        of the analytic single-message latency."""
        net = AtacNetwork(topo)
        deliveries = net.send(5, BROADCAST, 88, 0)
        analytic = model.optical_broadcast_latency(5, 88)
        arrivals = [a for _, a in deliveries]
        assert min(arrivals) <= analytic
        assert max(arrivals) <= analytic + 10


class TestSaturationEstimates:
    def test_mesh_saturation_scaling(self):
        """Saturation load falls as 1/W: bigger meshes saturate sooner
        per core (the Figure 3 regime)."""
        small = AnalyticModel(MeshTopology(width=8, cluster_width=4))
        big = AnalyticModel(MeshTopology(width=32, cluster_width=4))
        assert small.mesh_saturation_load() == pytest.approx(
            4 * big.mesh_saturation_load()
        )

    def test_mean_distance_formula(self, model):
        """Mean Manhattan distance on a W-mesh is ~2W/3."""
        import itertools, random

        topo = model.topology
        rng = random.Random(0)
        pairs = [(rng.randrange(64), rng.randrange(64)) for _ in range(4000)]
        empirical = sum(topo.manhattan(a, b) for a, b in pairs) / len(pairs)
        assert model.mean_mesh_distance() == pytest.approx(empirical, rel=0.05)

    def test_hybrid_saturation_balances(self, model):
        """The balanced split beats either extreme -- the analytical
        justification for a mid-range rthres."""
        all_enet = model.hybrid_saturation_load(0.0)
        all_onet = model.hybrid_saturation_load(1.0)
        onet_cap = model.onet_saturation_load()
        enet_cap = model.mesh_saturation_load()
        balanced_frac = onet_cap / (onet_cap + enet_cap)
        balanced = model.hybrid_saturation_load(balanced_frac)
        assert balanced >= all_enet
        assert balanced >= all_onet

    def test_hybrid_saturation_validation(self, model):
        with pytest.raises(ValueError):
            model.hybrid_saturation_load(1.5)

    def test_onet_fraction_monotonic_in_rthres(self, model):
        """Raising rthres strictly reduces optical traffic share."""
        fracs = [
            model.onet_traffic_fraction(DistanceRouting(t), samples=1500)
            for t in (0, 5, 10, 14)
        ]
        assert all(a >= b for a, b in zip(fracs, fracs[1:]))
        assert fracs[0] > 0.5  # Distance-0 = cluster-ish: most traffic optical


class TestValidation:
    def test_bad_size_rejected(self, model):
        with pytest.raises(ValueError):
            model.mesh_unicast_latency(0, 1, size_bits=0)

    def test_self_send(self, model):
        assert model.mesh_unicast_latency(3, 3) == 1
