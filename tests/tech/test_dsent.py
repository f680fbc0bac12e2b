"""Unit tests for the DSENT-like router/link/hub/receive-net models."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.results import FREQ_HZ
from repro.tech.dsent import HubModel, LinkModel, ReceiveNetModel, RouterModel


class TestLinkModel:
    def test_energy_scales_linearly_with_width(self):
        e64 = LinkModel(width_bits=64).dynamic_energy_j()
        e128 = LinkModel(width_bits=128).dynamic_energy_j()
        assert e128 == pytest.approx(2 * e64)

    def test_energy_scales_linearly_with_length(self):
        e1 = LinkModel(length_mm=1.0).dynamic_energy_j()
        e2 = LinkModel(length_mm=2.0).dynamic_energy_j()
        assert e2 == pytest.approx(2 * e1)

    def test_flit_energy_magnitude(self):
        """A 64-bit flit over a sub-mm mesh hop costs ~0.1-10 pJ."""
        e = LinkModel().dynamic_energy_j()
        assert 0.1e-12 < e < 10e-12

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError):
            LinkModel(width_bits=0)

    def test_invalid_length_rejected(self):
        with pytest.raises(ValueError):
            LinkModel(length_mm=-1.0)

    def test_leakage_and_area_positive(self):
        l = LinkModel()
        assert l.leakage_power_w() > 0
        assert l.area_mm2() > 0


class TestRouterModel:
    def test_flit_energy_decomposition(self):
        r = RouterModel()
        assert r.flit_energy_j() == pytest.approx(
            r.buffer_write_energy_j() + r.buffer_read_energy_j() + r.crossbar_energy_j()
        )

    def test_flit_energy_magnitude(self):
        """Router traversal ~0.1-5 pJ per 64-bit flit at 11 nm."""
        assert 0.05e-12 < RouterModel().flit_energy_j() < 5e-12

    def test_buffer_read_cheaper_than_write(self):
        r = RouterModel()
        assert r.buffer_read_energy_j() < r.buffer_write_energy_j()

    def test_clock_power_ungated_by_default(self):
        r = RouterModel()
        assert r.clock_power_w(FREQ_HZ) > 0

    def test_wider_router_costs_more(self):
        assert (
            RouterModel(width_bits=128).flit_energy_j()
            > RouterModel(width_bits=64).flit_energy_j()
        )

    def test_higher_radix_costs_more(self):
        assert (
            RouterModel(n_ports=8).crossbar_energy_j()
            > RouterModel(n_ports=5).crossbar_energy_j()
        )

    def test_buffer_bits_accounting(self):
        r = RouterModel(n_ports=5, width_bits=64, buffer_depth_flits=4)
        assert r.n_buffer_bits == 5 * 4 * 64

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            RouterModel(n_ports=1)
        with pytest.raises(ValueError):
            RouterModel(buffer_depth_flits=0)
        with pytest.raises(ValueError):
            RouterModel(width_bits=-1)

    @given(depth=st.integers(1, 16))
    def test_ndd_costs_scale_with_buffering(self, depth):
        shallow = RouterModel(buffer_depth_flits=1)
        r = RouterModel(buffer_depth_flits=depth)
        assert r.clock_power_w(FREQ_HZ) >= shallow.clock_power_w(FREQ_HZ)
        assert r.leakage_power_w() >= shallow.leakage_power_w()


class TestHubModel:
    def test_hub_cheaper_than_mesh_router(self):
        """The 3-port hub datapath costs less per flit than a 5-port router."""
        assert HubModel().flit_energy_j() < RouterModel(n_ports=5).flit_energy_j()

    def test_hub_ndd_positive(self):
        h = HubModel()
        assert h.clock_power_w(FREQ_HZ) > 0
        assert h.leakage_power_w() > 0
        assert h.area_mm2() > 0


class TestReceiveNetModel:
    """The Section IV-B BNet vs StarNet energy relationships."""

    def test_starnet_unicast_much_cheaper_than_bnet(self):
        bnet = ReceiveNetModel(kind="bnet")
        star = ReceiveNetModel(kind="starnet")
        ratio = bnet.unicast_energy_j() / star.unicast_energy_j()
        # paper: StarNet unicast ~ 1/8th of BNet
        assert ratio == pytest.approx(8.0, rel=0.05)

    def test_starnet_broadcast_twice_bnet(self):
        bnet = ReceiveNetModel(kind="bnet")
        star = ReceiveNetModel(kind="starnet")
        ratio = star.broadcast_energy_j() / bnet.broadcast_energy_j()
        # paper: StarNet broadcast ~ 2x BNet
        assert ratio == pytest.approx(2.0, rel=0.05)

    def test_bnet_unicast_equals_bnet_broadcast(self):
        """A fanout tree burns the same energy regardless of recipients."""
        bnet = ReceiveNetModel(kind="bnet")
        assert bnet.unicast_energy_j() == pytest.approx(bnet.broadcast_energy_j())

    def test_starnet_broadcast_is_cluster_size_unicasts(self):
        star = ReceiveNetModel(kind="starnet", cluster_size=16)
        assert star.broadcast_energy_j() == pytest.approx(16 * star.unicast_energy_j())

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            ReceiveNetModel(kind="busnet")

    def test_rejects_empty_cluster(self):
        with pytest.raises(ValueError):
            ReceiveNetModel(cluster_size=0)

    def test_area_negligible_vs_caches(self):
        """Paper: replacing BNet with StarNet has negligible area cost."""
        star = ReceiveNetModel(kind="starnet")
        bnet = ReceiveNetModel(kind="bnet")
        assert abs(star.area_mm2() - bnet.area_mm2()) < 0.2
