"""Unit tests for McPAT-like cache models and the first-order core model."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.results import FREQ_HZ
from repro.tech.caches import (
    CacheGeometry,
    CacheModel,
    directory_cache,
    l1d_cache,
    l1i_cache,
    l2_cache,
)
from repro.tech.core import CORE_PEAK_POWER_W, CorePowerModel


def dd_power_w(m: CorePowerModel, ipc: float) -> float:
    """Section V-G's data-dependent power at a measured IPC (W): the
    power-side statement of what ``dd_energy_j`` integrates."""
    if ipc < 0:
        raise ValueError(f"ipc must be non-negative, got {ipc}")
    return m.peak_dd_power_w * min(1.0, ipc)


class TestCacheGeometry:
    def test_table_i_l1(self):
        g = l1d_cache().geometry
        assert g.capacity_bytes == 32 * 1024
        assert g.line_bytes == 64

    def test_table_i_l2(self):
        g = l2_cache().geometry
        assert g.capacity_bytes == 256 * 1024

    def test_line_and_set_counts(self):
        g = CacheGeometry(capacity_bytes=64 * 1024, associativity=4, line_bytes=64)
        assert g.n_lines == 1024
        assert g.n_lines // g.associativity == 256

    def test_total_bits_includes_overhead(self):
        g = CacheGeometry(
            capacity_bytes=1024, associativity=1, line_bytes=64,
            overhead_bits_per_line=48,
        )
        assert g.total_bits == 16 * (512 + 48)

    def test_rejects_nonmultiple_capacity(self):
        with pytest.raises(ValueError):
            CacheGeometry(capacity_bytes=1000, line_bytes=64)

    def test_rejects_bad_associativity(self):
        with pytest.raises(ValueError):
            CacheGeometry(capacity_bytes=1024, associativity=0)
        with pytest.raises(ValueError):
            CacheGeometry(capacity_bytes=64 * 3, associativity=2, line_bytes=64)

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            CacheGeometry(capacity_bytes=0)


class TestCacheModelEnergy:
    def test_l1_read_energy_few_pj(self):
        e = l1d_cache().read_energy_j(data_bits=64)
        assert 1e-12 < e < 20e-12

    def test_l2_read_energy_tens_of_pj(self):
        e = l2_cache().read_energy_j()
        assert 5e-12 < e < 100e-12

    def test_write_costs_more_than_read(self):
        c = l2_cache()
        assert c.write_energy_j() > c.read_energy_j()

    def test_tag_probe_cheaper_than_read(self):
        c = l2_cache()
        assert c.tag_probe_energy_j() < c.read_energy_j()

    def test_narrow_access_cheaper(self):
        c = l1d_cache()
        assert c.read_energy_j(data_bits=64) < c.read_energy_j(data_bits=512)

    def test_leakage_scales_with_capacity(self):
        small = CacheModel(CacheGeometry(32 * 1024))
        big = CacheModel(CacheGeometry(256 * 1024))
        ratio = big.leakage_power_w() / small.leakage_power_w()
        assert ratio == pytest.approx(8.0, rel=0.05)

    def test_area_scales_with_capacity(self):
        small = CacheModel(CacheGeometry(32 * 1024))
        big = CacheModel(CacheGeometry(256 * 1024))
        assert big.area_mm2() / small.area_mm2() == pytest.approx(8.0, rel=0.05)

    def test_chipwide_cache_area_dominates(self):
        """Paper Fig 10: caches dominate chip area (~90%).

        1024 cores x (L1I + L1D + L2) should land in the hundreds of
        mm^2 -- an order of magnitude above the ~40 mm^2 of photonics.
        """
        per_core = (
            l1i_cache().area_mm2() + l1d_cache().area_mm2() + l2_cache().area_mm2()
        )
        assert 100 < per_core * 1024 < 1000


class TestDirectoryCache:
    def test_entry_grows_with_sharers(self):
        d4 = directory_cache(1024, hardware_sharers=4)
        d1024 = directory_cache(1024, hardware_sharers=1024)
        assert d1024.geometry.total_bits > d4.geometry.total_bits

    def test_energy_grows_with_sharers(self):
        """Fig 16's mechanism: directory energy ~ linear in k."""
        d4 = directory_cache(1024, hardware_sharers=4)
        d1024 = directory_cache(1024, hardware_sharers=1024)
        assert d1024.read_energy_j(0) > 10 * d4.read_energy_j(0)
        assert d1024.leakage_power_w() > 10 * d4.leakage_power_w()

    def test_full_map_vs_ackwise4_area_factor(self):
        """ACKwise4 directory is far smaller than a full-map (bit-vector)
        directory for 1024 cores."""
        d4 = directory_cache(4096, hardware_sharers=4)
        dfull = directory_cache(4096, hardware_sharers=1024)
        assert dfull.area_mm2() / d4.area_mm2() > 5

    def test_full_map_caps_at_bit_vector(self):
        """Past n_cores presence bits, pointers stop growing: k=1024 and
        k=2048 directories are identical for a 1024-core chip."""
        a = directory_cache(4096, hardware_sharers=1024, n_cores=1024)
        b = directory_cache(4096, hardware_sharers=2048, n_cores=1024)
        assert a.geometry.total_bits == b.geometry.total_bits

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            directory_cache(1024, hardware_sharers=0)
        with pytest.raises(ValueError):
            directory_cache(0, hardware_sharers=4)


class TestCorePowerModel:
    def test_defaults_match_paper(self):
        m = CorePowerModel()
        assert CORE_PEAK_POWER_W == pytest.approx(20e-3)
        assert m.ndd_fraction == 0.10

    def test_power_partition(self):
        m = CorePowerModel(ndd_fraction=0.4)
        assert m.ndd_power_w == pytest.approx(8e-3)
        assert m.peak_dd_power_w == pytest.approx(12e-3)

    def test_dd_power_scales_with_ipc(self):
        """Paper: 'if the IPC is 0.25, the runtime DD power is 25% of peak DD'."""
        m = CorePowerModel()
        assert dd_power_w(m, 0.25) == pytest.approx(0.25 * m.peak_dd_power_w)

    def test_dd_power_saturates_at_ipc_1(self):
        m = CorePowerModel()
        assert dd_power_w(m, 2.0) == m.peak_dd_power_w

    def test_dd_energy_independent_of_runtime(self):
        """Same instruction count => same DD energy on any architecture."""
        m = CorePowerModel()
        assert m.dd_energy_j(10_000, FREQ_HZ) == m.dd_energy_j(10_000, FREQ_HZ)
        # equivalent formulations: P_dd(ipc) * T == E_dd(instructions)
        instructions, freq = 1_000_000, FREQ_HZ
        runtime = 4 * instructions / freq  # IPC = 0.25
        via_power = dd_power_w(m, 0.25) * runtime
        assert m.dd_energy_j(instructions, freq) == pytest.approx(via_power)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            CorePowerModel(ndd_fraction=1.5)
        with pytest.raises(ValueError):
            dd_power_w(CorePowerModel(), -0.1)
        with pytest.raises(ValueError):
            CorePowerModel().dd_energy_j(-5, FREQ_HZ)

    @given(
        runtime_a=st.floats(1e-4, 1e-2),
        slowdown=st.floats(1.01, 5.0),
        ndd_frac=st.floats(0.05, 0.95),
    )
    def test_faster_network_always_saves_core_energy(
        self, runtime_a, slowdown, ndd_frac
    ):
        """The paper's closing insight as an invariant: with identical
        instruction counts, the architecture that finishes faster has
        strictly lower total core energy."""
        m = CorePowerModel(ndd_fraction=ndd_frac)
        instructions = 1_000_000

        def total_energy_j(runtime_s):
            return m.ndd_power_w * runtime_s + m.dd_energy_j(instructions, FREQ_HZ)

        assert total_energy_j(runtime_a * slowdown) > total_energy_j(runtime_a)
