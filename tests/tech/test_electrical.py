"""Unit tests for electrical circuit primitives."""

import pytest
from hypothesis import given, strategies as st

from repro.tech.electrical import (
    DEFAULT_ACTIVITY,
    RegisterModel,
    WireModel,
    arbiter_energy_j,
    crossbar_energy_per_bit_j,
    demux_energy_per_bit_j,
)
from repro.tech.transistor import TECH_11NM


class TestWireModel:
    def test_energy_per_bit_mm_magnitude(self):
        """Repeated-wire energy at 11nm/0.6V should be tens of fJ/bit/mm."""
        e = WireModel().energy_per_bit_mm_j()
        assert 5e-15 < e < 100e-15

    def test_energy_scales_with_activity(self):
        w = WireModel()
        assert w.energy_per_bit_mm_j(0.5) == pytest.approx(
            2 * w.energy_per_bit_mm_j(0.25)
        )

    def test_zero_activity_zero_energy(self):
        assert WireModel().energy_per_bit_mm_j(0.0) == 0.0

    def test_leakage_positive(self):
        assert WireModel().leakage_power_per_bit_mm_w() > 0

    def test_area_uses_pitch(self):
        w = WireModel(wire_pitch_um=0.2)
        assert w.area_per_bit_mm_um2() == pytest.approx(200.0)

    @given(length_scale=st.floats(0.1, 10.0))
    def test_repeater_overhead_increases_energy(self, length_scale):
        bare = WireModel(repeater_overhead=0.0)
        repeated = WireModel(repeater_overhead=0.35)
        assert repeated.energy_per_bit_mm_j() > bare.energy_per_bit_mm_j()


class TestRegisterModel:
    def test_clock_energy_burned_every_cycle(self):
        """Clock energy must be nonzero -- it is the NDD archetype."""
        assert RegisterModel().clock_energy_per_cycle_j() > 0

    def test_write_energy_positive(self):
        assert RegisterModel().write_energy_j() > 0

    def test_clock_fraction_partitions_width(self):
        r = RegisterModel(width_um=1.0, clock_cap_fraction=0.3)
        # clock part: full-swing on 0.3 um; data part: half-swing avg on 0.7 um
        assert r.clock_energy_per_cycle_j() == pytest.approx(0.3 * 1.2852e-15)
        assert r.write_energy_j() == pytest.approx(0.5 * 0.7 * 1.2852e-15)

    def test_register_costs_more_than_inverter(self):
        # one full transition of a minimum (0.15 um) inverter
        inverter_j = 0.15 * TECH_11NM.switch_energy_per_um_j
        assert RegisterModel().write_energy_j() > inverter_j


class TestCombinational:
    def test_crossbar_energy_grows_with_ports(self):
        e5 = crossbar_energy_per_bit_j(5)
        e10 = crossbar_energy_per_bit_j(10)
        assert e10 > e5

    def test_crossbar_rejects_single_port(self):
        with pytest.raises(ValueError):
            crossbar_energy_per_bit_j(1)

    def test_arbiter_energy_grows_with_requests(self):
        assert arbiter_energy_j(16) > arbiter_energy_j(2)

    def test_arbiter_rejects_zero(self):
        with pytest.raises(ValueError):
            arbiter_energy_j(0)

    def test_demux_cheaper_than_crossbar(self):
        """A 1-to-16 demux branch is far cheaper than a 16-port crossbar."""
        assert demux_energy_per_bit_j(16) < crossbar_energy_per_bit_j(16)

    def test_demux_rejects_zero_fanout(self):
        with pytest.raises(ValueError):
            demux_energy_per_bit_j(0)

    @given(fanout=st.integers(1, 1024))
    def test_demux_energy_grows_slowly(self, fanout):
        """Demux select cost is logarithmic: 1024-way < 8x the 2-way cost."""
        assert demux_energy_per_bit_j(fanout) <= 8 * demux_energy_per_bit_j(2)
