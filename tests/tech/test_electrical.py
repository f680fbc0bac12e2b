"""Unit tests for electrical circuit primitives."""

import pytest
from hypothesis import given, strategies as st

from repro.tech import electrical as e
from repro.tech.electrical import (
    arbiter_energy_j,
    crossbar_energy_per_bit_j,
    demux_energy_per_bit_j,
)
from repro.tech.transistor import SWITCH_ENERGY_PER_UM_J, VDD_V


class TestWireModel:
    def test_energy_per_bit_mm_magnitude(self):
        """Repeated-wire energy at 11nm/0.6V should be tens of fJ/bit/mm."""
        assert 5e-15 < e.WIRE_ENERGY_PER_BIT_MM_J < 100e-15

    def test_energy_scales_with_activity(self):
        """The average energy is the activity factor times a full swing
        of the wire plus its repeaters."""
        full_swing = e.WIRE_CAP_PER_MM_F * (1.0 + e.REPEATER_OVERHEAD) * VDD_V**2
        assert e.WIRE_ENERGY_PER_BIT_MM_J == pytest.approx(e.ACTIVITY * full_swing)

    def test_leakage_positive(self):
        assert e.WIRE_LEAKAGE_PER_BIT_MM_W > 0

    def test_area_uses_pitch(self):
        assert e.WIRE_AREA_PER_BIT_MM_UM2 == pytest.approx(e.WIRE_PITCH_UM * 1000.0)

    def test_repeater_overhead_increases_energy(self):
        bare = e.ACTIVITY * e.WIRE_CAP_PER_MM_F * VDD_V**2
        assert e.WIRE_ENERGY_PER_BIT_MM_J > bare


class TestRegisterModel:
    def test_clock_energy_burned_every_cycle(self):
        """Clock energy must be nonzero -- it is the NDD archetype."""
        assert e.REGISTER_CLOCK_ENERGY_J > 0

    def test_write_energy_positive(self):
        assert e.REGISTER_WRITE_ENERGY_J > 0

    def test_clock_fraction_partitions_width(self):
        # clock part: full-swing on 0.3 of the width; data part:
        # half-swing avg on the other 0.7
        width = e.REGISTER_WIDTH_UM
        assert e.REGISTER_CLOCK_FRACTION == 0.3
        assert e.REGISTER_CLOCK_ENERGY_J == pytest.approx(width * 0.3 * 1.2852e-15)
        assert e.REGISTER_WRITE_ENERGY_J == pytest.approx(
            0.5 * width * 0.7 * 1.2852e-15
        )

    def test_register_costs_more_than_inverter(self):
        # one full transition of a minimum (0.15 um) inverter
        inverter_j = 0.15 * SWITCH_ENERGY_PER_UM_J
        assert e.REGISTER_WRITE_ENERGY_J > inverter_j


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
