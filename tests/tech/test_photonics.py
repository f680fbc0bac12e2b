"""Unit tests for photonic device/link models (Table II, Section II/IV-A)."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.tech.photonics import (
    OnetGeometry,
    OpticalLinkModel,
    PhotonicParams,
    db_to_linear,
)


class TestTableIIParameters:
    def test_defaults_match_table_ii(self):
        p = PhotonicParams()
        assert p.laser_efficiency == 0.30
        assert p.waveguide_pitch_um == 4.0
        assert p.waveguide_loss_db_per_cm == 0.2
        assert p.ring_through_loss_db == 0.0001
        assert p.ring_drop_loss_db == 1.0
        assert p.ring_area_um2 == 100.0
        assert p.photodetector_responsivity_a_per_w == 1.1

    def test_validate_passes(self):
        PhotonicParams().validate()

    def test_validate_rejects_bad_efficiency(self):
        with pytest.raises(ValueError):
            PhotonicParams(laser_efficiency=0.0).validate()
        with pytest.raises(ValueError):
            PhotonicParams(laser_efficiency=1.5).validate()

    def test_validate_rejects_negative_loss(self):
        with pytest.raises(ValueError):
            PhotonicParams(waveguide_loss_db_per_cm=-0.1).validate()

    def test_ideal_variant(self):
        ideal = PhotonicParams().ideal()
        assert ideal.laser_efficiency == 1.0
        assert ideal.waveguide_loss_db_per_cm == 0.0
        assert ideal.ring_drop_loss_db == 0.0
        ideal.validate()

    def test_receiver_sensitivity_conversion(self):
        p = PhotonicParams(receiver_sensitivity_ua=11.0)
        assert p.receiver_sensitivity_w == pytest.approx(10e-6, rel=1e-3)


class TestDbConversion:
    def test_zero_db_is_unity(self):
        assert db_to_linear(0.0) == 1.0

    def test_three_db_doubles(self):
        assert db_to_linear(3.0103) == pytest.approx(2.0, rel=1e-4)

    @given(a=st.floats(0, 20), b=st.floats(0, 20))
    def test_db_adds_linear_multiplies(self, a, b):
        assert db_to_linear(a + b) == pytest.approx(
            db_to_linear(a) * db_to_linear(b), rel=1e-9
        )


class TestOpticalLinkModel:
    def test_laser_power_linear_in_receivers(self):
        """Section IV: broadcast laser power ~ linear in receiver count."""
        link = OpticalLinkModel()
        p1 = link.optical_power_w(1)
        p63 = link.optical_power_w(63)
        assert p63 == pytest.approx(63 * p1)

    def test_zero_targets_zero_power(self):
        assert OpticalLinkModel().optical_power_w(0) == 0.0

    def test_rejects_out_of_range_targets(self):
        link = OpticalLinkModel(n_receivers=63)
        with pytest.raises(ValueError):
            link.optical_power_w(64)
        with pytest.raises(ValueError):
            link.optical_power_w(-1)

    def test_electrical_exceeds_optical_by_efficiency(self):
        link = OpticalLinkModel()
        assert link.electrical_laser_power_w(1) == pytest.approx(
            link.optical_power_w(1) / 0.30
        )

    def test_idle_power_zero_when_gated(self):
        assert OpticalLinkModel().idle_power_w(power_gated=True) == 0.0

    def test_idle_power_is_broadcast_power_ungated(self):
        """Cons scenario: idle laser stuck at worst-case broadcast power."""
        link = OpticalLinkModel()
        assert link.idle_power_w(power_gated=False) == pytest.approx(
            link.broadcast_power_w()
        )

    def test_on_chip_laser_avoids_coupling_loss(self):
        on = OpticalLinkModel(on_chip_laser=True)
        off = OpticalLinkModel(on_chip_laser=False)
        assert off.path_loss_db() - on.path_loss_db() == pytest.approx(
            PhotonicParams().coupling_loss_db
        )

    def test_ideal_devices_minimize_power(self):
        real = OpticalLinkModel()
        ideal = OpticalLinkModel(params=PhotonicParams().ideal())
        assert ideal.unicast_power_w() < real.unicast_power_w()

    @given(loss=st.floats(0.0, 3.0))
    def test_power_monotonic_in_waveguide_loss(self, loss):
        base = OpticalLinkModel(params=PhotonicParams(waveguide_loss_db_per_cm=loss))
        more = OpticalLinkModel(
            params=PhotonicParams(waveguide_loss_db_per_cm=loss + 0.5)
        )
        assert more.unicast_power_w() > base.unicast_power_w()

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            OpticalLinkModel(n_receivers=0)
        with pytest.raises(ValueError):
            OpticalLinkModel(waveguide_length_cm=0.0)
        with pytest.raises(ValueError):
            OpticalLinkModel(n_rings_passed=-1)


class TestOnetGeometry:
    def test_ring_count_matches_paper(self):
        """Paper Section V-C: ~260K rings in the 64-hub, 64-bit ATAC+.

        Data rings alone: 64 hubs x 64 hubs x 64 waveguides = 262,144;
        our count adds the select-link rings on top.
        """
        g = OnetGeometry()
        data_rings = 64 * 64 * 64
        assert g.n_rings >= data_rings
        assert g.n_rings < data_rings * 1.2

    def test_select_width_is_log2_hubs(self):
        g = OnetGeometry(n_hubs=64)
        assert g.select_width_bits == math.ceil(math.log2(64))

    def test_ring_tuning_power_zero_when_athermal(self):
        assert OnetGeometry().ring_tuning_power_w(athermal=True) == 0.0

    def test_ring_tuning_power_scales_with_rings(self):
        g = OnetGeometry()
        expected = g.n_rings * 5e-6
        assert g.ring_tuning_power_w(athermal=False) == pytest.approx(expected)

    def test_photonics_area_near_paper_40mm2(self):
        """Paper Section V-D: waveguides + devices occupy ~40 mm^2."""
        area = OnetGeometry().photonics_area_mm2()
        assert 25 < area < 60

    def test_area_roughly_linear_in_flit_width(self):
        """Paper: 256-bit flit width -> ~160 mm^2 (4x the 64-bit area)."""
        a64 = OnetGeometry(data_width_bits=64).photonics_area_mm2()
        a256 = OnetGeometry(data_width_bits=256).photonics_area_mm2()
        assert 3.0 < a256 / a64 < 4.5

    def test_data_link_has_63_receivers(self):
        link = OnetGeometry().data_link()
        assert link.n_receivers == 63

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            OnetGeometry(n_hubs=1)
        with pytest.raises(ValueError):
            OnetGeometry(data_width_bits=0)


class TestTransitions:
    """Laser settle energy charged per mode transition."""

    def test_transition_energy_positive_and_small(self):
        link = OnetGeometry().data_link()
        e = link.transition_energy_j()
        assert 0 < e < 1e-12  # well below a picojoule per channel
