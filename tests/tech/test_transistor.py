"""Unit tests for the 11 nm transistor model (paper Table III)."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.tech.transistor import TransistorModel, TECH_11NM


# First-order drive and delay quantities of a Table III device.  The
# energy model prices switched capacitance and leakage only, so these
# live here, as the checks that the Table III currents and capacitances
# describe a plausible 11 nm device.

def drive_resistance_ohm_um(m: TransistorModel) -> float:
    """Effective switching resistance * width: V_DD over the N/P-averaged
    on current (ohm * um)."""
    ion_avg_ua_per_um = 0.5 * (m.ion_n_ua_per_um + m.ion_p_ua_per_um)
    return m.vdd_v / (ion_avg_ua_per_um * 1e-6)


def driver_resistance_ohm(m: TransistorModel, width_um: float) -> float:
    """Switching resistance of a driver of the given width (ohm)."""
    if width_um <= 0:
        raise ValueError(f"driver width must be positive, got {width_um}")
    return drive_resistance_ohm_um(m) / width_um


def gate_cap_f(m: TransistorModel, width_um: float) -> float:
    """Gate capacitance of a device of the given width (F)."""
    return m.gate_cap_ff_per_um * 1e-15 * width_um


def fo4_delay_s(m: TransistorModel) -> float:
    """Fanout-of-4 inverter delay (s), the canonical logic-speed unit.

    tau = 0.69 * R_drv * (C_self + 4 * C_gate) for a minimum inverter
    (NMOS width W, PMOS width 2W -> total 3W per input).
    """
    w = m.min_width_um * 3.0
    c_self = m.drain_cap_ff_per_um * 1e-15 * w
    return 0.69 * driver_resistance_ohm(m, w) * (c_self + 4.0 * gate_cap_f(m, w))


class TestTableIIIParameters:
    """The default model must match Table III verbatim."""

    def test_supply_voltage(self):
        assert TECH_11NM.vdd_v == 0.6

    def test_gate_length(self):
        assert TECH_11NM.gate_length_nm == 14.0

    def test_contacted_gate_pitch(self):
        assert TECH_11NM.contacted_gate_pitch_nm == 44.0

    def test_gate_cap(self):
        assert TECH_11NM.gate_cap_ff_per_um == 2.420

    def test_drain_cap(self):
        assert TECH_11NM.drain_cap_ff_per_um == 1.150

    def test_on_currents(self):
        assert TECH_11NM.ion_n_ua_per_um == 739.0
        assert TECH_11NM.ion_p_ua_per_um == 668.0

    def test_off_current(self):
        assert TECH_11NM.ioff_na_per_um == 1.0

    def test_validate_passes(self):
        TECH_11NM.validate()


class TestDerivedQuantities:
    def test_cap_per_um(self):
        # 2.42 + 1.15 = 3.57 fF/um
        assert TECH_11NM.cap_per_um_f == pytest.approx(3.57e-15)

    def test_switch_energy(self):
        # C * V^2 = 3.57 fF * 0.36 V^2 = 1.285 fJ/um
        assert TECH_11NM.switch_energy_per_um_j == pytest.approx(1.2852e-15)

    def test_leakage_power(self):
        # 1 nA/um * 0.6 V = 0.6 nW/um
        assert TECH_11NM.leakage_power_per_um_w == pytest.approx(0.6e-9)

    def test_drive_resistance(self):
        # V / I_avg = 0.6 / 703.5 uA ~= 853 ohm*um
        r = drive_resistance_ohm_um(TECH_11NM)
        assert 800 < r < 900

    def test_driver_resistance_scales_inversely_with_width(self):
        r1 = driver_resistance_ohm(TECH_11NM, 1.0)
        r2 = driver_resistance_ohm(TECH_11NM, 2.0)
        assert r1 == pytest.approx(2.0 * r2)

    def test_fo4_delay_is_a_few_picoseconds(self):
        # Deeply-scaled FO4 delays are in the low single-digit ps.
        fo4 = fo4_delay_s(TECH_11NM)
        assert 1e-12 < fo4 < 20e-12

    def test_fo4_leaves_margin_at_1ghz(self):
        # A 1 GHz cycle (Table I) is hundreds of FO4s -- the paper's
        # "clock frequencies are relatively slow" premise.
        assert 1e-9 / fo4_delay_s(TECH_11NM) > 50

    def test_gate_cap_scales_with_width(self):
        assert gate_cap_f(TECH_11NM, 2.0) == pytest.approx(2 * gate_cap_f(TECH_11NM, 1.0))


class TestValidation:
    def test_zero_width_driver_rejected(self):
        with pytest.raises(ValueError):
            driver_resistance_ohm(TECH_11NM, 0.0)

    def test_negative_vdd_rejected(self):
        with pytest.raises(ValueError):
            TransistorModel(vdd_v=-0.1).validate()

    def test_negative_ioff_rejected(self):
        with pytest.raises(ValueError):
            TransistorModel(ioff_na_per_um=-1.0).validate()

    def test_pitch_below_gate_length_rejected(self):
        with pytest.raises(ValueError):
            TransistorModel(contacted_gate_pitch_nm=10.0).validate()


class TestProperties:
    @given(
        vdd=st.floats(0.3, 1.2),
        cg=st.floats(0.5, 5.0),
        cd=st.floats(0.2, 3.0),
    )
    def test_switch_energy_is_cv2(self, vdd, cg, cd):
        m = TransistorModel(vdd_v=vdd, gate_cap_ff_per_um=cg, drain_cap_ff_per_um=cd)
        expected = (cg + cd) * 1e-15 * vdd**2
        assert m.switch_energy_per_um_j == pytest.approx(expected)

    @given(vdd=st.floats(0.3, 1.2))
    def test_energy_monotonic_in_vdd(self, vdd):
        lo = TransistorModel(vdd_v=vdd)
        hi = TransistorModel(vdd_v=vdd * 1.1)
        assert hi.switch_energy_per_um_j > lo.switch_energy_per_um_j

    @given(w=st.floats(0.05, 100.0))
    def test_fo4_independentish_of_width_scaling(self, w):
        """FO4 is a ratio metric: scaling min width leaves it unchanged."""
        base = TransistorModel()
        scaled = TransistorModel(min_width_um=w)
        assert fo4_delay_s(scaled) == pytest.approx(fo4_delay_s(base), rel=1e-9)
