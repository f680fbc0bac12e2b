"""Unit tests for the 11 nm transistor constants (paper Table III)."""

import pytest
from hypothesis import given, strategies as st

from repro.tech import transistor as t


# First-order drive and delay quantities of a Table III device.  The
# energy model prices switched capacitance and leakage only, so these
# live here, as the checks that the Table III currents and capacitances
# describe a plausible 11 nm device.

def drive_resistance_ohm_um() -> float:
    """Effective switching resistance * width: V_DD over the N/P-averaged
    on current (ohm * um)."""
    ion_avg_ua_per_um = 0.5 * (t.ION_N_UA_PER_UM + t.ION_P_UA_PER_UM)
    return t.VDD_V / (ion_avg_ua_per_um * 1e-6)


def driver_resistance_ohm(width_um: float) -> float:
    """Switching resistance of a driver of the given width (ohm)."""
    if width_um <= 0:
        raise ValueError(f"driver width must be positive, got {width_um}")
    return drive_resistance_ohm_um() / width_um


def gate_cap_f(width_um: float) -> float:
    """Gate capacitance of a device of the given width (F)."""
    return t.GATE_CAP_FF_PER_UM * 1e-15 * width_um


def fo4_delay_s(min_width_um: float = t.MIN_WIDTH_UM) -> float:
    """Fanout-of-4 inverter delay (s), the canonical logic-speed unit.

    tau = 0.69 * R_drv * (C_self + 4 * C_gate) for a minimum inverter
    (NMOS width W, PMOS width 2W -> total 3W per input).
    """
    w = min_width_um * 3.0
    c_self = t.DRAIN_CAP_FF_PER_UM * 1e-15 * w
    return 0.69 * driver_resistance_ohm(w) * (c_self + 4.0 * gate_cap_f(w))


class TestTableIIIParameters:
    """The constants must match Table III verbatim."""

    def test_supply_voltage(self):
        assert t.VDD_V == 0.6

    def test_gate_length(self):
        assert t.GATE_LENGTH_NM == 14.0

    def test_contacted_gate_pitch(self):
        assert t.CONTACTED_GATE_PITCH_NM == 44.0

    def test_gate_cap(self):
        assert t.GATE_CAP_FF_PER_UM == 2.420

    def test_drain_cap(self):
        assert t.DRAIN_CAP_FF_PER_UM == 1.150

    def test_on_currents(self):
        assert t.ION_N_UA_PER_UM == 739.0
        assert t.ION_P_UA_PER_UM == 668.0

    def test_off_current(self):
        assert t.IOFF_NA_PER_UM == 1.0

    def test_rows_are_physical(self):
        for value in (
            t.VDD_V, t.GATE_LENGTH_NM, t.CONTACTED_GATE_PITCH_NM,
            t.GATE_CAP_FF_PER_UM, t.DRAIN_CAP_FF_PER_UM,
            t.ION_N_UA_PER_UM, t.ION_P_UA_PER_UM, t.MIN_WIDTH_UM,
        ):
            assert value > 0
        assert t.IOFF_NA_PER_UM >= 0
        assert t.CONTACTED_GATE_PITCH_NM >= t.GATE_LENGTH_NM
        assert t.NODE_NAME.startswith("11nm")


class TestDerivedQuantities:
    def test_cap_per_um(self):
        # 2.42 + 1.15 = 3.57 fF/um
        assert t.CAP_PER_UM_F == pytest.approx(3.57e-15)

    def test_switch_energy(self):
        # C * V^2 = 3.57 fF * 0.36 V^2 = 1.285 fJ/um
        assert t.SWITCH_ENERGY_PER_UM_J == pytest.approx(1.2852e-15)

    def test_leakage_power(self):
        # 1 nA/um * 0.6 V = 0.6 nW/um
        assert t.LEAKAGE_POWER_PER_UM_W == pytest.approx(0.6e-9)

    def test_drive_resistance(self):
        # V / I_avg = 0.6 / 703.5 uA ~= 853 ohm*um
        r = drive_resistance_ohm_um()
        assert 800 < r < 900

    def test_driver_resistance_scales_inversely_with_width(self):
        r1 = driver_resistance_ohm(1.0)
        r2 = driver_resistance_ohm(2.0)
        assert r1 == pytest.approx(2.0 * r2)

    def test_fo4_delay_is_a_few_picoseconds(self):
        # Deeply-scaled FO4 delays are in the low single-digit ps.
        fo4 = fo4_delay_s()
        assert 1e-12 < fo4 < 20e-12

    def test_fo4_leaves_margin_at_1ghz(self):
        # A 1 GHz cycle (Table I) is hundreds of FO4s -- the paper's
        # "clock frequencies are relatively slow" premise.
        assert 1e-9 / fo4_delay_s() > 50

    def test_gate_cap_scales_with_width(self):
        assert gate_cap_f(2.0) == pytest.approx(2 * gate_cap_f(1.0))


class TestValidation:
    def test_zero_width_driver_rejected(self):
        with pytest.raises(ValueError):
            driver_resistance_ohm(0.0)


class TestProperties:
    def test_switch_energy_is_cv2(self):
        expected = (t.GATE_CAP_FF_PER_UM + t.DRAIN_CAP_FF_PER_UM) * 1e-15 * t.VDD_V**2
        assert t.SWITCH_ENERGY_PER_UM_J == pytest.approx(expected)

    @given(w=st.floats(0.05, 100.0))
    def test_fo4_independentish_of_width_scaling(self, w):
        """FO4 is a ratio metric: the width it is sized at cancels."""
        assert fo4_delay_s(w) == pytest.approx(fo4_delay_s(), rel=1e-9)
