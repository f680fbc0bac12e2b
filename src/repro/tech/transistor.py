"""Projected 11 nm tri-gate transistor model (paper Table III).

The paper derives an 11 nm electrical technology from the virtual-source
transport model of Khakifirooz et al. [29] and the parasitic-capacitance
model of Wei et al. [30], then feeds the resulting parameters to both
McPAT and DSENT.  We capture the *published outputs* of that derivation
(Table III) and expose the first-order circuit quantities every other
model in this package needs: switching energy and leakage power per
unit width.

High-threshold (HVT) devices are assumed throughout, as in the paper
("As clock frequencies are relatively slow, high threshold (HVT)
transistors are assumed for lower leakage").
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class TransistorModel:
    """First-order MOSFET model parameterized per Table III.

    All per-width quantities are expressed per micron of gate width; the
    circuit models in :mod:`repro.tech.electrical` size devices in
    microns and multiply through.

    Attributes
    ----------
    name:
        Human-readable node name.
    vdd_v:
        Process supply voltage (V).
    gate_length_nm:
        Physical gate length (nm).
    contacted_gate_pitch_nm:
        Contacted gate pitch (nm); sets standard-cell density.
    gate_cap_ff_per_um:
        Gate capacitance per unit width (fF/um), parasitics included.
    drain_cap_ff_per_um:
        Drain/junction capacitance per unit width (fF/um).
    ion_n_ua_per_um / ion_p_ua_per_um:
        Effective on-current per unit width (uA/um) for NMOS / PMOS.
    ioff_na_per_um:
        Off-state leakage current per unit width (nA/um), HVT.
    min_width_um:
        Minimum drawn device width (um); used to size unit gates.
    """

    name: str = "11nm-trigate-hvt"
    vdd_v: float = 0.6
    gate_length_nm: float = 14.0
    contacted_gate_pitch_nm: float = 44.0
    gate_cap_ff_per_um: float = 2.420
    drain_cap_ff_per_um: float = 1.150
    ion_n_ua_per_um: float = 739.0
    ion_p_ua_per_um: float = 668.0
    ioff_na_per_um: float = 1.0
    min_width_um: float = 0.05

    # ------------------------------------------------------------------
    # Derived per-width quantities
    # ------------------------------------------------------------------
    @property
    def cap_per_um_f(self) -> float:
        """Total switched capacitance per micron of device width (F)."""
        return (self.gate_cap_ff_per_um + self.drain_cap_ff_per_um) * 1e-15

    @property
    def switch_energy_per_um_j(self) -> float:
        """Full-swing C*V^2 switching energy per micron of width (J).

        This is the energy drawn from the supply for one rising output
        transition; average dynamic energy models multiply by an
        activity factor (typically 0.5 * alpha for random data).
        """
        return self.cap_per_um_f * self.vdd_v**2

    @property
    def leakage_power_per_um_w(self) -> float:
        """Static leakage power per micron of transistor width (W).

        One of the two stacked devices in a CMOS gate leaks at any time;
        we charge I_off * V_DD per micron of *total* width and let the
        circuit models decide how much width is in the leak path (they
        pass effective width, so no double counting here).
        """
        return self.ioff_na_per_um * 1e-9 * self.vdd_v

    def validate(self) -> None:
        """Raise ``ValueError`` if any parameter is physically nonsensical."""
        checks = {
            "vdd_v": self.vdd_v,
            "gate_length_nm": self.gate_length_nm,
            "contacted_gate_pitch_nm": self.contacted_gate_pitch_nm,
            "gate_cap_ff_per_um": self.gate_cap_ff_per_um,
            "drain_cap_ff_per_um": self.drain_cap_ff_per_um,
            "ion_n_ua_per_um": self.ion_n_ua_per_um,
            "ion_p_ua_per_um": self.ion_p_ua_per_um,
            "min_width_um": self.min_width_um,
        }
        for key, value in checks.items():
            if value <= 0:
                raise ValueError(f"{key} must be positive, got {value}")
        if self.ioff_na_per_um < 0:
            raise ValueError("ioff_na_per_um must be non-negative")
        if self.contacted_gate_pitch_nm < self.gate_length_nm:
            raise ValueError("contacted gate pitch cannot be below gate length")


#: The projected 11 nm tri-gate HVT node used throughout the paper (Table III).
TECH_11NM = TransistorModel()
