"""Electrical circuit primitives: repeated wires, registers, switches.

These are the building blocks the DSENT-like network models in
:mod:`repro.tech.dsent` compose into routers, links and hubs.  Each
primitive exposes

* ``dynamic_energy_j(...)`` -- energy per *event* (a bit transition, a
  register write, a wire traversal),
* ``leakage_power_w`` -- static power burned whether or not the block is
  used (a *non-data-dependent* cost in the paper's vocabulary), and
* ``area_um2`` where meaningful.

Conventions
-----------
* Energies are per **bit** unless stated otherwise; callers multiply by
  bus width.
* A switching-activity factor ``activity`` (default 0.25 = random data,
  half the bits toggle, half of those charge) converts full-swing C*V^2
  into average energy per transported bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.tech.transistor import TransistorModel, TECH_11NM

#: Default switching activity: for random payloads, a bit toggles with
#: probability 1/2 and only rising transitions draw supply energy.
DEFAULT_ACTIVITY = 0.25


@dataclass(frozen=True)
class WireModel:
    """Repeated global wire at minimum-energy repeater sizing.

    On-chip global/semi-global wires at deeply scaled nodes are
    dominated by wire capacitance; repeaters add ~30-40 % more switched
    capacitance.  We model energy as ``(1 + repeater_overhead) * C_wire
    * V^2`` per mm per full transition, and delay as a fixed repeated-
    wire velocity (mm per cycle is set by the network configuration, so
    delay here is informational).

    Attributes
    ----------
    cap_per_mm_f:
        Wire capacitance per mm (F/mm).  0.15 pF/mm is representative of
        a semi-global layer at the 11 nm node.
    repeater_overhead:
        Extra switched capacitance contributed by repeaters, as a
        fraction of the wire capacitance.
    repeater_spacing_mm:
        Distance between repeaters (mm); sets leakage per mm.
    repeater_width_um:
        Total transistor width of one repeater (um).
    """

    tech: TransistorModel = TECH_11NM
    cap_per_mm_f: float = 0.15e-12
    repeater_overhead: float = 0.35
    repeater_spacing_mm: float = 0.25
    repeater_width_um: float = 2.0
    wire_pitch_um: float = 0.1

    def energy_per_bit_mm_j(self, activity: float = DEFAULT_ACTIVITY) -> float:
        """Average energy to move one bit one mm (J)."""
        c_total = self.cap_per_mm_f * (1.0 + self.repeater_overhead)
        return activity * c_total * self.tech.vdd_v**2

    def leakage_power_per_bit_mm_w(self) -> float:
        """Repeater leakage per bit-lane per mm of wire (W)."""
        repeaters_per_mm = 1.0 / self.repeater_spacing_mm
        return (
            repeaters_per_mm
            * self.repeater_width_um
            * self.tech.leakage_power_per_um_w
        )

    def area_per_bit_mm_um2(self) -> float:
        """Routing area of one bit-lane per mm (um^2), at the wire pitch."""
        return self.wire_pitch_um * 1000.0  # pitch (um) x 1 mm (=1000 um)


@dataclass(frozen=True)
class RegisterModel:
    """One flip-flop bit: the unit of buffers, pipeline stages and FIFOs.

    Flip-flops have two energy components the paper's NDD analysis cares
    about: the *data* energy of capturing a new value, and the *clock*
    energy burned every cycle whether or not data changes (an ungated
    clock is a canonical non-data-dependent consumer).
    """

    tech: TransistorModel = TECH_11NM
    #: total transistor width of one FF bit (um); ~24 minimum devices.
    width_um: float = 1.2
    #: fraction of FF width on the clock network (internal clock buffers).
    clock_cap_fraction: float = 0.30

    def write_energy_j(self) -> float:
        """Energy to capture one changed data bit (J)."""
        data_width = self.width_um * (1.0 - self.clock_cap_fraction)
        return 0.5 * data_width * self.tech.switch_energy_per_um_j

    def clock_energy_per_cycle_j(self) -> float:
        """Clock energy per cycle per bit, gated or not (J)."""
        clk_width = self.width_um * self.clock_cap_fraction
        return clk_width * self.tech.switch_energy_per_um_j

    def leakage_power_w(self) -> float:
        """Static leakage of one FF bit (W)."""
        return 0.5 * self.width_um * self.tech.leakage_power_per_um_w

    def area_um2(self) -> float:
        """Layout footprint of one FF bit (um^2)."""
        return self.width_um * self.tech.contacted_gate_pitch_nm * 1e-3 * 2.0


def crossbar_energy_per_bit_j(
    n_ports: int,
    port_span_um: float = 50.0,
    tech: TransistorModel = TECH_11NM,
    activity: float = DEFAULT_ACTIVITY,
) -> float:
    """Energy for one bit to traverse an ``n_ports``-port crossbar (J).

    Modeled as a matrix crossbar: a bit drives an output wire spanning
    all input ports plus the tri-state drivers hanging off it.  Wire
    length grows linearly with port count.
    """
    if n_ports < 2:
        raise ValueError(f"crossbar needs >= 2 ports, got {n_ports}")
    wire_len_mm = n_ports * port_span_um * 1e-3
    wire = WireModel(tech=tech, cap_per_mm_f=0.20e-12)
    wire_energy = activity * wire.cap_per_mm_f * wire_len_mm * tech.vdd_v**2
    driver_energy = activity * n_ports * tech.switch_energy_per_um_j * 0.3
    return wire_energy + driver_energy


def arbiter_energy_j(
    n_requests: int,
    tech: TransistorModel = TECH_11NM,
) -> float:
    """Energy of one round of matrix arbitration among ``n_requests`` (J).

    A matrix arbiter has O(n^2) grant/priority cells; each decision
    toggles ~n of them.
    """
    if n_requests < 1:
        raise ValueError(f"arbiter needs >= 1 request, got {n_requests}")
    cells_toggled = max(1, n_requests)
    cell_width_um = 0.3
    return cells_toggled * cell_width_um * tech.switch_energy_per_um_j


def demux_energy_per_bit_j(
    fanout: int,
    tech: TransistorModel = TECH_11NM,
    activity: float = DEFAULT_ACTIVITY,
) -> float:
    """Energy per bit through a 1-to-``fanout`` demultiplexer (J).

    Only the selected branch toggles; the select tree is log2(fanout)
    gate stages.  This is the heart of the StarNet's energy advantage:
    a unicast pays one branch, not the whole fanout tree.
    """
    if fanout < 1:
        raise ValueError(f"fanout must be >= 1, got {fanout}")
    select_stages = max(1, math.ceil(math.log2(max(2, fanout))))
    gate_width_um = 0.15
    return activity * (1 + select_stages) * gate_width_um * tech.switch_energy_per_um_j
