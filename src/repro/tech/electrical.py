"""Electrical circuit primitives: repeated wires, registers, switches.

These are the building blocks the DSENT-like network models in
:mod:`repro.tech.dsent` compose into routers, links and hubs.  The
primitives are fixed at the 11 nm node (:mod:`repro.tech.transistor`),
so wires and flip-flops are module constants:

* an energy per *event* (a bit moved one mm, a register write, a clock
  edge),
* a leakage power burned whether or not the block is used (a
  *non-data-dependent* cost in the paper's vocabulary), and
* an area.

The switch-fabric functions take only the port, request or fanout count
that varies between the blocks that use them.

Conventions
-----------
* Energies are per **bit** unless stated otherwise; callers multiply by
  bus width.
* The switching-activity factor ``ACTIVITY`` (0.25 = random data, half
  the bits toggle, half of those charge) converts full-swing C*V^2 into
  average energy per transported bit.
"""

from __future__ import annotations

import math

from repro.tech.transistor import (
    CONTACTED_GATE_PITCH_NM,
    LEAKAGE_POWER_PER_UM_W,
    SWITCH_ENERGY_PER_UM_J,
    VDD_V,
)

#: Switching activity: for random payloads, a bit toggles with
#: probability 1/2 and only rising transitions draw supply energy.
ACTIVITY = 0.25

# ----------------------------------------------------------------------
# Repeated global wire at minimum-energy repeater sizing
# ----------------------------------------------------------------------
# On-chip global/semi-global wires at deeply scaled nodes are dominated
# by wire capacitance; repeaters add ~30-40 % more switched capacitance.
# Energy is ``(1 + repeater overhead) * C_wire * V^2`` per mm per full
# transition.

#: Semi-global wire capacitance at the 11 nm node (F/mm).
WIRE_CAP_PER_MM_F = 0.15e-12
#: Extra switched capacitance of the repeaters, as a fraction of the wire's.
REPEATER_OVERHEAD = 0.35
#: Distance between repeaters (mm); sets leakage per mm.
REPEATER_SPACING_MM = 0.25
#: Total transistor width of one repeater (um).
REPEATER_WIDTH_UM = 2.0
#: Routing pitch of one bit-lane (um).
WIRE_PITCH_UM = 0.1

#: Average energy to move one bit one mm (J).
WIRE_ENERGY_PER_BIT_MM_J = (
    ACTIVITY * (WIRE_CAP_PER_MM_F * (1.0 + REPEATER_OVERHEAD)) * VDD_V**2
)
#: Repeater leakage per bit-lane per mm of wire (W).
WIRE_LEAKAGE_PER_BIT_MM_W = (
    (1.0 / REPEATER_SPACING_MM) * REPEATER_WIDTH_UM * LEAKAGE_POWER_PER_UM_W
)
#: Routing area of one bit-lane per mm (um^2): pitch (um) x 1 mm (=1000 um).
WIRE_AREA_PER_BIT_MM_UM2 = WIRE_PITCH_UM * 1000.0

# ----------------------------------------------------------------------
# One flip-flop bit: the unit of buffers, pipeline stages and FIFOs
# ----------------------------------------------------------------------
# Flip-flops have two energy components the paper's NDD analysis cares
# about: the *data* energy of capturing a new value, and the *clock*
# energy burned every cycle whether or not data changes (an ungated
# clock is a canonical non-data-dependent consumer).

#: Total transistor width of one FF bit (um); ~24 minimum devices.
REGISTER_WIDTH_UM = 1.2
#: Fraction of FF width on the clock network (internal clock buffers).
REGISTER_CLOCK_FRACTION = 0.30

#: Energy to capture one changed data bit (J).
REGISTER_WRITE_ENERGY_J = (
    0.5 * (REGISTER_WIDTH_UM * (1.0 - REGISTER_CLOCK_FRACTION))
    * SWITCH_ENERGY_PER_UM_J
)
#: Clock energy per cycle per bit, burned every cycle (J).
REGISTER_CLOCK_ENERGY_J = (
    (REGISTER_WIDTH_UM * REGISTER_CLOCK_FRACTION) * SWITCH_ENERGY_PER_UM_J
)
#: Static leakage of one FF bit (W).
REGISTER_LEAKAGE_W = 0.5 * REGISTER_WIDTH_UM * LEAKAGE_POWER_PER_UM_W
#: Layout footprint of one FF bit (um^2).
REGISTER_AREA_UM2 = REGISTER_WIDTH_UM * CONTACTED_GATE_PITCH_NM * 1e-3 * 2.0

# ----------------------------------------------------------------------
# Switch fabrics
# ----------------------------------------------------------------------
#: Crossbar output-wire span per port (um).
PORT_SPAN_UM = 50.0
#: Capacitance of a crossbar output wire (F/mm), unrepeated.
CROSSBAR_CAP_PER_MM_F = 0.20e-12


def crossbar_energy_per_bit_j(n_ports: int) -> float:
    """Energy for one bit to traverse an ``n_ports``-port crossbar (J).

    Modeled as a matrix crossbar: a bit drives an output wire spanning
    all input ports plus the tri-state drivers hanging off it.  Wire
    length grows linearly with port count.
    """
    if n_ports < 2:
        raise ValueError(f"crossbar needs >= 2 ports, got {n_ports}")
    wire_len_mm = n_ports * PORT_SPAN_UM * 1e-3
    wire_energy = ACTIVITY * CROSSBAR_CAP_PER_MM_F * wire_len_mm * VDD_V**2
    driver_energy = ACTIVITY * n_ports * SWITCH_ENERGY_PER_UM_J * 0.3
    return wire_energy + driver_energy


def arbiter_energy_j(n_requests: int) -> float:
    """Energy of one round of matrix arbitration among ``n_requests`` (J).

    A matrix arbiter has O(n^2) grant/priority cells; each decision
    toggles ~n of them.
    """
    if n_requests < 1:
        raise ValueError(f"arbiter needs >= 1 request, got {n_requests}")
    cells_toggled = max(1, n_requests)
    cell_width_um = 0.3
    return cells_toggled * cell_width_um * SWITCH_ENERGY_PER_UM_J


def demux_energy_per_bit_j(fanout: int) -> float:
    """Energy per bit through a 1-to-``fanout`` demultiplexer (J).

    Only the selected branch toggles; the select tree is log2(fanout)
    gate stages.  This is the heart of the StarNet's energy advantage:
    a unicast pays one branch, not the whole fanout tree.
    """
    if fanout < 1:
        raise ValueError(f"fanout must be >= 1, got {fanout}")
    select_stages = max(1, math.ceil(math.log2(max(2, fanout))))
    gate_width_um = 0.15
    return ACTIVITY * (1 + select_stages) * gate_width_um * SWITCH_ENERGY_PER_UM_J
