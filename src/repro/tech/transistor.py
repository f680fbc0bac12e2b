"""Projected 11 nm tri-gate transistor parameters (paper Table III).

The paper derives an 11 nm electrical technology from the virtual-source
transport model of Khakifirooz et al. [29] and the parasitic-capacitance
model of Wei et al. [30], then feeds the resulting parameters to both
McPAT and DSENT.  We capture the *published outputs* of that derivation
(Table III) as module constants, plus the first-order circuit quantities
every other model in this package needs: switching energy and leakage
power per micron of gate width.  Every run is priced at this one node.

High-threshold (HVT) devices are assumed throughout, as in the paper
("As clock frequencies are relatively slow, high threshold (HVT)
transistors are assumed for lower leakage").
"""

from __future__ import annotations

# ----------------------------------------------------------------------
# Table III rows the circuit models read
# ----------------------------------------------------------------------
#: Process supply voltage (V).
VDD_V = 0.6
#: Gate capacitance per micron of width, parasitics included (fF/um).
GATE_CAP_FF_PER_UM = 2.420
#: Drain/junction capacitance per micron of width (fF/um).
DRAIN_CAP_FF_PER_UM = 1.150
#: Off-state leakage current per micron of width, HVT (nA/um).
IOFF_NA_PER_UM = 1.0
#: Contacted gate pitch (nm); sets standard-cell density.
CONTACTED_GATE_PITCH_NM = 44.0

# ----------------------------------------------------------------------
# Table III rows that only check the node's plausibility (FO4 delay)
# ----------------------------------------------------------------------
NODE_NAME = "11nm-trigate-hvt"
#: Physical gate length (nm).
GATE_LENGTH_NM = 14.0
#: Effective on-current per micron of width, NMOS / PMOS (uA/um).
ION_N_UA_PER_UM = 739.0
ION_P_UA_PER_UM = 668.0
#: Minimum drawn device width (um).
MIN_WIDTH_UM = 0.05

# ----------------------------------------------------------------------
# Derived per-width quantities
# ----------------------------------------------------------------------
#: Total switched capacitance per micron of device width (F).
CAP_PER_UM_F = (GATE_CAP_FF_PER_UM + DRAIN_CAP_FF_PER_UM) * 1e-15

#: Full-swing C*V^2 switching energy per micron of width (J): the energy
#: drawn from the supply for one rising output transition.  Average
#: dynamic energy models multiply by an activity factor.
SWITCH_ENERGY_PER_UM_J = CAP_PER_UM_F * VDD_V**2

#: Static leakage power per micron of transistor width (W).  One of the
#: two stacked devices in a CMOS gate leaks at any time; we charge
#: I_off * V_DD per micron of *total* width and let the circuit models
#: decide how much width is in the leak path.
LEAKAGE_POWER_PER_UM_W = IOFF_NA_PER_UM * 1e-9 * VDD_V
