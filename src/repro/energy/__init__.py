"""Energy, energy-delay-product and area accounting.

Implements the paper's toolflow (Section V-A): per-event energies and
static power from the technology models (:mod:`repro.tech`) are
combined with the event counters and completion time of a simulation
run (:class:`repro.sim.results.RunResult`) to produce the component
breakdowns behind Figures 7-10, 12-14, 16 and 17.
"""

from repro.energy.accounting import EnergyBreakdown, EnergyModel
from repro.energy.area import AreaModel, AreaBreakdown

__all__ = [
    "EnergyBreakdown",
    "EnergyModel",
    "AreaModel",
    "AreaBreakdown",
]
