"""Technology models: transistors, electrical circuits, photonic devices.

This package reimplements (analytically, in pure Python) the modeling
stack the paper obtains from DSENT [26], McPAT [27], the 11 nm tri-gate
virtual-source transistor projections [29][30], and the photonic link
models of Georgas et al. [28].

The electrical technology is one fixed 11 nm node, held as module
constants: :mod:`repro.tech.transistor` (the Table III rows and the
per-micron switching energy and leakage derived from them) and
:mod:`repro.tech.electrical` (repeated wires, flip-flops, switch
fabrics).  Only the paper's figure axes stay configurable: the Table IV
photonic scenario and the waveguide loss (Fig 9) through
``PhotonicParams``, the flit width (Fig 11) and sharer count (Fig 16)
through the ``SystemConfig`` the energy layer prices, and the core's
NDD share (Fig 17) through ``CorePowerModel``.  The public entry points
are:

* :class:`repro.tech.dsent.RouterModel`, ``LinkModel``, ``HubModel``,
  ``ReceiveNetModel`` -- DSENT-like per-event energies and leakage for
  on-chip network blocks.
* :class:`repro.tech.photonics.PhotonicParams`, ``OpticalLinkModel`` --
  Table II device parameters and end-to-end laser power budgets.
* :class:`repro.tech.scenarios.TechScenario` -- the four ATAC+ flavors of
  Table IV (Ideal / ATAC+ / RingTuned / Cons).
* :class:`repro.tech.caches.CacheModel` -- McPAT-like SRAM energy/area.
* :class:`repro.tech.core.CorePowerModel` -- Section V-G first-order
  core power model.
"""

from repro.tech.dsent import RouterModel, LinkModel, HubModel, ReceiveNetModel
from repro.tech.photonics import PhotonicParams, OpticalLinkModel, OnetGeometry
from repro.tech.scenarios import (
    TechScenario,
    SCENARIO_IDEAL,
    SCENARIO_ATACP,
    SCENARIO_RINGTUNED,
    SCENARIO_CONS,
    ALL_SCENARIOS,
)
from repro.tech.caches import (
    CacheModel,
    CacheGeometry,
    l1i_cache,
    l1d_cache,
    l2_cache,
    directory_cache,
)
from repro.tech.core import CorePowerModel

__all__ = [
    "ReceiveNetModel",
    "OnetGeometry",
    "l1i_cache",
    "l1d_cache",
    "l2_cache",
    "directory_cache",
    "RouterModel",
    "LinkModel",
    "HubModel",
    "PhotonicParams",
    "OpticalLinkModel",
    "TechScenario",
    "SCENARIO_IDEAL",
    "SCENARIO_ATACP",
    "SCENARIO_RINGTUNED",
    "SCENARIO_CONS",
    "ALL_SCENARIOS",
    "CacheModel",
    "CacheGeometry",
    "CorePowerModel",
]
