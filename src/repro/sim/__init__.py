"""The Graphite-like full-system simulator.

Ties together per-core traces (:mod:`repro.workloads`), private cache
hierarchies and directory coherence (:mod:`repro.coherence`) and a
network model (:mod:`repro.network`) over one discrete-event engine.

The defining property -- the reason the paper built this instead of
replaying traces -- is **back-pressure**: cores block on cache misses,
misses become coherence messages whose latency is set by the simulated
network (including contention), and barriers couple per-core slowdowns
into whole-application completion time.  Network behaviour therefore
feeds back into runtime, and runtime feeds into every non-data-dependent
energy term.
"""

from repro.sim.eventq import EventQueue
from repro.sim.config import SystemConfig, make_network
from repro.sim.system import ManycoreSystem
from repro.sim.results import RunResult

__all__ = [
    "EventQueue",
    "SystemConfig",
    "make_network",
    "ManycoreSystem",
    "RunResult",
]
