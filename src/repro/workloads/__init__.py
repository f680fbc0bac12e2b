"""Workload models.

* :mod:`repro.workloads.synthetic` -- open-loop uniform-random traffic
  with a configurable broadcast fraction, used for the Figure 3
  latency-vs-offered-load study.  It imports NumPy only when it
  generates traffic, so importing this package (as the full-system
  simulator does) never loads NumPy.
* :mod:`repro.workloads.trace`     -- the per-core instruction-trace
  format the full-system simulator executes.
* :mod:`repro.workloads.splash`    -- parameterized models of the seven
  SPLASH-2 applications and the dynamic-graph benchmark, calibrated to
  the paper's per-application traffic signatures (Figures 5-6, Table V).
"""

from repro.workloads.synthetic import SyntheticTraffic, LoadSweepPoint, run_load_point
from repro.workloads.trace import (
    ComputeOp,
    MemoryOp,
    BarrierOp,
    TraceOp,
    CoreTrace,
)
from repro.workloads.splash import (
    AppProfile,
    APP_PROFILES,
    APP_ORDER,
    generate_traces,
)

__all__ = [
    "SyntheticTraffic",
    "LoadSweepPoint",
    "run_load_point",
    "ComputeOp",
    "MemoryOp",
    "BarrierOp",
    "TraceOp",
    "CoreTrace",
    "AppProfile",
    "APP_PROFILES",
    "APP_ORDER",
    "generate_traces",
]
