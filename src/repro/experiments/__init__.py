"""Experiment drivers: one module per paper table/figure.

Every module exposes ``run(...) -> dict`` returning the figure's rows /
series, and is exercised by a matching module under ``benchmarks/``.
Scale knobs (shared via :mod:`repro.experiments.common`):

* ``REPRO_MESH_WIDTH`` -- mesh edge (32 = the paper's 1024 cores;
  default 16 = 256 cores so the whole suite completes in minutes),
* ``REPRO_SCALE``      -- trace-length multiplier (default 0.6),
* ``REPRO_CACHE``      -- set to ``0`` to disable the on-disk run cache.

See DESIGN.md section 5 for the experiment index and EXPERIMENTS.md for
recorded paper-vs-measured numbers.
"""
