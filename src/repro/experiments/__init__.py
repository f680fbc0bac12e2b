"""Experiment drivers: one module per group of paper figures/tables.

Each figure that simulates has a grid function returning its specs
(``fig4_grid``) and a figure function that runs it (``run_fig4``); each
module's ``main()`` prints its figures, and
:mod:`repro.experiments.catalog` maps every CLI experiment name to its
``main`` and grids.  Knobs (environment):

* ``REPRO_MESH_WIDTH`` -- mesh edge (32 = the paper's 1024 cores;
  default 16 = 256 cores so the whole suite completes in minutes),
* ``REPRO_SCALE``      -- trace-length multiplier (default 0.6),
* ``REPRO_CACHE_DIR``  -- the on-disk run store (default ``.repro_cache``).

See DESIGN.md section 5 for the experiment index and EXPERIMENTS.md for
recorded paper-vs-measured numbers.
"""
