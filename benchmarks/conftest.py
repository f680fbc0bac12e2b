"""Benchmark-suite configuration.

Every module regenerates one paper table/figure (see DESIGN.md section
5) through :mod:`repro.experiments` and asserts its qualitative shape.
Runs are content-addressed in ``.repro_cache/`` so figures sharing
simulations (e.g. Figs 4-8 and Table V) simulate each (app,
architecture) pair only once per scale.

Before the first test runs, the session fixture below runs the union of
the *collected* modules' full-system grids from
:data:`repro.experiments.catalog.EXPERIMENTS` as one parallel batch, so
each figure's own call is all store hits.  Load points are left out: the
Fig 3 and ablation benches pass their own widths and loads.

Scale knobs (environment):

* ``REPRO_MESH_WIDTH`` -- 16 (default, 256 cores, about a minute cold
  on 2 cores) or 32 (the paper's 1024 cores: 256 s on 2 cores with the
  Figs 4-6 runs already in the store; a cold ``repro all`` at w32/0.6
  takes 388 s).
* ``REPRO_SCALE``      -- per-core trace length multiplier (default 0.6).
* ``REPRO_JOBS``       -- runner worker processes (default: all cores).
"""

import os
import re

import pytest

# The benchmark suite measures simulator performance, so the runtime
# invariant checker must stay off no matter what the surrounding shell
# exports: the figure drivers build their specs with spec_for, which
# reads REPRO_SANITIZE, and a leaked 1 would both slow every run ~2x
# and bypass the run cache the prewarm sweep exists to fill.
os.environ.pop("REPRO_SANITIZE", None)


@pytest.fixture(scope="session", autouse=True)
def prewarm_run_store(request):
    """Fan the collected figures' combined spec list out once, up front."""
    from repro.experiments.catalog import EXPERIMENTS
    from repro.experiments.runner import Runner
    from repro.experiments.runspec import RunSpec

    # test_fig04_runtime -> fig4, test_ablations -> ablations
    names = {
        re.sub(r"^test_(\D+)0*(\d*).*", r"\1\2", item.module.__name__.split(".")[-1])
        for item in request.session.items
    }
    specs = [
        spec
        for name, experiment in EXPERIMENTS.items() if name in names
        for spec in experiment.specs() if isinstance(spec, RunSpec)
    ]
    if specs:
        Runner().run(specs)


def once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing.

    Experiments are deterministic end-to-end simulations; repeating
    them only re-reads the run store, so a single round is both honest
    and fast.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture
def run_once():
    return once
