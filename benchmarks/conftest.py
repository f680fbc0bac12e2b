"""Benchmark-suite configuration.

Every module regenerates one paper table/figure (see DESIGN.md section
5) through :mod:`repro.experiments` and asserts its qualitative shape.
Runs are content-addressed in ``.repro_cache/`` so figures sharing
simulations (e.g. Figs 4-8 and Table V) simulate each (app,
architecture) pair only once per scale.

Before the first test runs, the session fixture below unions the spec
lists of every *collected* figure module and fans the whole batch out
through the process-parallel :class:`~repro.experiments.runner.Runner`
-- a cold cache then costs one parallel sweep instead of a serial
figure-by-figure crawl, and each figure's own call is all store hits.

Scale knobs (environment):

* ``REPRO_MESH_WIDTH`` -- 16 (default, 256 cores, minutes) or 32 (the
  paper's 1024 cores, ~an hour cold).
* ``REPRO_SCALE``      -- per-core trace length multiplier (default 0.6).
* ``REPRO_JOBS``       -- runner worker processes (default: all cores).
* ``REPRO_PREWARM=0``  -- disable the parallel prewarm sweep.
"""

import os

import pytest

# The benchmark suite measures simulator performance, so the runtime
# invariant checker must stay off no matter what the surrounding shell
# exports: the figure drivers build their specs with spec_for, which
# reads REPRO_SANITIZE, and a leaked 1 would both slow every run ~2x
# and bypass the run cache the prewarm sweep exists to fill.
os.environ.pop("REPRO_SANITIZE", None)


def _prewarm_spec_builders():
    """Module basename -> callable building that figure's RunSpec list.

    Mirrors each driver's default grid (apps x architecture variants);
    ``spec_for`` resolves mesh width and scale from the environment at
    call time, exactly as the drivers themselves do.
    """
    from repro.coherence.directory import Protocol
    from repro.experiments import fig04_05_06, fig10_11, fig14_15_16, fig17_table5
    from repro.experiments.common import spec_for
    from repro.experiments.fig07_08_09 import MESHES
    from repro.experiments.fig12_13 import FIG13_APPS
    from repro.workloads.splash import APP_ORDER

    def grid(apps, networks, **kw):
        return [spec_for(a, network=n, **kw) for a in apps for n in networks]

    def atac_all():
        return grid(APP_ORDER, ("atac+",))

    def energy_grid():
        return grid(APP_ORDER, ("atac+",) + MESHES)

    return {
        "test_fig04_runtime": lambda: grid(APP_ORDER, fig04_05_06.NETWORKS),
        "test_fig05_traffic_mix": atac_all,
        "test_fig06_offered_load": atac_all,
        "test_fig07_energy_breakdown": energy_grid,
        "test_fig08_edp": energy_grid,
        "test_fig09_waveguide_loss": lambda: grid(
            APP_ORDER, ("atac+", "emesh-bcast")
        ),
        "test_fig11_flit_width": lambda: [
            spec_for(a, network="atac+", flit_bits=w)
            for a in fig10_11.FIG11_APPS for w in fig10_11.FLIT_WIDTHS
        ],
        "test_fig12_starnet": lambda: [
            spec_for(a, network="atac+", rthres=0, receive_net=rn)
            for a in APP_ORDER for rn in ("bnet", "starnet")
        ],
        "test_fig13_routing": lambda: [
            spec_for(a, network="atac+", rthres=t)
            for a in FIG13_APPS for t in (0, 5, 10, 15, 20, 25)
        ],
        "test_fig14_protocols": lambda: [
            spec_for(a, network=n, protocol=p)
            for a in fig14_15_16.FIG14_APPS
            for n in ("atac+", "emesh-bcast")
            for p in (Protocol.ACKWISE, Protocol.DIRKB)
        ],
        "test_fig15_sharers_delay": lambda: [
            spec_for(a, network="atac+", hardware_sharers=k)
            for a in fig14_15_16.FIG15_APPS for k in fig14_15_16.SHARER_SWEEP
        ],
        "test_fig16_sharers_energy": lambda: [
            spec_for(a, network="atac+", hardware_sharers=k)
            for a in fig14_15_16.FIG15_APPS for k in fig14_15_16.SHARER_SWEEP
        ],
        "test_fig17_core_power": lambda: grid(
            fig17_table5.FIG17_APPS, ("atac+", "emesh-bcast")
        ),
        "test_table5_link_utilization": atac_all,
        "test_ablations": lambda: grid(("barnes", "dynamic_graph"), ("atac+",)),
    }


@pytest.fixture(scope="session", autouse=True)
def prewarm_run_store(request):
    """Fan the collected figures' combined spec list out once, up front."""
    if os.environ.get("REPRO_PREWARM", "1") == "0":
        return
    from repro.experiments.runner import Runner

    builders = _prewarm_spec_builders()
    specs, seen = [], set()
    for item in request.session.items:
        name = getattr(item.module, "__name__", "").rsplit(".", 1)[-1]
        if name in builders and name not in seen:
            seen.add(name)
            specs.extend(builders[name]())
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
