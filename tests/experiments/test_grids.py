"""Each experiment's grid is exactly the set of runs its figure reads.

``repro all`` and the benchmark prewarm run the grids of
:data:`repro.experiments.catalog.EXPERIMENTS` before the figures do.
So a store prewarmed with an experiment's grid must serve that
experiment's figure functions without executing anything.  A figure
that builds a spec outside its grid would otherwise be simulated again,
after the batch.
"""

import pytest

from repro.experiments import (
    ablations,
    catalog,
    fig03,
    fig04_05_06,
    fig07_08_09,
    fig10_11,
    fig12_13,
    fig14_15_16,
    fig17_table5,
    runner,
)
from repro.experiments.runner import Runner

#: one cheap full-system run per (app, variant)
W8 = dict(apps=("lu_contig",), mesh_width=8, scale=0.05)
#: two short load points per routing
LOADS = dict(mesh_width=8, loads=(0.02, 0.1), cycles=300, warmup_cycles=100)

#: experiment -> [(figure function, its grid or None, kwargs for both)]
CASES = {
    "fig3": [(fig03.run, fig03.grid, LOADS)],
    "fig4": [(fig04_05_06.run_fig4, fig04_05_06.fig4_grid, W8)],
    "fig5": [(fig04_05_06.run_fig5, fig04_05_06.atac_grid, W8)],
    "fig6": [(fig04_05_06.run_fig6, fig04_05_06.atac_grid, W8)],
    "fig7": [(fig07_08_09.run_fig7, fig04_05_06.fig4_grid, W8)],
    "fig8": [(fig07_08_09.run_fig8, fig04_05_06.fig4_grid, W8)],
    "fig9": [(fig07_08_09.run_fig9, fig07_08_09.fig9_grid, W8)],
    "fig10": [(fig10_11.run_fig10, None, dict(mesh_width=8))],
    "fig11": [(fig10_11.run_fig11, fig10_11.fig11_grid,
               dict(W8, widths=(32, 64)))],
    "fig12": [(fig12_13.run_fig12, fig12_13.fig12_grid, W8)],
    "fig13": [(fig12_13.run_fig13, fig12_13.fig13_grid,
               dict(W8, thresholds=(5,)))],
    "fig14": [(fig14_15_16.run_fig14, fig14_15_16.fig14_grid, W8)],
    "fig15": [(fig14_15_16.run_fig15, fig14_15_16.sharers_grid,
               dict(W8, sharers=(4, 8)))],
    "fig16": [(fig14_15_16.run_fig16, fig14_15_16.sharers_grid,
               dict(W8, sharers=(4, 8)))],
    "fig17": [(fig17_table5.run_fig17, fig17_table5.fig17_grid, W8)],
    "table5": [(fig17_table5.run_table5, fig04_05_06.atac_grid, W8)],
    "ablations": [
        (ablations.run_sequencing_cost, ablations.sequencing_cost_grid, W8),
        (ablations.run_analytic_accuracy, ablations.analytic_accuracy_grid,
         dict(LOADS, loads=(0.02,))),
    ],
}


def test_every_experiment_has_a_case():
    assert CASES.keys() == catalog.EXPERIMENTS.keys()


@pytest.mark.parametrize("name", list(CASES))
def test_prewarmed_grid_serves_the_figure(name, monkeypatch, tmp_path):
    for var in ("REPRO_SANITIZE", "REPRO_TELEMETRY"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_JOBS", "1")
    cases = CASES[name]
    grids = tuple(grid for _, grid, _ in cases if grid is not None)
    assert grids == catalog.EXPERIMENTS[name].grids
    Runner(jobs=1, progress=False).run(
        [spec for _, grid, kw in cases if grid is not None
         for spec in grid(**kw)]
    )

    def refuse(spec):
        raise AssertionError(f"{name} executed {spec.label()}, outside its grid")

    monkeypatch.setattr(runner, "_timed_execute", refuse)
    for figure, _, kw in cases:
        figure(**kw)
