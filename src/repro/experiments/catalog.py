"""The one table of experiment names, each with its ``main`` and grids.

``python -m repro <name>`` calls the entry's ``main``; ``repro all`` and
the benchmark prewarm first run the union of the entries' grids as one
``Runner`` batch.  This module imports every driver, so only the CLI and
``benchmarks/conftest.py`` import it, lazily.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from repro.experiments import (ablations, fig03, fig04_05_06, fig07_08_09,
                               fig10_11, fig12_13, fig14_15_16, fig17_table5)


class Experiment(NamedTuple):
    """``main()`` prints the experiment with the rest of its driver
    module; each grid, called bare, returns specs of runs ``main`` reads."""

    main: Callable[[], None]
    grids: tuple[Callable[[], list], ...] = ()

    def specs(self) -> list:
        return [spec for grid in self.grids for spec in grid()]


#: in the order ``repro all`` prints: each ``main`` once, at its first name
EXPERIMENTS: dict[str, Experiment] = {
    "fig3": Experiment(fig03.main, (fig03.grid,)),
    "fig4": Experiment(fig04_05_06.main, (fig04_05_06.fig4_grid,)),
    "fig5": Experiment(fig04_05_06.main, (fig04_05_06.atac_grid,)),
    "fig6": Experiment(fig04_05_06.main, (fig04_05_06.atac_grid,)),
    "fig7": Experiment(fig07_08_09.main, (fig04_05_06.fig4_grid,)),
    "fig8": Experiment(fig07_08_09.main, (fig04_05_06.fig4_grid,)),
    "fig9": Experiment(fig07_08_09.main, (fig07_08_09.fig9_grid,)),
    "fig10": Experiment(fig10_11.main),
    "fig11": Experiment(fig10_11.main, (fig10_11.fig11_grid,)),
    "fig12": Experiment(fig12_13.main, (fig12_13.fig12_grid,)),
    "fig13": Experiment(fig12_13.main, (fig12_13.fig13_grid,)),
    "fig14": Experiment(fig14_15_16.main, (fig14_15_16.fig14_grid,)),
    "fig15": Experiment(fig14_15_16.main, (fig14_15_16.sharers_grid,)),
    "fig16": Experiment(fig14_15_16.main, (fig14_15_16.sharers_grid,)),
    "fig17": Experiment(fig17_table5.main, (fig17_table5.fig17_grid,)),
    "table5": Experiment(fig17_table5.main, (fig04_05_06.atac_grid,)),
    "ablations": Experiment(ablations.main, (ablations.sequencing_cost_grid,
                                             ablations.analytic_accuracy_grid)),
}
