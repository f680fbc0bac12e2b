"""Figure 17 and Table V: core power and adaptive SWMR link behaviour.

* **Figure 17**: whole-chip energy split into core / cache / network,
  with core NDD power at 10 % and 40 % of the 20 mW peak, for ATAC+
  and EMesh-BCast.  The core dwarfs the rest; the faster network's
  saving is almost entirely core-NDD energy.
* **Table V**: per application, the adaptive SWMR link utilization
  (fraction of time in unicast or broadcast mode) and the average
  number of unicasts between successive broadcasts.
"""

from __future__ import annotations

from repro.experiments.common import (
    RunSpec, energy_models, format_table, grid, run_specs,
)
from repro.experiments.fig04_05_06 import atac_grid
from repro.network.registry import experiment_axis
from repro.tech.core import CorePowerModel
from repro.workloads.splash import APP_ORDER

FIG17_APPS = ("radix", "fmm", "ocean_contig", "ocean_non_contig")
#: the ATAC+-vs-mesh pair Figure 17 compares.
FIG17_NETWORKS = experiment_axis("edp")


def fig17_grid(apps: tuple[str, ...] = FIG17_APPS, mesh_width: int | None = None,
               scale: float | None = None) -> list[RunSpec]:
    """Figure 17's runs: every app on ATAC+ and EMesh-BCast."""
    return grid(apps, FIG17_NETWORKS, mesh_width, scale)


def run_fig17(
    apps: tuple[str, ...] = FIG17_APPS,
    ndd_fractions: tuple[float, ...] = (0.10, 0.40),
    mesh_width: int | None = None,
    scale: float | None = None,
) -> list[dict]:
    """Rows of (app, network, ndd_fraction) with core/cache/network J."""
    specs = fig17_grid(apps, mesh_width, scale)
    results = run_specs(specs)
    rows = []
    for ndd in ndd_fractions:
        core_model = CorePowerModel(ndd_fraction=ndd)
        models = energy_models(specs, core_power=core_model)
        for spec, result, model in zip(specs, results, models):
            b = model.evaluate(result)
            rows.append(
                {
                    "app": spec.app,
                    "network": b.network,
                    "ndd_frac": ndd,
                    "core_ndd_j": b["core_ndd"],
                    "core_dd_j": b["core_dd"],
                    "cache_j": b.cache_energy_j,
                    "network_j": b.network_energy_j,
                    "total_j": b.total_energy_j,
                }
            )
    return rows


def run_table5(
    apps: tuple[str, ...] = APP_ORDER,
    mesh_width: int | None = None,
    scale: float | None = None,
) -> list[dict]:
    """Table V: link utilization % and unicasts-per-broadcast on ATAC+."""
    rows = []
    for app, res in zip(apps, run_specs(atac_grid(apps, mesh_width, scale))):
        upb = res.unicasts_per_broadcast
        rows.append(
            {
                "app": app,
                "link_utilization_pct": round(100 * res.onet_utilization, 1),
                "unicasts_per_broadcast": (
                    round(upb, 1) if upb != float("inf") else float("inf")
                ),
            }
        )
    return rows


def main() -> None:
    print("Figure 17: chip energy (J), core/cache/network")
    rows = run_fig17()
    cols = ["app", "network", "ndd_frac", "core_ndd_j", "core_dd_j",
            "cache_j", "network_j", "total_j"]
    fmt_rows = [
        {k: (f"{v:.3e}" if isinstance(v, float) and k.endswith("_j") else v)
         for k, v in r.items()}
        for r in rows
    ]
    print(format_table(fmt_rows, cols))
    print("\nTable V: adaptive SWMR link utilization / unicasts per broadcast")
    rows5 = run_table5()
    print(format_table(rows5, list(rows5[0].keys())))
