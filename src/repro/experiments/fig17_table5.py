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

from repro.energy.accounting import EnergyModel
from repro.experiments.common import format_table, make_config, run_specs, spec_for
from repro.network.registry import experiment_axis
from repro.tech.core import CorePowerModel
from repro.workloads.splash import APP_ORDER

FIG17_APPS = ("radix", "fmm", "ocean_contig", "ocean_non_contig")
#: the ATAC+-vs-mesh pair Figure 17 compares.
FIG17_NETWORKS = experiment_axis("edp")


def run_fig17(
    apps: tuple[str, ...] = FIG17_APPS,
    ndd_fractions: tuple[float, ...] = (0.10, 0.40),
    mesh_width: int | None = None,
    scale: float | None = None,
) -> list[dict]:
    """Rows of (app, network, ndd_fraction) with core/cache/network J."""
    keys = [(app, net) for app in apps for net in FIG17_NETWORKS]
    specs = [
        spec_for(app, network=net, mesh_width=mesh_width, scale=scale)
        for app, net in keys
    ]
    results = dict(zip(keys, run_specs(specs)))
    rows = []
    for ndd in ndd_fractions:
        core_model = CorePowerModel(ndd_fraction=ndd)
        for app in apps:
            for net in FIG17_NETWORKS:
                model = EnergyModel(
                    make_config(net, mesh_width), core_power=core_model
                )
                b = model.evaluate(results[app, net])
                rows.append(
                    {
                        "app": app,
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
    specs = [
        spec_for(app, network="atac+", mesh_width=mesh_width, scale=scale)
        for app in apps
    ]
    rows = []
    for app, res in zip(apps, run_specs(specs)):
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


if __name__ == "__main__":
    main()
