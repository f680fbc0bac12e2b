"""Figures 4-6: application runtime, traffic mix, offered load.

* **Figure 4**: completion time of the 8 applications on ATAC+,
  EMesh-BCast and EMesh-Pure.  ATAC+ leads everywhere; EMesh-Pure
  collapses on broadcast-heavy apps (dynamic_graph, radix, barnes,
  fmm); high-load apps (radix, ocean_*) show a large EMesh-BCast
  penalty too.
* **Figure 5**: unicast vs broadcast traffic measured at the receiver.
* **Figure 6**: offered network load (flits/cycle/core) on ATAC+.

Each figure's runs come from its grid function, handed to the runner
as one batch, so a cold cache fans out across worker processes.
"""

from __future__ import annotations

from repro.experiments.common import RunSpec, format_table, grid, run_specs
from repro.network.registry import experiment_axis
from repro.workloads.splash import APP_ORDER

#: the Figure 4/7/8 architecture-comparison axis (registry-defined).
NETWORKS = experiment_axis("runtime")


def fig4_grid(apps: tuple[str, ...] = APP_ORDER, mesh_width: int | None = None,
              scale: float | None = None) -> list[RunSpec]:
    """Figure 4's runs (and Figures 7-8's): every app on every network."""
    return grid(apps, NETWORKS, mesh_width, scale)


def atac_grid(apps: tuple[str, ...] = APP_ORDER, mesh_width: int | None = None,
              scale: float | None = None) -> list[RunSpec]:
    """Figures 5-6's runs (and Table V's): every app on ATAC+."""
    return grid(apps, ("atac+",), mesh_width, scale)


def run_fig4(
    apps: tuple[str, ...] = APP_ORDER,
    mesh_width: int | None = None,
    scale: float | None = None,
) -> list[dict]:
    """Rows: app, runtime per network, and runtimes normalized to ATAC+."""
    results = iter(run_specs(fig4_grid(apps, mesh_width, scale)))
    rows = []
    for app in apps:
        row: dict = {"app": app}
        for net in NETWORKS:
            row[net] = next(results).completion_cycles
        for net in NETWORKS:
            row[f"{net}_norm"] = round(row[net] / row["atac+"], 3)
        rows.append(row)
    return rows


def run_fig5(
    apps: tuple[str, ...] = APP_ORDER,
    mesh_width: int | None = None,
    scale: float | None = None,
) -> list[dict]:
    """Receiver-side unicast/broadcast percentages on ATAC+ (Fig 5)."""
    rows = []
    for app, res in zip(apps, run_specs(atac_grid(apps, mesh_width, scale))):
        frac = res.receiver_broadcast_fraction
        rows.append(
            {
                "app": app,
                "broadcast_pct": round(100 * frac, 1),
                "unicast_pct": round(100 * (1 - frac), 1),
            }
        )
    return rows


def run_fig6(
    apps: tuple[str, ...] = APP_ORDER,
    mesh_width: int | None = None,
    scale: float | None = None,
) -> list[dict]:
    """Offered load in flits/cycle/core on ATAC+ (Fig 6)."""
    return [
        {"app": app, "offered_load": round(res.offered_load, 5)}
        for app, res in zip(apps,
                            run_specs(atac_grid(apps, mesh_width, scale)))
    ]


def main() -> None:
    print("Figure 4: application runtime (cycles; *_norm = relative to ATAC+)")
    print(format_table(
        run_fig4(),
        ["app", *NETWORKS, *(f"{net}_norm" for net in NETWORKS[1:])],
    ))
    print("\nFigure 5: traffic mix at the receiver (ATAC+)")
    print(format_table(run_fig5(), ["app", "unicast_pct", "broadcast_pct"]))
    print("\nFigure 6: offered network load (flits/cycle/core, ATAC+)")
    print(format_table(run_fig6(), ["app", "offered_load"]))
