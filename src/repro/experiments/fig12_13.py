"""Figures 12-13: the ATAC -> ATAC+ architectural ablations.

* **Figure 12**: replacing the broadcast BNet with the point-to-point
  StarNet (cluster routing held fixed) cuts total energy ~8 % on
  average, more for unicast-heavy applications (radix, ocean_contig)
  than broadcast-heavy ones (barnes).
* **Figure 13**: replacing cluster routing with distance-based routing;
  Distance-15 gives the lowest EDP (~10 % below Cluster), again with
  larger gains for unicast-heavy applications.
"""

from __future__ import annotations

from repro.experiments.common import (
    RunSpec, energy_models, format_table, run_specs, spec_for,
)
from repro.workloads.splash import APP_ORDER

#: the four applications Figure 13 sweeps
FIG13_APPS = ("radix", "barnes", "ocean_contig", "ocean_non_contig")


def fig12_grid(apps: tuple[str, ...] = APP_ORDER, mesh_width: int | None = None,
               scale: float | None = None) -> list[RunSpec]:
    """Figure 12's runs: each app on cluster-routed ATAC+, BNet then StarNet."""
    return [
        spec_for(app, network="atac+", rthres=0, receive_net=rn,
                 mesh_width=mesh_width, scale=scale)
        for app in apps for rn in ("bnet", "starnet")
    ]


def fig13_grid(apps: tuple[str, ...] = FIG13_APPS,
               thresholds: tuple[int, ...] = (5, 10, 15, 20, 25),
               mesh_width: int | None = None,
               scale: float | None = None) -> list[RunSpec]:
    """Figure 13's runs: each app on ATAC+ at ``rthres=0``, then each threshold."""
    return [
        spec_for(app, network="atac+", rthres=t,
                 mesh_width=mesh_width, scale=scale)
        for app in apps for t in (0, *thresholds)
    ]


def run_fig12(
    apps: tuple[str, ...] = APP_ORDER,
    mesh_width: int | None = None,
    scale: float | None = None,
) -> list[dict]:
    """Chip energy with BNet vs StarNet under *cluster* routing.

    The experiment isolates the receive-network change exactly as the
    paper does ("conducted with a cluster-based routing protocol in
    order to quantify just the reduction in energy").
    """
    specs = fig12_grid(apps, mesh_width, scale)
    energies = {
        (spec.app, spec.receive_net): model.evaluate(result).chip_energy_j
        for spec, result, model in zip(specs, run_specs(specs),
                                       energy_models(specs))
    }
    rows = []
    for app in apps:
        row = {"app": app}
        row["bnet_j"] = energies[app, "bnet"]
        row["starnet_j"] = energies[app, "starnet"]
        row["starnet_norm"] = round(row["starnet_j"] / row["bnet_j"], 4)
        rows.append(row)
    avg = sum(r["starnet_norm"] for r in rows) / len(rows)
    rows.append({"app": "average", "starnet_norm": round(avg, 4)})
    return rows


def run_fig13(
    apps: tuple[str, ...] = FIG13_APPS,
    thresholds: tuple[int, ...] = (5, 10, 15, 20, 25),
    mesh_width: int | None = None,
    scale: float | None = None,
) -> list[dict]:
    """EDP of distance-based routing vs the Cluster baseline.

    ``rthres=0`` degenerates to cluster routing (every inter-cluster
    unicast over the ONet) and serves as the normalization baseline.
    """
    specs = fig13_grid(apps, thresholds, mesh_width, scale)
    edp = {
        (spec.app, spec.rthres): model.evaluate(result).edp()
        for spec, result, model in zip(specs, run_specs(specs),
                                       energy_models(specs))
    }
    rows = []
    for app in apps:
        ref = edp[app, 0]
        row = {"app": app, "Cluster": 1.0}
        for t in thresholds:
            row[f"Distance-{t}"] = round(edp[app, t] / ref, 4)
        rows.append(row)
    avg = {"app": "average", "Cluster": 1.0}
    for t in thresholds:
        key = f"Distance-{t}"
        avg[key] = round(sum(r[key] for r in rows) / len(rows), 4)
    rows.append(avg)
    return rows


def best_threshold(rows: list[dict]) -> str:
    """The EDP-optimal scheme on the average row (paper: Distance-15)."""
    avg = rows[-1]
    candidates = {k: v for k, v in avg.items() if k != "app"}
    return min(candidates, key=candidates.get)


def main() -> None:
    print("Figure 12: BNet -> StarNet energy (cluster routing)")
    rows = run_fig12()
    print(format_table(rows, ["app", "starnet_norm"]))
    print("\nFigure 13: EDP of routing schemes (normalized to Cluster)")
    rows13 = run_fig13()
    print(format_table(rows13, list(rows13[0].keys())))
    print("best scheme:", best_threshold(rows13))
