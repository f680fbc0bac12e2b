"""Figures 7-9: energy breakdowns, EDP, waveguide-loss sensitivity.

* **Figure 7**: network + cache energy breakdown averaged across the 8
  applications, for ATAC+(Ideal)/ATAC+/ATAC+(RingTuned)/ATAC+(Cons)
  and the two electrical meshes, normalized to ATAC+(Ideal).
  Reproduced shapes: laser dominates Cons; ring tuning dominates
  RingTuned and Cons; ATAC+ ~= ATAC+(Ideal); caches dominate the
  efficient configurations.
* **Figure 8**: per-application energy-delay product normalized to
  ATAC+(Ideal).  Headline: EMesh-BCast ~1.8x, EMesh-Pure ~4.8x ATAC+.
* **Figure 9**: total energy vs waveguide loss (0.2-4 dB/cm),
  normalized to EMesh-BCast; ATAC+ tolerates moderate losses before
  losing its energy advantage.

The tech scenarios are post-processing (per-event energy tables applied
to the same event counters), so each figure simulates only its unique
(app, network) grid -- Figures 7-8 read Figure 4's -- as one spec batch.
"""

from __future__ import annotations

from repro.energy.accounting import ALL_KEYS, EnergyModel
from repro.experiments.common import (
    RunSpec, energy_models, format_table, grid, run_specs,
)
from repro.experiments.fig04_05_06 import NETWORKS, fig4_grid
from repro.network.registry import experiment_axis, get_network
from repro.tech.photonics import PhotonicParams
from repro.tech.scenarios import ALL_SCENARIOS, SCENARIO_ATACP, SCENARIO_IDEAL
from repro.workloads.splash import APP_ORDER

#: architecture columns of Figures 7/8: the four ATAC+ flavors + the
#: electrical meshes of the runtime-comparison axis.
MESHES = tuple(n for n in NETWORKS if not get_network(n).optical)
#: the Figure 9 ATAC+-vs-mesh pair.
EDP_AXIS = experiment_axis("edp")


def fig9_grid(apps: tuple[str, ...] = APP_ORDER, mesh_width: int | None = None,
              scale: float | None = None) -> list[RunSpec]:
    """Figure 9's runs: every app on ATAC+ and EMesh-BCast."""
    return grid(apps, EDP_AXIS, mesh_width, scale)


def _priced(specs: list[RunSpec]) -> dict:
    """Run ``specs``; returns {(app, net): (RunResult, EnergyModel)}."""
    return {
        (spec.app, spec.network): (result, model)
        for spec, result, model in zip(specs, run_specs(specs),
                                       energy_models(specs))
    }


def run_fig7(
    apps: tuple[str, ...] = APP_ORDER,
    mesh_width: int | None = None,
    scale: float | None = None,
) -> dict[str, dict[str, float]]:
    """Average per-component energy by architecture, normalized to
    ATAC+(Ideal)'s total; keys follow Figure 7's wedges."""
    priced = _priced(fig4_grid(apps, mesh_width, scale))
    totals: dict[str, dict[str, float]] = {}
    n = len(apps)
    for scenario in ALL_SCENARIOS:
        acc = {k: 0.0 for k in ALL_KEYS}
        for app in apps:
            result, model = priced[app, "atac+"]
            b = model.evaluate(result, scenario)
            for k in ALL_KEYS:
                acc[k] += b[k] / n
        totals[scenario.name] = acc
    for net in MESHES:
        acc = {k: 0.0 for k in ALL_KEYS}
        name = None
        for app in apps:
            result, model = priced[app, net]
            b = model.evaluate(result)
            name = b.network
            for k in ALL_KEYS:
                acc[k] += b[k] / n
        totals[name] = acc
    # normalize to ATAC+(Ideal) chip (network+cache) energy
    chip_keys = [k for k in ALL_KEYS if k not in ("core_dd", "core_ndd", "dram")]
    ref = sum(totals["ATAC+(Ideal)"][k] for k in chip_keys)
    return {
        arch: {k: comp[k] / ref for k in chip_keys}
        for arch, comp in totals.items()
    }


def run_fig8(
    apps: tuple[str, ...] = APP_ORDER,
    mesh_width: int | None = None,
    scale: float | None = None,
) -> list[dict]:
    """Per-app EDP normalized to ATAC+(Ideal); plus the average row."""
    priced = _priced(fig4_grid(apps, mesh_width, scale))
    rows = []
    sums: dict[str, float] = {}
    for app in apps:
        res, atac_model = priced[app, "atac+"]
        ref = atac_model.evaluate(res, SCENARIO_IDEAL).edp()
        row = {"app": app}
        for scenario in ALL_SCENARIOS:
            row[scenario.name] = round(
                atac_model.evaluate(res, scenario).edp() / ref, 3
            )
        for net in MESHES:
            result, model = priced[app, net]
            b = model.evaluate(result)
            row[b.network] = round(b.edp() / ref, 3)
        rows.append(row)
        for k, v in row.items():
            if k != "app":
                sums[k] = sums.get(k, 0.0) + v
    avg = {"app": "average"}
    avg.update({k: round(v / len(apps), 3) for k, v in sums.items()})
    rows.append(avg)
    return rows


def run_fig9(
    apps: tuple[str, ...] = APP_ORDER,
    losses_db_per_cm: tuple[float, ...] = (0.2, 1.0, 2.0, 3.0, 4.0),
    mesh_width: int | None = None,
    scale: float | None = None,
) -> list[dict]:
    """Chip energy vs waveguide loss, normalized to EMesh-BCast.

    Per app and averaged; ATAC+ (power-gated, athermal) under each loss.
    """
    priced = _priced(fig9_grid(apps, mesh_width, scale))
    rows = []
    for app in apps:
        bcast, bcast_model = priced[app, "emesh-bcast"]
        ref = bcast_model.evaluate(bcast).chip_energy_j
        atac, atac_model = priced[app, "atac+"]
        row = {"app": app}
        for loss in losses_db_per_cm:
            photonics = PhotonicParams(waveguide_loss_db_per_cm=loss)
            model = EnergyModel(atac_model.config, photonics=photonics)
            b = model.evaluate(atac, SCENARIO_ATACP)
            row[f"loss{loss}"] = round(b.chip_energy_j / ref, 3)
        rows.append(row)
    avg = {"app": "average"}
    for loss in losses_db_per_cm:
        key = f"loss{loss}"
        avg[key] = round(sum(r[key] for r in rows) / len(rows), 3)
    rows.append(avg)
    return rows


def crossover_loss(avg_row: dict) -> float | None:
    """First swept loss at which ATAC+'s energy exceeds EMesh-BCast."""
    for key in sorted(
        (k for k in avg_row if k.startswith("loss")),
        key=lambda k: float(k[4:]),
    ):
        if avg_row[key] > 1.0:
            return float(key[4:])
    return None


def main() -> None:
    print("Figure 7: energy by component, normalized to ATAC+(Ideal) total")
    fig7 = run_fig7()
    keys = sorted({k for comp in fig7.values() for k in comp})
    for arch, comp in fig7.items():
        total = sum(comp.values())
        wedges = ", ".join(f"{k}={v:.3f}" for k, v in comp.items() if v > 1e-3)
        print(f"  {arch:18s} total={total:.2f}  {wedges}")
    print("\nFigure 8: normalized energy-delay product")
    rows = run_fig8()
    print(format_table(rows, list(rows[0].keys())))
    print("\nFigure 9: energy vs waveguide loss (normalized to EMesh-BCast)")
    rows9 = run_fig9()
    print(format_table(rows9, list(rows9[0].keys())))
    print("crossover at:", crossover_loss(rows9[-1]), "dB/cm")
