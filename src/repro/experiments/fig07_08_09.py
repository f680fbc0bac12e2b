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
(app, network) grid -- built as one spec batch and run in parallel.
"""

from __future__ import annotations

from repro.energy.accounting import ALL_KEYS, EnergyModel
from repro.experiments.common import format_table, make_config, run_specs, spec_for
from repro.network.registry import experiment_axis, get_network
from repro.tech.photonics import PhotonicParams
from repro.tech.scenarios import (
    ALL_SCENARIOS,
    SCENARIO_ATACP,
    SCENARIO_IDEAL,
    TechScenario,
)
from repro.workloads.splash import APP_ORDER

#: architecture columns of Figures 7/8: the four ATAC+ flavors + the
#: electrical meshes of the runtime-comparison axis.
RUNTIME_AXIS = experiment_axis("runtime")
MESHES = tuple(n for n in RUNTIME_AXIS if not get_network(n).optical)
#: the Figure 9 ATAC+-vs-mesh pair.
EDP_AXIS = experiment_axis("edp")


def _energy_model(network: str, mesh_width: int | None,
                  photonics: PhotonicParams | None = None) -> EnergyModel:
    return EnergyModel(make_config(network, mesh_width), photonics=photonics)


def _grid(apps, networks, mesh_width, scale):
    """Run the (app, network) grid; returns {(app, net): RunResult}."""
    keys = [(app, net) for app in apps for net in networks]
    specs = [
        spec_for(app, network=net, mesh_width=mesh_width, scale=scale)
        for app, net in keys
    ]
    return dict(zip(keys, run_specs(specs)))


def run_fig7(
    apps: tuple[str, ...] = APP_ORDER,
    mesh_width: int | None = None,
    scale: float | None = None,
) -> dict[str, dict[str, float]]:
    """Average per-component energy by architecture, normalized to
    ATAC+(Ideal)'s total; keys follow Figure 7's wedges."""
    results = _grid(apps, RUNTIME_AXIS, mesh_width, scale)
    totals: dict[str, dict[str, float]] = {}
    n = len(apps)
    atac_model = _energy_model("atac+", mesh_width)
    for scenario in ALL_SCENARIOS:
        acc = {k: 0.0 for k in ALL_KEYS}
        for app in apps:
            b = atac_model.evaluate(results[app, "atac+"], scenario)
            for k in ALL_KEYS:
                acc[k] += b[k] / n
        totals[scenario.name] = acc
    for net in MESHES:
        model = _energy_model(net, mesh_width)
        acc = {k: 0.0 for k in ALL_KEYS}
        name = None
        for app in apps:
            b = model.evaluate(results[app, net])
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
    results = _grid(apps, RUNTIME_AXIS, mesh_width, scale)
    atac_model = _energy_model("atac+", mesh_width)
    mesh_models = {net: _energy_model(net, mesh_width) for net in MESHES}
    rows = []
    sums: dict[str, float] = {}
    for app in apps:
        res = results[app, "atac+"]
        ref = atac_model.evaluate(res, SCENARIO_IDEAL).edp()
        row = {"app": app}
        for scenario in ALL_SCENARIOS:
            row[scenario.name] = round(
                atac_model.evaluate(res, scenario).edp() / ref, 3
            )
        for net in MESHES:
            b = mesh_models[net].evaluate(results[app, net])
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
    results = _grid(apps, EDP_AXIS, mesh_width, scale)
    rows = []
    bcast_model = _energy_model("emesh-bcast", mesh_width)
    for app in apps:
        ref = bcast_model.evaluate(results[app, "emesh-bcast"]).chip_energy_j
        row = {"app": app}
        for loss in losses_db_per_cm:
            photonics = PhotonicParams(waveguide_loss_db_per_cm=loss)
            model = _energy_model("atac+", mesh_width, photonics=photonics)
            b = model.evaluate(results[app, "atac+"], SCENARIO_ATACP)
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


if __name__ == "__main__":
    main()
