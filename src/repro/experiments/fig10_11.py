"""Figures 10-11: area breakdown and flit-width sensitivity.

* **Figure 10**: chip area of ATAC+ vs the electrical mesh.  Caches
  dominate (~90 %); electrical network components are negligible; the
  photonics occupy ~40 mm^2 at 64-bit flit width.
* **Figure 11**: ATAC+ runtime as flit width sweeps 16..256 bits.
  Performance improves steeply to 64 bits (~50 % from 16) and flattens
  (~10 % more to 256); the paper picks 64 bits because photonic area
  grows linearly with width (~160 mm^2 at 256 bits).
"""

from __future__ import annotations

from repro.energy.area import AreaModel
from repro.experiments.common import RunSpec, format_table, run_specs, spec_for
from repro.network.registry import experiment_axis, get_network
from repro.sim.config import SystemConfig
from repro.tech.photonics import OnetGeometry

#: the four applications Figure 11 sweeps
FIG11_APPS = ("radix", "barnes", "ocean_contig", "ocean_non_contig")
FLIT_WIDTHS = (16, 32, 64, 128, 256)


def run_fig10(mesh_width: int = 32) -> dict[str, dict[str, float]]:
    """Area breakdowns (mm^2) for ATAC+ and the electrical mesh, on the
    paper's 32x32 chip unless ``mesh_width`` says otherwise."""
    out = {}
    for net in experiment_axis("edp"):
        config = SystemConfig(network=net).scaled(mesh_width)
        breakdown = AreaModel(config).breakdown()
        d = dict(breakdown.components)
        d["total"] = breakdown.total_mm2
        d["cache_fraction"] = breakdown.cache_fraction
        out[get_network(net).display_name] = d
    return out


def fig11_grid(apps: tuple[str, ...] = FIG11_APPS,
               widths: tuple[int, ...] = FLIT_WIDTHS,
               mesh_width: int | None = None,
               scale: float | None = None) -> list[RunSpec]:
    """Figure 11's runs: each app on ATAC+ at 64 bits, then each width."""
    return [
        spec_for(app, network="atac+", flit_bits=w,
                 mesh_width=mesh_width, scale=scale)
        for app in apps for w in (64, *widths)
    ]


def run_fig11(
    apps: tuple[str, ...] = FIG11_APPS,
    widths: tuple[int, ...] = FLIT_WIDTHS,
    mesh_width: int | None = None,
    scale: float | None = None,
) -> list[dict]:
    """Runtime (normalized to 64-bit) and photonic area per flit width."""
    specs = fig11_grid(apps, widths, mesh_width, scale)
    results = {
        (spec.app, spec.flit_bits): result
        for spec, result in zip(specs, run_specs(specs))
    }
    rows = []
    for app in apps:
        ref = results[app, 64].completion_cycles
        row = {"app": app}
        for w in widths:
            row[f"w{w}"] = round(results[app, w].completion_cycles / ref, 3)
        rows.append(row)
    avg = {"app": "average"}
    for w in widths:
        avg[f"w{w}"] = round(sum(r[f"w{w}"] for r in rows) / len(rows), 3)
    rows.append(avg)
    return rows


def photonic_area_by_width(widths: tuple[int, ...] = FLIT_WIDTHS) -> dict[int, float]:
    """Photonic footprint (mm^2) per flit width (the Figure 11 tradeoff)."""
    return {
        w: OnetGeometry(data_width_bits=w).photonics_area_mm2() for w in widths
    }


def main() -> None:
    width = 32  # the paper's chip, whatever --mesh-width says
    print(f"Figure 10: area breakdown (mm^2), {width}x{width} mesh "
          f"({width * width} cores)")
    for arch, comp in run_fig10(width).items():
        parts = ", ".join(f"{k}={v:.1f}" for k, v in comp.items())
        print(f"  {arch}: {parts}")
    print("\nFigure 11: runtime vs flit width (normalized to 64-bit)")
    rows = run_fig11()
    print(format_table(rows, list(rows[0].keys())))
    print("\nphotonic area by flit width (mm^2):", {
        k: round(v, 1) for k, v in photonic_area_by_width().items()
    })
