"""Figures 14-16: cache coherence protocol studies.

* **Figure 14**: EDP of ACKwise_4 vs Dir_4B on ATAC+ and EMesh-BCast.
  Dir_kB's 1024-acknowledgement storms hurt broadcast-heavy apps, and
  hurt more on the electrical mesh.
* **Figure 15**: ATAC+ completion time as ACKwise's hardware sharers k
  sweeps {4, 8, 16, 32, 1024}: little, non-monotonic variation (unicast
  invalidations congest the ENet near the sender; broadcasts congest
  the receive hubs -- the two effects trade off).
* **Figure 16**: ATAC+ energy vs k: grows ~2x from 4 to 1024, driven by
  the directory cache whose entries scale with k.  ACKwise_4 delivers
  full-map-like performance at a fraction of the cost.
"""

from __future__ import annotations

from itertools import product

from repro.coherence.directory import Protocol
from repro.energy.accounting import ALL_KEYS
from repro.experiments.common import (
    RunSpec, energy_models, format_table, run_specs, spec_for,
)
from repro.network.registry import experiment_axis, get_network
from repro.workloads.splash import APP_ORDER

#: Figure 14's six applications.
FIG14_APPS = ("radix", "barnes", "fmm", "ocean_contig", "lu_contig", "lu_non_contig")
#: Figure 15/16's five sharer counts.
SHARER_SWEEP = (4, 8, 16, 32, 1024)
FIG15_APPS = ("radix", "barnes", "fmm", "ocean_contig", "lu_contig")
#: Figure 14's (network, protocol) columns.
FIG14_CELLS = tuple(product(experiment_axis("edp"),
                            (Protocol.ACKWISE, Protocol.DIRKB)))


def fig14_grid(apps: tuple[str, ...] = FIG14_APPS, mesh_width: int | None = None,
               scale: float | None = None) -> list[RunSpec]:
    """Figure 14's runs: each app in every (network, protocol) cell."""
    return [
        spec_for(app, network=net, protocol=proto,
                 mesh_width=mesh_width, scale=scale)
        for app in apps for net, proto in FIG14_CELLS
    ]


def sharers_grid(apps: tuple[str, ...] = FIG15_APPS,
                 sharers: tuple[int, ...] = SHARER_SWEEP,
                 mesh_width: int | None = None,
                 scale: float | None = None) -> list[RunSpec]:
    """Figures 15-16's runs: each app on ATAC+ at k=4, then each other k."""
    return [
        spec_for(app, network="atac+", hardware_sharers=k,
                 mesh_width=mesh_width, scale=scale)
        for app in apps for k in dict.fromkeys((4, *sharers))
    ]


def run_fig14(
    apps: tuple[str, ...] = FIG14_APPS,
    mesh_width: int | None = None,
    scale: float | None = None,
) -> list[dict]:
    """EDP of {ATAC+, EMesh-BCast} x {ACKwise4, Dir4B}, normalized to
    ATAC+/ACKwise4 per app."""
    specs = fig14_grid(apps, mesh_width, scale)
    edp = {
        (spec.app, spec.network, spec.protocol): model.evaluate(result).edp()
        for spec, result, model in zip(specs, run_specs(specs),
                                       energy_models(specs))
    }
    rows = []
    for app in apps:
        row = {"app": app}
        ref = edp[app, "atac+", Protocol.ACKWISE]
        for net, proto in FIG14_CELLS:
            label = get_network(net).display_name + (
                "/ACKwise4" if proto is Protocol.ACKWISE else "/Dir4B"
            )
            row[label] = round(edp[app, net, proto] / ref, 3)
        rows.append(row)
    return rows


def run_fig15(
    apps: tuple[str, ...] = FIG15_APPS,
    sharers: tuple[int, ...] = SHARER_SWEEP,
    mesh_width: int | None = None,
    scale: float | None = None,
) -> list[dict]:
    """ATAC+ completion time vs ACKwise hardware sharers, normalized to k=4."""
    specs = sharers_grid(apps, sharers, mesh_width, scale)
    cycles = {
        (spec.app, spec.hardware_sharers): result.completion_cycles
        for spec, result in zip(specs, run_specs(specs))
    }
    rows = []
    for app in apps:
        ref = cycles[app, 4]
        row = {"app": app}
        for k in sharers:
            row[f"k{k}"] = round(cycles[app, k] / ref, 4)
        rows.append(row)
    return rows


def run_fig16(
    apps: tuple[str, ...] = FIG15_APPS,
    sharers: tuple[int, ...] = SHARER_SWEEP,
    mesh_width: int | None = None,
    scale: float | None = None,
) -> list[dict]:
    """ATAC+ chip energy breakdown vs k, averaged over apps and
    normalized to k=4 (Figure 16's 2x growth, driven by the directory)."""
    chip_keys = [k for k in ALL_KEYS if k not in ("core_dd", "core_ndd", "dram")]
    specs = sharers_grid(apps, sharers, mesh_width, scale)
    breakdowns = {
        (spec.app, spec.hardware_sharers): model.evaluate(result)
        for spec, result, model in zip(specs, run_specs(specs),
                                       energy_models(specs))
    }
    per_k: dict[int, dict[str, float]] = {}
    for k in sharers:
        acc = {key: 0.0 for key in chip_keys}
        for app in apps:
            b = breakdowns[app, k]
            for key in chip_keys:
                acc[key] += b[key] / len(apps)
        per_k[k] = acc
    ref_total = sum(per_k[sharers[0]].values())
    rows = []
    for k in sharers:
        row = {"k": k, "total_norm": round(sum(per_k[k].values()) / ref_total, 3)}
        row["directory_norm"] = round(per_k[k]["directory"] / ref_total, 3)
        rows.append(row)
    return rows


def main() -> None:
    print("Figure 14: EDP, protocols x networks (normalized per app)")
    rows = run_fig14()
    print(format_table(rows, list(rows[0].keys())))
    print("\nFigure 15: ATAC+ completion time vs ACKwise sharers (norm. to k=4)")
    rows15 = run_fig15()
    print(format_table(rows15, list(rows15[0].keys())))
    print("\nFigure 16: ATAC+ energy vs sharers (norm. to k=4 total)")
    rows16 = run_fig16()
    print(format_table(rows16, list(rows16[0].keys())))
