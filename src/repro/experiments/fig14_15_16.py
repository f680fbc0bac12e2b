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

from repro.coherence.directory import Protocol
from repro.energy.accounting import ALL_KEYS, EnergyModel
from repro.experiments.common import format_table, make_config, run_specs, spec_for
from repro.network.registry import experiment_axis, get_network
from repro.workloads.splash import APP_ORDER

#: Figure 14's six applications.
FIG14_APPS = ("radix", "barnes", "fmm", "ocean_contig", "lu_contig", "lu_non_contig")
#: Figure 15/16's five sharer counts.
SHARER_SWEEP = (4, 8, 16, 32, 1024)
FIG15_APPS = ("radix", "barnes", "fmm", "ocean_contig", "lu_contig")


def run_fig14(
    apps: tuple[str, ...] = FIG14_APPS,
    mesh_width: int | None = None,
    scale: float | None = None,
) -> list[dict]:
    """EDP of {ATAC+, EMesh-BCast} x {ACKwise4, Dir4B}, normalized to
    ATAC+/ACKwise4 per app."""
    cells = [
        (net, proto)
        for net in experiment_axis("edp")
        for proto in (Protocol.ACKWISE, Protocol.DIRKB)
    ]
    keys = [(app, net, proto) for app in apps for net, proto in cells]
    specs = [
        spec_for(app, network=net, protocol=proto,
                 mesh_width=mesh_width, scale=scale)
        for app, net, proto in keys
    ]
    results = dict(zip(keys, run_specs(specs)))
    rows = []
    for app in apps:
        row = {"app": app}
        ref = None
        for net, proto in cells:
            model = EnergyModel(make_config(net, mesh_width, protocol=proto))
            edp = model.evaluate(results[app, net, proto]).edp()
            if ref is None:
                ref = edp
            label = get_network(net).display_name + (
                "/ACKwise4" if proto is Protocol.ACKWISE else "/Dir4B"
            )
            row[label] = round(edp / ref, 3)
        rows.append(row)
    return rows


def run_fig15(
    apps: tuple[str, ...] = FIG15_APPS,
    sharers: tuple[int, ...] = SHARER_SWEEP,
    mesh_width: int | None = None,
    scale: float | None = None,
) -> list[dict]:
    """ATAC+ completion time vs ACKwise hardware sharers, normalized to k=4."""
    keys = [(app, k) for app in apps for k in (4, *sharers)]
    specs = [
        spec_for(app, network="atac+", hardware_sharers=k,
                 mesh_width=mesh_width, scale=scale)
        for app, k in keys
    ]
    results = dict(zip(keys, run_specs(specs)))
    rows = []
    for app in apps:
        ref = results[app, 4].completion_cycles
        row = {"app": app}
        for k in sharers:
            row[f"k{k}"] = round(results[app, k].completion_cycles / ref, 4)
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
    keys = [(app, k) for app in apps for k in sharers]
    specs = [
        spec_for(app, network="atac+", hardware_sharers=k,
                 mesh_width=mesh_width, scale=scale)
        for app, k in keys
    ]
    results = dict(zip(keys, run_specs(specs)))
    per_k: dict[int, dict[str, float]] = {}
    for k in sharers:
        model = EnergyModel(make_config("atac+", mesh_width, hardware_sharers=k))
        acc = {key: 0.0 for key in chip_keys}
        for app in apps:
            b = model.evaluate(results[app, k])
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


if __name__ == "__main__":
    main()
