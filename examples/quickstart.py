#!/usr/bin/env python
"""Quickstart: simulate one application on two networks and compare.

Builds a 256-core chip (16x16 mesh, 16 clusters), runs the `barnes`
workload model on the hybrid optical ATAC+ network and on the
electrical EMesh-BCast baseline, and prints the runtime, traffic and
energy comparison -- a miniature of the paper's Figures 4, 7 and 8.

Run:  python examples/quickstart.py
"""

from repro.energy.accounting import EnergyModel
from repro.sim.config import SystemConfig
from repro.sim.system import ManycoreSystem
from repro.tech.scenarios import SCENARIO_ATACP
from repro.workloads.splash import APP_PROFILES, generate_traces


def simulate(network: str):
    # A 16x16 mesh with the paper's 4x4-core clusters; caches scale down
    # with the chip so the workload's miss behaviour stays representative.
    config = SystemConfig(network=network).scaled(mesh_width=16)
    # sanitize=False (the default) skips the runtime invariant checker;
    # pass sanitize=True to assert cross-layer coherence/network/energy
    # invariants at ~2x cost (REPRO_SANITIZE=1 reaches only the specs
    # the experiment layer builds, not a bare ManycoreSystem).
    system = ManycoreSystem(config, sanitize=False)
    traces = generate_traces(
        APP_PROFILES["barnes"],
        system.topology,
        l2_lines=config.l2_sets * config.l2_ways,
        scale=0.5,
    )
    result = system.run(traces, app="barnes")
    energy = EnergyModel(config).evaluate(result, SCENARIO_ATACP)
    return result, energy


def main() -> None:
    print("Simulating barnes on ATAC+ and EMesh-BCast (256 cores)...\n")
    results = {net: simulate(net) for net in ("atac+", "emesh-bcast")}

    header = f"{'metric':32s} {'ATAC+':>14s} {'EMesh-BCast':>14s}"
    print(header)
    print("-" * len(header))
    (r_a, e_a) = results["atac+"]
    (r_m, e_m) = results["emesh-bcast"]
    rows = [
        ("completion time (cycles)", r_a.completion_cycles, r_m.completion_cycles),
        ("chip IPC (per core)", f"{r_a.ipc:.3f}", f"{r_m.ipc:.3f}"),
        ("offered load (flits/cyc/core)", f"{r_a.offered_load:.4f}",
         f"{r_m.offered_load:.4f}"),
        ("broadcast traffic at receiver", f"{r_a.receiver_broadcast_fraction:.1%}",
         f"{r_m.receiver_broadcast_fraction:.1%}"),
        ("network energy (uJ)", f"{e_a.network_energy_j*1e6:.2f}",
         f"{e_m.network_energy_j*1e6:.2f}"),
        ("cache energy (uJ)", f"{e_a.cache_energy_j*1e6:.2f}",
         f"{e_m.cache_energy_j*1e6:.2f}"),
        ("energy-delay product (nJ*s)", f"{e_a.edp()*1e9:.3f}",
         f"{e_m.edp()*1e9:.3f}"),
    ]
    for name, a, m in rows:
        print(f"{name:32s} {a!s:>14s} {m!s:>14s}")

    print(
        f"\nATAC+ finished {r_m.completion_cycles / r_a.completion_cycles:.2f}x "
        f"faster and delivered {e_m.edp() / e_a.edp():.2f}x better EDP."
    )
    print(
        "The ONet's adaptive SWMR links were busy "
        f"{r_a.onet_utilization:.1%} of the time "
        f"({r_a.unicasts_per_broadcast:.0f} unicasts per broadcast)."
    )


if __name__ == "__main__":
    main()
