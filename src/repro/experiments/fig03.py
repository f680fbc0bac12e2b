"""Figure 3: latency vs offered load for the unicast routing schemes.

Uniform random unicast traffic with 0.1 % broadcast injection on the
full hybrid network; routing schemes Cluster and Distance-{5,15,25,35,
All}.  The paper's observations, all reproduced here:

* at low load the low zero-load latency of the ONet makes small rthres
  (Cluster / Distance-5) optimal;
* the optimal rthres grows to 15 and then 25 as load increases;
* Distance-25 maximizes saturation throughput;
* Distance-35 and Distance-All are never optimal.

The (scheme x load) grid is embarrassingly parallel, so the sweep is
expressed as a batch of :class:`~repro.experiments.runspec.LoadPointSpec`
and fanned out through the runner.
"""

from __future__ import annotations

from repro.experiments.common import LoadPointSpec, run_specs
from repro.network.routing import ClusterRouting, DistanceRouting, distance_all
from repro.network.topology import MeshTopology

#: offered loads (flits/cycle/core) swept on the x-axis
DEFAULT_LOADS = (0.02, 0.04, 0.06, 0.08, 0.10, 0.14, 0.18, 0.24)


def routing_schemes(topology: MeshTopology):
    """The six schemes of Figure 3 (rthres values scaled to the mesh)."""
    full = topology.width == 32
    thresholds = (5, 15, 25, 35) if full else (5, 10, 15, 25)
    schemes = [ClusterRouting()]
    schemes += [DistanceRouting(t) for t in thresholds]
    schemes.append(distance_all(topology))
    return schemes


def scheme_ids(topology: MeshTopology) -> list[tuple[str, str]]:
    """(canonical spec routing, display name) per Figure 3 scheme."""
    # "Cluster", "Distance-<t>" and "Distance-All" lower-case to the
    # canonical routing strings LoadPointSpec parses.
    return [(scheme.name.lower(), scheme.name)
            for scheme in routing_schemes(topology)]


def _routing_of(mesh_width: int) -> dict[str, str]:
    """Scheme display name -> the canonical routing it is simulated as.
    A scheme whose ``rthres`` exceeds the mesh diameter ``2 * (w - 1)``
    sends every unicast over the ENet, exactly as Distance-All does with
    the same seed, so it is simulated as Distance-All (at w8,
    Distance-15 and Distance-25)."""
    topology = MeshTopology(width=mesh_width, cluster_width=4)
    diameter = 2 * (mesh_width - 1)
    enet_only = distance_all(topology).name.lower()
    return {
        name: enet_only if scheme.rthres > diameter else routing
        for scheme, (routing, name) in zip(routing_schemes(topology),
                                           scheme_ids(topology))
    }


def grid(mesh_width: int = 32, loads: tuple[float, ...] = DEFAULT_LOADS,
         cycles: int = 1500, warmup_cycles: int = 400,
         broadcast_fraction: float = 0.001, seed: int = 7) -> list[LoadPointSpec]:
    """Figure 3's load points: each distinct routing at every load."""
    return [
        LoadPointSpec(routing, load, mesh_width, seed=seed, cycles=cycles,
                      warmup_cycles=warmup_cycles,
                      broadcast_fraction=broadcast_fraction)
        for routing in dict.fromkeys(_routing_of(mesh_width).values())
        for load in loads
    ]


def run(
    mesh_width: int = 32,
    loads: tuple[float, ...] = DEFAULT_LOADS,
    cycles: int = 1500,
    warmup_cycles: int = 400,
    broadcast_fraction: float = 0.001,
    seed: int = 7,
) -> dict[str, list[dict]]:
    """Returns {scheme_name: [{load, latency, saturated}, ...]}; schemes
    that route like Distance-All share its curve (:func:`_routing_of`)."""
    specs = grid(mesh_width, loads, cycles, warmup_cycles,
                 broadcast_fraction, seed)
    curve_of: dict[str, list] = {}
    for spec, pt in zip(specs, run_specs(specs)):
        curve_of.setdefault(spec.routing, []).append(pt)
    return {
        name: [{"load": load, "latency": round(pt.mean_latency, 1),
                "saturated": pt.saturated}
               for load, pt in zip(loads, curve_of[routing])]
        for name, routing in _routing_of(mesh_width).items()
    }


def best_scheme_per_load(curves: dict[str, list[dict]]) -> dict[float, str]:
    """The latency-optimal scheme at each swept load (the paper's
    'optimal rthres grows with load' observation)."""
    loads = [p["load"] for p in next(iter(curves.values()))]
    best = {}
    for i, load in enumerate(loads):
        best[load] = min(curves, key=lambda name: curves[name][i]["latency"])
    return best


def main(mesh_width: int = 32) -> None:
    curves = run(mesh_width)
    loads = [p["load"] for p in next(iter(curves.values()))]
    print(f"Figure 3 ({mesh_width}x{mesh_width} mesh): mean latency (cycles) "
          "vs offered load (flits/cycle/core)")
    header = "load    " + "  ".join(f"{name:>14s}" for name in curves)
    print(header)
    for i, load in enumerate(loads):
        row = f"{load:<7.3f} " + "  ".join(
            f"{curves[name][i]['latency']:>14.1f}" for name in curves
        )
        print(row)
    print("\nbest scheme per load:", best_scheme_per_load(curves))
