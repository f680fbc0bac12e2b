"""Ablation studies for the design choices DESIGN.md section 8 flags.

These go beyond the paper's figures:

* **Adaptive vs oblivious distance routing** -- the paper notes the
  performance-optimal policy is adaptive but picks a fixed rthres "for
  simplicity reasons"; this quantifies the gap on the Figure 3 traffic.
* **Sequence-number activity** -- how often the Section IV-C1 reorder
  machinery actually fires under distance routing.  Sequencing is
  always on (the paper's design), so there is no unsequenced side to
  compare against.
* **Analytic vs simulated latency** -- the accuracy envelope of the
  closed-form model across loads (it is exact at zero load and
  diverges as queueing builds).
"""

from __future__ import annotations

from repro.experiments.common import LoadPointSpec, RunSpec, grid, run_specs
from repro.network.analytic import AnalyticModel
from repro.network.atac import AtacNetwork
from repro.network.engine import Network
from repro.network.routing import AdaptiveDistanceRouting, DistanceRouting
from repro.network.topology import MeshTopology
from repro.workloads.synthetic import SyntheticTraffic, run_load_point


class _BacklogFeedback(AtacNetwork):
    """ATAC+ that feeds its adaptive policy the sender hub's ONet
    backlog after every unicast and broadcast it routes.

    The observation sits in the two routing methods, not in ``send``.
    ``send`` reaches both; ``send_stream`` keeps ``Network``'s
    per-packet ``_send_window``, not ``AtacNetwork``'s inline kernel, so
    it reaches ``_send_unicast`` too and the threshold moves between
    any two sends.  A self-send uses no network and is not observed;
    synthetic traffic has none.
    """

    _send_window = Network._send_window

    def _observe(self, src: int, t: int) -> None:
        link = self.onet_links[self._cluster_of_core[src]]
        self.routing.observe_backlog(max(0, link.free_at - t))

    def _send_unicast(self, src: int, dst: int, t: int, n_flits: int) -> int:
        arrival = super()._send_unicast(src, dst, t, n_flits)
        self._observe(src, t)
        return arrival

    def _send_broadcast(self, src: int, t: int,
                        n_flits: int) -> list[tuple[int, int]]:
        deliveries = super()._send_broadcast(src, t, n_flits)
        self._observe(src, t)
        return deliveries


def run_adaptive_routing(
    mesh_width: int = 32,
    loads: tuple[float, ...] = (0.02, 0.06, 0.10, 0.16),
    cycles: int = 1200,
    warmup_cycles: int = 300,
    seed: int = 7,
) -> list[dict]:
    """Latency of the adaptive controller vs fixed-rthres policies."""
    topology = MeshTopology(width=mesh_width, cluster_width=4)
    rows = []
    for load in loads:
        row: dict = {"load": load}
        adaptive = AdaptiveDistanceRouting(rthres_min=5, rthres_max=25)
        nets = {f"Distance-{r}": AtacNetwork(topology, routing=DistanceRouting(r))
                for r in (5, 15, 25)}
        nets["Adaptive"] = _BacklogFeedback(topology, routing=adaptive)
        for name, net in nets.items():
            traffic = SyntheticTraffic(topology.n_cores, load=load, seed=seed)
            pt = run_load_point(net, traffic, cycles=cycles,
                                warmup_cycles=warmup_cycles)
            row[name] = round(pt.mean_latency, 1)
        row["adaptive_final_rthres"] = adaptive.rthres
        rows.append(row)
    return rows


def adaptive_gap(rows: list[dict]) -> float:
    """Mean latency penalty of the *best fixed* policy vs adaptive.

    Positive values = the adaptive controller wins overall; near zero
    justifies the paper's oblivious choice.
    """
    penalties = []
    for row in rows:
        fixed = min(v for k, v in row.items() if k.startswith("Distance-"))
        penalties.append((fixed - row["Adaptive"]) / fixed)
    return sum(penalties) / len(penalties)


def sequencing_cost_grid(apps: tuple[str, ...] = ("barnes", "dynamic_graph"),
                         mesh_width: int | None = None,
                         scale: float | None = None) -> list[RunSpec]:
    """The sequencing ablation's runs: every app on ATAC+."""
    return grid(apps, ("atac+",), mesh_width, scale)


def run_sequencing_cost(
    apps: tuple[str, ...] = ("barnes", "dynamic_graph"),
    mesh_width: int | None = None,
    scale: float | None = None,
) -> list[dict]:
    """Runtime and reorder-event counts per app (sequencing is always
    on)."""
    specs = sequencing_cost_grid(apps, mesh_width, scale)
    rows = []
    for app, on in zip(apps, run_specs(specs)):
        rows.append(
            {
                "app": app,
                "cycles": on.completion_cycles,
                "bcasts_buffered": on.cache_counters.bcast_invs_buffered,
                "bcasts_stale_dropped": on.cache_counters.bcast_invs_stale_dropped,
                "unicasts_held_early": on.cache_counters.unicasts_buffered_early,
            }
        )
    return rows


def analytic_accuracy_grid(mesh_width: int = 16,
                           loads: tuple[float, ...] = (0.01, 0.05, 0.10, 0.20),
                           cycles: int = 1200,
                           warmup_cycles: int = 300) -> list[LoadPointSpec]:
    """The analytic-accuracy ablation's load points: Distance-15, no
    broadcasts, one per load."""
    return [
        LoadPointSpec("distance-15", load, mesh_width, broadcast_fraction=0.0,
                      cycles=cycles, warmup_cycles=warmup_cycles, seed=5)
        for load in loads
    ]


def run_analytic_accuracy(
    mesh_width: int = 16,
    loads: tuple[float, ...] = (0.01, 0.05, 0.10, 0.20),
    cycles: int = 1200,
    warmup_cycles: int = 300,
) -> list[dict]:
    """Simulated mean latency vs the zero-load analytic prediction."""
    topology = MeshTopology(width=mesh_width, cluster_width=4)
    model = AnalyticModel(topology)
    # analytic mean over uniform pairs at the control-message size
    import random

    rng = random.Random(1)
    n = topology.n_cores
    routing = DistanceRouting(15)
    samples = []
    for _ in range(3000):
        src = rng.randrange(n)
        dst = rng.randrange(n - 1)
        if dst >= src:
            dst += 1
        samples.append(model.atac_unicast_latency(routing, src, dst, 88))
    analytic_mean = sum(samples) / len(samples)
    specs = analytic_accuracy_grid(mesh_width, loads, cycles, warmup_cycles)
    rows = []
    for load, pt in zip(loads, run_specs(specs)):
        rows.append(
            {
                "load": load,
                "simulated": round(pt.mean_latency, 1),
                "analytic_zero_load": round(analytic_mean, 1),
                "queueing_excess": round(pt.mean_latency - analytic_mean, 1),
            }
        )
    return rows


def main() -> None:
    from repro.experiments.common import format_table

    print("Ablation 1: adaptive vs fixed distance routing")
    rows = run_adaptive_routing(mesh_width=16)
    print(format_table(rows, list(rows[0].keys())))
    print(f"mean gap (fixed-best vs adaptive): {adaptive_gap(rows):+.1%}")

    print("\nAblation 2: sequence-number machinery activity")
    rows2 = run_sequencing_cost()
    print(format_table(rows2, list(rows2[0].keys())))

    print("\nAblation 3: analytic vs simulated latency")
    rows3 = run_analytic_accuracy()
    print(format_table(rows3, list(rows3[0].keys())))
