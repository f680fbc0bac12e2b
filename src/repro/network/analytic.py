"""Closed-form network latency/throughput estimates.

Graphite ships analytical network models alongside its simulated ones;
we do the same, for two purposes:

* **cross-validation** -- the event-driven engine's zero-load latencies
  must match these closed forms exactly (tests/benchmarks assert it);
* **fast design-space scans** -- a sweep over thousands of
  (topology, rthres, flit width) points costs microseconds per point
  instead of a simulation each.

Formulas (Table I timing, the constants of :mod:`repro.network.engine`):

* mesh unicast:   ``hops * (router + link) + flits``
* mesh broadcast (tree): worst leaf = diameter hops
* ATAC+ optical path: ``ENet(src->hub) + hub + select lag + ONet link
  + flits + hub + StarNet``
* saturation: a uniform-random mesh saturates when the bisection
  carries half the traffic: ``lambda_sat ~= 4 * W * B / N`` per-core
  flit rate for bisection bandwidth ``B`` flits/cycle per link row.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.network.engine import (
    HOP_LATENCY, HUB_DELAY, ONET_LINK_DELAY, RECEIVE_NET_DELAY, SELECT_DATA_LAG,
)
from repro.network.routing import RoutingPolicy
from repro.network.topology import MeshTopology


@dataclass(frozen=True)
class AnalyticModel:
    """Closed-form latency/throughput for one chip geometry."""

    topology: MeshTopology
    flit_bits: int = 64

    def _flits(self, size_bits: int) -> int:
        if size_bits <= 0:
            raise ValueError(f"size_bits must be positive, got {size_bits}")
        return max(1, -(-size_bits // self.flit_bits))

    # ------------------------------------------------------------------
    def mesh_unicast_latency(self, src: int, dst: int, size_bits: int = 88) -> int:
        """Zero-load wormhole latency over the electrical mesh (cycles)."""
        if src == dst:
            return 1
        hops = self.topology.manhattan(src, dst)
        return hops * HOP_LATENCY + self._flits(size_bits)

    def mesh_broadcast_latency(self, src: int, size_bits: int = 88) -> int:
        """Zero-load worst-leaf latency of an XY multicast tree (cycles)."""
        x, y = self.topology.coords(src)
        w = self.topology.width
        worst_hops = max(x, w - 1 - x) + max(y, w - 1 - y)
        return worst_hops * HOP_LATENCY + self._flits(size_bits)

    def optical_path_latency(self, src: int, size_bits: int = 88) -> int:
        """Zero-load latency of the hybrid ENet->ONet->StarNet path.

        The path length is independent of the destination -- that is
        the ONet's "uniform communication cost" property: ENet trip to
        the source's hub, hub ingress, select lead + 3-cycle optical
        link + serialization, receive-hub egress, one StarNet cycle.
        """
        topo = self.topology
        flits = self._flits(size_bits)
        hub = topo.hub_core(topo.cluster_of(src))
        enet = (
            0 if src == hub
            else topo.manhattan(src, hub) * HOP_LATENCY + flits
        )
        onet = SELECT_DATA_LAG + ONET_LINK_DELAY + flits
        star = RECEIVE_NET_DELAY + flits
        return enet + HUB_DELAY + onet + HUB_DELAY + star

    def optical_unicast_latency(self, src: int, dst: int, size_bits: int = 88) -> int:
        """Zero-load latency of an ONet unicast (destination-independent)."""
        del dst
        return self.optical_path_latency(src, size_bits)

    def optical_broadcast_latency(self, src: int, size_bits: int = 88) -> int:
        """Zero-load latency for an ONet broadcast to the farthest core."""
        return self.optical_path_latency(src, size_bits)

    def atac_unicast_latency(
        self, routing: RoutingPolicy, src: int, dst: int, size_bits: int = 88
    ) -> int:
        """Zero-load latency under a given unicast routing policy."""
        if src == dst:
            return 1
        if routing.use_onet(self.topology, src, dst):
            return self.optical_unicast_latency(src, dst, size_bits)
        return self.mesh_unicast_latency(src, dst, size_bits)

    # ------------------------------------------------------------------
    def mean_mesh_distance(self) -> float:
        """Mean Manhattan distance under uniform-random traffic: 2W/3."""
        w = self.topology.width
        return 2.0 * (w * w - 1) / (3.0 * w) if w > 1 else 0.0

    def mesh_saturation_load(self) -> float:
        """Per-core injection rate (flits/cycle) at mesh saturation.

        Uniform random traffic: half of all traffic crosses the
        bisection of ``W`` links (each 1 flit/cycle/direction), so
        ``N/2 * lambda / 2`` <= ``W`` => ``lambda <= 8/(W^2) * W``.
        """
        w = self.topology.width
        if w < 2:
            return 1.0
        return 4.0 / w

    def onet_saturation_load(self) -> float:
        """Per-core ONet injection limit: each hub's channel carries one
        flit/cycle shared by its cluster."""
        return 1.0 / self.topology.cluster_size

    def hybrid_saturation_load(self, onet_fraction: float) -> float:
        """Combined saturation when ``onet_fraction`` of unicast traffic
        rides the ONet and the rest the ENet.

        The network saturates when either fabric saturates; the best
        oblivious rthres balances the two -- the Figure 3 reasoning.
        """
        if not 0.0 <= onet_fraction <= 1.0:
            raise ValueError(f"onet_fraction must be in [0,1], got {onet_fraction}")
        limits = []
        if onet_fraction > 0:
            limits.append(self.onet_saturation_load() / onet_fraction)
        if onet_fraction < 1:
            limits.append(self.mesh_saturation_load() / (1.0 - onet_fraction))
        return min(limits)

    def onet_traffic_fraction(self, routing: RoutingPolicy, samples: int = 2000,
                              seed: int = 3) -> float:
        """Fraction of uniform-random unicasts a policy sends optically."""
        import random

        rng = random.Random(seed)
        n = self.topology.n_cores
        onet = 0
        for _ in range(samples):
            src = rng.randrange(n)
            dst = rng.randrange(n - 1)
            if dst >= src:
                dst += 1
            if routing.use_onet(self.topology, src, dst):
                onet += 1
        return onet / samples
