"""Unicast routing policies for the hybrid ATAC/ATAC+ network.

Section IV-C: broadcasts always ride the ONet; the policy decides how
*unicasts* travel.

Every policy applies one rule (:meth:`RoutingPolicy.use_onet`): a
unicast takes the ONet iff its endpoints sit in different clusters and
their Manhattan distance is at least the policy's ``rthres``.  The
policies differ only in ``rthres``:

* :class:`ClusterRouting` -- the original ATAC policy, ``rthres = 0``:
  any inter-cluster unicast goes over the ONet; intra-cluster traffic
  stays on the ENet.
* :class:`DistanceRouting` -- ATAC+'s policy: unicasts closer than
  ``rthres`` Manhattan hops go purely over the ENet, others over the
  ONet.  ``Distance-i`` in the figures is ``DistanceRouting(i)``.
* :func:`distance_all` -- the "Distance-All" extreme: ``rthres`` above
  any distance, so every unicast stays on the ENet and the ONet carries
  only broadcasts.

The oblivious (fixed ``rthres``) variant is what the paper evaluates;
an optional :class:`AdaptiveDistanceRouting` moves ``rthres`` with the
load, for the ablation DESIGN.md calls out (the paper notes the purely
performance-optimal policy is adaptive but picks oblivious "for
simplicity reasons").  ``AtacNetwork`` inlines the rule on its hot path
and reads ``rthres`` on every send, so a moving threshold takes effect
at once.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.network.topology import MeshTopology


class RoutingPolicy(ABC):
    """Decides, per unicast, whether to use the optical path."""

    #: Manhattan distance at or above which an inter-cluster unicast
    #: takes the ONet.
    rthres: int

    def use_onet(self, topology: MeshTopology, src: int, dst: int) -> bool:
        """True if the unicast src->dst should travel over the ONet.

        Same-cluster traffic always stays electrical (Section III-A).
        """
        return (
            topology.cluster_of(src) != topology.cluster_of(dst)
            and topology.manhattan(src, dst) >= self.rthres
        )

    @property
    @abstractmethod
    def name(self) -> str:
        """Label as used in the paper's figures (e.g. 'Distance-15')."""


@dataclass(frozen=True)
class ClusterRouting(RoutingPolicy):
    """Original ATAC: every inter-cluster unicast takes the ONet."""

    rthres = 0

    @property
    def name(self) -> str:
        return "Cluster"


@dataclass(frozen=True)
class DistanceRouting(RoutingPolicy):
    """ATAC+: unicasts at >= ``rthres`` Manhattan hops take the ONet.

    "This routing scheme has a parameter called rthres which is the
    distance below which a packet is sent completely over the ENet. At
    rthres or above it, a unicast packet is sent over the ONet."
    """

    rthres: int = 15
    #: display-name override (used by the Distance-All construction).
    label: str | None = None

    def __post_init__(self) -> None:
        if self.rthres < 0:
            raise ValueError(f"rthres must be non-negative, got {self.rthres}")

    @property
    def name(self) -> str:
        return self.label if self.label is not None else f"Distance-{self.rthres}"


def distance_all(topology: MeshTopology) -> DistanceRouting:
    """The 'Distance-All' scheme: rthres above any possible distance,
    so every unicast travels purely over the ENet."""
    return DistanceRouting(rthres=2 * topology.width, label="Distance-All")


@dataclass
class AdaptiveDistanceRouting(RoutingPolicy):
    """Load-adaptive rthres (the ablation variant, not in the paper's
    main results).

    Tracks recent ONet ingress queueing; when hubs back up, raises
    rthres (pushing short-to-mid trips onto the ENet); when the optical
    path is idle, lowers it toward ``rthres_min`` to exploit the ONet's
    low zero-load latency.  The controller is deliberately simple --
    it exists to quantify the gap the paper accepts by going oblivious.
    """

    rthres_min: int = 5
    rthres_max: int = 25
    rthres: int = 5
    #: queueing (cycles of hub backlog) above which rthres steps up.
    backlog_high: int = 32
    backlog_low: int = 4

    def __post_init__(self) -> None:
        if not 0 <= self.rthres_min <= self.rthres_max:
            raise ValueError("need 0 <= rthres_min <= rthres_max")
        self.rthres = max(self.rthres_min, min(self.rthres, self.rthres_max))

    @property
    def name(self) -> str:
        return "Distance-Adaptive"

    def observe_backlog(self, backlog_cycles: int) -> None:
        """Feed back the ONet ingress backlog seen by the last send."""
        if backlog_cycles > self.backlog_high and self.rthres < self.rthres_max:
            self.rthres += 1
        elif backlog_cycles < self.backlog_low and self.rthres > self.rthres_min:
            self.rthres -= 1
