"""Full-system configuration (paper Table I) and network factory.

Network architectures are resolved through
:mod:`repro.network.registry`: validation and the factory read one
:class:`NetworkDescriptor` per network, and the energy/area models
price the network :func:`make_network` builds, so adding an
architecture is a single registration there.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.coherence.directory import Protocol
from repro.network.cluster_nets import RECEIVE_NET_KINDS
from repro.network.engine import Network
from repro.network.registry import get_network
from repro.network.topology import MeshTopology

__all__ = ["SystemConfig", "make_network"]


@dataclass(frozen=True)
class SystemConfig:
    """Everything needed to instantiate a :class:`ManycoreSystem`.

    Only what a figure, test or fuzz case varies is a field; defaults
    are the paper's Table I at full 1024-core scale, and tests use
    ``scaled()`` to shrink the chip and the caches proportionally.
    Table I's fixed timing is module constants next to its one user:
    the network's in :mod:`repro.network.engine`, the caches' in
    :mod:`repro.coherence.l2controller`, the directory's in
    :mod:`repro.coherence.directory`, DRAM's in
    :mod:`repro.coherence.memory` and the clock in
    :mod:`repro.sim.results`.  Broadcasts are always sequenced
    (Section IV-C1).
    """

    # -- chip geometry ---------------------------------------------------
    mesh_width: int = 32
    cluster_width: int = 4

    # -- network ----------------------------------------------------------
    network: str = "atac+"
    flit_bits: int = 64
    rthres: int = 15                  # distance-routing threshold (ATAC+)
    receive_net: str = "starnet"      # "starnet" (ATAC+) | "bnet" (ATAC)

    # -- memory hierarchy --------------------------------------------------
    l1_sets: int = 128                # 32 KB, 4-way, 64 B lines
    l1_ways: int = 4
    l2_sets: int = 512                # 256 KB, 8-way
    l2_ways: int = 8

    # -- coherence ----------------------------------------------------------
    protocol: Protocol = Protocol.ACKWISE
    hardware_sharers: int = 4         # ACKwise_4 unless stated otherwise

    def __post_init__(self) -> None:
        get_network(self.network)  # raises UnknownNetworkError
        if self.receive_net not in RECEIVE_NET_KINDS:
            raise ValueError(f"bad receive_net {self.receive_net!r}")
        if self.flit_bits <= 0:
            raise ValueError("flit_bits must be positive")
        if self.hardware_sharers < 2:
            raise ValueError(
                f"hardware_sharers must be >= 2 (read-after-write needs two "
                f"pointers), got {self.hardware_sharers}"
            )

    @property
    def topology(self) -> MeshTopology:
        return MeshTopology(width=self.mesh_width, cluster_width=self.cluster_width)

    @property
    def n_cores(self) -> int:
        return self.mesh_width * self.mesh_width

    def scaled(self, mesh_width: int, cluster_width: int = 4, **overrides) -> "SystemConfig":
        """A smaller chip, per-core caches shrunk by the core-count ratio.

        Tests and reduced-scale figures run on it.  The shrink does not
        make misses capacity-bound: at the figure scales a core's trace
        never fills even the shrunk L2, so every L2 miss is compulsory
        (ROADMAP item 1).
        """
        scale = max(1, (32 * 32) // (mesh_width * mesh_width))
        return replace(
            self,
            mesh_width=mesh_width,
            cluster_width=cluster_width,
            l1_sets=max(4, self.l1_sets // scale),
            l2_sets=max(8, self.l2_sets // scale),
            **overrides,
        )


def make_network(config: SystemConfig) -> Network:
    """Instantiate the configured network architecture."""
    return get_network(config.network).build(config)
