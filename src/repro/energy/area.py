"""Chip area roll-up (Figure 10).

The paper reports: caches dominate (~90 % of chip area); the ENet,
StarNet and hubs are negligible; the ONet's waveguides and optical
devices occupy ~40 mm^2 at the 64-bit flit width (~160 mm^2 at 256
bits).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.network.engine import RECEIVE_NETS_PER_CLUSTER
from repro.network.registry import get_network
from repro.sim.config import SystemConfig, make_network
from repro.tech.caches import directory_cache, l1d_cache, l1i_cache, l2_cache
from repro.tech.dsent import HubModel, LinkModel, ReceiveNetModel, RouterModel
from repro.tech.photonics import OnetGeometry, PhotonicParams

#: Die edge of the modelled chip (mm); one mesh hop is
#: ``DIE_EDGE_MM / mesh width`` long (0.625 mm on the 32x32 chip).
DIE_EDGE_MM = 20.0


@dataclass
class AreaBreakdown:
    """Component areas in mm^2."""

    components: dict[str, float]

    def __post_init__(self) -> None:
        for key, value in self.components.items():
            if value < 0:
                raise ValueError(f"negative area for {key}: {value}")

    def __getitem__(self, key: str) -> float:
        return self.components.get(key, 0.0)

    @property
    def total_mm2(self) -> float:
        """Total chip area (mm^2)."""
        return sum(self.components.values())

    @property
    def cache_mm2(self) -> float:
        """Combined cache area (mm^2)."""
        return sum(
            self.components.get(k, 0.0) for k in ("l1i", "l1d", "l2", "directory")
        )

    @property
    def cache_fraction(self) -> float:
        """Cache share of total area (Fig 10: ~0.9)."""
        total = self.total_mm2
        return self.cache_mm2 / total if total else 0.0


class AreaModel:
    """Computes the Figure 10 area breakdown for a configuration."""

    def __init__(
        self,
        config: SystemConfig,
        photonics: PhotonicParams | None = None,
    ) -> None:
        self.config = config
        self.photonics = photonics if photonics is not None else PhotonicParams()

    def breakdown(self) -> AreaBreakdown:
        cfg = self.config
        topo = cfg.topology
        n = topo.n_cores
        n_compute = len(topo.compute_cores())
        comp: dict[str, float] = {
            "l1i": n_compute * l1i_cache().area_mm2(),
            "l1d": n_compute * l1d_cache().area_mm2(),
            "l2": n_compute * l2_cache().area_mm2(),
            "directory": n_compute
            * directory_cache(
                4096, cfg.hardware_sharers, n_cores=n
            ).area_mm2(),
        }
        router = RouterModel(n_ports=5, width_bits=cfg.flit_bits)
        link = LinkModel(
            width_bits=cfg.flit_bits, length_mm=DIE_EDGE_MM / topo.width
        )
        n_links = 4 * topo.width * (topo.width - 1)
        comp["enet"] = n * router.area_mm2() + n_links * link.area_mm2()
        if get_network(cfg.network).optical:
            # Hubs, receive nets and photonics (Figure 10), sized from
            # the hardware the built network simulates.
            network = make_network(cfg)
            comp["hubs"] = topo.n_clusters * HubModel(cfg.flit_bits).area_mm2()
            comp["receive_net"] = (
                topo.n_clusters
                * RECEIVE_NETS_PER_CLUSTER
                * ReceiveNetModel(
                    kind=network.receive_net_kind, width_bits=cfg.flit_bits,
                    cluster_size=topo.cluster_size,
                ).area_mm2()
            )
            comp["photonics"] = OnetGeometry(
                n_hubs=len(network.onet_links),
                data_width_bits=cfg.flit_bits,
                params=self.photonics,
            ).photonics_area_mm2()
        return AreaBreakdown(components=comp)
