"""Energy accounting: event counters x per-event energies + static power x time.

The component vocabulary follows Figure 7 (network + caches) and Figure
17 (plus core):

========================  =====================================================
key                        meaning
========================  =====================================================
``laser``                  electrical laser energy (mode-dependent, Table IV)
``ring_tuning``            thermal ring tuning ("Ring Heating")
``modulator_receiver``     optical Tx/Rx circuits ("Other" in Fig 7)
``enet_dynamic``           electrical mesh routers+links, per-flit
``enet_ndd``               electrical mesh clock + leakage over the runtime
``hub``                    cluster hub traversals + hub clock/leakage
``receive_net``            BNet/StarNet deliveries + leakage
``l1i`` / ``l1d`` / ``l2``  cache dynamic + leakage
``directory``              directory cache dynamic + leakage
``core_dd`` / ``core_ndd`` first-order core model (Section V-G)
``dram``                   off-chip DRAM access energy (reported, excluded
                           from the paper's on-chip figures)
========================  =====================================================

All four Table IV technology scenarios are pure post-processing over
one performance run, exactly as in the paper.

The optical, hub and receive-net wedges exist only for networks whose
registry descriptor is ``optical``.  They price the hardware the
config's network is built with: one photonic channel per entry of its
``onet_links`` (Corona's broadcast ring and HERMES's hierarchy
included) and its ``receive_net_kind``.  A model therefore prices runs
of its own network only.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.energy.area import DIE_EDGE_MM
from repro.network.engine import RECEIVE_NETS_PER_CLUSTER
from repro.network.registry import get_network
from repro.sim.config import SystemConfig, make_network
from repro.sim.results import RunResult
from repro.tech.caches import directory_cache, l1d_cache, l1i_cache, l2_cache
from repro.tech.core import CorePowerModel
from repro.tech.dsent import HubModel, LinkModel, ReceiveNetModel, RouterModel
from repro.tech.photonics import OnetGeometry, PhotonicParams
from repro.tech.scenarios import SCENARIO_ATACP, TechScenario

#: Component keys in presentation order (Fig 7 wedges, then core, dram).
NETWORK_KEYS = (
    "laser", "ring_tuning", "modulator_receiver",
    "enet_dynamic", "enet_ndd", "hub", "receive_net",
)
CACHE_KEYS = ("l1i", "l1d", "l2", "directory")
CORE_KEYS = ("core_dd", "core_ndd")
ALL_KEYS = NETWORK_KEYS + CACHE_KEYS + CORE_KEYS + ("dram",)

#: Off-chip DRAM energy per memory-controller access (J).
DRAM_ENERGY_PER_ACCESS_J = 10e-9


@dataclass
class EnergyBreakdown:
    """Per-component energies (J) for one run under one scenario."""

    components: dict[str, float]
    scenario: str
    app: str
    network: str
    runtime_s: float

    def __post_init__(self) -> None:
        unknown = set(self.components) - set(ALL_KEYS)
        if unknown:
            raise ValueError(f"unknown component keys: {sorted(unknown)}")
        for key, value in self.components.items():
            if value < 0:
                raise ValueError(f"negative energy for {key}: {value}")

    def __getitem__(self, key: str) -> float:
        return self.components.get(key, 0.0)

    @property
    def network_energy_j(self) -> float:
        """Sum of the network wedges (optical + electrical) (J)."""
        return sum(self.components.get(k, 0.0) for k in NETWORK_KEYS)

    @property
    def cache_energy_j(self) -> float:
        """Sum of the cache wedges (L1s, L2, directory) (J)."""
        return sum(self.components.get(k, 0.0) for k in CACHE_KEYS)

    @property
    def core_energy_j(self) -> float:
        """Core DD + NDD energy (J)."""
        return sum(self.components.get(k, 0.0) for k in CORE_KEYS)

    @property
    def chip_energy_j(self) -> float:
        """Network + caches (Figure 7's scope)."""
        return self.network_energy_j + self.cache_energy_j

    @property
    def total_energy_j(self) -> float:
        """Network + caches + core (Figure 17's scope; DRAM excluded)."""
        return self.chip_energy_j + self.core_energy_j

    def edp(self, include_core: bool = False) -> float:
        """Energy-delay product (J*s) over the figure's scope."""
        energy = self.total_energy_j if include_core else self.chip_energy_j
        return energy * self.runtime_s


class EnergyModel:
    """Maps a :class:`RunResult` to an :class:`EnergyBreakdown`.

    One instance captures a technology configuration (photonic device
    parameters + core power model) for one network; ``evaluate`` may be
    called for many runs of that network and many scenarios.
    """

    def __init__(
        self,
        config: SystemConfig,
        photonics: PhotonicParams | None = None,
        core_power: CorePowerModel | None = None,
    ) -> None:
        self.config = config
        self.base_photonics = photonics if photonics is not None else PhotonicParams()
        self.base_photonics.validate()
        self.core_power = core_power if core_power is not None else CorePowerModel()
        topo = config.topology
        self.n_routers = topo.n_cores
        hop_mm = DIE_EDGE_MM / topo.width
        self.router = RouterModel(n_ports=5, width_bits=config.flit_bits)
        self.link = LinkModel(width_bits=config.flit_bits, length_mm=hop_mm)
        # bidirectional mesh: 2 links per adjacent pair, both directions
        self.n_links = 4 * topo.width * (topo.width - 1)
        network = make_network(config)
        self._network_name = network.name
        self._optical = get_network(config.network).optical
        if self._optical:
            self._n_hubs = topo.n_clusters
            self._n_onet_links = len(network.onet_links)
            self._hub = HubModel(width_bits=config.flit_bits)
            self._receive_net = ReceiveNetModel(
                kind=network.receive_net_kind,
                width_bits=config.flit_bits,
                cluster_size=topo.cluster_size,
            )
        # caches (full-size models: energy reflects the real chip even
        # when the simulator runs with scaled-down cache state)
        self.l1i = l1i_cache()
        self.l1d = l1d_cache()
        self.l2 = l2_cache()
        self.directory = directory_cache(
            n_lines_tracked=4096,
            hardware_sharers=config.hardware_sharers,
            n_cores=topo.n_cores,
        )
        self.n_compute = len(topo.compute_cores())

    # ------------------------------------------------------------------
    def evaluate(
        self,
        result: RunResult,
        scenario: TechScenario = SCENARIO_ATACP,
    ) -> EnergyBreakdown:
        """Compute the component breakdown for one run + one scenario.

        Raises ``ValueError`` if ``result`` ran on another network than
        this model's config builds.
        """
        if result.network != self._network_name:
            raise ValueError(
                f"cannot price a {result.network!r} run with a "
                f"{self._network_name!r} energy model"
            )
        runtime = result.runtime_s
        ns = result.network_stats
        comp: dict[str, float] = {}

        # -- electrical mesh (standalone mesh, or the ENet of ATAC/+) --
        comp["enet_dynamic"] = (
            ns.router_flit_traversals * self.router.flit_energy_j()
            + ns.link_flit_traversals * self.link.dynamic_energy_j()
            + ns.router_arbitrations * self.router.arbitration_energy_j()
        )
        comp["enet_ndd"] = runtime * (
            self.n_routers
            * (self.router.clock_power_w(result.freq_hz) + self.router.leakage_power_w())
            + self.n_links * self.link.leakage_power_w()
        )

        # -- optical path, hubs and receive nets ----------------------
        # Electrical meshes have none and contribute nothing here.
        if self._optical:
            comp.update(self._optical_components(result, scenario))

        # -- caches --------------------------------------------------------
        cc = result.cache_counters
        comp["l1i"] = (
            cc.l1i_accesses * self.l1i.read_energy_j(data_bits=64)
            + runtime * self.n_compute * self.l1i.leakage_power_w()
        )
        comp["l1d"] = (
            cc.l1d_reads * self.l1d.read_energy_j(data_bits=64)
            + cc.l1d_writes * self.l1d.write_energy_j(data_bits=64)
            + runtime * self.n_compute * self.l1d.leakage_power_w()
        )
        comp["l2"] = (
            cc.l2_reads * self.l2.read_energy_j()
            + cc.l2_writes * self.l2.write_energy_j()
            + cc.l2_tag_probes * self.l2.tag_probe_energy_j()
            + runtime * self.n_compute * self.l2.leakage_power_w()
        )
        comp["directory"] = (
            result.dir_lookups * self.directory.read_energy_j(0)
            + result.dir_updates * self.directory.write_energy_j(0)
            + runtime * self.n_compute * self.directory.leakage_power_w()
        )

        # -- core (Section V-G) ----------------------------------------------
        comp["core_dd"] = self.core_power.dd_energy_j(
            result.total_instructions, result.freq_hz
        )
        comp["core_ndd"] = (
            self.core_power.ndd_power_w * runtime * self.n_compute
        )

        # -- off-chip DRAM ------------------------------------------------------
        comp["dram"] = (
            (result.mem_reads + result.mem_writes) * DRAM_ENERGY_PER_ACCESS_J
        )

        return EnergyBreakdown(
            components=comp,
            scenario=scenario.name,
            app=result.app,
            network=result.network,
            runtime_s=runtime,
        )

    def _optical_components(
        self, result: RunResult, scenario: TechScenario
    ) -> dict:
        """Laser / ring / Tx-Rx / hub / receive-net wedges (Figure 7).

        Every channel in the built network's ``onet_links`` is always
        on in the non-power-gated laser scenario and counts toward the
        ring-tuning inventory.
        """
        ns = result.network_stats
        runtime = result.runtime_s
        cycle_s = 1.0 / result.freq_hz
        n_onet_links = self._n_onet_links
        comp: dict[str, float] = {}
        photonics = scenario.photonic_params(self.base_photonics)
        geometry = OnetGeometry(
            n_hubs=n_onet_links,
            data_width_bits=self.config.flit_bits,
            params=photonics,
        )
        channel = geometry.data_link(on_chip_laser=scenario.laser_power_gated)
        # one hub "link" = flit_bits wavelength-channels in lockstep
        uni_w = channel.unicast_power_w() * self.config.flit_bits
        bcast_w = channel.broadcast_power_w() * self.config.flit_bits
        active = (
            ns.onet_unicast_cycles * uni_w
            + ns.onet_broadcast_cycles * bcast_w
        ) * cycle_s
        # laser settle/re-bias energy per mode transition (the 1 ns
        # power-up window of the on-chip Ge laser, Section II-A)
        active += (
            ns.onet_mode_transitions
            * channel.transition_energy_j()
            * self.config.flit_bits
        )
        if scenario.laser_power_gated:
            comp["laser"] = active
        else:
            # Every channel idles at its provisioned power for the whole
            # run (ATAC+(Cons)).
            comp["laser"] = (
                channel.idle_power_w(power_gated=False) * self.config.flit_bits
                * n_onet_links * result.completion_cycles * cycle_s
            )
        comp["ring_tuning"] = (
            geometry.ring_tuning_power_w(athermal=scenario.athermal_rings)
            * runtime
        )
        bits = self.config.flit_bits
        mod_j = photonics.modulator_energy_fj_per_bit * 1e-15 * bits
        rx_j = photonics.receiver_energy_fj_per_bit * 1e-15 * bits
        comp["modulator_receiver"] = (
            (ns.onet_unicast_flits + ns.onet_broadcast_flits) * mod_j
            + ns.onet_receiver_flits * rx_j
            + ns.onet_select_notifications * mod_j * 0.1  # select link
        )
        comp["hub"] = (
            ns.hub_flit_traversals * self._hub.flit_energy_j()
            + runtime
            * self._n_hubs
            * (self._hub.clock_power_w(result.freq_hz) + self._hub.leakage_power_w())
        )
        comp["receive_net"] = (
            ns.receive_net_unicast_flits * self._receive_net.unicast_energy_j()
            + ns.receive_net_broadcast_flits * self._receive_net.broadcast_energy_j()
            + runtime * self._n_hubs * RECEIVE_NETS_PER_CLUSTER
            * self._receive_net.leakage_power_w()
        )
        return comp
