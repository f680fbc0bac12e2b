"""The network architecture registry: one typed descriptor per network.

The paper's central methodological point is *cross-layer*: a network
architecture is simultaneously a timing model (the event-driven
``Network``), an energy model (which Figure-7 wedges exist and how the
counters price out), an area model (Figure 10), and an experiment axis
(which figures sweep it).  This module binds all of those facets into a
single :class:`NetworkDescriptor` so that adding an architecture is one
registration here -- the config layer, the energy/area roll-ups, the
figure drivers, the CLI and the fuzzer all resolve through the registry
instead of string-matching ``config.network``.

``tests/test_no_string_dispatch.py`` enforces the invariant: this file
is the only place in ``src/repro`` where network names may be dispatched
on or enumerated.

Registered architectures
------------------------

=============  ============  ====================================================
name           display name  architecture
=============  ============  ====================================================
``atac+``      ATAC+         hybrid: ENet + adaptive-SWMR ONet + StarNet,
                             distance-based unicast routing (the paper's design)
``atac``       ATAC          original hybrid: BNet receive, cluster routing
``emesh-bcast``  EMesh-BCast electrical mesh with native router multicast
``emesh-pure``   EMesh-Pure  electrical mesh; broadcasts = N-1 unicasts
``corona``     Corona        all-optical MWSR crossbar (Vantrease et al.):
                             receivers own channels, writers arbitrate by token
``hermes``     HERMES        hierarchical broadcast network (Mohamed et al.):
                             global optical channel -> region heads -> clusters,
                             all unicasts electrical
=============  ============  ====================================================

How to add a network (one file)
-------------------------------

1. implement the timing model (a :class:`~repro.network.engine.Network`
   subclass, usually via :class:`~repro.network.atac.AtacNetwork` or
   :class:`~repro.network.mesh._MeshBase`);
2. call :func:`register` with a :class:`NetworkDescriptor` naming a
   ``build`` factory and (if the fabric has optical/cluster hardware)
   ``energy_components`` / ``area_components`` builders;
3. done: ``SystemConfig`` validation, ``repro run/sweep/fuzz``, the
   sweep grid and the sanitizer/fuzzer matrix pick it up automatically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.network.atac import AtacNetwork
from repro.network.corona import CoronaNetwork
from repro.network.engine import RECEIVE_NETS_PER_CLUSTER, Network
from repro.network.hermes import HermesNetwork, hermes_regions
from repro.network.mesh import EMeshBCast, EMeshPure
from repro.network.routing import ClusterRouting, DistanceRouting
from repro.tech.photonics import OnetGeometry


class UnknownNetworkError(ValueError):
    """Raised for a network name with no registered descriptor."""

    def __init__(self, name: str) -> None:
        super().__init__(
            f"unknown network {name!r}: registered networks are "
            f"{tuple(REGISTRY)}"
        )
        self.name = name


@dataclass(frozen=True)
class NetworkDescriptor:
    """Everything the rest of the system needs to know about a network.

    ``build`` receives a ``SystemConfig`` (duck-typed here to keep this
    module import-light; ``repro.sim.config`` imports *us*) and returns
    the event-driven timing model.  ``energy_components`` /
    ``area_components`` return the extra component-key -> value entries
    beyond the electrical-mesh + cache baseline that every architecture
    shares; ``None`` means the baseline is the whole story.
    """

    #: configuration key (``SystemConfig.network``, CLI ``--networks``).
    name: str
    #: label used in the paper's figures (``RunResult.network``).
    display_name: str
    #: one-line architecture summary (shown by ``repro list``).
    summary: str
    #: ``SystemConfig -> Network`` factory.
    build: Callable[..., Network]
    #: carries traffic on photonic hardware (drives the optical energy
    #: wedges and the laser/ring accounting).
    optical: bool = False
    #: fixed receive-net kind, overriding ``config.receive_net``
    #: (original ATAC is defined by its BNet).
    receive_net_override: str | None = None
    #: experiment axes this network belongs to by default:
    #: ``runtime`` -- the Figure 4/7/8 architecture comparison;
    #: ``edp``     -- the Figure 9/10/14/17 ATAC+-vs-mesh pair;
    #: ``sweep``   -- the ``repro sweep`` default grid.
    axes: frozenset[str] = field(default_factory=frozenset)
    #: extra energy wedges: ``(EnergyModel, RunResult, TechScenario) ->
    #: {component: joules}``.
    energy_components: Callable[..., dict] | None = None
    #: extra area entries: ``AreaModel -> {component: mm^2}``.
    area_components: Callable[..., dict] | None = None

    def resolve_receive_net(self, requested: str) -> str:
        """The receive-net kind actually instantiated for this network."""
        if self.receive_net_override is not None:
            return self.receive_net_override
        return requested


#: name -> descriptor, in registration order (order is meaningful: it
#: fixes CLI listings, axis tuples and golden-pinned column order).
REGISTRY: dict[str, NetworkDescriptor] = {}


def register(descriptor: NetworkDescriptor) -> NetworkDescriptor:
    """Add a descriptor; duplicate names or display names are rejected."""
    if descriptor.name in REGISTRY:
        raise ValueError(f"network {descriptor.name!r} is already registered")
    for existing in REGISTRY.values():
        if existing.display_name == descriptor.display_name:
            raise ValueError(
                f"display name {descriptor.display_name!r} is already "
                f"registered (by {existing.name!r})"
            )
    REGISTRY[descriptor.name] = descriptor
    return descriptor


def get_network(name: str) -> NetworkDescriptor:
    """The descriptor for ``name``; raises :class:`UnknownNetworkError`."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise UnknownNetworkError(name) from None


def for_display_name(display_name: str) -> NetworkDescriptor:
    """The descriptor whose paper label is ``display_name``."""
    for descriptor in REGISTRY.values():
        if descriptor.display_name == display_name:
            return descriptor
    raise UnknownNetworkError(display_name)


def network_names() -> tuple[str, ...]:
    """All registered configuration keys, in registration order."""
    return tuple(REGISTRY)


def experiment_axis(axis: str) -> tuple[str, ...]:
    """Networks belonging to ``axis``, in registration order."""
    return tuple(d.name for d in REGISTRY.values() if axis in d.axes)


def receive_net_kind(network: str, requested: str) -> str:
    """The receive-net kind a config with these fields instantiates."""
    return get_network(network).resolve_receive_net(requested)


def networks_for_fuzzing(
    mesh_width: int, cluster_width: int = 4
) -> tuple[str, ...]:
    """Networks instantiable at this mesh width (fuzzer case pool):
    optical SWMR links need two endpoints, so at least two clusters."""
    n_clusters = (mesh_width // cluster_width) ** 2
    return tuple(
        d.name for d in REGISTRY.values() if not d.optical or n_clusters >= 2
    )


# ----------------------------------------------------------------------
# energy / area component builders
# ----------------------------------------------------------------------
# These are the single implementations of the optical/cluster hardware
# accounting; descriptors share them (parameterized by channel count)
# so the arithmetic -- and therefore the golden-pinned figures -- stays
# identical for the paper networks.

def optical_energy_components(
    model, result, scenario, n_channels: int | None = None
) -> dict:
    """Laser / ring / Tx-Rx / hub / receive-net wedges (Figure 7).

    ``model`` is the :class:`~repro.energy.accounting.EnergyModel`
    evaluating ``result``; ``n_channels`` is the number of always-on
    optical channels for the non-power-gated laser scenario and the
    ring-tuning inventory (defaults to one channel per hub, the
    ATAC/ATAC+/Corona geometry).
    """
    ns = result.network_stats
    runtime = result.runtime_s
    cycle_s = 1.0 / result.freq_hz
    if n_channels is None:
        n_channels = model.n_hubs
    comp: dict[str, float] = {}
    photonics = scenario.photonic_params(model.base_photonics)
    geometry = OnetGeometry(
        n_hubs=n_channels,
        data_width_bits=model.config.flit_bits,
        params=photonics,
    )
    channel = geometry.data_link(on_chip_laser=scenario.laser_power_gated)
    # one hub "link" = flit_bits wavelength-channels in lockstep
    uni_w = channel.unicast_power_w() * model.config.flit_bits
    bcast_w = channel.broadcast_power_w() * model.config.flit_bits
    active = (
        ns.onet_unicast_cycles * uni_w
        + ns.onet_broadcast_cycles * bcast_w
    ) * cycle_s
    # laser settle/re-bias energy per mode transition (the 1 ns
    # power-up window of the on-chip Ge laser, Section II-A)
    active += (
        ns.onet_mode_transitions
        * channel.transition_energy_j()
        * model.config.flit_bits
    )
    if scenario.laser_power_gated:
        comp["laser"] = active
    else:
        # Laser stuck at worst-case broadcast power on every channel
        # for the whole run (ATAC+(Cons)).
        comp["laser"] = (
            bcast_w * n_channels * result.completion_cycles * cycle_s
        )
    comp["ring_tuning"] = (
        geometry.ring_tuning_power_w(athermal=scenario.athermal_rings)
        * runtime
    )
    bits = model.config.flit_bits
    mod_j = photonics.modulator_energy_fj_per_bit * 1e-15 * bits
    rx_j = photonics.receiver_energy_fj_per_bit * 1e-15 * bits
    comp["modulator_receiver"] = (
        (ns.onet_unicast_flits + ns.onet_broadcast_flits) * mod_j
        + ns.onet_receiver_flits * rx_j
        + ns.onet_select_notifications * mod_j * 0.1  # select link
    )
    comp["hub"] = (
        ns.hub_flit_traversals * model.hub.flit_energy_j()
        + runtime
        * model.n_hubs
        * (model.hub.clock_power_w(result.freq_hz) + model.hub.leakage_power_w())
    )
    comp["receive_net"] = (
        ns.receive_net_unicast_flits * model.receive_net.unicast_energy_j()
        + ns.receive_net_broadcast_flits * model.receive_net.broadcast_energy_j()
        + runtime * model.n_hubs * RECEIVE_NETS_PER_CLUSTER
        * model.receive_net.leakage_power_w()
    )
    return comp


def clustered_area_components(model, n_channels: int | None = None) -> dict:
    """Hub / receive-net / photonics areas (Figure 10).

    ``model`` is the :class:`~repro.energy.area.AreaModel`;
    ``n_channels`` sizes the photonic inventory (default: one channel
    per cluster hub).
    """
    from repro.tech.dsent import HubModel, ReceiveNetModel

    cfg = model.config
    topo = cfg.topology
    kind = receive_net_kind(cfg.network, cfg.receive_net)
    if n_channels is None:
        n_channels = topo.n_clusters
    comp: dict[str, float] = {}
    comp["hubs"] = topo.n_clusters * HubModel(cfg.flit_bits).area_mm2()
    comp["receive_net"] = (
        topo.n_clusters
        * RECEIVE_NETS_PER_CLUSTER
        * ReceiveNetModel(
            kind=kind, width_bits=cfg.flit_bits,
            cluster_size=topo.cluster_size,
        ).area_mm2()
    )
    comp["photonics"] = OnetGeometry(
        n_hubs=n_channels,
        data_width_bits=cfg.flit_bits,
        params=model.photonics,
    ).photonics_area_mm2()
    return comp


def _hermes_channel_count(topology) -> int:
    """HERMES's optical inventory: one global channel plus one
    rebroadcast channel per multi-cluster region (far fewer than the
    per-hub crossbar channels of ATAC/Corona)."""
    regions = hermes_regions(topology)
    n = 1 + sum(1 for members in regions if len(members) >= 2)
    return max(2, n)  # OnetGeometry needs >= 2 endpoints


def _hermes_energy(model, result, scenario) -> dict:
    return optical_energy_components(
        model, result, scenario,
        n_channels=_hermes_channel_count(model.config.topology),
    )


def _hermes_area(model) -> dict:
    return clustered_area_components(
        model, n_channels=_hermes_channel_count(model.config.topology)
    )


# ----------------------------------------------------------------------
# network factories
# ----------------------------------------------------------------------

def _build_atac_plus(config) -> Network:
    return AtacNetwork(
        config.topology,
        flit_bits=config.flit_bits,
        routing=DistanceRouting(config.rthres),
        receive_net=receive_net_kind("atac+", config.receive_net),
    )


def _build_atac(config) -> Network:
    return AtacNetwork(
        config.topology,
        flit_bits=config.flit_bits,
        routing=ClusterRouting(),
        receive_net=receive_net_kind("atac", config.receive_net),
    )


def _build_emesh_bcast(config) -> Network:
    return EMeshBCast(config.topology, flit_bits=config.flit_bits)


def _build_emesh_pure(config) -> Network:
    return EMeshPure(config.topology, flit_bits=config.flit_bits)


def _build_corona(config) -> Network:
    return CoronaNetwork(
        config.topology,
        flit_bits=config.flit_bits,
        receive_net=receive_net_kind("corona", config.receive_net),
    )


def _build_hermes(config) -> Network:
    return HermesNetwork(
        config.topology,
        flit_bits=config.flit_bits,
        receive_net=receive_net_kind("hermes", config.receive_net),
    )


# ----------------------------------------------------------------------
# registrations (order fixes CLI/axis/column order -- do not reorder)
# ----------------------------------------------------------------------

register(NetworkDescriptor(
    name="atac+",
    display_name="ATAC+",
    summary="hybrid ENet + adaptive-SWMR ONet + StarNet, distance routing",
    build=_build_atac_plus,
    optical=True,
    axes=frozenset({"runtime", "edp", "sweep"}),
    energy_components=optical_energy_components,
    area_components=clustered_area_components,
))

register(NetworkDescriptor(
    name="atac",
    display_name="ATAC",
    summary="original hybrid: BNet receive network, cluster routing",
    build=_build_atac,
    optical=True,
    receive_net_override="bnet",
    axes=frozenset(),
    energy_components=optical_energy_components,
    area_components=clustered_area_components,
))

register(NetworkDescriptor(
    name="emesh-bcast",
    display_name="EMesh-BCast",
    summary="electrical mesh with native router multicast",
    build=_build_emesh_bcast,
    axes=frozenset({"runtime", "edp", "sweep"}),
))

register(NetworkDescriptor(
    name="emesh-pure",
    display_name="EMesh-Pure",
    summary="electrical mesh; broadcasts become N-1 serialized unicasts",
    build=_build_emesh_pure,
    axes=frozenset({"runtime"}),
))

register(NetworkDescriptor(
    name="corona",
    display_name="Corona",
    summary="all-optical MWSR crossbar: writers arbitrate at the "
            "receiver's channel, token-slot arbitration",
    build=_build_corona,
    optical=True,
    axes=frozenset({"sweep"}),
    energy_components=optical_energy_components,
    area_components=clustered_area_components,
))

register(NetworkDescriptor(
    name="hermes",
    display_name="HERMES",
    summary="hierarchical broadcast: global optical channel -> region "
            "heads -> cluster receive nets; unicasts stay electrical",
    build=_build_hermes,
    optical=True,
    axes=frozenset({"sweep"}),
    energy_components=_hermes_energy,
    area_components=_hermes_area,
))

#: The paper's headline architecture (``repro run`` default).
DEFAULT_NETWORK = "atac+"
