"""The network architecture registry: one typed descriptor per network.

The paper's central methodological point is *cross-layer*: a network
architecture is simultaneously a timing model (the event-driven
``Network``), an energy and area model (Figures 7 and 10), and an
experiment axis (which figures sweep it).  This module binds the timing
model and the experiment axes into a single :class:`NetworkDescriptor`
so that adding an architecture is one registration here -- the config
layer, the energy/area roll-ups, the figure drivers, the CLI and the
fuzzer all resolve through the registry instead of string-matching
``config.network``.  Pricing lives in :mod:`repro.energy`: it builds the
network and reads its hardware inventory (``onet_links``,
``receive_net_kind``) from the built object, so the joules and mm^2
always describe the hardware the timing model simulates.

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
   ``build`` factory; set ``optical=True`` if the fabric has photonic
   and cluster hardware, which the energy and area models then price
   from the built network's ``onet_links`` and ``receive_net_kind``;
3. done: ``SystemConfig`` validation, ``repro run/sweep/fuzz``, energy
   and area, the sweep grid and the sanitizer/fuzzer matrix pick it up
   automatically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.network.atac import AtacNetwork
from repro.network.corona import CoronaNetwork
from repro.network.engine import Network
from repro.network.hermes import HermesNetwork
from repro.network.mesh import EMeshBCast, EMeshPure
from repro.network.routing import ClusterRouting, DistanceRouting


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
    the event-driven timing model.
    """

    #: configuration key (``SystemConfig.network``, CLI ``--networks``).
    name: str
    #: label used in the paper's figures (``RunResult.network``).
    display_name: str
    #: one-line architecture summary (shown by ``repro list``).
    summary: str
    #: ``SystemConfig -> Network`` factory.
    build: Callable[..., Network]
    #: carries traffic on photonic hardware and cluster hubs: the
    #: energy and area models price the built network's ``onet_links``
    #: and receive nets, and instances need at least two clusters.
    optical: bool = False
    #: experiment axes this network belongs to by default:
    #: ``runtime`` -- the Figure 4/7/8 architecture comparison;
    #: ``edp``     -- the Figure 9/10/14/17 ATAC+-vs-mesh pair;
    #: ``sweep``   -- the ``repro sweep`` default grid.
    axes: frozenset[str] = field(default_factory=frozenset)


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


def network_names() -> tuple[str, ...]:
    """All registered configuration keys, in registration order."""
    return tuple(REGISTRY)


def experiment_axis(axis: str) -> tuple[str, ...]:
    """Networks belonging to ``axis``, in registration order."""
    return tuple(d.name for d in REGISTRY.values() if axis in d.axes)


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
# network factories
# ----------------------------------------------------------------------

def _build_atac_plus(config) -> Network:
    return AtacNetwork(
        config.topology,
        flit_bits=config.flit_bits,
        routing=DistanceRouting(config.rthres),
        receive_net=config.receive_net,
    )


def _build_atac(config) -> Network:
    return AtacNetwork(
        config.topology,
        flit_bits=config.flit_bits,
        routing=ClusterRouting(),
        # original ATAC is defined by its BNet, whatever the config asks
        receive_net="bnet",
    )


def _build_emesh_bcast(config) -> Network:
    return EMeshBCast(config.topology, flit_bits=config.flit_bits)


def _build_emesh_pure(config) -> Network:
    return EMeshPure(config.topology, flit_bits=config.flit_bits)


def _build_corona(config) -> Network:
    return CoronaNetwork(
        config.topology,
        flit_bits=config.flit_bits,
        receive_net=config.receive_net,
    )


def _build_hermes(config) -> Network:
    return HermesNetwork(
        config.topology,
        flit_bits=config.flit_bits,
        receive_net=config.receive_net,
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
))

register(NetworkDescriptor(
    name="atac",
    display_name="ATAC",
    summary="original hybrid: BNet receive network, cluster routing",
    build=_build_atac,
    optical=True,
    axes=frozenset(),
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
))

register(NetworkDescriptor(
    name="hermes",
    display_name="HERMES",
    summary="hierarchical broadcast: global optical channel -> region "
            "heads -> cluster receive nets; unicasts stay electrical",
    build=_build_hermes,
    optical=True,
    axes=frozenset({"sweep"}),
))

#: The paper's headline architecture (``repro run`` default).
DEFAULT_NETWORK = "atac+"
