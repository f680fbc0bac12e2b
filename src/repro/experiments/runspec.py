"""Typed run specifications: the unit of work of the experiment layer.

Every paper figure is a function of a set of *runs*, each fully
described by a small parameter tuple.  A spec is a frozen dataclass
that

* validates its parameters at construction,
* hashes deterministically (``content_hash``) so identical work is
  recognized across processes, sessions and figure modules,
* knows how to ``execute()`` itself in any process (specs are plain
  picklable values, so a ``ProcessPoolExecutor`` worker can run them),
* converts its result to and from a JSON payload for the versioned
  result store.

Two spec kinds cover the paper's evaluations:

* :class:`RunSpec` -- one application on one architecture through
  :class:`~repro.sim.system.ManycoreSystem` (Figs 4-17, Table V);
* :class:`LoadPointSpec` -- one synthetic-traffic load point on the
  hybrid network (Fig 3 and the ablation sweeps).
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from repro import __version__
from repro.coherence.directory import Protocol
from repro.network.registry import get_network
from repro.sim.config import SystemConfig
from repro.sim.results import RunResult
from repro.workloads.synthetic import LoadSweepPoint

#: Bump whenever the meaning of a spec field or the stored payload
#: layout changes: the version is part of every content hash, so old
#: ``.repro_cache/`` entries are ignored rather than deserialized into
#: mismatched dataclasses.  Simulator code edits are covered by
#: ``_code_digest`` and need no bump.
CACHE_SCHEMA_VERSION = 5

#: Sources (relative to the package root) whose code decides a stored
#: payload.  ``energy`` and ``tech`` are left out: payloads hold
#: counters, not joules, so editing them needs no re-simulation.
SIMULATION_SOURCES = (
    "sim", "network", "coherence", "workloads", "experiments/runspec.py",
)


def source_digest(root: Path) -> str:
    """SHA-256 over the ``SIMULATION_SOURCES`` ``.py`` files (paths
    included) under ``root``, a ``repro`` package directory."""
    h = hashlib.sha256()
    for entry in SIMULATION_SOURCES:
        path = root / entry
        for f in sorted(path.rglob("*.py")) if path.is_dir() else [path]:
            h.update(f.relative_to(root).as_posix().encode() + b"\0")
            h.update(f.read_bytes() + b"\0")
    return h.hexdigest()


@functools.cache
def _code_digest() -> str:
    """This package's simulation-source digest, computed once."""
    return source_digest(Path(__file__).resolve().parent.parent)


def _digest(kind: str, payload: dict) -> str:
    """Deterministic content hash over (schema, package version,
    simulation-source digest, spec)."""
    doc = {
        "kind": kind,
        "schema": CACHE_SCHEMA_VERSION,
        "repro": __version__,
        "code": _code_digest(),
        "spec": payload,
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def _require_two_clusters(network: str, topology) -> None:
    """Reject an optical ``network`` on a chip of fewer than two
    clusters: its SWMR links join cluster hubs, so they need two."""
    if topology.n_clusters < 2:
        raise ValueError(
            f"network {network!r} is optical and needs at least two "
            f"clusters; a {topology.width}x{topology.width} mesh of "
            f"{topology.cluster_width}x{topology.cluster_width} clusters "
            f"has {topology.n_clusters}"
        )


@dataclass(frozen=True)
class RunSpec:
    """One (application, architecture, scale, seed) simulation."""

    kind = "run"

    app: str
    network: str = "atac+"
    mesh_width: int = 16
    scale: float = 0.6
    protocol: Protocol = Protocol.ACKWISE
    hardware_sharers: int = 4
    rthres: int = 15
    flit_bits: int = 64
    receive_net: str = "starnet"
    seed: int = 42
    #: Run under the runtime invariant checker (repro.sanitizer).
    #: Deliberately *excluded* from the spec's identity: a sanitized run
    #: produces byte-identical results, so it shares the unsanitized
    #: content hash (the runner still bypasses the cache for it -- a
    #: cache hit would skip the checking the caller asked for).
    sanitize: bool = False
    #: Collect windowed telemetry + an event trace (repro.telemetry)
    #: into ``<telemetry root>/<content hash>/``.  Excluded from the
    #: spec's identity for the same reason as ``sanitize``: telemetry
    #: leaves the simulation byte-identical, and the runner bypasses
    #: the cache on load so the artifacts actually get produced.
    telemetry: bool = False

    def __post_init__(self) -> None:
        # import here: workloads.splash imports nothing from experiments,
        # but keeping the top-level import surface small keeps unpickling
        # in pool workers cheap.
        from repro.workloads.splash import APP_PROFILES

        if self.app not in APP_PROFILES:
            raise KeyError(
                f"unknown app {self.app!r}; choose from {sorted(APP_PROFILES)}"
            )
        descriptor = get_network(self.network)  # raises UnknownNetworkError
        if isinstance(self.protocol, str):
            object.__setattr__(self, "protocol", Protocol(self.protocol))
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        if self.mesh_width < 4:
            raise ValueError(f"mesh_width must be >= 4, got {self.mesh_width}")
        if self.rthres < 0:
            raise ValueError(f"rthres must be >= 0, got {self.rthres}")
        # Building the topology validates the mesh and cluster geometry
        # (the mesh width must be a multiple of the cluster width).
        topology = self.config().topology
        if descriptor.optical:
            _require_two_clusters(self.network, topology)

    # -- identity -------------------------------------------------------
    def to_dict(self) -> dict:
        d = asdict(self)
        d["protocol"] = self.protocol.value
        del d["sanitize"]  # not part of the run's identity (see field doc)
        del d["telemetry"]  # likewise observational-only
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunSpec":
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in d.items() if k in known})

    def content_hash(self) -> str:
        return _digest(self.kind, self.to_dict())

    def label(self) -> str:
        """Short human-readable tag for progress lines."""
        return f"{self.app}@{self.network}/w{self.mesh_width}"

    # -- execution ------------------------------------------------------
    def config(self) -> SystemConfig:
        """The paper-default config scaled to this spec's mesh width."""
        base = SystemConfig(
            network=self.network,
            protocol=self.protocol,
            hardware_sharers=self.hardware_sharers,
            rthres=self.rthres,
            flit_bits=self.flit_bits,
            receive_net=self.receive_net,
        )
        if self.mesh_width == 32:
            return base
        return base.scaled(mesh_width=self.mesh_width)

    def execute(self) -> RunResult:
        """Run the full-system simulation for this spec (any process).

        Trace generation is deterministic in ``(seed, app, core)`` --
        see :func:`repro.workloads.splash.generate_traces` -- so a pool
        worker produces a byte-identical result to an in-process run.
        """
        from repro.sim.system import ManycoreSystem
        from repro.workloads.splash import APP_PROFILES, generate_traces

        telemetry = False
        if self.telemetry:
            # Persisted under the telemetry root, keyed by content hash
            # (a bare default TelemetryConfig would stay in memory).
            from repro.telemetry import telemetry_root
            from repro.telemetry.collector import TelemetryConfig

            telemetry = TelemetryConfig(
                run_id=self.content_hash(),
                label=self.label(),
                out_dir=telemetry_root(),
            )
        config = self.config()
        system = ManycoreSystem(
            config, sanitize=self.sanitize, telemetry=telemetry
        )
        traces = generate_traces(
            APP_PROFILES[self.app],
            system.topology,
            l2_lines=config.l2_sets * config.l2_ways,
            scale=self.scale,
            seed=self.seed,
        )
        return system.run(traces, app=self.app)

    # -- store payload --------------------------------------------------
    def result_to_payload(self, result: RunResult) -> dict:
        return result.to_dict()

    def result_from_payload(self, payload: dict) -> RunResult:
        return RunResult.from_dict(payload)


@dataclass(frozen=True)
class LoadPointSpec:
    """One synthetic-traffic load point on the hybrid network (Fig 3).

    ``routing`` is a canonical string -- ``"cluster"``,
    ``"distance-<t>"`` or ``"distance-all"`` -- so the spec stays a
    plain hashable value; the policy object is built at execute time.
    """

    kind = "loadpoint"

    routing: str
    load: float
    mesh_width: int = 32
    cluster_width: int = 4
    broadcast_fraction: float = 0.0
    cycles: int = 1500
    warmup_cycles: int = 400
    seed: int = 7
    flit_bits: int = 64

    def __post_init__(self) -> None:
        topology, _ = self._parse_routing()  # validates
        # The load points run ATAC+ (see ``execute``).
        _require_two_clusters("atac+", topology)
        if not 0 < self.load:
            raise ValueError(f"load must be positive, got {self.load}")
        if self.warmup_cycles >= self.cycles:
            raise ValueError("warmup_cycles must be < cycles")

    def _parse_routing(self):
        from repro.network.routing import ClusterRouting, DistanceRouting, distance_all
        from repro.network.topology import MeshTopology

        topo = MeshTopology(width=self.mesh_width, cluster_width=self.cluster_width)
        r = self.routing
        if r == "cluster":
            return topo, ClusterRouting()
        if r == "distance-all":
            return topo, distance_all(topo)
        if r.startswith("distance-"):
            return topo, DistanceRouting(int(r.split("-", 1)[1]))
        raise ValueError(
            f"bad routing {r!r}: expected 'cluster', 'distance-<t>' "
            "or 'distance-all'"
        )

    # -- identity -------------------------------------------------------
    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "LoadPointSpec":
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in d.items() if k in known})

    def content_hash(self) -> str:
        return _digest(self.kind, self.to_dict())

    def label(self) -> str:
        return f"{self.routing}@load{self.load}"

    # -- execution ------------------------------------------------------
    def execute(self) -> LoadSweepPoint:
        from repro.network.atac import AtacNetwork
        from repro.workloads.synthetic import SyntheticTraffic, run_load_point

        topology, policy = self._parse_routing()
        network = AtacNetwork(topology, flit_bits=self.flit_bits, routing=policy)
        traffic = SyntheticTraffic(
            n_cores=topology.n_cores,
            load=self.load,
            broadcast_fraction=self.broadcast_fraction,
            flit_bits=self.flit_bits,
            seed=self.seed,
        )
        return run_load_point(
            network, traffic, cycles=self.cycles, warmup_cycles=self.warmup_cycles
        )

    # -- store payload --------------------------------------------------
    def result_to_payload(self, result: LoadSweepPoint) -> dict:
        return asdict(result)

    def result_from_payload(self, payload: dict) -> LoadSweepPoint:
        known = {f.name for f in fields(LoadSweepPoint)}
        return LoadSweepPoint(**{k: v for k, v in payload.items() if k in known})
