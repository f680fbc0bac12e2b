"""Run results: the bundle the energy/analysis layers consume."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.coherence.l2controller import CacheCounters
from repro.network.stats import NetworkStats

#: Table I core clock: 1 GHz.
FREQ_HZ = 1e9


@dataclass
class RunResult:
    """Outcome of one full-system simulation.

    This mirrors the paper's toolflow interface: "Event counters and
    completion time output from Graphite are then combined with
    per-event energies and static power to obtain the overall energy
    usage of the benchmark."
    """

    app: str
    network: str
    completion_cycles: int
    n_cores: int
    n_compute_cores: int
    total_instructions: int
    per_core_instructions: list[int]
    stalled_cycles: int
    network_stats: NetworkStats
    cache_counters: CacheCounters
    dir_lookups: int
    dir_updates: int
    dir_inv_unicast: int
    dir_inv_broadcast: int
    mem_reads: int
    mem_writes: int
    barriers_completed: int
    freq_hz: float = FREQ_HZ
    #: mean adaptive-SWMR link utilization (hybrid networks only)
    onet_utilization: float = 0.0
    flit_bits: int = 64
    hardware_sharers: int = 4
    protocol: str = "ackwise"

    def __post_init__(self) -> None:
        if self.completion_cycles < 0:
            raise ValueError("completion_cycles must be non-negative")

    # ------------------------------------------------------------------
    @property
    def runtime_s(self) -> float:
        """Wall-clock completion time."""
        return self.completion_cycles / self.freq_hz

    @property
    def ipc(self) -> float:
        """Chip-average retired IPC per compute core."""
        if self.completion_cycles == 0 or self.n_compute_cores == 0:
            return 0.0
        return self.total_instructions / (
            self.completion_cycles * self.n_compute_cores
        )

    @property
    def offered_load(self) -> float:
        """Flits/cycle/core injected over the run (Fig 6's metric)."""
        if self.completion_cycles == 0:
            return 0.0
        return self.network_stats.injected_flits / (
            self.completion_cycles * self.n_cores
        )

    @property
    def receiver_broadcast_fraction(self) -> float:
        """Fig 5's metric: broadcast share of receiver-side traffic."""
        return self.network_stats.receiver_broadcast_fraction()

    @property
    def unicasts_per_broadcast(self) -> float:
        """Table V's metric (ONet traffic only)."""
        return self.network_stats.unicasts_per_broadcast()

    def to_dict(self) -> dict:
        """JSON-serializable snapshot (the result store's payload).

        Nested counter bundles flatten to plain dicts; ``from_dict``
        reverses the conversion exactly, so a store round trip is
        byte-identical under ``json.dumps(..., sort_keys=True)``.
        """
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "network_stats":
                value = value.as_dict()
            elif f.name == "cache_counters":
                value = value.as_dict()
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "RunResult":
        known = {f.name for f in fields(cls)}
        kwargs = {k: v for k, v in d.items() if k in known}
        kwargs["network_stats"] = NetworkStats.from_dict(kwargs["network_stats"])
        kwargs["cache_counters"] = CacheCounters.from_dict(kwargs["cache_counters"])
        return cls(**kwargs)

    def summary(self) -> dict[str, float]:
        """Compact numeric snapshot for experiment tables."""
        return {
            "app": self.app,
            "network": self.network,
            "cycles": self.completion_cycles,
            "ipc": round(self.ipc, 4),
            "offered_load": round(self.offered_load, 6),
            "bcast_rx_frac": round(self.receiver_broadcast_fraction, 4),
            "onet_utilization": round(self.onet_utilization, 4),
        }
