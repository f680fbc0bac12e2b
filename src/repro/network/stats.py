"""Event counters shared by all network models.

These are the "event counters" of the paper's toolflow (Section V-A):
Graphite counts events, DSENT/McPAT supply per-event energies, and the
energy layer multiplies them together.  Every counter here has a
corresponding per-event energy in :mod:`repro.energy.accounting`.

Counters also feed the paper's traffic metrics directly:

* Figure 5 ("percentage of unicast and broadcast traffic *as measured
  at the receiver*") = ``received_unicast_flits`` vs
  ``received_broadcast_flits``.
* Figure 6 (offered load, flits/cycle/core) = ``injected_flits`` /
  (cycles x cores).
* Table V's unicast-to-broadcast ratio = the ``onet_*`` counters (its
  link utilization is per channel, ``AtacNetwork.onet_utilization``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


@dataclass(slots=True)
class NetworkStats:
    """Mutable counter bundle; one per network instance.

    ``slots=True``: these counters are read-modify-written on every
    packet hop, so instance-dict lookups were measurable.
    """

    # -- injection / delivery -----------------------------------------
    packets_sent: int = 0
    unicasts_sent: int = 0
    broadcasts_sent: int = 0
    injected_flits: int = 0
    received_unicast_flits: int = 0
    received_broadcast_flits: int = 0

    # -- electrical mesh (ENet or standalone mesh) ---------------------
    router_flit_traversals: int = 0   # flits x routers
    link_flit_traversals: int = 0     # flits x links
    router_arbitrations: int = 0      # per packet per router

    # -- optical ONet ---------------------------------------------------
    onet_unicasts: int = 0
    onet_broadcasts: int = 0
    onet_unicast_flits: int = 0       # flits modulated in unicast mode
    onet_broadcast_flits: int = 0     # flits modulated in broadcast mode
    onet_unicast_cycles: int = 0      # channel-cycles in unicast mode
    onet_broadcast_cycles: int = 0    # channel-cycles in broadcast mode
    onet_select_notifications: int = 0
    onet_mode_transitions: int = 0
    onet_receiver_flits: int = 0      # flits x receivers that detected them

    # -- hubs and cluster receive networks ------------------------------
    hub_flit_traversals: int = 0
    receive_net_unicast_flits: int = 0
    receive_net_broadcast_flits: int = 0

    # -- latency (for Fig 3 and diagnostics) -----------------------------
    latency_sum: int = 0
    latency_count: int = 0
    latency_max: int = 0

    @property
    def mean_latency(self) -> float:
        """Average packet latency (cycles); NaN-free: 0.0 if no packets."""
        if self.latency_count == 0:
            return 0.0
        return self.latency_sum / self.latency_count

    def unicasts_per_broadcast(self) -> float:
        """Average unicast packets between successive ONet broadcasts.

        Table V's second column; ``inf`` when no broadcasts occurred.
        """
        if self.onet_broadcasts == 0:
            return float("inf")
        return self.onet_unicasts / self.onet_broadcasts

    def receiver_broadcast_fraction(self) -> float:
        """Fraction of receiver-side traffic that is broadcast (Fig 5)."""
        total = self.received_unicast_flits + self.received_broadcast_flits
        if total == 0:
            return 0.0
        return self.received_broadcast_flits / total

    def offered_load(self, cycles: int, n_cores: int) -> float:
        """Offered load in flits/cycle/core (Fig 6)."""
        if cycles <= 0 or n_cores <= 0:
            raise ValueError("cycles and n_cores must be positive")
        return self.injected_flits / (cycles * n_cores)

    def as_dict(self) -> dict[str, int]:
        """Plain-dict snapshot (for results serialization)."""
        return {f.name: getattr(self, f.name) for f in fields(NetworkStats)}

    @classmethod
    def from_dict(cls, d: dict) -> "NetworkStats":
        """Inverse of :meth:`as_dict`; unknown keys are ignored so old
        store entries with extra counters deserialize cleanly."""
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in d.items() if k in known})
