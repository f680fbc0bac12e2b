"""The ONet: a WDM optical broadcast ring of adaptive SWMR links.

Section III-A + IV-A.  Each of the 64 cluster hubs owns one wavelength
and modulates it onto the data waveguides; every other hub carries
filter rings for that wavelength.  A transmission is therefore
contention-free per sender -- the only queueing is at the sender's own
channel.

The **adaptive SWMR link** (Figure 2) adds a ``log2(C)``-bit select
link and an on-chip Ge laser that switches between three modes within
1 ns:

* ``IDLE``      -- laser off (if power-gating is available),
* ``UNICAST``   -- laser biased for exactly one receiver,
* ``BROADCAST`` -- laser biased for all C-1 receivers.

Before data is sent, the intended receiver(s) are notified on the
select link exactly one cycle early (Table I: "ONet Select - Data Link
Lag: 1 cycle") so their rings tune in; the data then takes 3 cycles of
link delay plus flit serialization.

This module records, per channel, the cycles spent in each mode and the
number of mode transitions -- the inputs to the laser-energy accounting
under the four Table IV technology scenarios and to Table V.
"""

from __future__ import annotations

from enum import Enum

from repro.network.engine import ONET_LINK_DELAY, SELECT_DATA_LAG
from repro.network.stats import NetworkStats


class LaserMode(Enum):
    IDLE = "idle"
    UNICAST = "unicast"
    BROADCAST = "broadcast"


#: the modes as module constants: ``transmit`` runs per optical message
_IDLE, _UNICAST, _BROADCAST = (
    LaserMode.IDLE, LaserMode.UNICAST, LaserMode.BROADCAST,
)


class AdaptiveSWMRLink:
    """One hub's SWMR channel: single writer, C-1 candidate readers."""

    __slots__ = (
        "hub",
        "n_hubs",
        "stats",
        "free_at",
        "last_mode",
        "unicast_cycles",
        "broadcast_cycles",
        "mode_transitions",
    )

    def __init__(
        self,
        hub: int,
        n_hubs: int,
        stats: NetworkStats | None = None,
    ) -> None:
        if n_hubs < 2:
            raise ValueError(f"n_hubs must be >= 2, got {n_hubs}")
        if not 0 <= hub < n_hubs:
            raise ValueError(f"hub {hub} outside [0, {n_hubs})")
        self.hub = hub
        self.n_hubs = n_hubs
        self.stats = stats if stats is not None else NetworkStats()
        self.free_at = 0
        self.last_mode = _IDLE
        self.unicast_cycles = 0
        self.broadcast_cycles = 0
        self.mode_transitions = 0

    # ------------------------------------------------------------------
    def transmit(self, time: int, n_flits: int, broadcast: bool) -> int:
        """Send one message on this channel.

        Parameters
        ----------
        time:
            Cycle at which the message is ready at the sending hub.
        n_flits:
            Message length.
        broadcast:
            Broadcast (all hubs tune in) vs unicast (one hub tunes in).

        Returns
        -------
        hub_arrival:
            When the tail flit is available at the receiving hub(s) --
            identical for every receiver, since all hubs see the ring
            simultaneously (modulo ps-scale flight time folded into the
            3-cycle link delay).  The first flit hit the waveguide at
            ``free_at - n_flits``.
        """
        if time < 0:
            raise ValueError(f"time must be non-negative, got {time}")
        if n_flits < 1:
            raise ValueError(f"n_flits must be >= 1, got {n_flits}")
        # The select-link notification goes out first; data follows one
        # cycle later.  The laser retarget/power-up also fits in that
        # cycle (both are 1 ns operations, Section IV-A).
        prev_free_at = self.free_at
        data_start = time + SELECT_DATA_LAG
        if prev_free_at > data_start:
            data_start = prev_free_at
        self.free_at = data_start + n_flits

        mode = _BROADCAST if broadcast else _UNICAST
        if data_start > prev_free_at:
            # There was an idle gap: the laser dropped to IDLE after the
            # previous message (one transition, unless it was already
            # idle) and now powers back up (another).
            transitions = 1 if self.last_mode is _IDLE else 2
        else:
            # Back-to-back messages: the laser re-biases only if the
            # mode actually changes.
            transitions = 0 if mode is self.last_mode else 1
        self.mode_transitions += transitions
        self.last_mode = mode

        s = self.stats
        s.onet_mode_transitions += transitions
        s.onet_select_notifications += 1
        if broadcast:
            self.broadcast_cycles += n_flits
            s.onet_broadcasts += 1
            s.onet_broadcast_flits += n_flits
            s.onet_broadcast_cycles += n_flits
            s.onet_receiver_flits += n_flits * (self.n_hubs - 1)
        else:
            self.unicast_cycles += n_flits
            s.onet_unicasts += 1
            s.onet_unicast_flits += n_flits
            s.onet_unicast_cycles += n_flits
            s.onet_receiver_flits += n_flits
        return data_start + ONET_LINK_DELAY + n_flits

    # ------------------------------------------------------------------
    def utilization(self, total_cycles: int) -> float:
        """Fraction of time in unicast or broadcast mode (Table V)."""
        if total_cycles <= 0:
            raise ValueError(f"total_cycles must be positive, got {total_cycles}")
        busy = self.unicast_cycles + self.broadcast_cycles
        return min(1.0, busy / total_cycles)
