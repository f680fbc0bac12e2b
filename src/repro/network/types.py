"""Shared network message types.

The paper's packet formats (Section IV-C1, "Network Traffic Overhead"):

* a *coherence* message is 88 bits (64 address + 20 sender/receiver IDs
  + 4 type) -> 2 flits at the 64-bit flit width;
* a *data* message is 600 bits (512 data + 64 address + 20 IDs + 4
  type) -> 10 flits;
* the 16-bit sequence number rides in existing slack, adding no flits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


#: Destination sentinel meaning "every core on the chip".
BROADCAST = -1

#: Bits in a coherence (control) message.
CONTROL_MSG_BITS = 88
#: Bits in a data-carrying message (64 B cache line + header).
DATA_MSG_BITS = 600


@dataclass(slots=True)
class Packet:
    """One network packet, as a validated value.  The simulator never
    builds one (``Network.send`` takes the four fields as scalars); it
    serves callers that want one record per packet, such as oracles."""

    src: int                            # source core id
    dst: int                            # destination core id, or BROADCAST
    size_bits: int = CONTROL_MSG_BITS   # payload + header
    time: int = 0                       # injection cycle

    def __post_init__(self) -> None:
        if self.src < 0:
            raise ValueError(f"src must be a core id >= 0, got {self.src}")
        if self.dst < 0 and self.dst != BROADCAST:
            raise ValueError(f"dst must be a core id or BROADCAST, got {self.dst}")
        if self.size_bits <= 0:
            raise ValueError(f"size_bits must be positive, got {self.size_bits}")
        if self.time < 0:
            raise ValueError(f"time must be non-negative, got {self.time}")

    def n_flits(self, flit_bits: int) -> int:
        """Number of flits at the given flit width."""
        if flit_bits <= 0:
            raise ValueError(f"flit_bits must be positive, got {flit_bits}")
        return max(1, math.ceil(self.size_bits / flit_bits))
