"""Memory controllers (Table I: 64 controllers, 5 GB/s each, 100 ns).

One controller per cluster, occupying a core slot on the mesh (Section
III-B).  A request serializes on the controller's bandwidth (5 bytes
per cycle at 1 GHz -> 13 cycles per 64 B line), then waits the DRAM
latency, then the reply is sent back over the on-chip network.  The
connection to external DRAM is optical in the paper's design, but its
technology is explicitly "independent of the on-chip network
architecture" -- we model it as latency + bandwidth only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.coherence.messages import CoherenceMsg, MsgType
from repro.network.engine import PortResource


@dataclass(frozen=True)
class MemoryTiming:
    """DRAM access parameters (Table I)."""

    latency_cycles: int = 100          # 100 ns at 1 GHz
    bytes_per_cycle: float = 5.0       # 5 GB/s at 1 GHz
    line_bytes: int = 64

    @property
    def serialization_cycles(self) -> int:
        return max(1, math.ceil(self.line_bytes / self.bytes_per_cycle))


class MemoryController:
    """One cluster's memory controller."""

    __slots__ = ("core", "timing", "_channel", "reads", "writes", "fabric")

    def __init__(self, core: int, fabric, timing: MemoryTiming | None = None) -> None:
        self.core = core
        self.fabric = fabric
        self.timing = timing if timing is not None else MemoryTiming()
        self._channel = PortResource()
        self.reads = 0
        self.writes = 0

    def handle(self, msg: CoherenceMsg, now: int) -> None:
        """Process MEM_READ / MEM_WRITE; replies go back over the network."""
        if msg.mtype is MsgType.MEM_READ:
            self.reads += 1
            reply_type = MsgType.MEM_DATA
        elif msg.mtype is MsgType.MEM_WRITE:
            self.writes += 1
            reply_type = MsgType.MEM_WRITE_ACK
        else:
            raise ValueError(f"memory controller got {msg.mtype}")
        timing = self.timing
        cycles = timing.serialization_cycles
        done = self._channel.reserve(now, cycles) + cycles + timing.latency_cycles
        reply = CoherenceMsg(
            mtype=reply_type,
            address=msg.address,
            sender=self.core,
            dest=msg.sender,
        )
        self.fabric.send_msg(reply, done)

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def busy_cycles(self) -> int:
        return self._channel.busy_cycles
