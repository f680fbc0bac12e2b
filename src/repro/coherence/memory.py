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

from repro.coherence.messages import CoherenceMsg, MsgType
from repro.network.engine import PortResource

# Enum members bound once: a read through the class costs about ten
# times a module-global read, and ``handle`` tests them per request.
_MEM_READ = MsgType.MEM_READ
_MEM_WRITE = MsgType.MEM_WRITE
_MEM_DATA = MsgType.MEM_DATA
_MEM_WRITE_ACK = MsgType.MEM_WRITE_ACK


#: Table I DRAM access latency: 100 ns at 1 GHz.
MEM_LATENCY = 100
#: Cycles one 64 B line occupies a controller's channel at 5 GB/s
#: (5 bytes per cycle at 1 GHz): ceil(64 / 5).
LINE_SERIALIZATION_CYCLES = 13


class MemoryController:
    """One cluster's memory controller."""

    __slots__ = ("core", "_channel", "reads", "writes", "fabric")

    def __init__(self, core: int, fabric) -> None:
        self.core = core
        self.fabric = fabric
        self._channel = PortResource()
        self.reads = 0
        self.writes = 0

    def handle(self, msg: CoherenceMsg, now: int) -> None:
        """Process MEM_READ / MEM_WRITE; replies go back over the network."""
        mtype = msg.mtype
        if mtype is _MEM_READ:
            self.reads += 1
            reply_type = _MEM_DATA
        elif mtype is _MEM_WRITE:
            self.writes += 1
            reply_type = _MEM_WRITE_ACK
        else:
            raise ValueError(f"memory controller got {msg.mtype}")
        done = (self._channel.reserve(now, LINE_SERIALIZATION_CYCLES)
                + LINE_SERIALIZATION_CYCLES + MEM_LATENCY)
        self.fabric.send_msg(
            CoherenceMsg(reply_type, msg.address, self.core, msg.sender), done
        )

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def busy_cycles(self) -> int:
        return self._channel.busy_cycles
