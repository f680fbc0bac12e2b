"""Unit tests for coherence messages and the memory controller."""

import math

import pytest

from repro.coherence.memory import (
    LINE_SERIALIZATION_CYCLES,
    MEM_LATENCY,
    MemoryController,
)
from repro.coherence.messages import (
    CONTROL_MSG_BITS,
    DATA_BEARING,
    DATA_MSG_BITS,
    MSG_BITS,
    CoherenceMsg,
    MsgType,
)
from repro.sim.eventq import EventQueue


class TestMessageSizes:
    """Section IV-C1's packet-format arithmetic."""

    def test_control_message_is_88_bits(self):
        """64 addr + 20 ids + 4 type = 88 bits."""
        assert CONTROL_MSG_BITS == 64 + 20 + 4

    def test_data_message_is_600_bits(self):
        """512 data + 64 addr + 20 ids + 4 type = 600 bits."""
        assert DATA_MSG_BITS == 512 + 64 + 20 + 4

    @staticmethod
    def _flits(size_bits):
        """Flits one send of ``size_bits`` injects at the 64-bit width."""
        from repro.network.mesh import EMeshPure
        from repro.network.topology import MeshTopology

        net = EMeshPure(MeshTopology(width=4, cluster_width=4))
        net.send(0, 1, size_bits, 0)
        return net.stats.injected_flits

    def test_control_fits_two_flits(self):
        assert self._flits(CONTROL_MSG_BITS) == 2

    def test_data_needs_ten_flits(self):
        assert self._flits(DATA_MSG_BITS) == 10

    def test_sequence_number_adds_no_flits(self):
        """'adding 16 bits for the sequence number does not create any
        additional flits': 88+16=104 <= 2x64 and 600+16 <= 10x64."""
        assert CONTROL_MSG_BITS + 16 <= 2 * 64
        assert DATA_MSG_BITS + 16 <= 10 * 64

    def test_data_bearing_classification(self):
        assert MSG_BITS[MsgType.SH_REP] == DATA_MSG_BITS
        assert MSG_BITS[MsgType.SH_REQ] == CONTROL_MSG_BITS
        for mt in DATA_BEARING:
            assert MSG_BITS[mt] == DATA_MSG_BITS

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            CoherenceMsg(MsgType.SH_REQ, address=-1, sender=0, dest=1)


class _FakeFabric:
    def __init__(self):
        self.sent = []

    def send_msg(self, msg, time):
        self.sent.append((msg, time))


class TestMemoryTiming:
    def test_table_i_values(self):
        assert MEM_LATENCY == 100  # 100 ns at 1 GHz
        # a 64 B line at 5 GB/s (5 bytes per cycle at 1 GHz)
        assert LINE_SERIALIZATION_CYCLES == math.ceil(64 / 5) == 13


class TestMemoryController:
    def test_read_reply_timing(self):
        fabric = _FakeFabric()
        mc = MemoryController(core=0, fabric=fabric)
        mc.handle(CoherenceMsg(MsgType.MEM_READ, 7, sender=3, dest=0), now=10)
        [(reply, t)] = fabric.sent
        assert reply.mtype is MsgType.MEM_DATA
        assert reply.dest == 3
        assert t == 10 + 13 + 100

    def test_write_gets_ack(self):
        fabric = _FakeFabric()
        mc = MemoryController(core=0, fabric=fabric)
        mc.handle(CoherenceMsg(MsgType.MEM_WRITE, 7, sender=3, dest=0), now=0)
        [(reply, _)] = fabric.sent
        assert reply.mtype is MsgType.MEM_WRITE_ACK

    def test_bandwidth_serializes_requests(self):
        """5 GB/s: back-to-back line requests queue on the channel."""
        fabric = _FakeFabric()
        mc = MemoryController(core=0, fabric=fabric)
        for _ in range(3):
            mc.handle(CoherenceMsg(MsgType.MEM_READ, 7, sender=3, dest=0), now=0)
        times = sorted(t for _, t in fabric.sent)
        assert times[1] - times[0] == 13
        assert times[2] - times[1] == 13

    def test_counters(self):
        fabric = _FakeFabric()
        mc = MemoryController(core=0, fabric=fabric)
        mc.handle(CoherenceMsg(MsgType.MEM_READ, 1, sender=2, dest=0), now=0)
        mc.handle(CoherenceMsg(MsgType.MEM_WRITE, 2, sender=2, dest=0), now=0)
        assert mc.reads == 1 and mc.writes == 1 and mc.accesses == 2
        assert mc.busy_cycles == 26

    def test_rejects_non_memory_messages(self):
        mc = MemoryController(core=0, fabric=_FakeFabric())
        with pytest.raises(ValueError):
            mc.handle(CoherenceMsg(MsgType.SH_REQ, 1, sender=2, dest=0), now=0)
