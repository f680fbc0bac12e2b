"""Failure injection and error-path tests for the protocol engines.

The simulator must *diagnose* broken protocol states loudly (deadlock
watchdog, invalid-transition errors) rather than silently produce wrong
results -- these tests break things on purpose.
"""

import pytest

from repro.coherence.directory import Protocol
from repro.coherence.messages import CoherenceMsg, MsgType
from repro.sim.config import SystemConfig
from tests.coherence.helpers import read, tiny_system, write


class TestDeadlockWatchdog:
    def test_dropped_ack_is_detected(self):
        """If a core's INV_ACK vanishes, the directory transaction can
        never complete and the system must report a deadlock instead of
        hanging or finishing with wrong state."""
        s = tiny_system(k=2)
        victim = s.compute_cores[1]
        original_handle = s.caches[victim].handle

        def lossy_handle(msg, now):
            if msg.mtype is MsgType.INV_REQ:
                return  # drop: never acknowledge
            original_handle(msg, now)

        s.caches[victim].handle = lossy_handle
        read(s, s.compute_cores[0], 100)
        read(s, victim, 100)
        writer = s.compute_cores[2]
        done = {}
        s.caches[writer].access(100, True, s.eventq.now, lambda t: done.setdefault("t", t))
        s.eventq.run(max_events=100_000)
        assert "t" not in done  # the write can never complete

    def test_event_budget_catches_livelock(self):
        """A message storm that exceeds the event budget raises."""
        s = tiny_system()
        a, b = s.compute_cores[:2]

        def ping(t):
            s.send_msg(
                CoherenceMsg(MsgType.INV_ACK, address=1, sender=a, dest=b), t + 1
            )
            s.eventq.schedule(t + 1, ping)

        s.eventq.schedule(0, ping)
        with pytest.raises(RuntimeError, match="event budget"):
            s.eventq.run(max_events=1000)


class TestInvalidTransitions:
    def test_flush_req_for_absent_line_raises(self):
        s = tiny_system()
        core = s.compute_cores[0]
        home = s.compute_cores[1]
        # the line is neither modified nor buffered: the handler must
        # refuse rather than invent data
        with pytest.raises(RuntimeError, match="FLUSH_REQ"):
            s.caches[core].handle(
                CoherenceMsg(MsgType.FLUSH_REQ, address=999, sender=home,
                             dest=core),
                0,
            )

    def test_second_outstanding_miss_rejected(self):
        """The in-order core contract: one MSHR."""
        s = tiny_system()
        core = s.compute_cores[0]
        s.caches[core].access(100, False, 0, lambda t: None)
        with pytest.raises(RuntimeError, match="second outstanding"):
            s.caches[core].access(101, False, 0, lambda t: None)

    def test_unexpected_sh_rep_raises(self):
        s = tiny_system()
        core, home = s.compute_cores[:2]
        with pytest.raises(RuntimeError, match="SH_REP"):
            s.caches[core].handle(
                CoherenceMsg(MsgType.SH_REP, address=5, sender=home, dest=core), 0
            )

    def test_unexpected_ex_rep_raises(self):
        s = tiny_system()
        core, home = s.compute_cores[:2]
        with pytest.raises(RuntimeError, match="EX_REP"):
            s.caches[core].handle(
                CoherenceMsg(MsgType.EX_REP, address=5, sender=home, dest=core), 0
            )

    def test_dirkb_rejects_evict_notify(self):
        """Dir_kB has silent evictions; an EVICT_NOTIFY is a bug."""
        s = tiny_system(protocol=Protocol.DIRKB)
        home = s.compute_cores[0]
        with pytest.raises(ValueError, match="silent evictions"):
            s.directories[home].handle(
                CoherenceMsg(MsgType.EVICT_NOTIFY, address=1,
                             sender=s.compute_cores[1], dest=home),
                0,
            )

    def test_directory_rejects_foreign_message(self):
        s = tiny_system()
        home = s.compute_cores[0]
        with pytest.raises(ValueError):
            s.directories[home].handle(
                CoherenceMsg(MsgType.SH_REP, address=1, sender=1, dest=home), 0
            )

    def test_unexpected_owner_reply_raises(self):
        s = tiny_system()
        home = s.compute_cores[0]
        with pytest.raises(RuntimeError, match="owner reply"):
            s.directories[home].handle(
                CoherenceMsg(MsgType.FLUSH_REP, address=1,
                             sender=s.compute_cores[1], dest=home),
                0,
            )


class TestLateAcksAreSafe:
    def test_stray_ack_ignored(self):
        """Dir_kB's deferred-broadcast acks can arrive after the
        transaction completed; they must be dropped, not corrupt later
        transactions."""
        s = tiny_system(k=2)
        home = s.compute_cores[0]
        # no transaction in flight: a stray ack is a no-op
        s.directories[home]._ack(
            CoherenceMsg(MsgType.INV_ACK, address=1,
                         sender=s.compute_cores[1], dest=home),
            0,
        )
        assert 1 not in s.directories[home].busy


class TestDirectoryValidation:
    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError, match="hardware_sharers must be >= 2"):
            SystemConfig(hardware_sharers=1)


class TestRecoveryPaths:
    def test_system_usable_after_handled_error(self):
        """An error on one access path must not poison unrelated lines."""
        s = tiny_system()
        a, b = s.compute_cores[:2]
        with pytest.raises(RuntimeError):
            s.caches[a].handle(
                CoherenceMsg(MsgType.SH_REP, address=5, sender=b, dest=a), 0
            )
        # unrelated traffic still works
        assert read(s, b, 200) > 0
        assert write(s, a, 201) > 0
