"""Home directories: the ACKwise_k and Dir_kB protocols.

Each core is home for a statically-assigned set of cache lines (Section
III-B).  A :class:`DirectoryController` serializes transactions per
line: while one request is in flight the line is *busy* and later
requests queue behind it, which is how sequential consistency is
maintained at the directory.

Protocol summary (paper Sections III-B and V-F):

* **ACKwise_k** -- up to ``k`` sharer pointers; past ``k`` the *global*
  bit is set and only the sharer **count** is tracked.  Exclusive
  requests to an overflowed line broadcast the invalidation, but only
  the true sharers acknowledge (the count says how many to expect).
  Clean evictions must therefore be announced (``EVICT_NOTIFY``) to
  keep the count exact -- ACKwise "cannot support silent evictions".
* **Dir_kB** -- ``k`` pointers; past ``k`` a broadcast bit is set.
  Exclusive requests then broadcast and wait for acknowledgements from
  *every* core in the system (the 1024-ack storm that hurts
  broadcast-heavy applications in Figure 14).  Silent evictions are
  allowed.

Race handling (documented in DESIGN.md):

* evictions of modified lines park the data in the evicting core's
  writeback buffer until the home sends ``WB_ACK``; flush/writeback
  requests that race with the eviction are served from that buffer;
* an ``EVICT_NOTIFY`` that races with an in-flight broadcast
  invalidation counts as that core's acknowledgement (the core itself
  no longer holds the line and will stay silent);
* an ``EVICT_NOTIFY`` racing with in-flight *unicast* invalidations is
  ignored for the targeted cores (they always acknowledge unicast
  invalidates, present or not).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum

from repro.coherence.messages import CoherenceMsg, MsgType

#: Table I directory access latency, in core cycles: a request starts
#: its transaction this long after it reaches (or leaves the queue of)
#: its home.
DIR_LATENCY = 3


class Protocol(Enum):
    ACKWISE = "ackwise"
    DIRKB = "dirkb"


class DirState(Enum):
    UNCACHED = "U"
    SHARED = "S"
    MODIFIED = "M"


# Enum members bound once as module globals: reading one through its
# class costs about ten times as much, and the handlers test several per
# message.  ``handle`` tests the common types first.
_SH_REQ = MsgType.SH_REQ
_EX_REQ = MsgType.EX_REQ
_DIRTY_WB = MsgType.DIRTY_WB
_INV_ACK = MsgType.INV_ACK
_MEM_DATA = MsgType.MEM_DATA
_EVICT_NOTIFY = MsgType.EVICT_NOTIFY
_FLUSH_REP = MsgType.FLUSH_REP
_WB_REP = MsgType.WB_REP
_MEM_WRITE_ACK = MsgType.MEM_WRITE_ACK
_INV_REQ = MsgType.INV_REQ
_INV_BCAST = MsgType.INV_BCAST
_FLUSH_REQ = MsgType.FLUSH_REQ
_WB_REQ = MsgType.WB_REQ
_SH_REP = MsgType.SH_REP
_EX_REP = MsgType.EX_REP
_WB_ACK = MsgType.WB_ACK
_MEM_READ = MsgType.MEM_READ
_MEM_WRITE = MsgType.MEM_WRITE
_UNCACHED = DirState.UNCACHED
_SHARED = DirState.SHARED
_MODIFIED = DirState.MODIFIED
_ACKWISE = Protocol.ACKWISE
_DIRKB = Protocol.DIRKB


@dataclass(slots=True)
class DirectoryEntry:
    """One directory line's stable state."""

    state: DirState = DirState.UNCACHED
    sharers: list[int] = field(default_factory=list)  # up to k pointers
    global_bit: bool = False   # ACKwise: count-only mode / DirkB: bcast bit
    count: int = 0             # ACKwise global mode: number of sharers
    owner: int | None = None

    def reset(self) -> None:
        self.state = _UNCACHED
        self.sharers.clear()
        self.global_bit = False
        self.count = 0
        self.owner = None


@dataclass(slots=True)
class _Transaction:
    """In-flight request state for a busy line."""

    mtype: MsgType               # SH_REQ or EX_REQ
    requester: int
    pending_acks: int = 0
    waiting_mem: bool = False
    waiting_owner: bool = False  # FLUSH_REP / WB_REP outstanding
    inv_targets: frozenset[int] = frozenset()
    broadcast: bool = False

    @property
    def complete(self) -> bool:
        return (
            self.pending_acks == 0
            and not self.waiting_mem
            and not self.waiting_owner
        )


@dataclass(slots=True)
class DirectoryStats:
    """Per-directory event counters for the energy model."""

    lookups: int = 0
    updates: int = 0
    invalidations_unicast: int = 0
    invalidations_broadcast: int = 0
    acks_received: int = 0
    mem_reads: int = 0
    mem_writes: int = 0


class DirectoryController:
    """The directory slice homed at one core."""

    def __init__(self, core: int, fabric) -> None:
        config = fabric.config
        self.core = core
        self.fabric = fabric
        self.protocol = config.protocol
        self.k = config.hardware_sharers
        #: the chip's per-slice broadcast counters (Section IV-C1); this
        #: slice stamps every message it sends with its current value
        self.sequencer = fabric.sequencer
        self.slice_id = fabric.slice_of_core[core]
        self.entries: dict[int, DirectoryEntry] = {}
        self.busy: dict[int, _Transaction] = {}
        self.queues: dict[int, deque[CoherenceMsg]] = {}
        self.stats = DirectoryStats()
        #: the memory controller this slice reads and writes lines at
        self.memctrl = fabric.memctrl_for(core)

    # ------------------------------------------------------------------
    def _send(self, mtype: MsgType, address: int, dest: int, now: int) -> None:
        self.fabric.send_msg(
            CoherenceMsg(mtype, address, self.core, dest,
                         self.sequencer.current_seq(self.slice_id)),
            now,
        )

    # ------------------------------------------------------------------
    def handle(self, msg: CoherenceMsg, now: int) -> None:
        """Entry point for every message addressed to this directory."""
        mt = msg.mtype
        if mt is _SH_REQ or mt is _EX_REQ or mt is _DIRTY_WB:
            if msg.address in self.busy:
                self.queues.setdefault(msg.address, deque()).append(msg)
                return
            self._start(msg, now + DIR_LATENCY)
        elif mt is _INV_ACK:
            self._ack(msg, now)
        elif mt is _MEM_DATA:
            self._mem_data(msg, now)
        elif mt is _EVICT_NOTIFY:
            self._evict_notify(msg, now)
        elif mt is _FLUSH_REP or mt is _WB_REP:
            self._owner_reply(msg, now)
        elif mt is _MEM_WRITE_ACK:
            pass  # fire-and-forget memory updates
        else:
            raise ValueError(f"directory at core {self.core} got {mt}")

    # ------------------------------------------------------------------
    def _start(self, msg: CoherenceMsg, now: int) -> None:
        """Begin a serialized transaction for a line."""
        self.stats.lookups += 1
        address = msg.address
        entry = self.entries.get(address)
        if entry is None:
            entry = self.entries[address] = DirectoryEntry()
        mtype = msg.mtype
        if mtype is _DIRTY_WB:
            self._dirty_wb(entry, msg, now)
            return
        txn = _Transaction(mtype, msg.sender)
        self.busy[address] = txn
        if mtype is _SH_REQ:
            self._start_shared(entry, txn, address, now)
        else:
            self._start_exclusive(entry, txn, address, now)
        # txn.complete, inlined; degenerate: nothing to wait for
        if (txn.pending_acks == 0 and not txn.waiting_mem
                and not txn.waiting_owner):
            self._finish(address, now)

    # -- shared (read) requests ----------------------------------------
    def _start_shared(
        self, entry: DirectoryEntry, txn: _Transaction, address: int, now: int
    ) -> None:
        if entry.state is _MODIFIED:
            # Owner must write back and demote; data comes via home.
            txn.waiting_owner = True
            self._send(_WB_REQ, address, entry.owner, now)
        else:
            # Clean data comes from memory (UNCACHED or SHARED).
            txn.waiting_mem = True
            self.stats.mem_reads += 1
            self._send(_MEM_READ, address, self.memctrl, now)

    # -- exclusive (write) requests --------------------------------------
    def _start_exclusive(
        self, entry: DirectoryEntry, txn: _Transaction, address: int, now: int
    ) -> None:
        if entry.state is _MODIFIED:
            txn.waiting_owner = True
            self._send(_FLUSH_REQ, address, entry.owner, now)
            return
        if entry.state is _UNCACHED:
            txn.waiting_mem = True
            self.stats.mem_reads += 1
            self._send(_MEM_READ, address, self.memctrl, now)
            return
        # SHARED: invalidate the other sharers.
        overflowed = entry.global_bit
        if overflowed:
            txn.broadcast = True
            seq = self.sequencer.next_broadcast_seq(self.slice_id)
            self.stats.invalidations_broadcast += 1
            self.fabric.send_msg(
                CoherenceMsg(_INV_BCAST, address, self.core, -1, seq),
                now,
            )
            if self.protocol is _ACKWISE:
                # Only true sharers respond; the count says how many.
                txn.pending_acks = entry.count
            else:
                # Dir_kB: every core in the system acknowledges.
                txn.pending_acks = self.fabric.n_broadcast_ackers(self.core)
        else:
            targets = [s for s in entry.sharers if s != txn.requester]
            txn.inv_targets = frozenset(targets)
            txn.pending_acks = len(targets)
            for t in targets:
                self.stats.invalidations_unicast += 1
                self._send(_INV_REQ, address, t, now)
        # Data: upgrades (requester already a sharer) have the line;
        # otherwise fetch from memory in parallel with the invalidations.
        requester_has_data = (
            not overflowed and txn.requester in entry.sharers
        )
        if not requester_has_data:
            txn.waiting_mem = True
            self.stats.mem_reads += 1
            self._send(_MEM_READ, address, self.memctrl, now)

    # -- modified-line eviction -------------------------------------------
    def _dirty_wb(
        self, entry: DirectoryEntry, msg: CoherenceMsg, now: int
    ) -> None:
        if entry.state is _MODIFIED and entry.owner == msg.sender:
            entry.reset()
            self.stats.updates += 1
            self.stats.mem_writes += 1
            self._send(_MEM_WRITE, msg.address, self.memctrl, now)
        # else: stale (a flush beat the writeback); just free the buffer.
        self._send(_WB_ACK, msg.address, msg.sender, now)
        self._drain_queue(msg.address, now)

    # -- clean-line eviction notices ----------------------------------------
    def _evict_notify(self, msg: CoherenceMsg, now: int) -> None:
        if self.protocol is _DIRKB:
            raise ValueError("Dir_kB uses silent evictions; EVICT_NOTIFY invalid")
        entry = self.entries.get(msg.address)
        if entry is None:
            entry = self.entries[msg.address] = DirectoryEntry()
        txn = self.busy.get(msg.address)
        if txn is not None and txn.pending_acks > 0:
            if txn.broadcast:
                # The evicted core will not answer the broadcast: this
                # notice *is* its acknowledgement.
                self._remove_sharer(entry, msg.sender)
                txn.pending_acks -= 1
                self.stats.acks_received += 1
                if txn.complete:
                    self._finish(msg.address, now)
                return
            if msg.sender in txn.inv_targets:
                # The core will still acknowledge the unicast INV; drop
                # the notice to avoid double-counting.
                return
        self._remove_sharer(entry, msg.sender)
        self.stats.updates += 1

    def _remove_sharer(self, entry: DirectoryEntry, core: int) -> None:
        if core in entry.sharers:
            entry.sharers.remove(core)
        if entry.global_bit and entry.count > 0:
            entry.count -= 1
        if entry.state is _SHARED:
            remaining = entry.count if entry.global_bit else len(entry.sharers)
            if remaining == 0:
                entry.reset()

    # -- responses ---------------------------------------------------------
    def _ack(self, msg: CoherenceMsg, now: int) -> None:
        txn = self.busy.get(msg.address)
        if txn is None or txn.pending_acks == 0:
            return  # late ack for an already-satisfied broadcast (Dir_kB drift)
        txn.pending_acks -= 1
        self.stats.acks_received += 1
        if (txn.pending_acks == 0 and not txn.waiting_mem
                and not txn.waiting_owner):
            self._finish(msg.address, now)

    def _owner_reply(self, msg: CoherenceMsg, now: int) -> None:
        txn = self.busy.get(msg.address)
        if txn is None or not txn.waiting_owner:
            raise RuntimeError(
                f"unexpected owner reply {msg.mtype} for line {msg.address}"
            )
        txn.waiting_owner = False
        if msg.mtype is _WB_REP:
            # The line is now clean: update memory.
            self.stats.mem_writes += 1
            self._send(_MEM_WRITE, msg.address, self.memctrl, now)
            if not msg.retained:
                # Owner evicted concurrently; it is no longer a sharer.
                self.entries[msg.address].owner = None
        if txn.complete:
            self._finish(msg.address, now)

    def _mem_data(self, msg: CoherenceMsg, now: int) -> None:
        txn = self.busy.get(msg.address)
        if txn is None or not txn.waiting_mem:
            raise RuntimeError(f"unexpected MEM_DATA for line {msg.address}")
        txn.waiting_mem = False
        if txn.pending_acks == 0 and not txn.waiting_owner:
            self._finish(msg.address, now)

    # -- transaction completion ---------------------------------------------
    def _finish(self, address: int, now: int) -> None:
        txn = self.busy.pop(address)
        entry = self.entries[address]
        self.stats.updates += 1
        if txn.mtype is _SH_REQ:
            state = entry.state
            if state is _MODIFIED:
                # WB_REQ path: owner demoted to S (if it kept the line).
                old_owner = entry.owner
                entry.state = _SHARED
                entry.sharers = [old_owner] if old_owner is not None else []
                entry.owner = None
            elif state is _UNCACHED:
                entry.state = _SHARED
            self._add_sharer(entry, txn.requester)
            self._send(_SH_REP, address, txn.requester, now)
        else:
            entry.reset()
            entry.state = _MODIFIED
            entry.owner = txn.requester
            self._send(_EX_REP, address, txn.requester, now)
        self._drain_queue(address, now)

    def _add_sharer(self, entry: DirectoryEntry, core: int) -> None:
        if entry.global_bit:
            entry.count += 1
            return
        if core in entry.sharers:
            return
        if len(entry.sharers) < self.k:
            entry.sharers.append(core)
            return
        # Pointer overflow.
        entry.global_bit = True
        if self.protocol is _ACKWISE:
            # Switch to count-only tracking: known sharers + the new one.
            entry.count = len(entry.sharers) + 1
        # Dir_kB keeps its k stale pointers and just marks the bcast bit.

    def _drain_queue(self, address: int, now: int) -> None:
        q = self.queues.get(address)
        if not q or address in self.busy:
            return
        nxt = q.popleft()
        if not q:
            del self.queues[address]
        self._start(nxt, now + DIR_LATENCY)
