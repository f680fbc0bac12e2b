"""Per-core cache controller: private L1-D/L1-I + L2, protocol client side.

The controller owns the core's private hierarchy (Table I: 32 KB L1-I,
32 KB L1-D, 256 KB L2, all private) and speaks the coherence protocol
toward home directories:

* an access that hits in L1 completes in ``L1_HIT_LATENCY`` cycles; an
  L1 miss that hits L2 in ``L2_HIT_LATENCY``; an L2 miss allocates the
  (single) MSHR and issues SH_REQ / EX_REQ -- the in-order core blocks
  until the reply;
* incoming invalidations, flushes and writeback requests are served at
  any time (the core being blocked does not stop its cache controller);
* modified evictions park data in a writeback buffer until the home
  acknowledges, so flush/writeback requests racing with the eviction
  can still be served (DESIGN.md race table);
* ATAC+ sequence-number ordering (Section IV-C1) is enforced here:
  early directory *requests* are buffered until the broadcasts they
  trail have been processed, and broadcasts that race with an
  outstanding SH_REQ are buffered and reconciled against the reply's
  sequence number.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable

from repro.coherence.cache import CacheState, SetAssocCache
from repro.coherence.directory import Protocol
from repro.coherence.messages import CoherenceMsg, MsgType
from repro.coherence.sequencing import SequenceTracker

#: Table I cache timing, in core cycles: an L1 hit, an L2 hit (also the
#: tag lookup that detects a miss, and an owner's flush or writeback
#: reply), and the fill after a reply arrives.
L1_HIT_LATENCY = 1
L2_HIT_LATENCY = 8
FILL_LATENCY = 2

# Enum members bound once as module globals: reading one through its
# class costs about ten times as much, and every access, reply and
# broadcast delivery tests several.
_INVALID = CacheState.INVALID
_SHARED = CacheState.SHARED
_MODIFIED = CacheState.MODIFIED
_INV_BCAST = MsgType.INV_BCAST
_INV_REQ = MsgType.INV_REQ
_FLUSH_REQ = MsgType.FLUSH_REQ
_WB_REQ = MsgType.WB_REQ
_SH_REQ = MsgType.SH_REQ
_EX_REQ = MsgType.EX_REQ
_SH_REP = MsgType.SH_REP
_EX_REP = MsgType.EX_REP
_WB_ACK = MsgType.WB_ACK
_INV_ACK = MsgType.INV_ACK
_FLUSH_REP = MsgType.FLUSH_REP
_WB_REP = MsgType.WB_REP
_DIRTY_WB = MsgType.DIRTY_WB
_EVICT_NOTIFY = MsgType.EVICT_NOTIFY


@dataclass(slots=True)
class CacheCounters:
    """Per-core cache event counters for the energy model.

    ``slots=True``: the L1-I counter alone is bumped once per retired
    instruction.
    """

    l1i_accesses: int = 0
    l1d_reads: int = 0
    l1d_writes: int = 0
    l2_reads: int = 0
    l2_writes: int = 0
    l2_tag_probes: int = 0
    l1_hits: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    invalidations_received: int = 0
    evictions_clean: int = 0
    evictions_dirty: int = 0
    bcast_invs_buffered: int = 0
    bcast_invs_stale_dropped: int = 0
    unicasts_buffered_early: int = 0

    def as_dict(self) -> dict[str, int]:
        """Plain-dict snapshot (for results serialization)."""
        return {f.name: getattr(self, f.name) for f in fields(CacheCounters)}

    @classmethod
    def from_dict(cls, d: dict) -> "CacheCounters":
        """Inverse of :meth:`as_dict`; unknown keys are ignored."""
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in d.items() if k in known})


@dataclass(slots=True)
class _Mshr:
    """The single outstanding miss of an in-order core."""

    address: int
    is_write: bool
    callback: Callable[[int], None]


class L2Controller:
    """Cache hierarchy + protocol engine for one core."""

    def __init__(self, core: int, fabric) -> None:
        config = fabric.config
        self.core = core
        self.fabric = fabric
        #: Dir_kB: every core acknowledges a broadcast, and clean lines
        #: are evicted silently; ACKwise: only sharers acknowledge, and
        #: every eviction is announced.  Read on every broadcast delivery.
        self._dirkb: bool = config.protocol is Protocol.DIRKB
        #: directory slice of each core, indexed by core id: a broadcast
        #: or directory request is sequenced by its sender's slice
        self._slice_of: tuple[int, ...] = fabric.slice_of_core
        self.l1d = SetAssocCache(config.l1_sets, config.l1_ways)
        self.l2 = SetAssocCache(config.l2_sets, config.l2_ways)
        self.tracker = SequenceTracker(fabric.topology.n_clusters)
        self.mshr: _Mshr | None = None
        self.wb_buffer: set[int] = set()
        #: address -> buffered INV_BCAST messages racing an SH_REQ
        self._pending_bcasts: dict[int, list[CoherenceMsg]] = {}
        #: directory requests that overtook an unprocessed broadcast
        self._early_unicasts: list[CoherenceMsg] = []
        self.counters = CacheCounters()

    # ------------------------------------------------------------------
    # Core-facing access path
    # ------------------------------------------------------------------
    def access(
        self, address: int, is_write: bool, now: int,
        callback: Callable[[int], None],
    ) -> int | None:
        """One memory reference.

        Returns the completion time for hits; returns ``None`` for
        misses (the controller calls ``callback(done_time)`` when the
        line arrives).
        """
        if self.mshr is not None:
            raise RuntimeError(
                f"core {self.core}: in-order core issued a second outstanding miss"
            )
        c = self.counters
        l2_state = self.l2.lookup(address)
        l1_state = self.l1d.lookup(address)
        if is_write:
            c.l1d_writes += 1
            if l2_state is _MODIFIED:
                c.l2_writes += 1
                if l1_state is not _INVALID:
                    c.l1_hits += 1
                    return now + L1_HIT_LATENCY
                c.l2_hits += 1
                self.l1d.install(address, l2_state)
                return now + L2_HIT_LATENCY
        else:
            c.l1d_reads += 1
            if l2_state is not _INVALID:  # SHARED or MODIFIED
                if l1_state is not _INVALID:
                    c.l1_hits += 1
                    return now + L1_HIT_LATENCY
                c.l2_reads += 1
                c.l2_hits += 1
                self.l1d.install(address, l2_state)
                return now + L2_HIT_LATENCY

        # L2 miss (or S->M upgrade).
        c.l2_tag_probes += 1
        c.l2_misses += 1
        self.mshr = _Mshr(address, is_write, callback)
        fabric = self.fabric
        fabric.send_msg(
            CoherenceMsg(_EX_REQ if is_write else _SH_REQ, address,
                         self.core, fabric.home_of(address)),
            now + L2_HIT_LATENCY,  # miss detected after lookup
        )
        return None

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def handle(self, msg: CoherenceMsg, now: int) -> None:
        mt = msg.mtype
        if mt is _INV_BCAST:
            self.handle_broadcast(msg, now)
            return
        if mt is _SH_REP:
            self._handle_sh_rep(msg, now)
            return
        if mt is _EX_REP:
            self._handle_ex_rep(msg, now)
            return
        if mt is _INV_REQ or mt is _FLUSH_REQ or mt is _WB_REQ:
            if self.tracker.unicast_is_early(
                self._slice_of[msg.sender], msg.seq
            ):
                # The directory sent a broadcast we have not seen yet:
                # hold this request to preserve per-address FIFO order.
                self.counters.unicasts_buffered_early += 1
                self._early_unicasts.append(msg)
                return
            self._handle_dir_request(msg, now)
            return
        if mt is _WB_ACK:
            self.wb_buffer.discard(msg.address)
            return
        raise ValueError(f"L2 controller at core {self.core} got {mt}")

    # -- broadcast invalidations ------------------------------------------
    def handle_broadcast(self, msg: CoherenceMsg, now: int) -> None:
        """Entry point for INV_BCAST deliveries.

        Identical to ``handle`` for broadcast messages; public so the
        batched fan-out path can skip the message-type dispatch it has
        already done once for the whole group.
        """
        mshr = self.mshr
        if (
            mshr is not None
            and mshr.address == msg.address
            and not mshr.is_write
        ):
            # Potentially overtook the SH_REP we are waiting for
            # (paper's exact buffered case).  Reconciled on reply.
            self.counters.bcast_invs_buffered += 1
            self._pending_bcasts.setdefault(msg.address, []).append(msg)
            if self._dirkb:
                # Dir_kB counts an ack from every core; ours cannot wait
                # for the reply (the directory's broadcast transaction
                # may be what our queued SH_REQ is blocked behind).  We
                # hold no copy, so acknowledging now is safe.
                self.fabric.send_msg(
                    CoherenceMsg(_INV_ACK, msg.address, self.core, msg.sender),
                    now + 1,
                )
            return
        self._process_bcast(msg, now)

    def _process_bcast(
        self, msg: CoherenceMsg, now: int, may_ack: bool = True
    ) -> None:
        c = self.counters
        c.invalidations_received += 1
        c.l2_tag_probes += 1
        address = msg.address
        l2 = self.l2
        had_line = l2.lookup(address, touch=False) is not _INVALID
        if had_line:
            l2.set_state(address, _INVALID)
            self.l1d.invalidate(address)
        # ACKwise: only true sharers respond.  Dir_kB: everyone does.
        if may_ack and (had_line or self._dirkb):
            self.fabric.send_msg(
                CoherenceMsg(_INV_ACK, address, self.core, msg.sender),
                now + 1,
            )
        if self._early_unicasts:
            self._note_broadcast(self._slice_of[msg.sender], msg.seq, now)
        else:
            # Common case: no unicast is waiting on this broadcast.
            self.tracker.note_broadcast(self._slice_of[msg.sender], msg.seq)

    def _note_broadcast(self, slice_id: int, seq: int, now: int) -> None:
        """Advance the slice tracker and release unblocked early unicasts."""
        self.tracker.note_broadcast(slice_id, seq)
        if not self._early_unicasts:
            return  # common case: nothing buffered
        still_early = []
        slice_of = self._slice_of
        for m in self._early_unicasts:
            if self.tracker.unicast_is_early(slice_of[m.sender], m.seq):
                still_early.append(m)
            else:
                self._handle_dir_request(m, now)
        self._early_unicasts = still_early

    # -- directory requests -------------------------------------------------
    def _handle_dir_request(self, msg: CoherenceMsg, now: int) -> None:
        c = self.counters
        mt = msg.mtype
        address = msg.address
        if mt is _INV_REQ:
            c.invalidations_received += 1
            c.l2_tag_probes += 1
            if self.l2.lookup(address, touch=False) is not _INVALID:
                self.l2.set_state(address, _INVALID)
                self.l1d.invalidate(address)
            # Unicast invalidates are always acknowledged, present or not
            # (the home counted us; an eviction notice may still be in
            # flight).
            self.fabric.send_msg(
                CoherenceMsg(_INV_ACK, address, self.core, msg.sender),
                now + 1,
            )
            return
        if mt is _FLUSH_REQ:
            c.l2_tag_probes += 1
            if self.l2.lookup(address, touch=False) is _MODIFIED:
                c.l2_reads += 1
                self.l2.set_state(address, _INVALID)
                self.l1d.invalidate(address)
            elif address in self.wb_buffer:
                # Raced with our eviction: serve from the WB buffer.
                self.wb_buffer.discard(address)
            else:
                raise RuntimeError(
                    f"core {self.core}: FLUSH_REQ for line {address} "
                    "that is neither modified nor buffered"
                )
            self.fabric.send_msg(
                CoherenceMsg(_FLUSH_REP, address, self.core, msg.sender),
                now + L2_HIT_LATENCY,
            )
            return
        if mt is _WB_REQ:
            c.l2_tag_probes += 1
            retained = True
            if self.l2.lookup(address, touch=False) is _MODIFIED:
                c.l2_reads += 1
                self.l2.set_state(address, _SHARED)
                if self.l1d.lookup(address, touch=False) is not _INVALID:
                    self.l1d.set_state(address, _SHARED)
            elif address in self.wb_buffer:
                self.wb_buffer.discard(address)
                retained = False
            else:
                raise RuntimeError(
                    f"core {self.core}: WB_REQ for line {address} "
                    "that is neither modified nor buffered"
                )
            self.fabric.send_msg(
                CoherenceMsg(_WB_REP, address, self.core, msg.sender, None,
                             retained),
                now + L2_HIT_LATENCY,
            )
            return
        raise ValueError(f"not a directory request: {mt}")

    # -- replies --------------------------------------------------------------
    def _complete_mshr(self, now: int) -> None:
        mshr = self.mshr
        self.mshr = None
        done = now + FILL_LATENCY
        mshr.callback(done)

    def _handle_sh_rep(self, msg: CoherenceMsg, now: int) -> None:
        mshr = self.mshr
        if mshr is None or mshr.address != msg.address or mshr.is_write:
            raise RuntimeError(
                f"core {self.core}: SH_REP without matching SH_REQ "
                f"(line {msg.address})"
            )
        self._install(msg.address, _SHARED, now)
        # Reconcile any broadcast invalidations that overtook this reply
        # (Section IV-C1): stale ones are dropped; genuinely newer ones
        # are processed one cycle after the reply.
        for b in self._pending_bcasts.pop(msg.address, ()):
            slice_id = self._slice_of[b.sender]
            if self.tracker.broadcast_is_stale(slice_id, b.seq, msg.seq):
                self.counters.bcast_invs_stale_dropped += 1
                self._note_broadcast(slice_id, b.seq, now)
            else:
                # Dir_kB already acknowledged at buffer time; ACKwise
                # acks now (this core was a counted sharer).
                self._process_bcast(b, now + 1, may_ack=not self._dirkb)
        self._complete_mshr(now)

    def _handle_ex_rep(self, msg: CoherenceMsg, now: int) -> None:
        mshr = self.mshr
        if mshr is None or mshr.address != msg.address or not mshr.is_write:
            raise RuntimeError(
                f"core {self.core}: EX_REP without matching EX_REQ "
                f"(line {msg.address})"
            )
        self._install(msg.address, _MODIFIED, now)
        self._complete_mshr(now)

    # -- fills and evictions ------------------------------------------------
    def _install(self, address: int, state: CacheState, now: int) -> None:
        self.counters.l2_writes += 1
        victim = self.l2.install(address, state)
        # L1 is write-through into L2, so L1 victims drop silently.
        self.l1d.install(address, state)
        if victim is None:
            return
        v_line, v_state = victim
        self.l1d.invalidate(v_line)
        fabric = self.fabric
        if v_state is _MODIFIED:
            self.counters.evictions_dirty += 1
            self.counters.l2_reads += 1
            self.wb_buffer.add(v_line)
            fabric.send_msg(
                CoherenceMsg(_DIRTY_WB, v_line, self.core,
                             fabric.home_of(v_line)),
                now,
            )
        else:
            self.counters.evictions_clean += 1
            if not self._dirkb:
                fabric.send_msg(
                    CoherenceMsg(_EVICT_NOTIFY, v_line, self.core,
                                 fabric.home_of(v_line)),
                    now,
                )
