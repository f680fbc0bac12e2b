"""Deterministic fault injection for sanitizer validation.

Each injector corrupts one layer of an already-constructed system in a
way the protocol itself tolerates silently (no crash, no hang in the
un-sanitized simulator for stale-sharer/double-reserve) but that the
sanitizer must flag.  They exist to prove the sanitizer *catches*
real classes of bugs -- the fuzzer's ``--inject`` mode and
``tests/sanitizer/test_fault_injection.py`` are built on them.

Every injector returns a small state dict whose ``"fired"`` entry
records whether the fault actually triggered during the run; a fuzz
case where the fault never fires is simply uninteresting, not a miss.
Injectors that corrupt a seam are ``fault`` probes
(:mod:`repro.sim.probes`), stacked outside the sanitizer and telemetry.
"""

from __future__ import annotations

from repro.coherence.messages import CoherenceMsg, MsgType
from repro.network.engine import PortResource
from repro.sim.probes import Probe, install

#: Injectable fault names (CLI vocabulary).
FAULTS = ("drop-ack", "stale-sharer", "double-reserve")


def inject_fault(system, fault: str, nth: int = 1) -> dict:
    """Arm ``fault`` on ``system``; returns its mutable state dict.

    Must be called after construction (which installs the sanitizer and
    telemetry probes) and before ``run()``.  ``nth`` selects which
    opportunity triggers (1-based).
    """
    if nth < 1:
        raise ValueError(f"nth must be >= 1, got {nth}")
    if fault == "drop-ack":
        probe = _DropAck(nth)
        install(system, probe)
        return probe.state
    if fault == "stale-sharer":
        return _stale_sharer(system, nth)
    if fault == "double-reserve":
        return _double_reserve(system)
    raise ValueError(f"unknown fault {fault!r}; choose from {FAULTS}")


class _DropAck(Probe):
    """Silently drop the nth INV_ACK at the fabric boundary.

    Models a lost acknowledgement: the home's transaction never
    completes, the requester blocks forever, and the run deadlocks --
    which the sanitizer reports as a structured ``deadlock`` violation
    with the stuck transaction's state attached.
    """

    kind = "fault"

    def __init__(self, nth: int) -> None:
        self.state = {"fault": "drop-ack", "seen": 0, "fired": False}
        self.nth = nth

    def send_msg(self, inner, msg: CoherenceMsg, time: int) -> None:
        state = self.state
        if msg.mtype is MsgType.INV_ACK and not state["fired"]:
            state["seen"] += 1
            if state["seen"] == self.nth:
                state["fired"] = True
                return  # dropped on the wire
        inner(msg, time)


def _stale_sharer(system, nth: int) -> dict:
    """Append a bogus sharer pointer on the nth directory sharer add.

    Models directory-state corruption (a bit flip in a sharer vector).
    ACKwise keeps exact sharer lists, so the extra pointer disagrees
    with the actual cache states and the sanitizer's quiescent
    directory-consistency check flags it.  (Under Dir_kB a stale
    pointer is architecturally legal -- silent evictions create them --
    so this fault is only meaningful on ACKwise configs.)
    """
    state = {"fault": "stale-sharer", "seen": 0, "fired": False}
    compute = system.compute_cores

    for directory in system.directories.values():
        orig = directory._add_sharer

        def _add_sharer(entry, core, _orig=orig):
            _orig(entry, core)
            if state["fired"] or entry.global_bit:
                return
            state["seen"] += 1
            if state["seen"] < nth:
                return
            for bogus in compute:
                if bogus != core and bogus not in entry.sharers:
                    entry.sharers.append(bogus)
                    state["fired"] = True
                    return

        directory._add_sharer = _add_sharer
    return state


class _DoubleReservedPort(PortResource):
    """A port that grants overlapping reservations: it hands out start
    times but never advances ``free_at``, so its ``busy_cycles`` end up
    exceeding the span it was ever reserved for."""

    __slots__ = ("state",)

    def __init__(self, state: dict) -> None:
        super().__init__()
        self.state = state

    def reserve(self, earliest: int, duration: int) -> int:
        start = max(earliest, self.free_at)
        self.busy_cycles += duration  # accounted, but the slot is not held
        if duration > 0:
            self.state["fired"] = True
        return start


class _MeshDoubleReserve(Probe):
    """Credit a mesh's port 0 with a phantom span on the first send."""

    kind = "fault"

    def __init__(self, state: dict, network) -> None:
        self.state = state
        self.counts = network._xleg_flits
        # The one-hop X leg from core 0 to column 1 crosses port 0 (core
        # 0's east port) alone, so its count credits exactly that port.
        self.slot = network._xlegs.index((0,))

    def net_send(self, inner, src, dst, size_bits, t):
        if not self.state["fired"]:
            self.state["fired"] = True
            self.counts[self.slot] += 1_000_000
        return inner(src, dst, size_bits, t)


def _double_reserve(system) -> dict:
    """Break one network port's reservation discipline.

    On hybrid (ATAC) networks the first receive-net port is replaced
    with a double-booking implementation; on the pure-mesh networks the
    equivalent accounting corruption is applied to port 0's occupancy
    count directly (the mesh keeps flat arrays, not port objects).  Either
    way the end-of-run port audit sees ``busy_cycles`` > reserved span.
    """
    state = {"fault": "double-reserve", "fired": False}
    network = system.network
    receive_nets = getattr(network, "receive_nets", None)
    if receive_nets:
        receive_nets[0].replace_port(0, _DoubleReservedPort(state))
    else:
        install(system, _MeshDoubleReserve(state, network))
    return state
