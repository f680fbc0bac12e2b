"""Instrumentation shims installed by the sanitizer.

Everything here exists only inside a sanitized system: an unsanitized
:class:`~repro.sim.system.ManycoreSystem` never constructs these
objects, so the sanitizer's cost is strictly zero when disabled (the
repo benchmark, ``perfbench/``, fails any untraced run that imports
``repro.sanitizer``).

* :class:`SanitizedEventQueue` -- drop-in :class:`EventQueue` that
  routes every schedule and dispatch through the sanitizer, which
  keeps a ring buffer of dispatched events, enforces monotonic
  simulation time and tracks messages in flight.
* :class:`L2CacheProxy` / :class:`L1CacheProxy` -- transparent wrappers
  around :class:`~repro.coherence.cache.SetAssocCache` that report
  every state change, letting the sanitizer maintain a cross-cache
  holder index (the basis of the SWMR and directory-consistency
  checks) in O(1) per change instead of O(cores) per check.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.coherence.cache import CacheState
from repro.sim.eventq import _NO_ARG, EventQueue

#: Bound once: an enum member read through its class costs about ten
#: times a module-global read, and the proxies test one per state change.
_INVALID = CacheState.INVALID
_MODIFIED = CacheState.MODIFIED


class SanitizedEventQueue(EventQueue):
    """Event queue that hands every event to the sanitizer.

    Only ``schedule`` differs from :class:`EventQueue`: each event is
    queued as ``(sanitizer.dispatch, (callback, arg))``, one entry in
    its time's bucket at the position the bare event would take, so the
    inherited ``run`` drains it in the same order with the same
    ``max_events`` semantics and a sanitized run stays byte-identical to
    an unsanitized one (``tests/sanitizer`` locks this in).
    """

    __slots__ = ("_san",)

    def __init__(self, sanitizer) -> None:
        super().__init__()
        self._san = sanitizer

    def schedule(
        self, time: int, callback: Callable, arg: Any = _NO_ARG
    ) -> None:
        super().schedule(time, self._san.dispatch, (callback, arg))
        if arg is not _NO_ARG:
            self._san.on_schedule(time, callback, arg)


class _CacheProxy:
    """Delegating wrapper base; unknown attributes fall through."""

    __slots__ = ("inner", "san", "core")

    def __init__(self, inner, sanitizer, core: int) -> None:
        self.inner = inner
        self.san = sanitizer
        self.core = core

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def lookup(self, line: int, touch: bool = True) -> CacheState:
        return self.inner.lookup(line, touch)


class L2CacheProxy(_CacheProxy):
    """Reports every L2 MSI state change to the sanitizer."""

    __slots__ = ()

    def install(self, line: int, state: CacheState):
        victim = self.inner.install(line, state)
        san, core = self.san, self.core
        san.l2_changed(core, line, state)
        if victim is not None:
            san.l2_removed(core, victim[0])
        return victim

    def set_state(self, line: int, state: CacheState) -> None:
        self.inner.set_state(line, state)
        if state is _INVALID:
            self.san.l2_removed(self.core, line)
        else:
            self.san.l2_changed(self.core, line, state)

    def invalidate(self, line: int) -> CacheState:
        prev = self.inner.invalidate(line)
        if prev is not _INVALID:
            self.san.l2_removed(self.core, line)
        return prev


class L1CacheProxy(_CacheProxy):
    """Checks L1-in-L2 containment on every L1 fill.

    The L1s are write-through and private, so every resident L1 line
    must also be resident in the same core's L2, and an L1 line can
    only be MODIFIED if the L2 copy is.
    """

    __slots__ = ("l2",)

    def __init__(self, inner, sanitizer, core: int, l2) -> None:
        super().__init__(inner, sanitizer, core)
        self.l2 = l2  # the *unwrapped* L2 cache of the same core

    def install(self, line: int, state: CacheState):
        l2_state = self.l2.lookup(line, touch=False)
        if l2_state is _INVALID:
            self.san.violation(
                "l1-containment",
                f"core {self.core} filled L1 line {line} absent from its L2",
                details={"core": self.core, "address": line},
            )
        if state is _MODIFIED and l2_state is not _MODIFIED:
            self.san.violation(
                "l1-containment",
                f"core {self.core} holds L1 line {line} MODIFIED over a "
                f"{l2_state.name} L2 copy",
                details={"core": self.core, "address": line,
                         "l2_state": l2_state.name},
            )
        return self.inner.install(line, state)
