"""Set-associative cache state with LRU replacement.

The simulator tracks caches at line granularity: a line id is the
"address".  Each line has an MSI state; timing and energy live in the
controllers, this class is pure state.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class CacheState(Enum):
    INVALID = "I"
    SHARED = "S"
    MODIFIED = "M"

    # Identity hash (see MsgType): members are singletons and states are
    # hashed on the simulator's hottest paths.
    __hash__ = object.__hash__


#: Bound once: an enum member read through its class costs about ten
#: times a module-global read, and every miss returns this one.
_INVALID = CacheState.INVALID

#: What every set reads as until its first install.  Never written: only
#: ``install`` adds keys, and only to a set's own dict; ``lookup``,
#: ``set_state(..., INVALID)`` and ``invalidate`` read it or pop from it,
#: a no-op on an empty dict.
_EMPTY_SET: dict[int, CacheState] = {}


class SetAssocCache:
    """An LRU set-associative cache of line ids.

    Parameters
    ----------
    n_sets / associativity:
        Geometry; capacity = ``n_sets * associativity`` lines.
    """

    __slots__ = ("n_sets", "associativity", "_sets")

    def __init__(self, n_sets: int, associativity: int) -> None:
        if n_sets < 1:
            raise ValueError(f"n_sets must be >= 1, got {n_sets}")
        if associativity < 1:
            raise ValueError(f"associativity must be >= 1, got {associativity}")
        self.n_sets = n_sets
        self.associativity = associativity
        # Per set, a plain dict line -> CacheState whose insertion order
        # is the LRU order (oldest first): a touch deletes the line and
        # reinserts it, and the victim is the first key.  Every set
        # starts as the one shared, always-empty ``_EMPTY_SET`` and gets
        # its own dict on its first install, so a cache's memory grows
        # with the sets a run touches, not with its geometry.
        self._sets: list[dict[int, CacheState]] = [_EMPTY_SET] * n_sets

    # ------------------------------------------------------------------
    def lookup(self, line: int, touch: bool = True) -> CacheState:
        """State of a line (``INVALID`` if absent); updates LRU on hit."""
        s = self._sets[line % self.n_sets]
        state = s.get(line)
        if state is None:
            return _INVALID
        if touch:
            del s[line]
            s[line] = state
        return state

    def install(self, line: int, state: CacheState) -> tuple[int, CacheState] | None:
        """Insert/overwrite a line; returns the evicted ``(line, state)``
        if the set overflowed, else ``None``."""
        if state is _INVALID:
            raise ValueError("cannot install a line in INVALID state")
        idx = line % self.n_sets
        s = self._sets[idx]
        if s is _EMPTY_SET:
            self._sets[idx] = {line: state}
            return None
        if line in s:
            del s[line]
            s[line] = state
            return None
        victim = None
        if len(s) >= self.associativity:
            lru = next(iter(s))
            victim = (lru, s.pop(lru))
        s[line] = state
        return victim

    def set_state(self, line: int, state: CacheState) -> None:
        """Change the state of a resident line (or drop it via INVALID)."""
        s = self._sets[line % self.n_sets]
        if state is _INVALID:
            s.pop(line, None)
            return
        if line not in s:
            raise KeyError(f"line {line} not resident")
        s[line] = state

    def invalidate(self, line: int) -> CacheState:
        """Drop a line; returns its previous state (INVALID if absent)."""
        s = self._sets[line % self.n_sets]
        return s.pop(line, _INVALID)
